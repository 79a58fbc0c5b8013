"""Self-test of the benchmark's input generator and output checks:
one corrupted verdict or guard must count as a failed operation.

    python3 -m pytest benchmarks/test_checks.py -q
"""

from __future__ import annotations

import os
import re
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

ROUNDS = 80


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _op(outdir: str) -> run.Op:
    op = run.Op(0, 1.0, 1.0, "", "", reports=False)
    op.outdir = outdir
    return op


def _files(root) -> dict[str, bytes]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_same_seed_gives_identical_files(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.write_logs(str(tmp_path / name), gen.busy_trace(seed, 50), 1000)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert gen.sticky_trace(5, 60) == gen.sticky_trace(5, 60) != gen.sticky_trace(6, 60)


@pytest.fixture(scope="module")
def sticky_run():
    from decrv import registry, simulator

    trace = gen.sticky_trace(1, ROUNDS)
    report = simulator.run_simulation(registry.bundled("amiqual"), trace)
    return trace, report.verdicts_csv()


def _corrupt(csv_text: str, label: str, t: int) -> str:
    swap = {"TRUE": "FALSE", "FALSE": "TRUE", "UNKNOWN": "TRUE"}
    return re.sub(
        rf"^{t},{label},(\w+),",
        lambda m: f"{t},{label},{swap[m[1]]},",
        csv_text,
        count=1,
        flags=re.M,
    )


def _sticky_workload(trace) -> run.Workload:
    w = run.Workload("amiqual-sticky", seed=1)
    w.rounds, w.trace = ROUNDS, trace
    return w


def test_corrupted_verdict_counts_as_failure(tmp_path, sticky_run, monkeypatch):
    from decrv import registry

    trace, good = sticky_run
    pairs = checks.sample_pairs(registry.bundled("amiqual"), ROUNDS, 1, run.ORACLE_SAMPLES)
    monkeypatch.setattr(checks, "sample_pairs", lambda *args: pairs)
    label, t, _ = pairs[0]
    bad = _corrupt(good, label, t)
    assert bad != good

    ops = [_op(str(tmp_path / name)) for name in ("good", "bad")]
    _write(os.path.join(ops[0].outdir, "verdicts.csv"), good)
    _write(os.path.join(ops[1].outdir, "verdicts.csv"), bad)
    _sticky_workload(trace).check(ops)
    assert ops[0].errors == []
    assert ops[1].errors  # differs from the run's first operation

    alone = _op(str(tmp_path / "alone"))
    _write(os.path.join(alone.outdir, "verdicts.csv"), bad)
    _sticky_workload(trace).check([alone])
    assert any(f"{label}@{t}" in e for e in alone.errors)  # the oracle disagrees


def test_digest_mismatch_is_reported(tmp_path):
    path = tmp_path / "verdicts.csv"
    path.write_text("round,label,verdict,delay\n0,a,TRUE,0\n")
    assert checks.digest_errors(str(path), checks.sha256(str(path))) == []
    assert checks.digest_errors(str(path), "0" * 64)


def _reference() -> str:
    with open(os.path.join(run.EXPECTED, "central4_sc_ok.txt")) as f:
        return f.read()


def test_renumbered_or_rewritten_automaton_passes():
    ref = _reference()
    n = sum(1 for line in ref.splitlines() if re.match(r"^q\d+ \w+$", line))
    # reverse the numbering of every state but the initial one
    renumbered = re.sub(r"q(\d+)", lambda m: f"q{0 if m[1] == '0' else n - int(m[1])}", ref)
    assert checks.automaton_errors(renumbered, ref) == []
    # same guards, different text: operands of plain conjunctions reversed
    rewritten = re.sub(
        r"--([^|()\n]*)-->",
        lambda m: "--" + " & ".join(reversed(m[1].split(" & "))) + "-->",
        ref,
    )
    assert rewritten != ref
    assert checks.automaton_errors(rewritten, ref) == []


def test_corrupted_guard_counts_as_failure(tmp_path):
    ref = _reference()
    first_edge = next(line for line in ref.splitlines() if "-->" in line)
    wrong = first_edge.replace("!s0", "s0", 1)
    assert wrong != first_edge
    bad = ref.replace(first_edge, wrong, 1)
    ops = [_op(str(tmp_path / name)) for name in ("good", "bad")]
    _write(os.path.join(ops[0].outdir, "sc_ok.txt"), ref)
    _write(os.path.join(ops[1].outdir, "sc_ok.txt"), bad)
    run.Workload("synth-central4", seed=1).check(ops)
    assert ops[0].errors == []
    assert ops[1].errors


def test_absent_internals_read_as_null(monkeypatch):
    from decrv import expr, memory, simulator

    import tracer

    for _, owner, attr in tracer.SPANS:  # undo install() after the test
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    monkeypatch.delattr(simulator, "ThreadPoolExecutor")
    monkeypatch.delattr(expr, "_interned")
    t = tracer.install()
    enc = types.SimpleNamespace(t_last=2, monitor=types.SimpleNamespace(alphabet=("a",)))
    t._smove_after(0, None, (enc, 2, None, memory.Memory()))
    layers = tracer.layer_metrics(t)
    assert layers["simulator.pools_created"] is None
    assert layers["expr.interned_nodes"] is None
    assert layers["ehe.rows_expanded"] == 2
    assert layers["ehe.concrete_row_share"] is None
