"""Command-line interface: subcommands, outputs, exit codes."""

import itertools
import os
import subprocess
import sys
import threading

import pytest

from decrv import ltl, oracle, registry, simulator, synthesis
from decrv.cli import main
from decrv.verdicts import Verdict

SPEC = """
component sw { s }
component lamp { l }
monitor light @ lamp := l
monitor sc_light @ sw := G(s -> X(light U !s))
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "pair.dspec").write_text(SPEC)
    (tmp_path / "s.csv").write_text("0,ON\n")
    (tmp_path / "l.csv").write_text("0,OFF\n")
    (tmp_path / "sensors.manifest").write_text(
        "s, s.csv, bool, default=false\nl, l.csv, bool, default=false\n"
    )
    return tmp_path


def test_synth_formula(capsys):
    assert main(["synth", "G(s -> X(light U !s))"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("formula states=3 transitions=")


def test_synth_spec_file(workspace, capsys):
    out_dir = workspace / "monitors"
    code = main(
        ["synth", str(workspace / "pair.dspec"), "--out", str(out_dir)]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("light states=") for line in lines)
    assert any(line.startswith("sc_light states=") for line in lines)
    assert (out_dir / "light.dot").exists()
    assert (out_dir / "sc_light.txt").exists()


def test_synth_single_label(workspace, capsys):
    assert main(["synth", str(workspace / "pair.dspec"), "--label", "light"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("light ")


def test_synth_rooms_decentralized_vs_centralized(capsys):
    assert main(["synth", "--rooms", "2", "--label", "sc_ok"]) == 0
    decentralized = int(capsys.readouterr().out.split("states=")[1].split()[0])
    assert main(["synth", "--rooms", "2", "--centralized", "sc_ok"]) == 0
    centralized = int(capsys.readouterr().out.split("states=")[1].split()[0])
    assert centralized > decentralized


def test_synth_reports_subset_states(capsys):
    assert main(["synth", "--rooms", "3", "--centralized", "sc_ok"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("sc_ok states=9 ") and line.endswith(" subset_states=101")


def test_synth_bundled(capsys):
    assert main(["synth", "amiqual", "--label", "firehazard"]) == 0
    assert capsys.readouterr().out.startswith("firehazard states=")


def test_synth_all_labels_exports_match_each_monitor(tmp_path, capsys):
    # One process exports all 49 monitors and drops each after its export,
    # so a guard cache keyed by object identity hands a later monitor the
    # guards of an earlier one.  A second export gives a reused id more
    # chances to collide.
    for run in ("a", "b"):
        assert main(["synth", "amiqual", "--out", str(tmp_path / run)]) == 0
    capsys.readouterr()
    reg = registry.bundled("amiqual")
    for (label, spec), run in itertools.product(reg.monitors.items(), ("a", "b")):
        m = synthesis.build(spec.formula)
        edges: dict[int, list[tuple[ltl.Formula, int]]] = {}
        labels = {}
        for line in (tmp_path / run / f"{label}.txt").read_text().splitlines():
            if " --" not in line:
                q, verdict = line.split()
                labels[int(q[1:])] = verdict
                continue
            src, rest = line.split(" --", 1)
            guard, dst = rest.rsplit("--> ", 1)
            edges.setdefault(int(src[1:]), []).append((ltl.parse(guard), int(dst[1:])))
        assert labels == {q: str(v) for q, v in enumerate(m.labels)}, label
        for q in range(m.n_states):
            for mask in range(m.n_events):
                event = {p: bool(mask >> i & 1) for i, p in enumerate(m.alphabet)}
                hits = [
                    dst
                    for guard, dst in edges[q]
                    if oracle.evaluate3(guard, [event]) is Verdict.TRUE
                ]
                assert hits == [m.step(q, mask)], (label, q, event)


def test_synth_capacity_exit_code(capsys):
    code = main(["synth", "--rooms", "2", "--centralized", "sc_ok", "--max-states", "4"])
    assert code == 3
    assert "capacity" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-states", "0"),
        ("--max-states", "-3"),
        ("--timeout", "0"),
        ("--timeout", "-1"),
        ("--rooms", "0"),
        ("--rooms", "-2"),
    ],
)
def test_non_positive_limits_are_usage_errors(workspace, capsys, flag, value):
    code = main(["synth", "--rooms", "2", "--centralized", "sc_ok", flag, value])
    assert code == 1
    assert "must be positive" in capsys.readouterr().err
    if flag == "--max-states":
        code, out = _replay(workspace, "limits", flag, value)
        assert code == 1
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--label", "--centralized"])
def test_synth_formula_rejects_monitor_flags(tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert main(["synth", "G(s -> X(light U !s))", flag, "light", "--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_synth_label_and_centralized_are_exclusive(capsys):
    assert main(["synth", "--rooms", "2", "--label", "nosuch", "--centralized", "sc_ok"]) == 1
    assert "not allowed with" in capsys.readouterr().err


def test_synth_parse_error_exit_code(capsys):
    assert main(["synth", "G(s -> "]) == 1


def test_synth_unknown_label_exit_code(workspace):
    assert main(["synth", str(workspace / "pair.dspec"), "--label", "nope"]) == 2


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1
    assert main(["bogus"]) == 1


def _replay(workspace, out_name, *extra):
    out = workspace / out_name
    code = main(
        [
            "replay", str(workspace / "pair.dspec"),
            str(workspace / "sensors.manifest"),
            "--start", "0", "--end", "10", "--interval", "1",
            "--out", str(out), *extra,
        ]
    )
    return code, out


def test_replay_outputs(workspace, capsys):
    code, out = _replay(workspace, "run")
    assert code == 0
    for name in ("verdicts.csv", "metrics.csv", "summary.txt", "timeline.tsv"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "rounds 10" in stdout
    verdicts = (out / "verdicts.csv").read_text().splitlines()
    assert verdicts[0] == "round,label,verdict,delay"
    # switch on, light off: sc_light is violated from round 0
    assert "0,sc_light,FALSE," in verdicts[1] + "".join(verdicts)


def test_replay_no_gc_identical_verdicts(workspace):
    _, base = _replay(workspace, "gc_on")
    _, nogc = _replay(workspace, "gc_off", "--no-gc")
    assert (base / "verdicts.csv").read_bytes() == (nogc / "verdicts.csv").read_bytes()


def test_replay_label_subset(workspace):
    code, out = _replay(workspace, "subset", "--labels", "light")
    assert code == 0
    rows = (out / "verdicts.csv").read_text().splitlines()[1:]
    assert rows and all(",light," in row for row in rows)


@pytest.mark.parametrize("labels", ["", "light,"])
def test_replay_empty_label_is_validation_error(workspace, labels):
    code, out = _replay(workspace, "empty_label", "--labels", labels)
    assert code == 2
    assert not out.exists()


def test_replay_starts_no_thread(workspace, monkeypatch):
    def refuse(self):
        raise AssertionError(f"replay started thread {self.name!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, out = _replay(workspace, "one_thread")
    assert code == 0
    assert (out / "verdicts.csv").exists()


def test_replay_writes_reports_without_rendering_them(workspace, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("verdicts.csv rendered as one string")

    monkeypatch.setattr(simulator.SimulationReport, "verdicts_csv", refuse)
    code, out = _replay(workspace, "written")
    assert code == 0
    verdicts = (out / "verdicts.csv").read_text().splitlines()
    assert verdicts[0] == "round,label,verdict,delay"
    assert len(verdicts) == 1 + 2 * 10
    assert capsys.readouterr().out == (out / "summary.txt").read_text()


def test_failed_replay_leaves_no_report_files(workspace, capsys):
    # the lamp's sensor is missing: the replay fails at round 0
    (workspace / "sensors.manifest").write_text("s, s.csv, bool, default=false\n")
    code, out = _replay(workspace, "failed")
    assert code == 2
    assert "no trace source for 'l' at round 0" in capsys.readouterr().err
    assert not out.exists()


def test_replay_delivery_flags(workspace):
    code, _ = _replay(workspace, "delayed", "--delivery", "delay:2")
    assert code == 0
    code, _ = _replay(workspace, "reordered", "--delivery", "reorder:2:7")
    assert code == 0
    code, _ = _replay(workspace, "bad", "--delivery", "teleport")
    assert code == 1


def test_replay_bad_delivery_reported_before_missing_manifest(workspace, capsys):
    # the flag is checked before any log is loaded
    code = main(
        [
            "replay", str(workspace / "pair.dspec"),
            str(workspace / "ghost.manifest"),
            "--start", "0", "--end", "10", "--interval", "1",
            "--delivery", "bogus",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "bad --delivery value 'bogus'" in err
    assert "ghost.manifest" not in err


@pytest.mark.parametrize("value", ["delay:-1", "reorder:-2:0"])
def test_replay_negative_delivery_delay_is_usage_error(workspace, capsys, value):
    # a bad flag value exits 1, like any other usage error
    code, _ = _replay(workspace, "negative", "--delivery", value)
    assert code == 1
    assert f"bad --delivery value {value!r}" in capsys.readouterr().err


def test_replay_reorder_seed_drives_delivery(workspace, capsys):
    # the seed is the SEED of reorder:N:SEED; there is no separate flag
    runs = {}
    for name, seed in (("first", 1), ("other", 2), ("again", 1)):
        code, out = _replay(workspace, name, "--delivery", f"reorder:2:{seed}")
        assert code == 0
        runs[name] = [
            (out / f).read_bytes()
            for f in ("verdicts.csv", "metrics.csv", "summary.txt", "timeline.tsv")
        ]
    assert runs["first"] == runs["again"]
    assert runs["first"] != runs["other"]
    capsys.readouterr()
    code, out = _replay(workspace, "seed_flag", "--seed", "3")
    assert code != 0
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("end", ["3", "10"])
def test_replay_rejects_bad_log_value_outside_the_window(workspace, capsys, end):
    # round 5 holds a bad token: a window that ends before it fails the same
    (workspace / "s.csv").write_text("0,ON\n5,MAYBE\n")
    code = main(
        [
            "replay", str(workspace / "pair.dspec"), str(workspace / "sensors.manifest"),
            "--start", "0", "--end", end, "--interval", "1", "--out", str(workspace / "out"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "s.csv" in err and "'MAYBE'" in err


def test_replay_non_integer_timestamp_is_parse_error(workspace, capsys):
    (workspace / "l.csv").write_text("0,OFF\n1.5,ON\n")
    code, out = _replay(workspace, "run")
    assert code == 1
    assert capsys.readouterr().err == (
        f"decrv: error: {workspace / 'l.csv'}:2: non-integer timestamp '1.5'\n"
    )
    assert not out.exists()


def test_replay_missing_spec_exit_code(workspace):
    code = main(
        [
            "replay", str(workspace / "ghost.dspec"),
            str(workspace / "sensors.manifest"),
            "--start", "0", "--end", "10", "--interval", "1",
        ]
    )
    assert code == 1


def test_replay_bad_window_exit_code(workspace):
    code, _ = _replay(workspace, "badwin", "--interval", "0")
    assert code == 1


@pytest.mark.parametrize(
    "kind, reading, message",
    [
        ("thresh:nan:below", "1.5", "manifest line 1: bad threshold 'nan'"),
        ("thresh:2:below", "nan", "s.csv: non-finite value 'nan'"),
    ],
)
def test_non_finite_threshold_or_reading_exit_code(workspace, capsys, kind, reading, message):
    (workspace / "s.csv").write_text(f"0,{reading}\n")
    (workspace / "sensors.manifest").write_text(
        f"s, s.csv, {kind}, default=false\nl, l.csv, bool, default=false\n"
    )
    assert main(["rates", str(workspace / "sensors.manifest")]) == 1
    assert message in capsys.readouterr().err
    code, _ = _replay(workspace, "nonfinite")
    assert code == 1
    assert message in capsys.readouterr().err


def test_rates(workspace, capsys):
    (workspace / "s.csv").write_text("0,ON\n1000,OFF\n4000,ON\n")
    assert main(["rates", str(workspace / "sensors.manifest")]) == 0
    out = capsys.readouterr().out
    assert "aggregate_min 1000" in out
    assert "aggregate_max 3000" in out
    assert "recommended_interval 1000" in out
    # the constant l sensor is reported but skipped
    assert "\tyes" in out


def test_rates_with_spec_filter(workspace, capsys):
    assert main(
        ["rates", str(workspace / "sensors.manifest"), str(workspace / "pair.dspec")]
    ) == 0
    out = capsys.readouterr().out
    assert out.count("\tbool\t") == 2  # both s and l are used by the spec


def test_eval(workspace, capsys):
    _, out = _replay(workspace, "run_eval")
    capsys.readouterr()
    (workspace / "ann.csv").write_text("light,0,9\nsc_light,0,9\nghost,0,1\n")
    code = main(
        ["eval", str(out / "verdicts.csv"), str(workspace / "ann.csv")]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "no verdicts for 'ghost'" in captured.err
    lines = captured.out.splitlines()
    assert lines[0] == "label\ttp\tfp\tinterval_rounds\tprecision\trecall\tf1"
    light_row = next(l for l in lines if l.startswith("light\t"))
    # light is off for the whole window: no true positives, precision NA
    assert light_row.split("\t")[1] == "0"
    assert "NA" in light_row


def test_eval_bad_annotations_exit_code(workspace, tmp_path):
    _, out = _replay(workspace, "run_eval2")
    (workspace / "bad.csv").write_text("light,9,5\n")
    assert main(["eval", str(out / "verdicts.csv"), str(workspace / "bad.csv")]) == 1


@pytest.mark.parametrize(
    "row",
    [
        "1,light,MAYBE,0",
        "one,light,TRUE,0",
        "0,light,FALSE,0",  # a second row for (light, 0)
        "1,light,TRUE,zz",
        "1,light,TRUE,-1",
    ],
)
def test_eval_bad_verdict_row_reports_location(tmp_path, capsys, row):
    verdicts = tmp_path / "verdicts.csv"
    verdicts.write_text(f"round,label,verdict,delay\n0,light,TRUE,0\n{row}\n")
    (tmp_path / "ann.csv").write_text("light,0,1\n")
    assert main(["eval", str(verdicts), str(tmp_path / "ann.csv")]) == 1
    assert f"{verdicts}:3: " in capsys.readouterr().err


def test_eval_missing_file_exit_code(tmp_path):
    assert main(["eval", str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")]) == 1


def test_cli_import_loads_neither_sympy_nor_networkx():
    src = os.path.dirname(os.path.dirname(synthesis.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, decrv.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'networkx')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _loaded_modules(code: str, *flags: str) -> list[str]:
    """Run ``code`` in a fresh interpreter, started with ``flags``, that
    prints ``sys.modules``."""
    src = os.path.dirname(os.path.dirname(synthesis.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += "; import sys; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1].split()


def test_cli_import_generates_no_record_code():
    loaded = _loaded_modules("import decrv.cli")
    assert "decrv.cli" in loaded
    assert {"dataclasses", "inspect"} & set(loaded) == set()


def test_synth_loads_no_replay_module(tmp_path):
    argv = ["synth", "--rooms", "2", "--centralized", "sc_ok", "--out", str(tmp_path)]
    loaded = _loaded_modules(f"from decrv.cli import main; assert main({argv!r}) == 0")
    assert "decrv.synthesis" in loaded
    replay = {
        "decrv.simulator",
        "decrv.traceio",
        "decrv.ehe",
        "decrv.memory",
        "decrv.evaluation",
        "concurrent.futures",
    }
    assert replay & set(loaded) == set()
    assert (tmp_path / "sc_ok.txt").exists()


def test_replay_loads_no_thread_pool_or_logging(workspace):
    argv = [
        "replay", str(workspace / "pair.dspec"), str(workspace / "sensors.manifest"),
        "--start", "0", "--end", "10", "--interval", "1", "--out", str(workspace / "out"),
    ]
    loaded = _loaded_modules(f"from decrv.cli import main; assert main({argv!r}) == 0")
    assert {"decrv.simulator", "decrv.traceio"} <= set(loaded)
    assert {"concurrent.futures", "logging"} & set(loaded) == set()


def test_rates_and_eval_load_no_synthesis(workspace):
    (workspace / "verdicts.csv").write_text("round,label,verdict,delay\n0,light,TRUE,0\n")
    (workspace / "ann.csv").write_text("light,0,0\n")
    rates = ["rates", str(workspace / "sensors.manifest"), str(workspace / "pair.dspec")]
    evals = ["eval", str(workspace / "verdicts.csv"), str(workspace / "ann.csv")]
    loaded = _loaded_modules(
        f"from decrv.cli import main; assert main({rates!r}) == 0; assert main({evals!r}) == 0"
    )
    assert {"decrv.traceio", "decrv.evaluation"} <= set(loaded)
    assert "decrv.synthesis" not in loaded


def test_bundled_spec_loads_without_importlib_resources():
    # -S: no site hooks, which may import importlib.resources themselves
    loaded = _loaded_modules("from decrv import registry; registry.bundled('amiqual')", "-S")
    assert "decrv.registry" in loaded
    assert "importlib.resources" not in loaded
