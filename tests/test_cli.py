"""Command-line interface: subcommands, outputs, exit codes."""

import itertools
import os

import pytest

from decrv import ltl, oracle, registry, synthesis
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


def test_replay_delivery_flags(workspace):
    code, _ = _replay(workspace, "delayed", "--delivery", "delay:2")
    assert code == 0
    code, _ = _replay(workspace, "reordered", "--delivery", "reorder:2:7")
    assert code == 0
    code, _ = _replay(workspace, "bad", "--delivery", "teleport")
    assert code == 1


def test_replay_sequential_matches_parallel(workspace):
    _, par = _replay(workspace, "par")
    _, seq = _replay(workspace, "seq", "--sequential")
    assert (par / "verdicts.csv").read_bytes() == (seq / "verdicts.csv").read_bytes()


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


def test_eval_missing_file_exit_code(tmp_path):
    assert main(["eval", str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")]) == 1
