"""Pinned report digests of two ``amiqual`` replays.

A change to the replay's hot path must leave ``verdicts.csv``,
``metrics.csv`` (simplification counts and peak EHE sizes included),
``summary.txt`` and ``timeline.tsv`` byte for byte as they were.  The
sticky trace has lamp faults about 240 rounds apart, so a sticky
monitor's backlog is concluded by hundreds of instances in one round; the
busy trace replays through ``decrv replay`` on CSV logs with reordered
delivery and symbolic rows.
"""

import hashlib

from decrv import registry
from decrv.cli import main
from decrv.simulator import run_simulation

from conftest import benchmark_gen

FILES = ("verdicts.csv", "metrics.csv", "summary.txt", "timeline.tsv")


def _digests(texts):
    return [hashlib.sha256(text.encode()).hexdigest() for text in texts]


def test_sticky_gap240_replay_digests():
    trace = benchmark_gen(fault_gap_mean=240).sticky_trace(0, 400)
    report = run_simulation(registry.bundled("amiqual"), trace)
    texts = (report.verdicts_csv(), report.metrics_csv(), report.summary_txt(), report.timeline_tsv())
    assert _digests(texts) == [
        "2ec4c8c14bae9d0d472fb3ecacd305513365e4369bb355d57b43b4e859b0d746",
        "c6b7d20d64d99e5b437532f14d2208280505d8c82c11dcd4053cbedd864926a0",
        "4239d79cf8375172c908aff902468726801b400f71b3a9d6c4df5cfe68cb434c",
        "6fededb584a383f6a125f4dae65f3dbba807808eda00dc8c8aaf86729acc0741",
    ]


def test_busy_reorder3_cli_replay_digests(tmp_path, capsys):
    gen = benchmark_gen()
    manifest = gen.write_logs(str(tmp_path), gen.busy_trace(1, 220), 1000)
    out = tmp_path / "out"
    argv = [
        "replay", "amiqual", manifest, "--start", "0", "--end", "220000",
        "--interval", "1000", "--delivery", "reorder:3:1", "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert _digests((out / name).read_text() for name in FILES) == [
        "95002bc92c4a809b2e2041e601bbbe3d60bc51061ccfa5cce5e3e744a90dfb63",
        "b26fac1e1df4ff9408f36eb2ca26329230518714da378451ad61aa12db6da4b7",
        "7fba3ebfd4eb360885a1d86b1e8a8cc66f49773bb1cd9fe78d35c70f87d8b8c7",
        "a4952f77988e1ac28b6d80592a557b79e1561a5d79622fb4e598c39a1c7fd662",
    ]
