"""tools/longrun.py: a long CLI replay in a fresh process, measured."""

import hashlib
import os
import subprocess
import sys

from decrv import registry
from decrv.simulator import run_simulation

from conftest import benchmark_gen

LONGRUN = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "longrun.py")


def test_longrun_reports_rounds_resources_and_report_digests(tmp_path):
    out = subprocess.run(
        [sys.executable, LONGRUN, "--rounds", "50", "--dir", str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    lines = out.stdout.splitlines()
    assert lines[0] == "rounds 50"
    key, wall = lines[1].split()
    assert key == "wall_s" and float(wall) > 0
    key, rss = lines[2].split()
    assert key == "ru_maxrss_mb" and float(rss) > 0
    digests = dict(line.split()[1:] for line in lines[3:])
    assert sorted(digests) == sorted(("verdicts.csv", "metrics.csv", "timeline.tsv", "summary.txt"))
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest
    # the logs poll back to the trace they were written from
    report = run_simulation(registry.bundled("amiqual"), benchmark_gen().sticky_trace(0, 50))
    assert hashlib.sha256(report.verdicts_csv().encode()).hexdigest() == digests["verdicts.csv"]
