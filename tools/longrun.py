"""A long ``decrv replay`` of the bundled ``amiqual`` spec, measured.

    python3 tools/longrun.py [--rounds 86400] [--dir DIR]

Writes ``--rounds`` rounds of the benchmark's sticky trace
(``benchmarks/gen.py``: ``sticky_trace``, seed 0) as one CSV change log per
sensor with ``gen.write_logs``, a round every 1,000 ms.  Then it runs
``decrv replay amiqual`` on them in a fresh interpreter, pinned with this
process to one CPU, and prints the rounds, the replay's wall time and
peak RSS (``ru_maxrss``) and the SHA-256 of each report.  Both children
import ``decrv`` from this checkout's ``src``.  The logs are written by a
child of their own: a child's ``ru_maxrss`` counts the memory of the
process that spawned it, so this one never holds the trace.  The logs and
reports go to ``--dir``, or to a temporary directory that is removed at
the end.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCHMARKS = os.path.join(ROOT, "benchmarks")
SEED = 0
INTERVAL_MS = 1000
REPORTS = ("verdicts.csv", "metrics.csv", "timeline.tsv", "summary.txt")

WRITE_LOGS = (
    "import sys; sys.path.insert(0, sys.argv[1]); import gen; "
    "gen.write_logs(sys.argv[2], gen.sticky_trace(int(sys.argv[3]), int(sys.argv[4])), "
    "int(sys.argv[5]))"
)
REPLAY = "import sys; from decrv.cli import main; sys.exit(main(sys.argv[1:]))"


def measure(directory: str, rounds: int) -> list[str]:
    """Write the logs into ``directory``, replay them into ``directory/out``
    and return the lines to print."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, "-c", WRITE_LOGS, BENCHMARKS, directory, str(SEED), str(rounds),
         str(INTERVAL_MS)],
        env=env, check=True,
    )
    out = os.path.join(directory, "out")
    argv = [
        sys.executable, "-c", REPLAY, "replay", "amiqual",
        os.path.join(directory, "sensors.manifest"), "--start", "0",
        "--end", str(rounds * INTERVAL_MS), "--interval", str(INTERVAL_MS), "--out", out,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # wait4 reaped it
    if proc.returncode != 0:
        raise SystemExit(f"longrun: decrv replay exited {proc.returncode}")
    lines = [f"rounds {rounds}", f"wall_s {wall:.2f}", f"ru_maxrss_mb {usage.ru_maxrss / 1024:.1f}"]
    for name in REPORTS:
        with open(os.path.join(out, name), "rb") as f:
            lines.append(f"sha256 {name} {hashlib.sha256(f.read()).hexdigest()}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=86_400)
    parser.add_argument("--dir", help="keep the logs and reports here")
    args = parser.parse_args(argv)
    if args.rounds <= 0:
        parser.error("--rounds must be positive")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.dir:
        os.makedirs(args.dir, exist_ok=True)
        lines = measure(args.dir, args.rounds)
    else:
        with tempfile.TemporaryDirectory() as directory:
            lines = measure(directory, args.rounds)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
