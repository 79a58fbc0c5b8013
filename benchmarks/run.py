"""decrv benchmark: one workload per call, every operation in a fresh
interpreter, every output checked.

    python3 benchmarks/run.py --workload amiqual-sticky --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

Run from anywhere; the program under test is ``src/`` of the checkout that
holds this file.  Inputs are generated from ``--seed`` under
``.bench_work/``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` lists.  A run is a closed loop: one operation at a time
until ``--seconds`` is used up, at least two (one untraced and one traced
with ``--trace 1``).  Set-up probes and the output checks run outside the
timed operations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(HERE, "expected")

WORKLOADS = ("amiqual-sticky", "amiqual-cli", "synth-central4")
DEFAULT_SEED = 0
STICKY_ROUNDS = 250
CLI_ROUNDS = 220
INTERVAL_MS = 1000
REORDER_DELAY = 3
SETUP_PROBES = 5
ORACLE_SAMPLES = 100
OP_TIMEOUT_S = 70  # two stuck operations still end the run within 180 s

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class Op:
    """One finished child process; ``data`` is the JSON object that an
    op.py child prints last."""

    def __init__(self, code: int, wall_s: float, rss_mb: float, stdout: str, stderr: str, reports: bool):
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.errors: list[str] = []
        self.outdir = ""
        self.traced = False
        self.data: dict = {}
        if code != 0:
            self.errors.append(f"exit code {code}: {stderr.strip()[-400:]}")
        elif reports:
            try:
                self.data = json.loads(stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                self.errors.append("no result line")


def run_child(argv: list[str], tag: str) -> Op:
    """Run a child to completion; ``argv`` running op.py means it reports."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    out_path = os.path.join(WORK, f"{tag}.out")
    err_path = os.path.join(WORK, f"{tag}.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # wait4 reaped it
    with open(out_path) as f_out, open(err_path) as f_err:
        reports = argv[1:2] == [os.path.join(HERE, "op.py")]
        return Op(proc.returncode, wall, usage.ru_maxrss / 1024, f_out.read(), f_err.read(), reports)


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


class Workload:
    """Inputs, operations and output checks of one workload."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.dir = os.path.join(WORK, name)
        self.rounds = 0
        self.n_ops = 0

    def prepare(self) -> None:
        import gen

        os.makedirs(self.dir)
        if self.name == "amiqual-sticky":
            self.rounds = STICKY_ROUNDS
            self.trace = gen.sticky_trace(self.seed, STICKY_ROUNDS)
        elif self.name == "amiqual-cli":
            self.rounds = CLI_ROUNDS
            self.trace = gen.busy_trace(self.seed, CLI_ROUNDS)
            self.manifest = gen.write_logs(self.dir, self.trace, INTERVAL_MS)

    def setup_probe(self) -> Op:
        return run_child(
            [sys.executable, os.path.join(HERE, "op.py"), "setup", self.name],
            f"{self.name}-setup",
        )

    def operation(self, traced: bool) -> Op:
        """Run one operation; its outputs land in ``op.outdir``."""
        self.n_ops += 1
        outdir = os.path.join(self.dir, f"out{self.n_ops}")
        op_py = [sys.executable, os.path.join(HERE, "op.py")]
        if self.name == "amiqual-sticky":
            argv = op_py + ["sticky", str(self.seed), str(self.rounds), outdir, str(int(traced))]
        else:
            if self.name == "amiqual-cli":
                args = [
                    "replay", "amiqual", self.manifest,
                    "--start", "0", "--end", str(self.rounds * INTERVAL_MS),
                    "--interval", str(INTERVAL_MS),
                    "--delivery", f"reorder:{REORDER_DELAY}:{self.seed}",
                    "--out", outdir,
                ]
            else:
                args = ["synth", "--rooms", "4", "--centralized", "sc_ok", "--out", outdir]
            argv = op_py + ["cli", "--"] + args if traced else [sys.executable, "-m", "decrv.cli"] + args
        op = run_child(argv, f"{self.name}-{self.n_ops}")
        op.outdir = outdir
        op.traced = traced
        return op

    def check(self, ops: list[Op]) -> None:
        """Attach output problems to each op (outside the timed region)."""
        import checks

        output = "sc_ok.txt" if self.name == "synth-central4" else "verdicts.csv"
        for op in ops:
            if not op.errors and not os.path.isfile(os.path.join(op.outdir, output)):
                op.errors.append(f"no {output}")
        done = [op for op in ops if not op.errors]
        if self.name == "synth-central4":
            with open(os.path.join(EXPECTED, "central4_sc_ok.txt")) as f:
                reference = f.read()
            for op in done:
                with open(os.path.join(op.outdir, output)) as f:
                    op.errors += checks.automaton_errors(f.read(), reference)
            return

        paths = {op: os.path.join(op.outdir, output) for op in done}
        digests = {op: checks.sha256(path) for op, path in paths.items()}
        if self.seed == DEFAULT_SEED:
            with open(os.path.join(EXPECTED, "verdicts_sha256.json")) as f:
                expected = json.load(f)[self.name]
            for op in done:
                op.errors += checks.digest_errors(paths[op], expected)
        if not done:
            return
        first = done[0]
        for op in done[1:]:
            if digests[op] != digests[first]:
                op.errors.append("verdicts differ from the run's first operation")
        from decrv import registry

        reg = registry.bundled("amiqual")
        pairs = checks.sample_pairs(reg, self.rounds, self.seed, ORACLE_SAMPLES)
        wrong = checks.oracle_errors(reg, self.trace, checks.read_verdicts(paths[first]), pairs)
        if wrong:
            for op in done:
                if digests[op] == digests[first]:
                    op.errors += wrong[:3]

    def replay_metrics(self, op: Op) -> dict:
        """Paper metrics of one replay, from the files it wrote."""
        if self.name == "synth-central4" or op.errors:
            return {
                "messages_per_round": 0.0,
                "verdict_delay_p50_rounds": 0,
                "verdict_delay_p999_rounds": 0,
                "verdict_delay_samples": 0,
            }
        import checks

        with open(os.path.join(op.outdir, "metrics.csv")) as f:
            msgs = [int(line.split(",")[1]) for line in list(f)[1:]]
        delays = sorted(
            d for v, d in checks.read_verdicts(os.path.join(op.outdir, "verdicts.csv")).values()
            if v != "UNKNOWN"
        )
        return {
            "messages_per_round": sum(msgs) / len(msgs),
            "verdict_delay_p50_rounds": nearest_rank(delays, 0.5),
            "verdict_delay_p999_rounds": nearest_rank(delays, 0.999),
            "verdict_delay_samples": len(delays),
        }


def nearest_rank(values: list, q: float):
    if not values:
        return 0
    return values[max(0, math.ceil(len(values) * q) - 1)]


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    w = Workload(workload, seed)
    shutil.rmtree(w.dir, ignore_errors=True)
    os.makedirs(WORK, exist_ok=True)
    w.prepare()
    started = time.perf_counter()

    w.setup_probe()  # compiles bytecode; not measured
    # set-up probes are spread over the run, one ahead of each operation,
    # so that they see the same machine as the operations do
    probes: list[Op] = []
    ops: list[Op] = []
    while True:
        plain = [op for op in ops if not op.traced]
        tracing = [op for op in ops if op.traced]
        want_traced = traced and len(tracing) < len(plain)
        enough = (len(plain) >= 1 and len(tracing) >= 1) if traced else len(plain) >= 2
        if enough:
            pool = tracing if want_traced else plain
            estimate = median(op.wall_s for op in pool) + median(p.wall_s for p in probes)
            if time.perf_counter() - started + estimate > seconds:
                break
        probes.append(w.setup_probe())
        ops.append(w.operation(want_traced))
    while len(probes) < SETUP_PROBES:
        probes.append(w.setup_probe())

    w.check(ops)
    print(f"{workload}: operation wall_s {[round(op.wall_s, 3) for op in ops]}", file=sys.stderr)
    failed = [op for op in probes + ops if op.errors]
    for op in failed:
        print(f"failed: {op.errors[0]}", file=sys.stderr)
    plain = [op for op in ops if not op.traced and not op.errors]
    tracing = [op for op in ops if op.traced and not op.errors]

    if not traced:
        metrics = {
            "setup_s": median(p.data.get("setup_s") for p in probes),
            "wall_s": median(op.wall_s for op in plain),
            "peak_rss_mb": median(op.rss_mb for op in plain),
        }
        units = E2E_UNITS
    else:
        layers = [op.data["layers"] for op in tracing]
        metrics = {}
        for key in layers[0] if layers else ():
            values = [layer[key] for layer in layers]
            metrics[key] = None if None in values else statistics.median(values)
        metrics["cli.import_s"] = median(p.data.get("import_s") for p in probes)
        traced_wall = median(op.wall_s for op in tracing)
        plain_wall = median(op.wall_s for op in plain)
        metrics["trace.overhead"] = (
            traced_wall / plain_wall if traced_wall and plain_wall else None
        )
        sim_s = None
        if workload == "amiqual-sticky":
            sim_s = median(op.data["sim_s"] for op in plain)
        metrics["replay_rounds_per_s"] = w.rounds / sim_s if sim_s else 0.0
        if plain:
            metrics.update(w.replay_metrics(plain[0]))
        units = layer_units()

    return {
        "correct": not failed,
        "attempted": len(probes) + len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }


def layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "decrv", "cli.py")):
        print(f"run.py: no decrv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Operations inherit one CPU.  On a small VM, waking an idle second
    # vCPU for each hand-off of the CLI's per-round thread pool costs up to
    # milliseconds under host load, which made amiqual-cli's wall time swing
    # by 40% between runs; on one CPU the pool still costs 10-30% over
    # --sequential.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.workload == "all":
        # one process per workload: a child's ru_maxrss counts the memory of
        # the process that spawned it, and checks load decrv into this one
        results = {}
        for name in WORKLOADS:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            results[name] = json.loads(child.stdout.strip().splitlines()[-1])
    else:
        results = {args.workload: run(args.workload, args.seed, args.seconds, bool(args.trace))}
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"{name}\t{key}\t{m['value']}\t{m['unit']}")
        print(f"{name}\tfailed_share\t{res['failed'] / res['attempted']}\tratio")
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": m for name, r in results.items() for key, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
