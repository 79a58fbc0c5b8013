"""Alternating benchmark pairs: a parent checkout against a change.

    python3 tools/pairs.py PARENT CHANGE [--pairs 10] [--seed 0]

Runs ``benchmarks/run.py --workload all --seed SEED`` of each checkout
``--pairs`` times, at the benchmark's own run length, the two sides
taking turns to go first, with ``PYTHONDONTWRITEBYTECODE=1`` so that no
run leaves bytecode for the next; give it fresh copies (``git archive``),
with no ``__pycache__`` either.
For each workload and end-to-end metric of the change's ``BENCHMARK.json``
it prints each side's median and quartiles, how many pairs the change
won, and a verdict:

- ``gain``: the change won at least 9 pairs in 10 and its median is
  better by more than the parent's interquartile range;
- ``worse``: its median is worse than the parent's by more than the
  metric's bound (a share of the parent's median);
- ``unresolved``: either side's interquartile range is wider than the
  bound, so the runs spread too widely to tell, unless every run of the
  change is better than every run of the parent;
- ``within bound``: none of these.

Each run's result line goes to stderr as it comes.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs ``(parent[i], change[i])`` in which the change is better."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on one metric from paired runs; ``bound`` is a share of
    the parent's median."""
    sign = 1 if better == "lower" else -1
    base = statistics.median(parent)
    gain = sign * (base - statistics.median(change))  # > 0: the change is better
    q1, q3 = quartiles(parent)
    if wins(parent, change, better) * 10 >= 9 * len(parent) and gain > q3 - q1:
        return "gain"
    limit = bound * abs(base)
    if -gain > limit:
        return "worse"
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "within bound"  # every change run beats every parent run
    if any(q3 - q1 > limit for q1, q3 in (quartiles(parent), quartiles(change))):
        return "unresolved"
    return "within bound"


def run_all(checkout: str, seed: int) -> dict:
    """The last line of one ``run.py --workload all --seed seed``, parsed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "benchmarks", "run.py"),
         "--workload", "all", "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, env=env,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)

    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            result = run_all(sides[name], args.seed)
            results[name].append(result)
            print(f"pair {i + 1} {name}: {json.dumps(result)}", file=sys.stderr, flush=True)

    n = args.pairs
    for name in ("parent", "change"):
        failed = sum(r["failed"] for r in results[name])
        attempted = sum(r["attempted"] for r in results[name])
        print(f"{name}: {failed} of {attempted} operations failed")
    print("workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = f"{workload['name']}/{metric['name']}"
            parent = [r["metrics"][key]["value"] for r in results["parent"]]
            change = [r["metrics"][key]["value"] for r in results["change"]]
            if None in parent or None in change:
                print(f"{workload['name']}\t{metric['name']}\tmissing")
                continue
            better = metric["better"]
            print(
                f"{workload['name']}\t{metric['name']}\t{_fmt(parent)}\t{_fmt(change)}\t"
                f"{wins(parent, change, better)}/{n}\t"
                f"{verdict(parent, change, better, metric['bound'])}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
