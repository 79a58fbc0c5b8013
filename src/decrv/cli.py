"""Command-line entry point: synth, replay, rates, eval.

Exit codes: 0 success, 1 usage/parse error, 2 validation error,
3 capacity/timeout.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING, Optional

from . import ltl, registry
from .base import CapacityError, ValidationError
from .verdicts import Verdict

if TYPE_CHECKING:  # imported by the commands that run it
    from . import simulator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive(kind):
    """argparse type: a ``kind`` value above zero."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="decrv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize monitors", parents=[])
    synth.add_argument("target", nargs="?", help="formula, spec file, or bundled spec name")
    one = synth.add_mutually_exclusive_group()
    one.add_argument("--label", help="synthesize only this monitor")
    one.add_argument("--centralized", metavar="LABEL", help="inline references first")
    synth.add_argument("--rooms", type=_positive(int), help="generate the n-room light-switch spec")
    synth.add_argument("--max-states", type=_positive(int), default=None)
    synth.add_argument("--timeout", type=_positive(float), default=None, help="seconds")
    synth.add_argument("--out", help="directory for .dot and transition-list files")
    synth.set_defaults(func=cmd_synth)

    replay = sub.add_parser("replay", help="replay sensor traces through a spec")
    replay.add_argument("spec", help="spec file or bundled spec name")
    replay.add_argument("manifest", help="periphery manifest file")
    replay.add_argument("--start", type=int, required=True)
    replay.add_argument("--end", type=int, required=True)
    replay.add_argument("--interval", type=int, required=True)
    replay.add_argument("--out", default=".", help="report directory")
    replay.add_argument("--labels", help="comma-separated monitor subset")
    replay.add_argument("--no-gc", action="store_true")
    replay.add_argument("--eager-ehe", action="store_true")
    replay.add_argument("--delivery", default="immediate",
                        help="immediate | delay:N | reorder:N:SEED")
    replay.add_argument("--max-states", type=_positive(int), default=None)
    replay.set_defaults(func=cmd_replay)

    rates = sub.add_parser("rates", help="sensor change-rate analysis")
    rates.add_argument("manifest")
    rates.add_argument("spec", nargs="?", help="restrict to sensors a spec uses")
    rates.set_defaults(func=cmd_rates)

    evalp = sub.add_parser("eval", help="score verdicts against annotations")
    evalp.add_argument("verdicts", help="verdicts.csv from replay")
    evalp.add_argument("annotations", help="label,start_round,end_round file")
    evalp.set_defaults(func=cmd_eval)
    return parser


def _load_spec(name: str) -> registry.Registry:
    if os.path.exists(name):
        return registry.load_registry_file(name)
    try:
        return registry.bundled(name)
    except FileNotFoundError:
        raise FileNotFoundError(f"no spec file or bundled spec named {name!r}") from None


def cmd_synth(args) -> int:
    if args.rooms is not None:
        reg: Optional[registry.Registry] = registry.light_switch_family(args.rooms)
    elif args.target is None:
        print("decrv synth: a target or --rooms is required", file=sys.stderr)
        return EXIT_USAGE
    elif os.path.exists(args.target) or args.target.endswith(".dspec"):
        reg = registry.load_registry_file(args.target)
    else:
        try:
            reg = registry.bundled(args.target)
        except FileNotFoundError:
            reg = None
    if reg is None and (args.label is not None or args.centralized is not None):
        print("decrv synth: --label and --centralized need a spec, not a formula", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    if reg is None:
        formula = ltl.parse(args.target)
        _synth_one("formula", formula, args)
        return EXIT_OK

    if args.centralized:
        labels = [args.centralized]
    elif args.label:
        labels = [args.label]
    else:
        labels = list(reg.monitors)
    for label in labels:
        if label not in reg.monitors:
            raise registry.SpecError(f"unknown monitor {label!r}")
        formula = reg.inline(label) if args.centralized else reg.monitors[label].formula
        _synth_one(label, formula, args)
    return EXIT_OK


def _synth_one(name: str, formula: ltl.Formula, args) -> None:
    from . import synthesis

    started = time.monotonic()
    raw = synthesis.synthesize(formula, args.max_states, args.timeout)
    monitor = synthesis.minimize(raw)
    elapsed_ms = (time.monotonic() - started) * 1000
    edges = sum(len(e) for e in monitor.edge_events())
    print(
        f"{name} states={monitor.n_states} transitions={edges} time_ms={elapsed_ms:.1f}"
        f" subset_states={raw.n_states}"
    )
    if args.out:
        with open(os.path.join(args.out, f"{name}.dot"), "w", encoding="utf-8") as f:
            f.write(monitor.to_dot() + "\n")
        with open(os.path.join(args.out, f"{name}.txt"), "w", encoding="utf-8") as f:
            f.write(monitor.to_transition_list() + "\n")


def _parse_delivery(text: str) -> tuple[simulator.DeliveryPolicy, int]:
    """Policy and seed; only reorder draws random numbers, from its SEED."""
    from . import simulator

    parts = text.split(":")
    if parts[0] == "immediate" and len(parts) == 1:
        return simulator.DeliveryPolicy("immediate"), 0
    if parts[0] == "delay" and len(parts) == 2 and int(parts[1]) >= 0:
        return simulator.DeliveryPolicy("delay", int(parts[1])), 0
    if parts[0] == "reorder" and len(parts) == 3 and int(parts[1]) >= 0:
        return simulator.DeliveryPolicy("reorder", int(parts[1])), int(parts[2])
    raise ValueError(f"bad --delivery value {text!r}")


def cmd_replay(args) -> int:
    from . import simulator, traceio

    delivery, seed = _parse_delivery(args.delivery)
    reg = _load_spec(args.spec)
    if args.labels is not None:
        reg = reg.restrict([l.strip() for l in args.labels.split(",")])
    peripheries = traceio.load_manifest(args.manifest)
    config = traceio.PollConfig(args.start, args.end, args.interval)
    options = simulator.SimulationOptions(
        delivery=delivery,
        seed=seed,
        gc_enabled=not args.no_gc,
        lazy_enabled=not args.eager_ehe,
        max_states=args.max_states,
    )
    report = simulator.run_simulation(reg, traceio.poll_trace(peripheries, config), options)
    os.makedirs(args.out, exist_ok=True)
    for filename, write in (
        ("verdicts.csv", report.write_verdicts_csv),
        ("metrics.csv", report.write_metrics_csv),
        ("timeline.tsv", report.write_timeline_tsv),
        ("summary.txt", report.write_summary_txt),
    ):
        with open(os.path.join(args.out, filename), "w", encoding="utf-8") as f:
            write(f)
    report.write_summary_txt(sys.stdout)
    return EXIT_OK


def cmd_rates(args) -> int:
    from . import traceio

    peripheries = traceio.load_manifest(args.manifest)
    used = None
    if args.spec:
        reg = _load_spec(args.spec)
        used = set().union(*reg.own.values())
    report = traceio.rate_analysis(peripheries, used)
    print("ap\ttype\tfile\tmin\tmax\tskipped")
    for row in report.rows:
        lo = "-" if row.min_gap is None else str(row.min_gap)
        hi = "-" if row.max_gap is None else str(row.max_gap)
        print(f"{row.ap}\t{row.kind}\t{row.origin}\t{lo}\t{hi}\t{'yes' if row.skipped else 'no'}")
    if report.min_gap is not None:
        print(f"aggregate_min {report.min_gap}")
        print(f"aggregate_max {report.max_gap}")
        print(f"recommended_interval {report.recommended_interval}")
    else:
        print("no changing sensors")
    return EXIT_OK


def _read_verdicts_csv(path: str) -> dict[str, dict[int, Verdict]]:
    out: dict[str, dict[int, Verdict]] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("round,"):
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns")
            try:
                t, verdict, delay = int(fields[0]), Verdict(fields[2]), int(fields[3])
                if delay < 0:
                    raise ValueError(f"negative delay {delay}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            rounds = out.setdefault(fields[1], {})
            if t in rounds:
                raise ValueError(f"{path}:{lineno}: second row for {fields[1]!r} at round {t}")
            rounds[t] = verdict
    return out


def cmd_eval(args) -> int:
    from . import evaluation

    verdicts = _read_verdicts_csv(args.verdicts)
    with open(args.annotations, encoding="utf-8") as handle:
        annotations = evaluation.parse_annotations(handle.read())
    for label in sorted(set(verdicts) - set(annotations)):
        print(f"warning: no annotations for {label!r}", file=sys.stderr)
    for label in sorted(set(annotations) - set(verdicts)):
        print(f"warning: no verdicts for {label!r}", file=sys.stderr)

    def fmt(x: Optional[float]) -> str:
        return "NA" if x is None else f"{x:.3f}"

    print("label\ttp\tfp\tinterval_rounds\tprecision\trecall\tf1")
    for label in sorted(set(annotations) & set(verdicts)):
        s = evaluation.score(verdicts[label], annotations[label])
        print(
            f"{label}\t{s.tp}\t{s.fp}\t{s.interval_rounds}\t"
            f"{fmt(s.precision)}\t{fmt(s.recall)}\t{fmt(s.f1)}"
        )
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"decrv: capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValidationError as exc:
        print(f"decrv: validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:  # parse, sensor and annotation errors too
        print(f"decrv: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
