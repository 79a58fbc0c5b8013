"""One benchmark operation in a fresh interpreter; the last line of stdout
is a JSON object with what it measured.

    python3 benchmarks/op.py setup <workload>
    python3 benchmarks/op.py sticky <seed> <rounds> <outdir> <trace 0|1>
    python3 benchmarks/op.py cli -- <decrv arguments>        (traced CLI)

Module-level caches in decrv (built monitors, guard templates, interned
expressions) make repeated operations in one process unequal, so every
operation gets its own interpreter.
"""

from __future__ import annotations

import json
import os
import sys
import time

STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def _import_cli():
    import decrv.cli

    if not os.path.abspath(decrv.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"decrv was imported from {decrv.cli.__file__}, not {SRC}")
    return decrv.cli


def _build_all(reg) -> None:
    from decrv import synthesis

    for decl in reg.monitors.values():
        synthesis.build(decl.formula)


def setup(workload: str) -> dict:
    """Fresh interpreter to ready: import the CLI, load the spec and, for
    replays, build every monitor."""
    _import_cli()
    imported = time.perf_counter()
    from decrv import registry

    if workload == "synth-central4":
        registry.light_switch_family(4).inline("sc_ok")
    else:
        _build_all(registry.bundled("amiqual"))
    return {"import_s": imported - STARTED, "setup_s": time.perf_counter() - STARTED}


def sticky(seed: int, rounds: int, outdir: str, traced: bool) -> dict:
    _import_cli()
    tracer = None
    if traced:
        import tracer as tracer_mod

        tracer = tracer_mod.install()
    from decrv import registry, simulator

    reg = registry.bundled("amiqual")
    _build_all(reg)

    import gen

    trace = gen.sticky_trace(seed, rounds)
    t0 = time.perf_counter()
    report = simulator.run_simulation(reg, trace)
    sim_s = time.perf_counter() - t0

    os.makedirs(outdir, exist_ok=True)
    for name, text in (
        ("verdicts.csv", report.verdicts_csv()),
        ("metrics.csv", report.metrics_csv()),
    ):
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as f:
            f.write(text)
    out = {"sim_s": sim_s}
    if tracer is not None:
        out["layers"] = tracer_mod.layer_metrics(tracer)
    return out


def traced_cli(argv: list[str]) -> dict:
    cli = _import_cli()
    import tracer as tracer_mod

    tracer = tracer_mod.install()
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(code)
    return {"layers": tracer_mod.layer_metrics(tracer)}


def main(argv: list[str]) -> None:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        result = setup(rest[0])
    elif mode == "sticky":
        result = sticky(int(rest[0]), int(rest[1]), rest[2], rest[3] == "1")
    elif mode == "cli":
        result = traced_cli(rest[1:] if rest[:1] == ["--"] else rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
