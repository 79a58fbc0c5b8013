"""The benchmark's tracer finds in decrv every internal it reads: a probe
that misses one reports None, and the traced run then has no number for
that per-layer metric."""

import importlib.util
import json
import math
import os
import subprocess
import sys

from decrv import cli, registry, simulator

from conftest import benchmark_gen

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# per-layer metrics that benchmarks/run.py works out itself
RUN_METRICS = {
    "cli.import_s",
    "trace.overhead",
    "replay_rounds_per_s",
    "messages_per_round",
    "verdict_delay_p50_rounds",
    "verdict_delay_p999_rounds",
    "verdict_delay_samples",
}


def _benchmark_tracer():
    path = os.path.join(ROOT, "benchmarks", "tracer.py")
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_operations_give_every_layer_metric(monkeypatch, tmp_path):
    tracing = _benchmark_tracer()
    # install() replaces these attributes; monkeypatch puts each one back
    for _, owner, attr in tracing.SPANS:
        monkeypatch.setattr(owner, attr, getattr(owner, attr, None), raising=False)
    monkeypatch.setattr(simulator, "ThreadPoolExecutor", simulator.ThreadPoolExecutor)
    tracer = tracing.install()
    simulator.run_simulation(registry.bundled("amiqual"), benchmark_gen().sticky_trace(0, 5))
    synth = ["synth", "--rooms", "2", "--centralized", "sc_ok", "--out", str(tmp_path)]
    assert cli.main(synth) == 0
    metrics = tracing.layer_metrics(tracer)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["per_layer"]]
    assert RUN_METRICS <= set(names)
    missing = [
        name for name in names
        if name not in RUN_METRICS and not isinstance(metrics.get(name), (int, float))
    ]
    assert missing == []
    assert metrics["simulator.run_simulation.calls"] == 1
    assert metrics["synthesis.synthesize.calls"] >= 1


def _strict(constant):
    raise ValueError(f"not strict JSON: {constant}")


def _traced_op(*args) -> dict:
    """Run ``benchmarks/op.py`` with ``args`` in a fresh interpreter and
    parse its last stdout line as strict JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "op.py"), *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1], parse_constant=_strict)


def test_traced_operations_end_with_a_strict_json_result(tmp_path):
    gen = benchmark_gen()
    manifest = gen.write_logs(str(tmp_path), gen.busy_trace(0, 20), 1000)
    cli_argv = [
        "replay", "amiqual", manifest, "--start", "0", "--end", "20000",
        "--interval", "1000", "--delivery", "reorder:3:0", "--out", str(tmp_path / "cli"),
    ]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["per_layer"] if m["name"] not in RUN_METRICS]
    for args in (["sticky", "0", "5", str(tmp_path / "sticky"), "1"], ["cli", "--", *cli_argv]):
        layers = _traced_op(*args)["layers"]
        bad = {
            name: layers.get(name) for name in names
            if not (
                isinstance(layers.get(name), (int, float))
                and not isinstance(layers.get(name), bool)
                and math.isfinite(layers[name])
            )
        }
        assert bad == {}, args[0]
    assert (tmp_path / "cli" / "verdicts.csv").exists()
