"""The benchmark's tracer finds in decrv every internal it reads: a probe
that misses one reports None, and the traced run then has no number for
that per-layer metric."""

import importlib.util
import json
import os

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
