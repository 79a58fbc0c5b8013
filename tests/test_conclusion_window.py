"""Conclusion-window oracle check of an ``amiqual`` replay.

An LTL3 final verdict never changes, so a final verdict about round t,
concluded with delay d, must be the oracle's verdict on the rounds the
replay had seen: ``evaluate3(inlined formula, trace[t : t + d + 1])``.
Unlike the h+1-round windows of the brute-force differential, this also
covers the infinite-horizon monitors.  It checks soundness only: a delay
that is too long, or an UNKNOWN that should have been final, passes.
"""

import importlib.util
import os

import pytest

from decrv import oracle, registry
from decrv.simulator import DeliveryPolicy, SimulationOptions, run_simulation

ROUNDS = 150
# monitors whose oracle checks stay cheap: 41 of amiqual's 49
MAX_ELEMENTARY = 20
INFINITE_HORIZON = {"sc_light_0", "sc_light_1", "sc_light_2", "sc_light_3", "sc_ok"}


def _gen():
    """The benchmark's seeded trace generator (standard library only)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "gen.py")
    spec = importlib.util.spec_from_file_location("benchmark_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "kind, delivery",
    [("sticky", DeliveryPolicy()), ("busy", DeliveryPolicy("reorder", 3))],
    ids=["sticky-immediate", "busy-reorder3"],
)
def test_final_verdicts_match_oracle_on_conclusion_window(kind, delivery):
    reg = registry.bundled("amiqual")
    trace = getattr(_gen(), f"{kind}_trace")(0, ROUNDS)
    report = run_simulation(reg, trace, SimulationOptions(delivery=delivery, seed=0))
    finals = {}
    for label, log in sorted(report.verdicts.items()):
        formula = reg.inline(label)
        if oracle.elementary_count(formula) > MAX_ELEMENTARY:
            continue
        finals[label] = 0
        for t, rec in enumerate(log):
            if rec.verdict.final:
                want = oracle.evaluate3(formula, trace[t : t + rec.delay + 1])
                assert rec.verdict is want, f"{label}@{t}+{rec.delay}: {rec.verdict}, oracle {want}"
                finals[label] += 1
    assert len(finals) == 41
    assert all(finals[label] for label in INFINITE_HORIZON)
