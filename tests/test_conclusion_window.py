"""Conclusion-window oracle check of an ``amiqual`` replay.

An LTL3 final verdict never changes, so a final verdict about round t,
concluded with delay d, must be the oracle's verdict on the rounds the
replay had seen: ``evaluate3(inlined formula, trace[t : t + d + 1])``.
Unlike the h+1-round windows of the brute-force differential, this also
covers the infinite-horizon monitors.  It checks soundness only: a delay
that is too long, or an UNKNOWN that should have been final, passes.
"""

import pytest

from decrv import oracle, registry
from decrv.simulator import DeliveryPolicy, SimulationOptions, run_simulation

from conftest import benchmark_gen

ROUNDS = 150
# lamp faults ~240 rounds apart: a sticky backlog of ~330 rounds concluded
# by as many instances in one round
GAP240_ROUNDS = 400
# monitors whose oracle checks stay cheap: 41 of amiqual's 49
MAX_ELEMENTARY = 20
INFINITE_HORIZON = {"sc_light_0", "sc_light_1", "sc_light_2", "sc_light_3", "sc_ok"}


@pytest.mark.parametrize(
    "kind, delivery, gap, rounds",
    [
        ("sticky", DeliveryPolicy(), None, ROUNDS),
        ("busy", DeliveryPolicy("reorder", 3), None, ROUNDS),
        ("sticky", DeliveryPolicy(), 240, GAP240_ROUNDS),
    ],
    ids=["sticky-immediate", "busy-reorder3", "sticky-gap240"],
)
def test_final_verdicts_match_oracle_on_conclusion_window(kind, delivery, gap, rounds):
    reg = registry.bundled("amiqual")
    trace = getattr(benchmark_gen(fault_gap_mean=gap), f"{kind}_trace")(0, rounds)
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
