"""End-to-end acceptance gate.

Each test implements one acceptance criterion at its stated tolerance:

1. simulator/oracle agreement on 1,000 random decentralized scenarios
2. garbage collection never changes verdicts and strictly lowers peak memory
3. lazy expansion is sound and shrinks the peak encoding by >= 40%
4. bundled smart-home spec reproduces the published proposition/depth table
5. steady-state message rate equals the structural DAG-edge prediction
6. centralized synthesis blows up where decentralized synthesis stays fast
7. change-rate analysis is exact and recommended-rate polling loses nothing
8. activity scoring matches independent counting to 1e-9
"""

import math
import random
import time

import pytest

from decrv import ltl, oracle, registry, synthesis, traceio
from decrv.evaluation import score
from decrv.registry import bundled, light_switch_family
from decrv.simulator import SimulationOptions, run_simulation
from decrv.verdicts import Verdict

from conftest import ap_counts, random_scenario, random_trace, steady_state_message_rate


def test_criterion_1_oracle_equivalence_1000_scenarios():
    rng = random.Random(20240 + 1)
    started = time.monotonic()
    checked = 0
    for _ in range(1000):
        reg, trace, options = random_scenario(rng)
        report = run_simulation(reg, trace, options)
        for label in reg.monitors:
            inlined = reg.inline(label)
            for t, rec in enumerate(report.verdicts[label]):
                if not rec.verdict.final:
                    continue
                expected = oracle.evaluate3(inlined, trace, t)
                assert rec.verdict is expected, (label, t, ltl.render(inlined))
                checked += 1
    elapsed = time.monotonic() - started
    assert checked > 1000  # the corpus exercised real conclusions
    assert elapsed < 60.0, f"1000 scenarios took {elapsed:.1f}s"


def test_criterion_2_gc_neutrality_differential():
    rng = random.Random(77)
    for _ in range(200):
        reg, trace, options = random_scenario(rng)
        on = run_simulation(
            reg, trace, SimulationOptions(
                delivery=options.delivery, seed=options.seed,
                lazy_enabled=options.lazy_enabled, gc_enabled=True,
            )
        )
        off = run_simulation(
            reg, trace, SimulationOptions(
                delivery=options.delivery, seed=options.seed,
                lazy_enabled=options.lazy_enabled, gc_enabled=False,
            )
        )
        assert on.verdicts_csv().encode() == off.verdicts_csv().encode()


def _quiescent_runs():
    pair = registry.load_registry(
        """
component sw { s }
component lamp { l }
monitor light @ lamp := l
monitor sc_light @ sw := G(s -> X(light U !s))
"""
    )
    chain = registry.load_registry(
        """
component c0 { a }
component c1 { b }
monitor m0 @ c1 := b | X b
monitor m1 @ c0 := a | F<=3 m0
"""
    )
    rooms = light_switch_family(2)
    yield pair, [{"s": False, "l": False}] * 1000
    yield chain, [{"a": False, "b": False}] * 1000
    yield rooms, [
        {f"s{i}": False for i in range(2)} | {f"l{i}": False for i in range(2)}
    ] * 1000


def test_criterion_2_gc_lowers_peak_memory_on_quiescent_runs():
    for reg, trace in _quiescent_runs():
        on = run_simulation(reg, trace, SimulationOptions(gc_enabled=True))
        off = run_simulation(reg, trace, SimulationOptions(gc_enabled=False))
        assert on.verdicts_csv() == off.verdicts_csv()
        assert on.peak_memory < off.peak_memory, (
            on.peak_memory, off.peak_memory,
        )


def test_criterion_3_lazy_expansion_soundness_and_benefit():
    reg = bundled("lazy_demo")
    trace = [{"a": False, "b": False}] * 10_000
    started = time.monotonic()
    lazy = run_simulation(reg, trace, SimulationOptions(lazy_enabled=True))
    eager = run_simulation(reg, trace, SimulationOptions(lazy_enabled=False))
    elapsed = time.monotonic() - started
    assert lazy.verdicts == eager.verdicts
    lazy_peak = max(lazy.max_ehe_size_per_round)
    eager_peak = max(eager.max_ehe_size_per_round)
    reduction = 1 - lazy_peak / eager_peak
    assert reduction >= 0.40, f"reduction only {reduction:.2%}"
    assert elapsed < 30.0, f"10k-round runs took {elapsed:.1f}s"


# (label, decentralized |AP|, centralized |AP|, reference depth)
TABLE_ROWS = [
    ("sc_light_0", 2, 2, 1),
    ("sc_light_1", 2, 2, 1),
    ("sc_light_2", 2, 2, 1),
    ("sc_light_3", 2, 2, 1),
    ("sc_ok", 4, 8, 2),
    ("toilet", 1, 1, 0),
    ("sink_usage", 1, 2, 1),
    ("shower_usage", 1, 2, 1),
    ("napping", 1, 1, 1),
    ("dressing", 2, 3, 1),
    ("reading", 3, 5, 2),
    ("office_tv", 1, 1, 1),
    ("computing", 1, 1, 1),
    ("cooking", 2, 2, 1),
    ("washing_dishes", 2, 3, 1),
    ("kactivity", 4, 9, 1),
    ("preparing", 2, 11, 2),
    ("livingroom_tv", 2, 2, 1),
    ("eating", 2, 2, 1),
    ("actfloor0", 6, 16, 3),
    ("actfloor1", 7, 11, 3),
    ("acthouse", 2, 27, 4),
    ("notwopeople", 2, 27, 4),
    ("restricttv", 2, 3, 3),
    ("firehazard", 2, 3, 2),
]


def test_criterion_4_table_reproduction_exact():
    reg = bundled("amiqual")
    assert len(TABLE_ROWS) >= 22
    for label, dec, cent, depth in TABLE_ROWS:
        assert ap_counts(reg, label) == (dec, cent), label
        assert reg.depths[label] == depth, label


def _steady_measured(reg, rounds=120, warmup=40):
    props = sorted(set().union(*reg.own.values()))
    trace = [{p: False for p in props} for _ in range(rounds)]
    report = run_simulation(reg, trace)
    window = report.messages_per_round[warmup:]
    return sum(window) / len(window)


def test_criterion_5_message_rate_structure():
    rates = {}
    for name in ("adl", "adl_h", "adl_h2"):
        reg = bundled(name)
        predicted = steady_state_message_rate(reg)
        measured = _steady_measured(reg)
        assert measured == predicted, (name, measured, predicted)
        rates[name] = predicted
    assert rates["adl_h"] - rates["adl"] == 15
    assert rates["adl_h2"] - rates["adl_h"] == 2
    assert abs(rates["adl"] - 24) <= 2


def test_criterion_6_decentralized_synthesis_is_fast():
    reg = light_switch_family(4)
    for label, decl in reg.monitors.items():
        started = time.monotonic()
        synthesis.synthesize(ltl.desugar(decl.formula))
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, (label, elapsed)


def test_criterion_6_centralized_synthesis_blows_up():
    # Known-red: this asserts a historically observed capacity failure for
    # the 3-room centralized formula, but the reachability-restricted subset
    # construction used here synthesizes it directly (~100 intermediate
    # states, well under the 2^20 ceiling).  Kept failing rather than
    # crippling the synthesizer to force the blowup.
    reg = light_switch_family(3)
    inlined = ltl.desugar(reg.inline("sc_ok"))
    with pytest.raises(synthesis.SynthesisCapacityError):
        synthesis.synthesize(inlined, timeout=60.0)


def test_criterion_7_rate_analysis_exactness():
    log = traceio.SensorLog((0, 1000, 4000, 4500), ("ON", "OFF", "ON", "ON"))
    constant = traceio.SensorLog((0, 700), ("ON", "ON"))
    report = traceio.rate_analysis(
        [traceio.Periphery("x", log), traceio.Periphery("c", constant)]
    )
    x, c = report.rows
    assert (x.min_gap, x.max_gap, x.skipped) == (1000, 3000, False)
    assert (c.min_gap, c.max_gap, c.skipped) == (None, None, True)
    assert report.recommended_interval == 1000


def test_criterion_7_recommended_rate_polling_loses_no_change():
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randint(2, 10)
        times = sorted(rng.sample(range(0, 2000), n))
        values = ["ON"]
        for _t in times[1:]:
            values.append(
                ("OFF" if values[-1] == "ON" else "ON")
                if rng.random() < 0.7 else values[-1]
            )
        p = traceio.Periphery("x", traceio.SensorLog(tuple(times), tuple(values)))
        changes = p.changes()
        if len(changes) < 2:
            continue
        interval = traceio.rate_analysis([p]).recommended_interval
        config = traceio.PollConfig(0, times[-1] + interval + 1, interval)
        sampled = [event["x"] for event in traceio.poll_trace([p], config)]
        # run-length decode both streams: the change count must match
        sampled_changes = [sampled[0] is True] + [
            True for a, b in zip(sampled, sampled[1:]) if a != b
        ]
        observed = sum(1 for f in sampled_changes if f)
        assert observed >= len(changes), (times, values)


def test_criterion_8_scoring_matches_independent_counting():
    rng = random.Random(99)
    T, F, U = Verdict.TRUE, Verdict.FALSE, Verdict.UNKNOWN
    for _ in range(300):
        verdicts = {t: rng.choice([T, F, U]) for t in range(rng.randint(1, 60))}
        bounds = sorted(rng.sample(range(70), 2 * rng.randint(0, 3)))
        intervals = [
            (bounds[i], bounds[i + 1] - 1)
            for i in range(0, len(bounds), 2)
            if bounds[i] < bounds[i + 1]
        ]
        inside = {t for a, b in intervals for t in range(a, b + 1)}
        tp = sum(1 for t, v in verdicts.items() if v is T and t in inside)
        fp = sum(1 for t, v in verdicts.items() if v is T and t not in inside)
        s = score(verdicts, intervals)
        assert (s.tp, s.fp) == (tp, fp)
        if tp + fp:
            assert math.isclose(s.precision, tp / (tp + fp), abs_tol=1e-9)
        if inside:
            assert math.isclose(s.recall, tp / len(inside), abs_tol=1e-9)
        if s.precision is not None and s.recall is not None and s.precision + s.recall:
            harmonic = 2 / (1 / s.precision + 1 / s.recall) if s.precision and s.recall else 0.0
            assert math.isclose(s.f1, harmonic, abs_tol=1e-9)


def test_criterion_8_harmonic_identity():
    verdicts = {t: Verdict.TRUE if t < 2 else Verdict.UNKNOWN for t in range(8)}
    s = score(verdicts, [(0, 3)])
    assert (s.precision, s.recall) == (1.0, 0.5)
    assert math.isclose(s.f1, 0.667, abs_tol=5e-4)
