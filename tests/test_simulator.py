"""Decentralized replay: round loop, delivery policies, laziness, metrics."""

import gc
import hashlib
import os
import random
import subprocess
import sys

import pytest

from decrv import expr, ltl, oracle, registry, simulator, synthesis
from decrv.registry import load_registry
from decrv.simulator import (
    DeliveryPolicy,
    SimulationError,
    SimulationOptions,
    run_simulation,
    steady_state_message_rate,
)
from decrv.verdicts import Verdict

from conftest import benchmark_gen, random_trace

PAIR = load_registry(
    """
component sw { s }
component lamp { l }
monitor light @ lamp := l
monitor sc_light @ sw := G(s -> X(light U !s))
"""
)


def _violating_trace(n):
    # press the switch and keep the light off: violated at the start
    return [{"s": True, "l": False} for _ in range(n)]


def test_two_node_violation():
    report = run_simulation(PAIR, _violating_trace(6))
    sc = report.verdicts["sc_light"]
    assert sc[0].verdict is Verdict.FALSE
    # verdict about round 0 needs the light's round-1 verdict delivered
    assert sc[0].delay == 2
    light = report.verdicts["light"]
    assert all(light[t].verdict is Verdict.FALSE for t in range(6))
    assert all(light[t].delay == 0 for t in range(6))


def test_final_verdicts_match_oracle_on_inlined_formula():
    rng = random.Random(21)
    for _ in range(10):
        trace = random_trace(rng, ["s", "l"], 8)
        report = run_simulation(PAIR, trace)
        for label in PAIR.monitors:
            assert len(report.verdicts[label]) == report.rounds
            inlined = PAIR.inline(label)
            for t, rec in enumerate(report.verdicts[label]):
                if rec.verdict.final:
                    assert rec.verdict is oracle.evaluate3(inlined, trace, t), (
                        label, t, trace,
                    )


def test_verdict_log_has_one_record_per_round():
    # a node concludes rounds in order and the trace end fills in the rest
    rng = random.Random(4)
    for reg, props in ((PAIR, ["s", "l"]), (LAZY, ["a", "b"])):
        for n in (0, 1, 9):
            for delivery in (DeliveryPolicy(), DeliveryPolicy("reorder", 3)):
                trace = random_trace(rng, props, n)
                report = run_simulation(reg, trace, SimulationOptions(delivery=delivery))
                assert report.rounds == n
                for label in reg.monitors:
                    assert len(report.verdicts[label]) == report.rounds


def test_one_encoding_per_node_per_run(monkeypatch):
    # a node respawns its one encoding, keeping its step and narrow tables
    built = []

    class CountedEHE(simulator.EHE):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(simulator, "EHE", CountedEHE)
    report = run_simulation(PAIR, _violating_trace(6))
    assert not report.verdicts["light"][5].truncated  # light concluded every round
    assert len(built) == len(PAIR.monitors)


def test_zero_length_trace():
    report = run_simulation(PAIR, [])
    assert report.rounds == 0
    assert report.verdicts == {"light": [], "sc_light": []}
    assert report.total_messages == 0


def test_truncated_unknowns_at_trace_end():
    trace = [{"s": False, "l": False}] * 4
    report = run_simulation(PAIR, trace)
    sc = report.verdicts["sc_light"]
    # G never concludes on a compliant trace: everything is truncated UNKNOWN
    for t in range(4):
        assert sc[t].verdict is Verdict.UNKNOWN
        assert sc[t].truncated
        assert sc[t].delay == 3 - t


def test_missing_trace_source_rejected():
    with pytest.raises(SimulationError):
        run_simulation(PAIR, [{"s": True}])


def test_event_missing_a_source_rejected():
    trace = _violating_trace(4)
    trace[2] = {"s": True}
    with pytest.raises(SimulationError, match=r"'l' at round 2 \(monitor 'light'\)"):
        run_simulation(PAIR, trace)


def test_missing_source_named_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(simulator.__file__))
    script = (
        "from decrv import registry, simulator\n"
        "reg = registry.load_registry('component c { a, b }\\nmonitor m @ c := G(a -> b)')\n"
        "try:\n"
        "    simulator.run_simulation(reg, [{'a': True, 'b': True}] * 2 + [{}])\n"
        "except simulator.SimulationError as exc:\n"
        "    print(exc)\n"
    )
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "no trace source for 'a' at round 2 (monitor 'm')\n", seed


def test_replay_reads_the_reference_dag_worked_out_at_load(monkeypatch):
    reg = registry.bundled("amiqual")
    trace = benchmark_gen().sticky_trace(0, 5)
    run_simulation(reg, trace)  # synthesizes every monitor into the cache
    calls = []
    propositions = ltl.propositions

    def counted(f):
        calls.append(f)
        return propositions(f)

    monkeypatch.setattr(ltl, "propositions", counted)
    run_simulation(reg, trace)
    assert not calls


def test_delivery_policy_changes_latency_not_verdicts():
    trace = _violating_trace(10)
    base = run_simulation(PAIR, trace)
    delayed = run_simulation(
        PAIR, trace, SimulationOptions(delivery=DeliveryPolicy("delay", 2))
    )
    reordered = run_simulation(
        PAIR, trace, SimulationOptions(delivery=DeliveryPolicy("reorder", 3), seed=5)
    )
    for other in (delayed, reordered):
        for label in PAIR.monitors:
            got = {
                t: rec.verdict
                for t, rec in enumerate(other.verdicts[label])
                if rec.verdict.final
            }
            want = {
                t: rec.verdict
                for t, rec in enumerate(base.verdicts[label])
                if t in got
            }
            assert got == want
    assert delayed.verdicts["sc_light"][0].delay == 4  # 2 extra rounds


def test_reorder_deterministic_per_seed():
    trace = _violating_trace(12)
    opts = SimulationOptions(delivery=DeliveryPolicy("reorder", 3), seed=42)
    a = run_simulation(PAIR, trace, opts)
    b = run_simulation(PAIR, trace, opts)
    assert a.verdicts == b.verdicts
    assert a.messages_per_round == b.messages_per_round


def test_bad_delivery_policy():
    with pytest.raises(SimulationError):
        DeliveryPolicy("teleport")
    with pytest.raises(SimulationError):
        DeliveryPolicy("delay", -1)


def test_message_count_per_round():
    trace = _violating_trace(8)
    report = run_simulation(PAIR, trace)
    # the light monitor sends one verdict per round to sc_light
    assert report.messages_per_round == [1] * 8
    assert report.total_messages == 8


def test_gc_differential():
    rng = random.Random(33)
    trace = random_trace(rng, ["s", "l"], 60)
    on = run_simulation(PAIR, trace, SimulationOptions(gc_enabled=True))
    off = run_simulation(PAIR, trace, SimulationOptions(gc_enabled=False))
    assert on.verdicts == off.verdicts
    assert on.verdicts_csv() == off.verdicts_csv()


LAZY = load_registry(
    """
component ca { a }
component cb { b }
monitor ga @ ca := G !a
monitor gb @ cb := G !b
monitor pair @ ca := ga & gb trigger { F(ga) | F(gb) }
"""
)


def _quiescent(n):
    return [{"a": False, "b": False} for _ in range(n)]


def test_lazy_expansion_holds_on_quiescent_trace():
    lazy = run_simulation(LAZY, _quiescent(50))
    eager = run_simulation(LAZY, _quiescent(50), SimulationOptions(lazy_enabled=False))
    assert lazy.verdicts == eager.verdicts
    # a triggered monitor never expands while its inputs stay silent
    assert max(lazy.max_ehe_size_per_round) < max(eager.max_ehe_size_per_round)


def _verdict_values(report):
    return {label: [rec.verdict for rec in log] for label, log in report.verdicts.items()}


def test_lazy_expansion_still_concludes_on_violation():
    trace = _quiescent(6) + [{"a": True, "b": False}] + _quiescent(6)
    lazy = run_simulation(LAZY, trace)
    eager = run_simulation(LAZY, trace, SimulationOptions(lazy_enabled=False))
    assert _verdict_values(lazy) == _verdict_values(eager)
    pair = lazy.verdicts["pair"]
    assert pair[0].verdict is Verdict.FALSE


def test_wildcard_expansion():
    text = """
component ca { a }
component cb { b }
monitor ga @ ca := G !a
monitor gb @ cb := G !b
monitor pair @ ca := ga & gb trigger wildcard
"""
    reg = load_registry(text)
    trace = _quiescent(5) + [{"a": True, "b": False}] + _quiescent(5)
    wild = run_simulation(reg, trace)
    eager = run_simulation(reg, trace, SimulationOptions(lazy_enabled=False))
    assert _verdict_values(wild) == _verdict_values(eager)


def test_lazy_forced_eager_when_monitor_reads_own_sensors():
    text = """
component ca { a }
monitor ga @ ca := G !a
monitor mix @ ca := ga & a trigger wildcard
"""
    reg = load_registry(text)
    report = run_simulation(reg, [{"a": False}] * 5)
    # formula mixes a sensor with a reference, so laziness must not apply
    assert report.verdicts["mix"][0].verdict is Verdict.FALSE


def test_steady_state_rate_prediction_pair():
    assert steady_state_message_rate(PAIR) == 1
    # G-shaped sources never conclude, so their edges carry no steady flow
    assert steady_state_message_rate(LAZY) == 0


def test_measured_rate_matches_prediction():
    rng = random.Random(2)
    trace = random_trace(rng, ["s", "l"], 80)
    report = run_simulation(PAIR, trace)
    predicted = steady_state_message_rate(PAIR)
    window = report.messages_per_round[10:]
    measured = sum(window) / len(window)
    # unless sc_light fails early and silences nothing (light always reports)
    assert measured == pytest.approx(predicted)


def test_delay_bounded_by_depth_plus_horizon():
    text = """
component c0 { a }
component c1 { b }
monitor m0 @ c1 := b | X b
monitor m1 @ c0 := a & X m0
"""
    reg = load_registry(text)
    rng = random.Random(3)
    for _ in range(10):
        trace = random_trace(rng, ["a", "b"], 20)
        report = run_simulation(reg, trace)
        horizon = reg.horizon("m1")
        depth = reg.depths["m1"]
        for t, rec in enumerate(report.verdicts["m1"]):
            if not rec.truncated:
                assert rec.delay <= horizon + depth + 1, (t, rec)


def test_report_outputs():
    report = run_simulation(PAIR, _violating_trace(3))
    csv = report.verdicts_csv().splitlines()
    assert csv[0] == "round,label,verdict,delay"
    assert "0,light,FALSE,0" in csv
    metrics = report.metrics_csv().splitlines()
    assert metrics[0] == "round,msgs,simplifications,max_ehe_nodes"
    assert len(metrics) == 4
    summary = report.summary_txt()
    assert "rounds 3" in summary and "total_messages" in summary
    tsv = report.timeline_tsv().splitlines()
    assert tsv[0] == "label\tstart\tend"


def test_timeline_groups_true_runs():
    trace = [{"s": False, "l": t in (2, 3, 6)} for t in range(8)]
    report = run_simulation(PAIR, trace)
    lines = report.timeline_tsv().splitlines()[1:]
    assert lines == ["light\t2\t3", "light\t6\t6"]


# Digests of a 60-round amiqual replay with every EHE row built
# symbolically; they pin the verdicts and the paper metrics (messages,
# simplifications, EHE nodes) per round, which concrete steps must keep.
AMIQUAL_60_VERDICTS_SHA256 = (
    "13f548205fe72abadc7c9ebf5c8ed890eff483b7c1884d01fa5ca45399007e36"
)
AMIQUAL_60_METRICS_SHA256 = (
    "5b01881f0c9de1f9266ffcf7c24a76e9b68b9e7cd3ca16a8aa2db5700999211b"
)


def test_amiqual_replay_outputs_pinned():
    reg = registry.bundled("amiqual")
    props = sorted(set().union(*reg.own.values()))
    trace = random_trace(random.Random(7), props, 60)
    # the second replay reuses the cached monitors with their step tables
    for _ in range(2):
        report = run_simulation(reg, trace)
        digests = tuple(
            hashlib.sha256(text.encode()).hexdigest()
            for text in (report.verdicts_csv(), report.metrics_csv())
        )
        assert digests == (AMIQUAL_60_VERDICTS_SHA256, AMIQUAL_60_METRICS_SHA256)


AMIQUAL_60_REORDER_VERDICTS_SHA256 = (
    "a49a3b4e630b0ad28cd9f1db62e3dc85b9759b7e120dce3998572a26290f05bd"
)


def test_amiqual_reorder_replay_verdicts_pinned():
    # late deliveries make stores land behind rows already expanded
    reg = registry.bundled("amiqual")
    props = sorted(set().union(*reg.own.values()))
    trace = random_trace(random.Random(7), props, 60)
    options = SimulationOptions(delivery=DeliveryPolicy("reorder", 3))
    for _ in range(2):
        report = run_simulation(reg, trace, options)
        digest = hashlib.sha256(report.verdicts_csv().encode()).hexdigest()
        assert digest == AMIQUAL_60_REORDER_VERDICTS_SHA256


def _intern_key(node):
    if isinstance(node, expr.BAtom):
        return ("a", node.atom)
    if isinstance(node, expr.BNot):
        return ("n", node.operand)
    op = "&" if isinstance(node, expr.BAnd) else "|"
    return (op, node.left, node.right)


def _full_sweep():
    """Sweep until a pass frees nothing: a dead node that only a younger
    node's pass memo held goes in the next pass."""
    while True:
        size = len(expr._interned)
        expr._sweep()
        if len(expr._interned) == size:
            return


def _held_by_monitors():
    """ids of the nodes that the cached monitors' guard templates reach,
    through children and pass memos."""
    stack = []
    for monitor in synthesis._build_cache.values():
        for edges in monitor._templates or ():
            stack.extend(edges.values())
    held = {}
    while stack:
        node = stack.pop()
        if id(node) in held:
            continue
        held[id(node)] = node
        stack.extend(
            getattr(node, slot) for slot in ("operand", "left", "right") if hasattr(node, slot)
        )
        if node._simp and node._simp[0] is not None:
            stack.append(node._simp[0])
    return held


def _unheld_interned():
    _full_sweep()
    held = _held_by_monitors()
    return sum(1 for node in expr._interned.values() if id(node) not in held)


def test_replay_leaves_intern_table_at_live_size():
    reg = registry.bundled("amiqual")
    props = sorted(set().union(*reg.own.values()))
    rng = random.Random(7)
    # the first replay fills the guard templates of the cached monitors
    run_simulation(reg, random_trace(rng, props, 40))
    gc.collect()
    before = _unheld_interned()
    report = run_simulation(reg, random_trace(rng, props, 160))
    assert report.rounds == 160
    del report
    gc.collect()
    assert _unheld_interned() - before <= 10
    for key, node in list(expr._interned.items()):
        assert _intern_key(node) == key


def test_replays_leave_only_guard_templates_interned(fresh_tables):
    # step and narrow tables belong to one run's encodings and die with it
    reg = registry.bundled("amiqual")
    props = sorted(set().union(*reg.own.values()))
    rng = random.Random(19)
    for rounds in (40, 160):
        run_simulation(reg, random_trace(rng, props, rounds))
    gc.collect()
    _full_sweep()
    held = _held_by_monitors()
    assert expr._interned
    assert [node for node in expr._interned.values() if id(node) not in held] == []


def _amiqual_reports(reg, trace):
    report = run_simulation(reg, trace)
    return (
        report.verdicts_csv(),
        report.metrics_csv(),
        report.summary_txt(),
        report.timeline_tsv(),
    )


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty intern table and monitor cache, so that a sweep walks only
    what this test builds, not what earlier tests left alive."""
    monkeypatch.setattr(expr, "_interned", {})
    monkeypatch.setattr(expr, "_sweep_at", expr._SWEEP_MIN)
    monkeypatch.setattr(synthesis, "_build_cache", {})
    return monkeypatch


def test_busy_replay_leaves_no_reference_cycle(fresh_tables):
    # a closure that calls itself is a cycle with its cell, which keeps the
    # closure's memo alive until the cyclic collector runs; synthesis (the
    # monitor cache is empty), expansion, narrowing and reports make none
    trace = benchmark_gen().busy_trace(0, 120)
    gc.collect()
    gc.disable()
    try:
        registry.bundled("lazy_demo")  # parses triggers
        reg = registry.bundled("amiqual")
        options = SimulationOptions(delivery=DeliveryPolicy("reorder", 3))
        report = run_simulation(reg, trace, options)
        assert report.verdicts_csv() and report.timeline_tsv()
        del reg, report
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_busy_replay_holds_one_row_object_per_row_value(monkeypatch):
    # every row an encoding holds, in its entries and as a key or result of
    # its step and narrow tables, is the one object of its value
    encodings = []
    make_nodes = simulator._make_nodes

    def kept_nodes(*args):
        nodes = make_nodes(*args)
        encodings.extend(node.ehe for node in nodes.values())
        return nodes

    monkeypatch.setattr(simulator, "_make_nodes", kept_nodes)
    options = SimulationOptions(delivery=DeliveryPolicy("reorder", 3))
    run_simulation(registry.bundled("amiqual"), benchmark_gen().busy_trace(0, 120), options)
    held = 0
    for enc in encodings:
        rows = [*enc.entries.values()]
        for table in (enc._steps, enc._narrows):
            rows += [key[0] for key in table] + [entry.row for entry in table.values()]
        for row in rows:
            assert enc._rows[row][0] is row
        held += len(rows)
    assert held > sum(len(enc._rows) for enc in encodings)


def test_sweeping_on_every_insertion_leaves_reports_unchanged(fresh_tables):
    reg = registry.bundled("amiqual")
    props = sorted(set().union(*reg.own.values()))
    trace = random_trace(random.Random(13), props, 60)
    sweep = expr._sweep
    sweeps = []

    def sweep_every_insertion():
        # ~10,000 insertions on this trace; a sweep that drops live nodes
        # breaks sharing, and simplify then never reaches a fixed point
        sweeps.append(None)
        assert len(sweeps) < 100_000, "the replay does not finish"
        sweep()
        expr._sweep_at = 0

    with fresh_tables.context() as patch:
        patch.setattr(expr, "_sweep", sweep_every_insertion)
        patch.setattr(expr, "_sweep_at", 0)
        swept = _amiqual_reports(reg, trace)
    assert swept == _amiqual_reports(reg, trace)


def test_intern_table_stays_bounded_between_sweeps(fresh_tables):
    reg = registry.bundled("amiqual")
    props = sorted(set().union(*reg.own.values()))
    sizes = []  # (size when a sweep starts, its bound, size after it)
    sweep = expr._sweep

    def recorded_sweep():
        start, bound = len(expr._interned), expr._sweep_at
        sweep()
        sizes.append((start, bound, len(expr._interned)))

    fresh_tables.setattr(expr, "_sweep", recorded_sweep)
    run_simulation(reg, random_trace(random.Random(17), props, 200))
    assert sizes
    # the table grows one node at a time, so a sweep that starts at its
    # bound bounds it at every insertion
    for start, bound, _ in sizes:
        assert start == bound
    for (_, _, after), (_, bound, _) in zip(sizes, sizes[1:]):
        assert bound == max(1024, after * 3 // 2)
    assert len(expr._interned) <= max(1024, sizes[-1][2] * 3 // 2)
    # a sweep drops only nodes that nothing else holds: everything the
    # monitors hold is still the one interned node of its structure
    for node in _held_by_monitors().values():
        if not isinstance(node, expr.BConst):
            assert expr._interned[_intern_key(node)] is node


LIGHT_0 = load_registry(
    """
component switch_0 { s0 }
component lamp_0 { l0 }
monitor light_0 @ lamp_0 := l0
monitor sc_light_0 @ switch_0 := G(s0 -> X(light_0 U !s0))
"""
)


def _lamp_fault_trace(n):
    # the switch stays on and the lamp lights until it fails at round
    # n - 2: every earlier round of sc_light_0 is violated, and concludes
    # FALSE at round n - 1, when the lamp's verdict about n - 2 arrives
    return [{"s0": True, "l0": r != n - 2} for r in range(n)]


def _without_catch_up(monkeypatch):
    """Step every instance as if no walk had concluded before it."""
    smove = simulator.EHE.smove
    monkeypatch.setattr(simulator.EHE, "smove", lambda enc, target, trail=None: smove(enc, target))


def test_catch_up_after_a_lamp_fault_is_linear(monkeypatch):
    # rows counted as benchmarks/tracer.py counts them: the change in
    # t_last per smove; a walk per concluded round builds n^2 / 2 of them
    n = 400
    rows = 0
    smove = simulator.EHE.smove

    def counted(enc, *args):
        nonlocal rows
        before = enc.t_last
        found = smove(enc, *args)
        if "s0" in enc.monitor.alphabet:
            rows += enc.t_last - before
        return found

    monkeypatch.setattr(simulator.EHE, "smove", counted)
    report = run_simulation(LIGHT_0, _lamp_fault_trace(n))
    log = report.verdicts["sc_light_0"]
    assert [(rec.verdict, rec.delay) for rec in log[: n - 2]] == [
        (Verdict.FALSE, n - 1 - t) for t in range(n - 2)
    ]
    assert rows <= 10 * n


@pytest.mark.parametrize("kind", ["lamp-fault", "random", "amiqual-gap240"])
def test_catch_up_leaves_reports_unchanged(monkeypatch, kind):
    if kind == "lamp-fault":
        reg, traces = LIGHT_0, [_lamp_fault_trace(n) for n in (3, 4, 60)]
    elif kind == "random":
        rng = random.Random(53)
        reg = LIGHT_0
        traces = []
        for _ in range(20):
            # long lamp-on stretches with rare faults and switch flips
            s = l = True
            trace = []
            for _ in range(rng.randint(1, 80)):
                s = s if rng.random() < 0.9 else not s
                l = s and rng.random() < 0.95
                trace.append({"s0": s, "l0": l})
            traces.append(trace)
    else:
        reg, traces = registry.bundled("amiqual"), [benchmark_gen(240).sticky_trace(1, 400)]
    options = [SimulationOptions(), SimulationOptions(delivery=DeliveryPolicy("reorder", 2), seed=5)]
    for trace in traces:
        for opts in options:
            got = run_simulation(reg, trace, opts)
            with monkeypatch.context() as patch:
                _without_catch_up(patch)
                want = run_simulation(reg, trace, opts)
            for name in ("verdicts_csv", "metrics_csv", "summary_txt", "timeline_tsv"):
                assert getattr(got, name)() == getattr(want, name)(), name
            assert got.memory_per_round == want.memory_per_round
            assert got.max_ehe_entries_per_round == want.max_ehe_entries_per_round


# --- streamed input ---------------------------------------------------------

REPORTS = ("verdicts_csv", "metrics_csv", "summary_txt", "timeline_tsv")


@pytest.mark.parametrize("kind", ["sticky", "busy-reorder3"])
def test_one_shot_generator_gives_the_reports_of_the_list(kind):
    reg = registry.bundled("amiqual")
    if kind == "sticky":
        trace, options = benchmark_gen().sticky_trace(0, 60), SimulationOptions()
    else:
        trace = benchmark_gen().busy_trace(0, 60)
        options = SimulationOptions(delivery=DeliveryPolicy("reorder", 3))
    listed = run_simulation(reg, trace, options)
    streamed = run_simulation(reg, (event for event in trace), options)
    assert streamed.rounds == len(trace)
    for name in REPORTS:
        assert getattr(streamed, name)() == getattr(listed, name)(), name


@pytest.mark.parametrize("at", [0, 2])
def test_missing_source_in_a_generator_rejected_with_the_same_text(at):
    trace = _violating_trace(4)
    trace[at] = {"s": True}
    with pytest.raises(SimulationError) as from_list:
        run_simulation(PAIR, trace)
    with pytest.raises(SimulationError) as from_generator:
        run_simulation(PAIR, iter(trace))
    assert str(from_generator.value) == str(from_list.value)
    assert str(from_list.value) == f"no trace source for 'l' at round {at} (monitor 'light')"


# --- compact verdict log ----------------------------------------------------


def test_verdict_records_are_shared_objects():
    report = run_simulation(registry.bundled("amiqual"), benchmark_gen().sticky_trace(0, 60))
    by_value = {}
    for log in report.verdicts.values():
        assert log.indexes.itemsize == 2
        for rec in log:
            assert by_value.setdefault(tuple(rec), rec) is rec
    assert len(by_value) == len({id(rec) for rec in by_value.values()})


def test_verdict_log_widens_at_65536_records():
    records = [simulator.VerdictRecord(Verdict.TRUE, d) for d in range(65_537)]
    log = simulator.VerdictLog(records)
    for i in (0, 65_535, 7):
        log.append(i)
    assert log.indexes.itemsize == 2
    log.append(65_536)
    log.append(3)
    assert log.indexes.itemsize == 4
    assert len(log) == 5
    assert [rec.delay for rec in log] == [0, 65_535, 7, 65_536, 3]
    assert log[3] is records[65_536]
    assert log[-1] is records[3]
    assert log[1:3] == [records[65_535], records[7]]


class _ListLog(list):
    """A verdict log that holds the records themselves, as a list."""

    def __init__(self, records):
        super().__init__()
        self.records = records

    def append(self, i):
        super().append(self.records[i])


@pytest.mark.parametrize("kind", ["sticky-gap240", "busy-reorder3"])
def test_compact_log_reads_the_records_a_list_log_held(monkeypatch, kind):
    # the two traces of tests/test_replay_digests.py
    if kind == "sticky-gap240":
        trace, options = benchmark_gen(240).sticky_trace(0, 400), SimulationOptions()
    else:
        trace = benchmark_gen().busy_trace(1, 220)
        options = SimulationOptions(delivery=DeliveryPolicy("reorder", 3), seed=1)
    reg = registry.bundled("amiqual")
    compact = run_simulation(reg, trace, options)
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "VerdictLog", _ListLog)
        listed = run_simulation(reg, trace, options)
    assert sorted(compact.verdicts) == sorted(listed.verdicts)
    for label, log in compact.verdicts.items():
        assert isinstance(log, simulator.VerdictLog)
        assert len(log) == len(listed.verdicts[label]) == len(trace)
        for t, rec in enumerate(listed.verdicts[label]):
            assert log[t] == rec, (label, t)
    # the writers read any sequence of records, a plain list too
    for name in REPORTS:
        assert getattr(listed, name)() == getattr(compact, name)(), name
