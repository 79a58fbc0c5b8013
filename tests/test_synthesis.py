"""Monitor synthesis: construction, minimization, oracle equivalence."""

import random

import pytest

from decrv import ltl, oracle, registry, synthesis
from decrv.synthesis import SynthesisCapacityError
from decrv.verdicts import Verdict

from conftest import all_events, all_traces, random_formula, random_trace


def fig2a():
    return synthesis.build(ltl.parse("G(s -> X(light U !s))"))


def test_fig2a_shape():
    m = fig2a()
    assert m.n_states == 3
    assert m.labels[m.initial] is Verdict.UNKNOWN
    assert sorted(str(v) for v in m.labels) == ["FALSE", "UNKNOWN", "UNKNOWN"]


def test_fig2a_transitions():
    m = fig2a()
    q0 = m.initial
    # switch pressed moves to the waiting state
    q1 = m.step(q0, m.event_mask({"s": True, "light": True}))
    assert q1 != q0 and m.verdict(q1) is Verdict.UNKNOWN
    # switch held with the light off is the violation
    q2 = m.step(q1, m.event_mask({"s": True, "light": False}))
    assert m.verdict(q2) is Verdict.FALSE
    # violation state is a sink
    for event in range(m.n_events):
        assert m.step(q2, event) == q2
    # switch released returns to the initial state
    assert m.step(q1, m.event_mask({"s": False, "light": True})) == q0


def test_fig2a_run():
    m = fig2a()
    out = m.run([{"s": True, "light": True}, {"s": True, "light": False}])
    assert out == [Verdict.UNKNOWN, Verdict.FALSE]


def test_constant_monitors():
    t = synthesis.build(ltl.parse("true"))
    assert t.n_states == 1 and t.labels == [Verdict.TRUE]
    f = synthesis.build(ltl.parse("false"))
    assert f.n_states == 1 and f.labels == [Verdict.FALSE]


def test_run_empty_sequence():
    assert fig2a().run([]) == []


def test_run_rejects_incomplete_event():
    with pytest.raises(ValueError):
        fig2a().run([{"s": True}])


def test_verdict_finality_invariant():
    for text in ["G(s -> X(light U !s))", "F<=2 a", "a U b", "G<=3 (a | b)"]:
        m = synthesis.build(ltl.parse(text))
        for q in range(m.n_states):
            if m.labels[q].final:
                for event in range(m.n_events):
                    assert m.labels[m.step(q, event)] is m.labels[q]


def _corpus(rng, count):
    out = []
    for _ in range(count):
        out.append(random_formula(rng, ["a", "b", "c"], rng.randint(1, 4)))
    return out


def test_oracle_equivalence_exhaustive_small():
    # every trace up to length 4 for a fixed battery of formulas
    texts = [
        "G a", "F a", "a U b", "!(a U b)", "X a | G b", "F<=2 a",
        "G<=3 (a | b)", "(a U b) & G !b", "G(a -> F b)", "F (a & X b)",
        "G(a -> X(b U !a))",
    ]
    for text in texts:
        f = ltl.parse(text)
        m = synthesis.build(f)
        props = sorted(ltl.propositions(f))
        for length in range(0, 4):
            for trace in all_traces(props, length):
                got = m.run(trace)[-1] if trace else m.labels[m.initial]
                assert got is oracle.evaluate3(f, trace), (text, trace)


def test_oracle_equivalence_random_corpus():
    rng = random.Random(2024)
    for f in _corpus(rng, 60):
        m = synthesis.build(f)
        props = sorted(ltl.propositions(f)) or ["a"]
        for _ in range(25):
            trace = random_trace(rng, props, rng.randint(0, 8))
            got = m.run(trace)[-1] if trace else m.labels[m.initial]
            assert got is oracle.evaluate3(f, trace), (ltl.render(f), trace)


def test_verdict_monotonicity():
    rng = random.Random(11)
    for f in _corpus(rng, 40):
        m = synthesis.build(f)
        props = sorted(ltl.propositions(f)) or ["a"]
        out = m.run(random_trace(rng, props, 10))
        for earlier, later in zip(out, out[1:]):
            if earlier.final:
                assert later is earlier


def test_minimize_preserves_language():
    rng = random.Random(5)
    for f in _corpus(rng, 30):
        raw = synthesis.synthesize(ltl.desugar(f))
        small = synthesis.minimize(raw)
        assert small.n_states <= raw.n_states
        props = sorted(ltl.propositions(f)) or ["a"]
        for _ in range(50):
            trace = random_trace(rng, props, rng.randint(0, 10))
            assert raw.run(trace) == small.run(trace)


def test_minimize_has_no_equivalent_state_pair():
    rng = random.Random(6)
    for f in _corpus(rng, 15):
        m = synthesis.build(f)
        props = sorted(ltl.propositions(f)) or ["a"]
        events = all_events(props)
        # distinguish every state pair by some suffix (bounded BFS)
        for q1 in range(m.n_states):
            for q2 in range(q1 + 1, m.n_states):
                assert _distinguishable(m, q1, q2, events)


def _distinguishable(m, q1, q2, events) -> bool:
    seen = set()
    frontier = [(q1, q2)]
    while frontier:
        a, b = frontier.pop()
        if m.labels[a] is not m.labels[b]:
            return True
        if (a, b) in seen:
            continue
        seen.add((a, b))
        for ev in events:
            mask = m.event_mask(ev)
            frontier.append((m.step(a, mask), m.step(b, mask)))
    return False


def test_minimize_idempotent():
    m = fig2a()
    again = synthesis.minimize(m)
    assert again.n_states == m.n_states


def test_centralized_blowup_direction():
    reg = registry.light_switch_family(2)
    single = synthesis.build(reg.inline("sc_light_0"))
    combined = synthesis.build(reg.inline("sc_ok"))
    assert combined.n_states > single.n_states


@pytest.mark.parametrize(
    "rooms, subset_states, monitor_states",
    [(1, 8, 3), (2, 27, 5), (3, 101, 9), (4, 393, 17)],
)
def test_centralized_sc_ok_state_counts(rooms, subset_states, monitor_states):
    raw = synthesis.synthesize(registry.light_switch_family(rooms).inline("sc_ok"))
    assert raw.n_states == subset_states
    assert synthesis.minimize(raw).n_states == monitor_states


def test_sccs_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    graphs = [{i: [(i + 1) % 5000] for i in range(5000)}]  # deeper than recursion
    for _ in range(300):
        n = rng.randint(1, 12)
        graphs.append({i: [j for j in range(n) if rng.random() < 0.2] for i in range(n)})
    for succ in graphs:
        reference = nx.DiGraph()
        reference.add_nodes_from(succ)
        reference.add_edges_from((i, j) for i, js in succ.items() for j in js)
        expected = {frozenset(c) for c in nx.strongly_connected_components(reference)}
        assert {frozenset(c) for c in synthesis._sccs(succ)} == expected


def test_capacity_ceiling():
    reg = registry.light_switch_family(2)
    with pytest.raises(SynthesisCapacityError):
        synthesis.synthesize(ltl.desugar(reg.inline("sc_ok")), max_states=4)


def test_capacity_via_environment(monkeypatch):
    monkeypatch.setenv("DECRV_MAX_STATES", "4")
    reg = registry.light_switch_family(2)
    with pytest.raises(SynthesisCapacityError):
        synthesis.synthesize(ltl.desugar(reg.inline("sc_ok")))


def test_alphabet_ceiling():
    wide = " & ".join(f"G p{i}" for i in range(17))
    with pytest.raises(SynthesisCapacityError):
        synthesis.synthesize(ltl.desugar(ltl.parse(wide)))


def test_transition_list_format():
    lines = fig2a().to_transition_list().splitlines()
    assert lines[0] == "q0 UNKNOWN"
    assert any("-->" in line for line in lines)
    # guards mention plain proposition names
    assert any("light" in line or "s" in line for line in lines if "-->" in line)


def test_dot_export():
    dot = fig2a().to_dot()
    assert dot.startswith("digraph")
    assert "q0" in dot and "FALSE" in dot


def test_guard_templates_cover_all_events():
    m = fig2a()
    templates = synthesis.guard_templates(m)
    from decrv import expr

    for q, edges in enumerate(templates):
        for ev in all_events(list(m.alphabet)):
            mask = m.event_mask(ev)
            assignment = {
                synthesis.expr.Atom(0, name): ev[name] for name in m.alphabet
            }
            hits = [
                dst
                for dst, guard in edges.items()
                if expr.evaluate(guard, assignment)
            ]
            assert hits == [m.step(q, mask)]
