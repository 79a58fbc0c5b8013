"""Monitor synthesis: construction, minimization, oracle equivalence."""

import itertools
import os
import random
import subprocess
import sys
from collections import deque

import pytest

from decrv import ltl, oracle, registry, synthesis
from decrv.synthesis import SynthesisCapacityError
from decrv.verdicts import Verdict

from conftest import (
    all_events,
    all_traces,
    event_mask,
    qm_primes,
    random_formula,
    random_trace,
    run_monitor,
    step,
)


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
    q1 = step(m, q0, event_mask(m, {"s": True, "light": True}))
    assert q1 != q0 and m.labels[q1] is Verdict.UNKNOWN
    # switch held with the light off is the violation
    q2 = step(m, q1, event_mask(m, {"s": True, "light": False}))
    assert m.labels[q2] is Verdict.FALSE
    # violation state is a sink
    for event in range(m.n_events):
        assert step(m, q2, event) == q2
    # switch released returns to the initial state
    assert step(m, q1, event_mask(m, {"s": False, "light": True})) == q0


def test_fig2a_run():
    m = fig2a()
    out = run_monitor(m, [{"s": True, "light": True}, {"s": True, "light": False}])
    assert out == [Verdict.UNKNOWN, Verdict.FALSE]


def test_constant_monitors():
    t = synthesis.build(ltl.parse("true"))
    assert t.n_states == 1 and t.labels == [Verdict.TRUE]
    f = synthesis.build(ltl.parse("false"))
    assert f.n_states == 1 and f.labels == [Verdict.FALSE]


def test_run_empty_sequence():
    assert run_monitor(fig2a(), []) == []


def test_run_rejects_incomplete_event():
    with pytest.raises(ValueError):
        run_monitor(fig2a(), [{"s": True}])


def test_verdict_finality_invariant():
    for text in ["G(s -> X(light U !s))", "F<=2 a", "a U b", "G<=3 (a | b)"]:
        m = synthesis.build(ltl.parse(text))
        for q in range(m.n_states):
            if m.labels[q].final:
                for event in range(m.n_events):
                    assert m.labels[step(m, q, event)] is m.labels[q]


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
                got = run_monitor(m, trace)[-1] if trace else m.labels[m.initial]
                assert got is oracle.evaluate3(f, trace), (text, trace)


def test_oracle_equivalence_random_corpus():
    rng = random.Random(2024)
    for f in _corpus(rng, 60):
        m = synthesis.build(f)
        props = sorted(ltl.propositions(f)) or ["a"]
        for _ in range(25):
            trace = random_trace(rng, props, rng.randint(0, 8))
            got = run_monitor(m, trace)[-1] if trace else m.labels[m.initial]
            assert got is oracle.evaluate3(f, trace), (ltl.render(f), trace)


def test_verdict_monotonicity():
    rng = random.Random(11)
    for f in _corpus(rng, 40):
        m = synthesis.build(f)
        props = sorted(ltl.propositions(f)) or ["a"]
        out = run_monitor(m, random_trace(rng, props, 10))
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
            assert run_monitor(raw, trace) == run_monitor(small, trace)


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
            mask = event_mask(m, ev)
            frontier.append((step(m, a, mask), step(m, b, mask)))
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
    [(1, 8, 3), (2, 27, 5), (3, 101, 9), (4, 393, 17), (5, 1553, 33)],
)
def test_centralized_sc_ok_state_counts(rooms, subset_states, monitor_states):
    raw = synthesis.synthesize(registry.light_switch_family(rooms).inline("sc_ok"))
    assert raw.n_states == subset_states
    assert synthesis.minimize(raw).n_states == monitor_states


def _reference_synthesize(f):
    """Reference: the subset construction over (pos, neg) pairs of subsets,
    where a subset's successor under an event is the set of its members'
    good successors along the transitions whose cubes hold that event,
    checked event by event; states numbered by BFS over events."""
    f = ltl.desugar(f)
    alphabet = tuple(sorted(ltl.propositions(f)))
    n_events = 1 << len(alphabet)
    starts, tables = [], []
    for negated in (False, True):
        nba = synthesis._Buchi(synthesis._nnf(f, negated), alphabet, 2**20)
        number = {s: i for i, s in enumerate(s for s in nba.transitions if s in nba.good)}
        table = []
        for state in number:
            succ = [0] * n_events
            for pm, nm, dst in nba.transitions[state]:
                for event in range(n_events):
                    if event & pm == pm and not event & nm and dst in number:
                        succ[event] |= 1 << number[dst]
            table.append(succ)
        starts.append(1 << number[nba.initial] if nba.initial in number else 0)
        tables.append(table)
    starts = tuple(starts)

    def row(side, subset):
        out = [0] * n_events
        for i, table in enumerate(tables[side]):
            if subset >> i & 1:
                out = [a | b for a, b in zip(out, table)]
        return out

    numbering = {starts: 0}
    order = [starts]
    queue = deque(order)
    delta = []
    while queue:
        pos, neg = queue.popleft()
        nums = []
        for nxt in zip(row(0, pos), row(1, neg)):
            if nxt not in numbering:
                numbering[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            nums.append(numbering[nxt])
        delta.append(nums)
    labels = [
        Verdict.TRUE if not neg else Verdict.FALSE if not pos else Verdict.UNKNOWN
        for pos, neg in order
    ]
    return alphabet, delta, labels


def test_subset_construction_matches_reference():
    amiqual = registry.bundled("amiqual")
    formulas = _corpus(random.Random(18), 60)
    formulas += [ltl.parse(text) for text in ("true", "false", "X true")]  # one event
    formulas += [registry.light_switch_family(n).inline("sc_ok") for n in range(1, 5)]
    # good states per side 32 + 42 and 15 + 88: lanes of two 64-bit words
    formulas += [amiqual.inline("firehazard"), amiqual.inline("restricttv_office")]
    # 65 good states in all: one bit more than one word
    formulas.append(ltl.parse("X F<=0 F (F<=1 G<=1 a & F<=2 G<=3 b)"))
    for f in formulas:
        m = synthesis.synthesize(f)
        assert m.initial == 0
        assert (m.alphabet, m.delta, m.labels) == _reference_synthesize(f), ltl.render(f)


def test_synthesis_independent_of_hash_seed(tmp_path):
    src = os.path.dirname(os.path.dirname(synthesis.__file__))
    delta = (
        "from decrv import registry, synthesis; "
        "print(synthesis.synthesize(registry.bundled('amiqual').inline('firehazard')).delta)"
    )
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out_dir = tmp_path / seed
        subprocess.run(
            [sys.executable, "-m", "decrv.cli", "synth", "--rooms", "3",
             "--centralized", "sc_ok", "--out", str(out_dir)],
            env=env, capture_output=True, check=True,
        )
        raw = subprocess.run(
            [sys.executable, "-c", delta], env=env, capture_output=True, check=True
        )
        exports = [(out_dir / name).read_bytes() for name in ("sc_ok.dot", "sc_ok.txt")]
        outputs.append((exports, raw.stdout))
    assert outputs[0] == outputs[1]


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
            mask = event_mask(m, ev)
            assignment = {
                synthesis.expr.Atom(0, name): ev[name] for name in m.alphabet
            }
            hits = [
                dst
                for dst, guard in edges.items()
                if expr.evaluate(guard, assignment)
            ]
            assert hits == [step(m, q, mask)]


def _sympy_guard(m, events):
    """Reference: the guard as sympy's SOPform builds it, converted node by
    node (the conversion ``guard_expr`` used before the bitmask port)."""
    from sympy import And, Not, Or, Symbol
    from sympy.logic import SOPform

    from decrv import expr

    def convert(s):
        if isinstance(s, Symbol):
            return expr.batom(expr.Atom(0, s.name))
        if isinstance(s, Not):
            return expr.bnot(convert(s.args[0]))
        if isinstance(s, And):
            return expr.conj([convert(a) for a in s.args])
        if isinstance(s, Or):
            return expr.disj([convert(a) for a in s.args])
        raise TypeError(f"unexpected sympy node {s!r}")

    if len(events) == m.n_events:
        return expr.BTRUE
    if not events:
        return expr.BFALSE
    symbols = [Symbol(name) for name in m.alphabet]
    minterms = [[(ev >> i) & 1 for i in range(len(m.alphabet))] for ev in events]
    return convert(SOPform(symbols, minterms))


def _assert_guards_match_sympy(m):
    for edges in m.edge_events():
        for events in edges.values():
            assert synthesis.guard_expr(m, events) is _sympy_guard(m, events)


def test_guard_expr_matches_sympy_on_amiqual_and_sc_ok():
    for decl in registry.bundled("amiqual").monitors.values():
        _assert_guards_match_sympy(synthesis.build(decl.formula))
    for rooms in range(1, 5):
        reg = registry.light_switch_family(rooms)
        _assert_guards_match_sympy(synthesis.build(reg.inline("sc_ok")))


def _random_events(rng, n):
    """Random truth table (n <= 6) or a union of a few random cubes with
    some events flipped (any n): sympy's cover of a dense random table
    over 8 variables takes about a second."""
    if n <= 6 and rng.random() < 0.5:
        density = rng.random()
        return [ev for ev in range(1 << n) if rng.random() < density]
    full = (1 << n) - 1
    events = set()
    for _ in range(rng.randint(1, 4)):
        care = rng.getrandbits(n) | rng.getrandbits(n)
        value = rng.getrandbits(n) & care
        free = full & ~care
        sub = free
        while True:
            events.add(value | sub)
            if not sub:
                break
            sub = (sub - 1) & free
    for _ in range(rng.randint(0, 3)):
        events ^= {rng.getrandbits(n)}
    return sorted(events)


def test_guard_expr_matches_sympy_on_random_functions():
    # names whose sorted order is not their bit order
    pool = ["x10", "x2", "Z", "a", "light", "sw_0", "b1", "B", "q"]
    rng = random.Random(41)
    for _ in range(2400):
        n = rng.randint(1, 8)
        alphabet = tuple(rng.sample(pool, n))
        m = synthesis.MooreMonitor(alphabet, 0, [[0] * (1 << n)], [Verdict.UNKNOWN])
        events = _random_events(rng, n)
        if rng.random() < 0.5:
            rng.shuffle(events)
        assert synthesis.guard_expr(m, events) is _sympy_guard(m, events)


def test_sop_pairs_matches_qm_on_every_small_order():
    # every event subset in every order for n <= 2, sampled orders at n = 3
    rng = random.Random(3)
    for n in range(1, 4):
        for table in range(1, 1 << (1 << n)):
            events = [ev for ev in range(1 << n) if table >> ev & 1]
            if n < 3:
                orders = itertools.permutations(events)
            else:
                orders = (rng.sample(events, len(events)) for _ in range(6))
            for order in orders:
                assert synthesis._sop_pairs(order, n) == qm_primes(order, n), order


def test_sop_pairs_matches_qm_on_random_functions():
    # the functions of test_guard_expr_matches_sympy_on_random_functions
    rng = random.Random(41)
    for _ in range(2400):
        n = rng.randint(1, 8)
        rng.sample(range(9), n)  # the alphabet draw, kept for the same stream
        events = _random_events(rng, n)
        if rng.random() < 0.5:
            rng.shuffle(events)
        assert synthesis._sop_pairs(events, n) == qm_primes(events, n), (n, events)


def test_sop_pairs_matches_qm_on_inlined_preparing():
    # 11 propositions: beyond what the sympy differential tests reach
    m = synthesis.build(registry.bundled("amiqual").inline("preparing"))
    n = len(m.alphabet)
    assert n == 11
    for edges in m.edge_events():
        for events in edges.values():
            assert synthesis._sop_pairs(events, n) == qm_primes(events, n)
