"""Execution history encoding: expansion, resolution, triggers."""

import itertools
import random

from decrv import ehe, expr, ltl, synthesis
from decrv.ehe import EHE
from decrv.expr import Atom
from decrv.memory import Memory
from decrv.simulator import sadv
from decrv.verdicts import Verdict

from conftest import (
    all_events,
    event_mask,
    random_formula,
    random_trace,
    run_monitor,
    seval,
    step,
)


def fig2a():
    return synthesis.build(ltl.parse("G(s -> X(light U !s))"))


def _row(enc, t):
    """Row t at absolute atom times, as ``{state: expression}``."""
    row = enc.entries.get(t)
    return {} if row is None else {q: expr.stamp(e, t) for q, e in row.pairs}


def _rows(enc):
    return {t: _row(enc, t) for t in enc.entries}


def _pairs(enc):
    """The encoding's rows by value, each in its own frame."""
    return {t: row.pairs for t, row in enc.entries.items()}


def test_initial_entry():
    e = EHE(fig2a(), 0, Memory())
    assert _row(e, 0) == {e.monitor.initial: expr.BTRUE}
    assert e.t_last == 0


def test_smove_one_step_matches_hand_expansion():
    e = EHE(fig2a(), 0, Memory())
    e.smove(1)
    s = expr.batom(Atom(0, "s"))
    assert _row(e, 0) == {0: expr.BTRUE}
    # the violation state is unreachable in one step and therefore omitted
    assert _row(e, 1) == {0: expr.bnot(s), 1: s}


def test_smove_same_round_is_noop():
    e = EHE(fig2a(), 0, Memory())
    e.smove(2)
    before = _rows(e)
    e.smove(2)
    assert _rows(e) == before


def _check_exhaustive_and_exclusive(e):
    for t, row in e.entries.items():
        names = sorted({a for _, ex in row.pairs for a in expr.atoms(ex)})
        if len(names) > 12:
            continue
        for bits in itertools.product((False, True), repeat=len(names)):
            assignment = dict(zip(names, bits))
            hits = [
                q for q, ex in row.pairs if expr.evaluate(ex, assignment)
            ]
            assert len(hits) == 1, (t, assignment, _rows(e))


def test_entries_exhaustive_and_mutually_exclusive():
    rng = random.Random(3)
    for _ in range(15):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 3))
        e = EHE(synthesis.build(f), 0, Memory())
        e.smove(rng.randint(1, 4))
        _check_exhaustive_and_exclusive(e)


def test_resolve_fig2a_after_switch():
    m = Memory()
    e = EHE(fig2a(), 0, m)
    e.smove(1)
    m.store(Atom(0, "s"), True)
    assert e.resolve() == (1, 1, Verdict.UNKNOWN)


def test_encodings_on_memories_of_equal_version_do_not_alias():
    # each encoding narrows against its own memory: equal versions of two
    # memories say nothing about equal contents
    monitor = fig2a()
    m1, m2 = Memory(), Memory()
    e1, e2 = EHE(monitor, 0, m1), EHE(monitor, 0, m2)
    e1.smove(1)
    e2.smove(1)
    m1.store(Atom(0, "s"), True)
    m2.store(Atom(0, "s"), False)
    assert m1.version == m2.version == 1
    assert e1.resolve() == (1, 1, Verdict.UNKNOWN)
    assert e2.resolve() == (1, 0, Verdict.UNKNOWN)
    for m, e in ((m1, e1), (m2, e2)):
        fresh = EHE(monitor, 0, m)
        fresh.smove(1)
        assert fresh.resolve() == e.resolve()
        assert _pairs(fresh) == _pairs(e)


def test_respawn_matches_fresh_encoding():
    # a respawned instance keeps its tables and nothing else
    rng = random.Random(47)
    for _ in range(30):
        monitor = synthesis.build(random_formula(rng, ["a", "b", "c"], rng.randint(1, 4)))
        memory = Memory()
        stats_old, stats_new = expr.SimplifyStats(), expr.SimplifyStats()
        old = EHE(monitor, 0, memory, stats_old)
        new = None
        for op, args in _smove_resolve_trace(rng, monitor):
            if op == "store":
                memory.store(*args)
            elif op == "gc":
                memory.gc(*args)
            elif new is None and op == "smove":
                old.smove(*args)
            elif new is None:
                old.resolve()
                t = old.t_last + 1
                old.respawn(t)
                new = EHE(monitor, t, memory, stats_new)
                work = stats_old.simplifications
            else:
                for enc in (old, new):
                    getattr(enc, op)(*args)
                assert _pairs(old) == _pairs(new)
                assert (old.t_origin, old.t_last) == (new.t_origin, new.t_last)
                assert (old.n_entries, old.total_size) == (new.n_entries, new.total_size)
                assert old.resolve() == new.resolve()
                assert stats_old.simplifications - work == stats_new.simplifications


def test_resolve_nothing_on_empty_memory():
    e = EHE(fig2a(), 0, Memory())
    e.smove(3)
    found = e.resolve()
    # only the origin entry is constant-true, nothing beyond
    assert found == (0, 0, Verdict.UNKNOWN)


def test_resolve_narrows_entries():
    m = Memory()
    e = EHE(fig2a(), 0, m)
    e.smove(1)
    m.store(Atom(0, "s"), True)
    e.resolve()
    assert _row(e, 1) == {1: expr.BTRUE}  # q0's entry simplified to false and dropped


def test_resolve_matches_run_under_full_memory():
    rng = random.Random(9)
    for _ in range(20):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 3))
        monitor = synthesis.build(f)
        props = sorted(monitor.alphabet)
        trace = random_trace(rng, props, 5)
        m = Memory()
        e = EHE(monitor, 0, m)
        e.smove(len(trace))
        for t, event in enumerate(trace):
            for p in props:
                m.store(Atom(t, p), event[p])
        found = e.resolve()
        assert found is not None
        t, q, verdict = found
        assert t == len(trace)
        expected = run_monitor(monitor, trace)[-1] if trace else monitor.labels[monitor.initial]
        assert verdict is expected
        # certainty must point at the very state run_monitor() reaches
        state = monitor.initial
        for event in trace:
            state = step(monitor, state, event_mask(monitor, event))
        assert q == state


def test_resolve_monotone_under_growing_memory():
    m = Memory()
    e = EHE(fig2a(), 0, m)
    e.smove(2)
    m.store(Atom(0, "s"), True)
    m.store(Atom(1, "s"), True)
    m.store(Atom(1, "light"), False)
    first = e.resolve()
    assert first == (2, 2, Verdict.FALSE)
    m.store(Atom(0, "light"), True)
    assert e.resolve() == first


def test_resolve_cached_when_memory_unchanged():
    m = Memory()
    stats = expr.SimplifyStats()
    e = EHE(fig2a(), 0, m, stats)
    e.smove(1)
    m.store(Atom(0, "s"), True)
    e.resolve()
    work = stats.simplifications
    e.resolve()
    assert stats.simplifications == work


def test_sadv_polarity():
    m = Memory()
    m.store(Atom(5, "M0"), False)
    cond = ltl.parse("!M0 | !M1")
    assert sadv(cond, m, 5)
    assert not sadv(ltl.Prop("M0"), m, 5)
    assert not sadv(cond, Memory(), 5)


def test_sadv_conjunction():
    m = Memory()
    m.store(Atom(2, "M0"), True)
    m.store(Atom(2, "M1"), False)
    assert sadv(ltl.parse("M0 & !M1"), m, 2)
    assert not sadv(ltl.parse("M0 & M1"), m, 2)


def _symbolic_row(monitor, prev, t, memory):
    """Reference: the symbolic expansion of row ``prev`` to round t."""
    stats = expr.SimplifyStats()
    templates = synthesis.guard_templates(monitor)
    terms = {}
    for p, e in prev.items():
        for q, guard in templates[p].items():
            terms.setdefault(q, []).append(expr.band(e, expr.stamp(guard, t - 1)))
    row = {}
    for q in sorted(terms):
        combined = seval(expr.disj(terms[q]), memory, stats)
        if combined is not expr.BFALSE:
            row[q] = combined
    return row, stats.simplifications


def _step_matches_symbolic(enc, prev, t):
    """In an instance respawned at t-1 with row ``prev`` (a dict in
    disjunct order), smove narrows the row, then expands it to round t."""
    monitor, memory, stats = enc.monitor, enc.memory, enc.stats
    enc.respawn(t - 1)
    # rows are stored in their own frame; this one is not narrowed yet
    enc.entries[t - 1] = enc._row(tuple((p, expr.stamp(e, -(t - 1))) for p, e in prev.items()))
    enc._version = None
    n0, size0, work0 = enc.n_entries, enc.total_size, stats.simplifications
    enc.smove(t)
    ref_stats = expr.SimplifyStats()
    narrowed = {p: seval(e, memory, ref_stats) for p, e in prev.items()}
    narrowed = {p: e for p, e in narrowed.items() if e is not expr.BFALSE}
    row, work = _symbolic_row(monitor, narrowed, t, memory)
    assert [q for q, _ in enc.entries[t].pairs] == sorted(row)
    assert _row(enc, t) == row
    assert stats.simplifications - work0 == ref_stats.simplifications + work
    # the narrowing pass replaced prev's entries by their narrowed forms,
    # and a certain row t drops them
    assert (t - 1 not in enc.entries) == (expr.BTRUE in row.values())
    kept = narrowed if t - 1 in enc.entries else {}
    size = lambda r: sum(e.size for e in r.values())
    assert enc.n_entries - n0 == len(row) + len(kept) - len(prev)
    assert enc.total_size - size0 == size(row) + size(kept) - size(prev)


def _full_round(rng, memory, monitor, t):
    """``memory`` with every atom of round t stored at random."""
    for name in monitor.alphabet:
        memory.store(Atom(t, name), rng.random() < 0.5)
    return memory


def test_concrete_step_matches_symbolic_recipe():
    rng = random.Random(17)
    monitors = [fig2a()]
    while len(monitors) < 25:
        m = synthesis.build(random_formula(rng, ["a", "b", "c"], rng.randint(1, 3)))
        if m.n_states > 1:
            monitors.append(m)
    for monitor in monitors:
        # one encoding over one memory; each case reads its own round
        enc = EHE(monitor, 0, Memory())
        cases = []
        for i in range(40):
            t = i + 1
            _full_round(rng, enc.memory, monitor, t - 1)
            cases.append((rng.randrange(monitor.n_states), t))
        for p, t in cases:  # cold table
            _step_matches_symbolic(enc, {p: expr.BTRUE}, t)
        filled = dict(enc._steps)
        assert filled
        for p, t in cases:  # warm table
            _step_matches_symbolic(enc, {p: expr.BTRUE}, t)
        assert enc._steps == filled


def test_concrete_step_from_round_zero():
    # stamping at round 0 is the identity, the table's own time base
    rng = random.Random(5)
    monitor = fig2a()
    for _ in range(8):
        enc = EHE(monitor, 0, _full_round(rng, Memory(), monitor, 0))
        _step_matches_symbolic(enc, {monitor.initial: expr.BTRUE}, 1)
        assert enc._steps


def test_step_with_missing_atom_stays_symbolic():
    rng = random.Random(8)
    for _ in range(15):
        monitor = synthesis.build(random_formula(rng, ["a", "b"], rng.randint(1, 3)))
        if not monitor.alphabet:
            continue
        t = rng.randint(1, 4)
        memory = Memory()
        dropped = rng.choice(monitor.alphabet)
        for name in monitor.alphabet:
            if name != dropped:
                memory.store(Atom(t - 1, name), rng.random() < 0.5)
        p = rng.randrange(monitor.n_states)
        enc = EHE(monitor, 0, memory)
        _step_matches_symbolic(enc, {p: expr.BTRUE}, t)
        # a partly observed round has its own key in the one step table
        step = enc._steps[(enc._row(((p, expr.BTRUE),)), memory.rounds.get(t - 1, (0, 0)))]
        assert step.row is not None


def test_multi_entry_row_stays_symbolic():
    rng = random.Random(11)
    for _ in range(30):
        monitor = synthesis.build(random_formula(rng, ["a", "b"], rng.randint(1, 3)))
        if monitor.n_states < 2:
            continue
        t = rng.randint(2, 5)
        p1, p2 = rng.sample(range(monitor.n_states), 2)
        # the first entry is true: only the row's size rules out a lookup
        unknown = expr.batom(Atom(t - 2, "z"))
        prev = {p1: expr.BTRUE, p2: rng.choice([unknown, expr.bnot(unknown)])}
        _step_matches_symbolic(EHE(monitor, 0, _full_round(rng, Memory(), monitor, t - 1)), prev, t)


def _random_entry(rng, names, t):
    """A small expression over round-t atoms that is a ``simplify`` fixed
    point, as every real entry is: ``resolve`` skips ``simplify`` on an
    entry that takes in no atom, where ``seval`` would rewrite it."""
    a, b = (expr.batom(Atom(t, rng.choice(names))) for _ in range(2))
    shapes = [a, expr.bnot(a), expr.band(a, expr.bnot(b)), expr.bor(expr.bnot(a), b)]
    return rng.choice([e for e in shapes if expr.simplify(e) is e])


def test_partial_step_table_matches_symbolic():
    rng = random.Random(29)
    monitors = [fig2a()]
    while len(monitors) < 25:
        m = synthesis.build(random_formula(rng, ["a", "b", "c"], rng.randint(1, 3)))
        if m.n_states > 1:
            monitors.append(m)
    for monitor in monitors:
        # one encoding over one memory; each case reads its own two rounds
        enc = EHE(monitor, 0, Memory())
        memory = enc.memory
        names = list(monitor.alphabet) + ["z"]
        cases = []
        for i in range(40):
            t = 2 * i + 2
            for name in monitor.alphabet:  # a random part of round t-1
                if rng.random() < 0.5:
                    memory.store(Atom(t - 1, name), rng.random() < 0.5)
            if rng.random() < 0.5:
                prev = {rng.randrange(monitor.n_states): expr.BTRUE}
            else:
                # entries over round t-2, some of whose atoms are now stored
                states = rng.sample(range(monitor.n_states), rng.randint(2, monitor.n_states))
                prev = {p: _random_entry(rng, names, t - 2) for p in states}
                for name in names:
                    if rng.random() < 0.4:
                        memory.store(Atom(t - 2, name), rng.random() < 0.5)
            cases.append((prev, t))
        for prev, t in cases:  # cold table
            _step_matches_symbolic(enc, prev, t)
        filled = dict(enc._steps)
        assert any(known for _, (known, _) in filled)
        for prev, t in cases:  # warm table
            _step_matches_symbolic(enc, prev, t)
        assert enc._steps == filled


def _smove_resolve_trace(rng, monitor, ahead=2):
    """Random interleaving of smove, late stores, gc and resolve, as
    (operation, arguments) steps; rows run up to ``ahead`` rounds past the
    stored ones."""
    ops = []
    late = []
    t_last = 0
    for t in range(12):
        for name in monitor.alphabet:
            if rng.random() < 0.6:
                ops.append(("store", (Atom(t, name), rng.random() < 0.5)))
            else:
                late.append((Atom(t, name), rng.random() < 0.5))
        for _ in range(rng.randint(0, 3)):
            if late:
                ops.append(("store", late.pop(rng.randrange(len(late)))))
        for _ in range(rng.choice([0, 1, 1, 2])):
            # rows may lag behind the stored rounds or run ahead of them
            t_last = max(t_last, min(t + ahead, t_last + rng.randint(0, ahead)))
            ops.append(("smove", (t_last,)))
        if rng.random() < 0.15 and t > 2:
            ops.append(("gc", (t - 3,)))
        ops.append(("resolve", ()))
    return ops


def _forget_narrowing(enc):
    """Make the next narrowing pass walk and scan every row, so that the
    reference takes every row whichever way the code under test picks
    them."""
    enc._version = None


def test_resolve_skipping_narrowed_rows_matches_full_walk():
    rng = random.Random(31)
    for _ in range(40):
        monitor = synthesis.build(random_formula(rng, ["a", "b", "c"], rng.randint(1, 4)))
        memory = Memory()
        stats_fast, stats_full = expr.SimplifyStats(), expr.SimplifyStats()
        fast = EHE(monitor, 0, memory, stats_fast)
        full = EHE(monitor, 0, memory, stats_full)
        for op, args in _smove_resolve_trace(rng, monitor):
            if op == "store":
                memory.store(*args)
            elif op == "gc":
                memory.gc(*args)
            elif op == "smove":
                fast.smove(*args)
                _forget_narrowing(full)
                full.smove(*args)
            else:
                got = fast.resolve()
                _forget_narrowing(full)
                want = full.resolve()
                assert got == want
                assert _pairs(fast) == _pairs(full)
                assert fast.n_entries == full.n_entries
                assert fast.total_size == full.total_size
                assert stats_fast.simplifications == stats_full.simplifications


def _assert_fixed_points(enc):
    for row in enc.entries.values():
        for _, e in row.pairs:
            stats = expr.SimplifyStats()
            assert expr.simplify(e, stats) is e
            assert stats.simplifications == 0


def test_entries_are_simplify_fixed_points():
    # resolve skips simplify for an entry no memory atom touches; that
    # loses no rewrite only because every entry is already a fixed point
    rng = random.Random(23)
    for _ in range(40):
        monitor = synthesis.build(random_formula(rng, ["a", "b", "c"], rng.randint(1, 4)))
        trace = random_trace(rng, sorted(monitor.alphabet), 10)
        memory = Memory()
        enc = EHE(monitor, 0, memory)
        late = []
        for t, event in enumerate(trace):
            for name, value in event.items():
                if rng.random() < 0.6:
                    memory.store(Atom(t, name), value)
                else:
                    late.append((Atom(t, name), value))
            for _ in range(rng.randint(0, 2)):
                if late:
                    memory.store(*late.pop(rng.randrange(len(late))))
            enc.smove(t + 1)
            _assert_fixed_points(enc)
            enc.resolve()
            _assert_fixed_points(enc)


class _AbsoluteEHE:
    """Reference for ``EHE``: rows at absolute atom times, every entry
    narrowed by ``seval`` before every row is expanded by
    ``_symbolic_row``."""

    def __init__(self, monitor, memory):
        self.monitor, self.memory = monitor, memory
        self.rows = {0: {monitor.initial: expr.BTRUE}}
        self.t_last = 0
        self.found = None
        self.stats = expr.SimplifyStats()

    def smove(self, t_future):
        if t_future <= self.t_last:
            return self.resolve()
        self.resolve()
        for t in range(self.t_last + 1, t_future + 1):
            self.rows[t], work = _symbolic_row(self.monitor, self.rows[t - 1], t, self.memory)
            self.stats.simplifications += work
        self.t_last = t_future
        return self.resolve()

    def resolve(self):
        best = self.found
        for t in sorted(self.rows):
            row = self.rows[t]
            for q in sorted(row):
                e = seval(row[q], self.memory, self.stats)
                if e is expr.BFALSE:
                    del row[q]
                    continue
                row[q] = e
                if e is expr.BTRUE and (best is None or t >= best[0]):
                    best = (t, q, self.monitor.labels[q])
        self.found = best
        if best is not None:
            self.rows = {t: row for t, row in self.rows.items() if t >= best[0]}
        return best


def test_frame_relative_rows_match_absolute_recipe():
    rng = random.Random(37)
    for _ in range(40):
        monitor = synthesis.build(random_formula(rng, ["a", "b", "c"], rng.randint(1, 4)))
        memory = Memory()
        stats = expr.SimplifyStats()
        enc = EHE(monitor, 0, memory, stats)
        ref = _AbsoluteEHE(monitor, memory)
        # rows far ahead of the memory are symbolic rows with equal states
        # and masks but different entries, which the step table tells apart
        for op, args in _smove_resolve_trace(rng, monitor, ahead=5):
            if op == "store":
                memory.store(*args)
                continue
            if op == "gc":
                memory.gc(*args)
            elif op == "smove":
                assert enc.smove(*args) == ref.smove(*args)
            else:
                assert enc.resolve() == ref.resolve()
            assert _rows(enc) == ref.rows
            assert stats.simplifications == ref.stats.simplifications
            assert enc.n_entries == sum(len(row) for row in ref.rows.values())
            assert enc.total_size == sum(
                e.size for row in ref.rows.values() for e in row.values()
            )


def test_smove_appends_step_rows_narrowed_against_memory():
    rng = random.Random(41)
    for _ in range(40):
        monitor = synthesis.build(random_formula(rng, ["a", "b", "c"], rng.randint(1, 4)))
        memory = Memory()
        enc = EHE(monitor, 0, memory)
        for op, args in _smove_resolve_trace(rng, monitor, ahead=3):
            if op == "store":
                memory.store(*args)
            elif op == "gc":
                memory.gc(*args)
            elif op == "resolve":
                enc.resolve()
            else:
                t_last = enc.t_last
                enc.smove(*args)
                if enc.t_last == t_last:
                    continue  # nothing to expand, nothing narrowed
                # each new row is the step table's own row for its key;
                # rows before a new certain row are dropped
                for t in range(max(t_last, min(enc.entries)) + 1, enc.t_last + 1):
                    key = (enc.entries[t - 1], memory.rounds.get(t - 1, (0, 0)))
                    assert enc.entries[t] is enc._steps[key].row
                for t, row in enc.entries.items():
                    for _, e in row.pairs:
                        atoms = expr.atoms(expr.stamp(e, t))
                        assert all(memory.get_at(a.time, a.name) is None for a in atoms)


def _assert_narrow_entries_exact(enc):
    """Every narrow-table entry is a fresh ``seval`` of its key's row under
    its key's values, with the same rewrite count and count changes."""
    for (row, known, values), narrowed in enc._narrows.items():
        atoms = sorted({a for _, e in row.pairs for a in expr.atoms(e)})
        assert row.atoms == tuple(atoms)
        assert known and known < 1 << len(atoms) and not values & ~known
        m = Memory()
        for i, a in enumerate(atoms):
            if known >> i & 1:
                m.store(a, bool(values >> i & 1))
        stats = expr.SimplifyStats()
        pairs = tuple((q, seval(e, m, stats)) for q, e in row.pairs)
        pairs = tuple((q, e) for q, e in pairs if e is not expr.BFALSE)
        assert narrowed.row.pairs == pairs != row.pairs
        assert narrowed.rewrites == stats.simplifications
        assert narrowed.d_entries == len(pairs) - len(row.pairs)
        assert narrowed.d_size == sum(e.size for _, e in pairs) - sum(e.size for _, e in row.pairs)


def test_narrow_table_cleared_at_random_matches_kept_table():
    rng = random.Random(43)
    stored = 0
    for _ in range(40):
        monitor = synthesis.build(random_formula(rng, ["a", "b", "c"], rng.randint(1, 4)))
        memory = Memory()
        stats_kept, stats_cleared = expr.SimplifyStats(), expr.SimplifyStats()
        kept = EHE(monitor, 0, memory, stats_kept)
        cleared = EHE(monitor, 0, memory, stats_cleared)
        for op, args in _smove_resolve_trace(rng, monitor, ahead=3):
            if rng.random() < 0.15:
                cleared._narrows.clear()
            if rng.random() < 0.1:
                cleared._rows.clear()
            if rng.random() < 0.1:
                cleared._steps.clear()
            if op == "store":
                memory.store(*args)
            elif op == "gc":
                memory.gc(*args)
            elif op == "smove":
                kept.smove(*args)
                cleared.smove(*args)
            else:
                assert kept.resolve() == cleared.resolve()
            assert _pairs(kept) == _pairs(cleared)
            assert kept.n_entries == cleared.n_entries
            assert kept.total_size == cleared.total_size
            assert stats_kept.simplifications == stats_cleared.simplifications
        stored += len(kept._narrows)
        _assert_narrow_entries_exact(kept)
        _assert_narrow_entries_exact(cleared)
    assert stored  # the traces narrow rows through the table


def test_walks_with_a_trail_match_walks_without_one():
    # instances respawned one after another over one memory, as a node
    # respawns them in one round: with a trail, each reports what it would
    # report without one and is charged the same rewrites, whatever its
    # target, and one that catches up stops early
    rng = random.Random(59)
    caught_up = 0
    for _ in range(40):
        monitor = synthesis.build(random_formula(rng, ["a", "b", "c"], rng.randint(1, 4)))
        memory = Memory()
        for t in range(30):
            for name in monitor.alphabet:
                if rng.random() < 0.9:
                    memory.store(Atom(t, name), rng.random() < 0.5)
        stats, plain_stats = expr.SimplifyStats(), expr.SimplifyStats()
        enc, plain = EHE(monitor, 0, memory, stats), EHE(monitor, 0, memory, plain_stats)
        trail = ehe.Trail()
        for origin in range(25):
            target = rng.choice([origin, 26, 26, 28, 30])
            enc.respawn(origin)
            plain.respawn(origin)
            assert enc.smove(target, trail) == plain.smove(target)
            assert stats.simplifications == plain_stats.simplifications
            caught_up += enc.t_last < plain.t_last
            if rng.random() < 0.5:
                memory.gc(origin)  # what concluding round ``origin`` does
    assert caught_up
