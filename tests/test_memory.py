"""Observation store: conflicts, timestamp index, garbage collection, masks."""

import pytest
from hypothesis import given, strategies as st

from decrv.expr import Atom
from decrv.memory import ConflictingObservationError, Memory


def _contents(m, times=range(8)):
    """Every atom stored for ``times``, read through ``get_at``."""
    return {
        Atom(t, name): value
        for t in times
        for name in m.names
        if (value := m.get_at(t, name)) is not None
    }


def test_store_and_get():
    m = Memory()
    m.store(Atom(23, "s1"), True)
    assert m.get_at(23, "s1") is True
    assert m.get_at(23, "l1") is None
    assert m.get_at(22, "s1") is None
    assert len(m) == 1


def test_store_is_idempotent():
    m = Memory()
    m.store(Atom(23, "s1"), True)
    version = m.version
    m.store(Atom(23, "s1"), True)
    assert len(m) == 1
    assert m.version == version


def test_conflicting_store_raises():
    m = Memory()
    m.store(Atom(23, "s1"), True)
    with pytest.raises(ConflictingObservationError):
        m.store(Atom(23, "s1"), False)


def test_timestamp_index():
    m = Memory()
    m.store(Atom(3, "a"), True)
    m.store(Atom(3, "b"), False)
    m.store(Atom(5, "b"), False)
    assert _contents(m) == {Atom(3, "a"): True, Atom(3, "b"): False, Atom(5, "b"): False}
    assert m.get_at(4, "a") is None and m.get_at(4, "b") is None
    assert m.max_time() == 5
    assert Memory().max_time() is None


def test_gc_removes_at_or_before():
    m = Memory()
    m.store(Atom(3, "a"), True)
    m.store(Atom(5, "b"), False)
    m.gc(4)
    assert m.get_at(3, "a") is None
    assert m.get_at(5, "b") is False
    assert _contents(m) == {Atom(5, "b"): False}


def test_gc_boundary_inclusive():
    m = Memory()
    m.store(Atom(4, "a"), True)
    m.gc(4)
    assert len(m) == 0


def test_gc_before_all_entries_is_noop():
    m = Memory()
    m.store(Atom(3, "a"), True)
    version = m.version
    m.gc(-1)
    assert len(m) == 1
    assert m.version == version


def test_gc_idempotent():
    m = Memory()
    m.store(Atom(3, "a"), True)
    m.store(Atom(5, "b"), False)
    m.gc(3)
    snapshot = _contents(m)
    m.gc(3)
    assert _contents(m) == snapshot


def test_version_tracks_mutations():
    m = Memory()
    v0 = m.version
    m.store(Atom(1, "a"), True)
    assert m.version > v0
    v1 = m.version
    m.gc(1)
    assert m.version > v1


def _masks(m, t):
    """Round t as the memory stores it: (known, values) over its names."""
    return m.rounds.get(t, (0, 0))


def test_masks_over_names():
    m = Memory()
    m.store(Atom(3, "c"), False)  # bits go to names in order of first store
    m.store(Atom(3, "a"), True)
    m.store(Atom(4, "b"), True)
    assert m.names == {"c": 0, "a": 1, "b": 2}
    assert _masks(m, 3) == (0b011, 0b010)
    assert _masks(m, 4) == (0b100, 0b100)
    assert _masks(m, 5) == (0, 0)


def test_masks_follow_store_and_gc():
    m = Memory()
    assert _masks(m, 3) == (0, 0)
    m.store(Atom(3, "b"), True)
    assert _masks(m, 3) == (0b01, 0b01)
    m.store(Atom(4, "a"), True)  # another round leaves round 3 as it was
    assert _masks(m, 3) == (0b01, 0b01)
    assert _masks(m, 4) == (0b10, 0b10)
    m.store(Atom(3, "a"), False)  # a late store into round 3
    assert _masks(m, 3) == (0b11, 0b01)
    m.store(Atom(3, "a"), False)  # a repeated store changes nothing
    assert _masks(m, 3) == (0b11, 0b01)
    m.gc(3)
    assert 3 not in m.rounds
    assert _masks(m, 4) == (0b10, 0b10)
    m.store(Atom(3, "b"), False)  # a round stored again after gc
    assert _masks(m, 3) == (0b01, 0)
    assert m.names == {"b": 0, "a": 1}  # gc keeps every name's bit


_ATOMS = st.tuples(st.integers(0, 5), st.sampled_from("abcd")).map(lambda p: Atom(*p))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("store"), _ATOMS, st.booleans()),
        st.tuples(st.just("gc"), st.integers(-1, 6)),
    ),
    max_size=40,
)


@given(_OPS)
def test_matches_dict_reference(ops):
    """Stores, conflicting stores and gc against a plain atom -> bool dict."""
    m, ref = Memory(), {}
    for op in ops:
        version = m.version
        if op[0] == "store":
            _, atom, value = op
            if ref.get(atom, value) != value:
                with pytest.raises(ConflictingObservationError):
                    m.store(atom, value)
                changed = False
            else:
                changed = atom not in ref
                ref[atom] = value
                m.store(atom, value)
        else:
            stale = [a for a in ref if a.time <= op[1]]
            for a in stale:
                del ref[a]
            changed = bool(stale)
            m.gc(op[1])
        assert (m.version != version) == changed
        for t in range(7):
            for name in "abcd":
                assert m.get_at(t, name) is ref.get(Atom(t, name))
            known, values = _masks(m, t)
            decoded = {
                Atom(t, name): bool(values >> bit & 1)
                for name, bit in m.names.items()
                if known >> bit & 1
            }
            assert decoded == {a: v for a, v in ref.items() if a.time == t}
        assert len(m) == len(ref)
        assert m.max_time() == max((a.time for a in ref), default=None)
        assert _contents(m) == ref
        # a row's atoms in frame t: bit i reads atom i at a.time + t
        atoms = tuple(Atom(dt, name) for dt in (-1, 0, 2) for name in "abcde")
        for t in range(-2, 7):
            known, values = m.masks_over(atoms, t)
            for i, a in enumerate(atoms):
                got = ref.get(Atom(a.time + t, a.name))
                assert bool(known >> i & 1) == (got is not None)
                assert bool(values >> i & 1) == (got is True)


_BOOKKEEPING_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, 30), st.sampled_from("abc"), st.booleans()),
        # a store k rounds below the highest gc point so far: below the
        # low-water mark, or into a round gc already emptied
        st.tuples(st.just("late"), st.integers(0, 6), st.sampled_from("abc"), st.booleans()),
        st.tuples(st.just("gc"), st.integers(-1, 31)),
    ),
    max_size=60,
)


@given(_BOOKKEEPING_OPS)
def test_low_and_high_marks_match_dict_reference(ops):
    """``gc`` from a low-water mark and ``max_time`` from a high mark, under
    stores, late stores below the mark and gc, against a plain dict."""
    m, ref = Memory(), {}
    mark = -1
    for op in ops:
        version = m.version
        if op[0] == "gc":
            mark = max(mark, op[1])
            stale = [a for a in ref if a.time <= op[1]]
            for a in stale:
                del ref[a]
            m.gc(op[1])
            changed = bool(stale)
        else:
            kind, t, name, value = op
            atom = Atom(t if kind == "store" else mark - t, name)
            if ref.get(atom, value) != value:
                with pytest.raises(ConflictingObservationError):
                    m.store(atom, value)
                changed = False
            else:
                changed = atom not in ref
                ref[atom] = value
                m.store(atom, value)
        assert (m.version != version) == changed
        assert len(m) == len(ref)
        assert m.max_time() == max((a.time for a in ref), default=None)
        for t in range(-8, 32):
            known, values = _masks(m, t)
            decoded = {
                Atom(t, name): bool(values >> bit & 1)
                for name, bit in m.names.items()
                if known >> bit & 1
            }
            assert decoded == {a: v for a, v in ref.items() if a.time == t}
            for name in "abc":
                assert m.get_at(t, name) is ref.get(Atom(t, name))
