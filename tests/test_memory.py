"""Observation store: conflicts, timestamp index, garbage collection."""

import pytest

from decrv.expr import Atom
from decrv.memory import ConflictingObservationError, Memory


def test_store_and_get():
    m = Memory()
    m.store(Atom(23, "s1"), True)
    assert m.get(Atom(23, "s1")) is True
    assert m.get(Atom(23, "l1")) is None
    assert Atom(23, "s1") in m
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
    assert m.dump() == "3,a,TRUE\n3,b,FALSE\n5,b,FALSE"
    assert Atom(4, "a") not in m and Atom(4, "b") not in m
    assert m.max_time() == 5
    assert Memory().max_time() is None


def test_gc_removes_at_or_before():
    m = Memory()
    m.store(Atom(3, "a"), True)
    m.store(Atom(5, "b"), False)
    m.gc(4)
    assert m.get(Atom(3, "a")) is None
    assert m.get(Atom(5, "b")) is False
    assert m.dump() == "5,b,FALSE"


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
    snapshot = m.dump()
    m.gc(3)
    assert m.dump() == snapshot


def test_version_tracks_mutations():
    m = Memory()
    v0 = m.version
    m.store(Atom(1, "a"), True)
    assert m.version > v0
    v1 = m.version
    m.gc(1)
    assert m.version > v1


def test_dump_format():
    m = Memory()
    m.store(Atom(5, "b"), False)
    m.store(Atom(3, "a"), True)
    assert m.dump() == "3,a,TRUE\n5,b,FALSE"


def test_masks_over_alphabet():
    m = Memory()
    alphabet = ("a", "b", "c")
    m.store(Atom(3, "a"), True)
    m.store(Atom(3, "c"), False)
    m.store(Atom(4, "b"), True)
    assert m.masks(alphabet, 3) == (0b101, 0b001)
    assert m.masks(alphabet, 4) == (0b010, 0b010)
    assert m.masks(alphabet, 5) == (0, 0)
    assert m.masks(("c", "a"), 3) == (0b11, 0b10)


def test_masks_follow_store_and_gc():
    m = Memory()
    alphabet = ("a", "b")
    assert m.masks(alphabet, 3) == (0, 0)
    m.store(Atom(3, "b"), True)
    assert m.masks(alphabet, 3) == (0b10, 0b10)
    m.store(Atom(4, "a"), True)  # another round leaves round 3 as it was
    assert m.masks(alphabet, 3) == (0b10, 0b10)
    m.store(Atom(3, "a"), False)
    assert m.masks(alphabet, 3) == (0b11, 0b10)
    m.store(Atom(3, "a"), False)  # a repeated store changes nothing
    assert m.masks(alphabet, 3) == (0b11, 0b10)
    m.gc(3)
    assert m.masks(alphabet, 3) == (0, 0)
    assert m.masks(alphabet, 4) == (0b01, 0b01)
    m.store(Atom(3, "b"), False)  # a round stored again after gc
    assert m.masks(alphabet, 3) == (0b10, 0)
