"""Timestamp-indexed observation store with garbage collection.

Each round is stored as the pair of bitmasks the EHE step table is keyed
by: ``rounds[t]`` is ``(known, values)`` over the memory's own names, where
a name takes the next bit the first time it is stored and keeps it for
good.  Bit ``names[n]`` of ``known`` is set when n is stored for round t,
and of ``values`` when it is stored true; a round with nothing stored has
no key.  The EHE keys its step table by the stored tuple, and its
narrow table by ``masks_over`` a row's atoms.
"""

from __future__ import annotations

from typing import Optional

from .base import ValidationError
from .expr import Atom


class ConflictingObservationError(ValidationError):
    """Same atom stored twice with different verdicts."""

    def __init__(self, atom: Atom, old: bool, new: bool):
        super().__init__(f"{atom} already {old}, refusing {new}")
        self.atom = atom


class Memory:
    """Partial function from atoms to final verdicts (True/False).

    A version counter increments on every mutation so callers can cache
    evaluation results against a memory snapshot.  ``gc`` drops rounds
    from a low-water mark up; ``max_time`` reads a high mark.
    """

    __slots__ = ("names", "rounds", "_len", "_low", "_high", "version")

    def __init__(self) -> None:
        self.names: dict[str, int] = {}  # name -> bit, in bit order
        self.rounds: dict[int, tuple[int, int]] = {}
        self._len = 0
        self._low = self._high = 0  # with rounds stored: low <= min, high == max
        self.version = 0

    def __len__(self) -> int:
        return self._len

    def get_at(self, t: int, name: str) -> Optional[bool]:
        bit = self.names.get(name)
        if bit is None:
            return None
        known, values = self.rounds.get(t, (0, 0))
        return bool(values >> bit & 1) if known >> bit & 1 else None

    def store(self, atom: Atom, value: bool) -> None:
        self.store_at(atom.time, atom.name, value)

    def store_at(self, t: int, name: str, value: bool) -> None:
        mask = 1 << self.names.setdefault(name, len(self.names))
        rounds = self.rounds
        known, values = rounds.get(t, (0, 0))
        if known & mask:
            old = bool(values & mask)
            if old != value:
                raise ConflictingObservationError(Atom(t, name), old, value)
            return
        if not rounds:
            self._low = self._high = t
        elif t > self._high:
            self._high = t
        elif t < self._low:
            self._low = t  # a late store below the mark lowers it
        rounds[t] = (known | mask, values | mask if value else values)
        self._len += 1
        self.version += 1

    def masks_over(self, atoms: tuple[Atom, ...], t: int) -> tuple[int, int]:
        """(known, values) over ``atoms`` in frame t: bit i of ``known`` is
        set when ``atoms[i]`` is stored for round ``atoms[i].time + t``, and
        of ``values`` when it is stored true."""
        names, rounds = self.names, self.rounds
        known = values = 0
        for i, (time, name) in enumerate(atoms):
            bit = names.get(name)
            if bit is not None:
                stored, true = rounds.get(time + t, (0, 0))
                if stored >> bit & 1:
                    known |= 1 << i
                    if true >> bit & 1:
                        values |= 1 << i
        return known, values

    def max_time(self) -> Optional[int]:
        return self._high if self.rounds else None

    def gc(self, t: int) -> None:
        """Drop every atom with timestamp <= t, from the low-water mark up."""
        rounds, n = self.rounds, len(self.rounds)
        for ts in range(self._low, min(t, self._high) + 1):
            known = rounds.pop(ts, None)
            if known is not None:
                self._len -= known[0].bit_count()
        self._low = max(self._low, t + 1)
        if len(rounds) < n:
            self.version += 1

