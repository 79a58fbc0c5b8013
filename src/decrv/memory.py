"""Timestamp-indexed observation store with garbage collection.

Each round is stored as the pair of bitmasks the EHE step table is keyed
by: ``(known, values)`` over the memory's own names, where a name takes
the next bit the first time it is stored and keeps it for good.
"""

from __future__ import annotations

from typing import Optional

from .expr import Atom


class ConflictingObservationError(ValueError):
    """Same atom stored twice with different verdicts."""

    def __init__(self, atom: Atom, old: bool, new: bool):
        super().__init__(f"{atom} already {old}, refusing {new}")
        self.atom = atom


class Memory:
    """Partial function from atoms to final verdicts (True/False).

    A version counter increments on every mutation so callers can cache
    evaluation results against a memory snapshot.
    """

    __slots__ = ("names", "_rounds", "_len", "version")

    def __init__(self) -> None:
        self.names: dict[str, int] = {}  # name -> bit, in bit order
        self._rounds: dict[int, tuple[int, int]] = {}
        self._len = 0
        self.version = 0

    def __len__(self) -> int:
        return self._len

    def __contains__(self, atom: Atom) -> bool:
        return self.get(atom) is not None

    def get(self, atom: Atom) -> Optional[bool]:
        bit = self.names.get(atom.name)
        if bit is None:
            return None
        known, values = self._rounds.get(atom.time, (0, 0))
        return bool(values >> bit & 1) if known >> bit & 1 else None

    def store(self, atom: Atom, value: bool) -> None:
        mask = 1 << self.names.setdefault(atom.name, len(self.names))
        known, values = self._rounds.get(atom.time, (0, 0))
        if known & mask:
            old = bool(values & mask)
            if old != value:
                raise ConflictingObservationError(atom, old, value)
            return
        self._rounds[atom.time] = (known | mask, values | mask if value else values)
        self._len += 1
        self.version += 1

    def masks(self, t: int) -> tuple[int, int]:
        """(known, values): bit ``names[n]`` of ``known`` is set when n is
        stored for round t, and of ``values`` when it is stored true."""
        return self._rounds.get(t, (0, 0))

    def max_time(self) -> Optional[int]:
        return max(self._rounds) if self._rounds else None

    def gc(self, t: int) -> None:
        """Drop every atom with timestamp <= t."""
        stale = [ts for ts in self._rounds if ts <= t]
        for ts in stale:
            self._len -= self._rounds.pop(ts)[0].bit_count()
        if stale:
            self.version += 1

    def dump(self) -> str:
        """One ``t,name,verdict`` line per entry, sorted by (t, name)."""
        lines = [
            f"{t},{name},{'TRUE' if values >> bit & 1 else 'FALSE'}"
            for t, (known, values) in sorted(self._rounds.items())
            for name, bit in sorted(self.names.items())
            if known >> bit & 1
        ]
        return "\n".join(lines)
