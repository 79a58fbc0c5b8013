"""Timestamp-indexed observation store with garbage collection."""

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

    __slots__ = ("_data", "_by_time", "_masks", "version")

    def __init__(self) -> None:
        self._data: dict[Atom, bool] = {}
        self._by_time: dict[int, set[Atom]] = {}
        # round -> (alphabet, (known, values)), dropped when the round changes
        self._masks: dict[int, tuple[tuple[str, ...], tuple[int, int]]] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._data

    def get(self, atom: Atom) -> Optional[bool]:
        return self._data.get(atom)

    def store(self, atom: Atom, value: bool) -> None:
        old = self._data.get(atom)
        if old is not None:
            if old != value:
                raise ConflictingObservationError(atom, old, value)
            return
        self._data[atom] = value
        self._by_time.setdefault(atom.time, set()).add(atom)
        self._masks.pop(atom.time, None)
        self.version += 1

    def masks(self, alphabet: tuple[str, ...], t: int) -> tuple[int, int]:
        """(known, values): bit i of ``known`` is set when ``alphabet[i]`` is
        stored for round t, and of ``values`` when it is stored true."""
        cached = self._masks.get(t)
        if cached is not None and cached[0] is alphabet:
            return cached[1]
        known = values = 0
        data = self._data
        for i, name in enumerate(alphabet):
            value = data.get(Atom(t, name))
            if value is not None:
                known |= 1 << i
                if value:
                    values |= 1 << i
        self._masks[t] = (alphabet, (known, values))
        return known, values

    def max_time(self) -> Optional[int]:
        return max(self._by_time) if self._by_time else None

    def gc(self, t: int) -> None:
        """Drop every atom with timestamp <= t."""
        stale = [ts for ts in self._by_time if ts <= t]
        for ts in stale:
            for atom in self._by_time.pop(ts):
                del self._data[atom]
        for ts in [ts for ts in self._masks if ts <= t]:
            del self._masks[ts]
        if stale:
            self.version += 1

    def dump(self) -> str:
        """One ``t,name,verdict`` line per entry, sorted by (t, name)."""
        lines = [
            f"{a.time},{a.name},{'TRUE' if v else 'FALSE'}"
            for a, v in sorted(self._data.items())
        ]
        return "\n".join(lines)
