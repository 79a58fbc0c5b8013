"""Execution history encoding: possible automaton states under partial info.

An EHE tracks, for each expanded round, a Boolean expression per reachable
automaton state; the expression over timestamped atoms is true exactly when
the automaton would be in that state.  Once an expression narrows to the
constant true, the state (and hence the verdict) at that round is certain.

One pass per step: ``smove`` narrows the rows if the memory changed,
then expands and scans each new row in one loop, so each row grows from a
narrowed predecessor; ``resolve`` is a step that does not expand.  Exact
catch-up: the instances respawned after a conclusion in one round walk
fresh over one memory, so a walk that takes, to a certain round, the
step-table entry that the walk concluded before it took there (its
``Trail``) goes on as that walk did, with the same rewrite count and
verdict.  The trail compares step entries, not rows: rows are hash-consed
(below), and two walks may reach one row by different steps.

Rows are hash-consed per encoding: ``_rows`` takes a row's value, its
``(q, expression)`` pairs, to the one ``_Row`` of that value, which also
holds the row's sorted atoms, node count and certain state, worked out
once.  Every step or narrow result, respawned initial row and ``entries``
value goes through it, so a row hashes and compares by identity and a
table probe hashes no pairs.

Frames: row t is stored in its own time frame, as ``(q, stamp(e, -t))``
pairs in q order, so its atoms carry times relative to t; ``stamp(e, t)``
stamps an entry back.  Expanding narrowed row t-1 to row t depends only
on row t-1 in its frame and on what the memory knows of round t-1, so the
encoding keeps one step table for every row of every instance it runs,
keyed by ``(prev, masks)``: ``masks`` is round t-1 as the memory stores
it (``Memory.rounds``), bitmasks over the memory's names (not
``monitor.alphabet``) of the atoms it holds and of those that are true.
An entry holds row t in frame t, which the encoding stores as is; a
certain predecessor is just the row ``((p, true),)``.  A miss decodes the
masks through the memory's names and builds in frame t-1, where the guard
templates sit at time 0: substitute the known atoms into the guards,
``band`` each with its predecessor entry, simplify per successor and
stamp by -1.  A hit does no ``stamp``, ``band`` or ``simplify``.

Narrowing row t is a lookup too.  What it narrows to depends only on the
row in its frame and on what the memory holds for the row's atoms, so the
encoding keeps one narrow table, keyed by ``(row, known, values)``:
bitmasks over the row's sorted atoms of those the memory holds at
``a.time + t`` and of those that are true (``Memory.masks_over``).  A row
with no atoms, or none of whose atoms is known, is left as it is; a miss
substitutes the known atoms and simplifies each entry that takes one in
(``_narrow``).  Entries of both tables are ``_Entry``s: the
row a key leads to, its rewrite count and what it adds to the encoding's
entry and node counts, applied the same way by ``smove`` and ``resolve``.
The tables belong to one node's encoding for one run: ``respawn`` starts
the next instance over the same memory and keeps them.

Why a frame-relative row is exact: ``simplify`` and ``substitute_atoms``
compare nodes by identity only, so renaming atoms one-to-one, as stamping
does, renames their results and applies the same rules the same number of
times.  Rows, node counts and rewrite counts are those of narrowing and
building every row symbolically at absolute times.
"""

from __future__ import annotations

from typing import Optional

from . import expr, synthesis
from .expr import Atom, BoolExpr, SimplifyStats
from .memory import Memory
from .verdicts import Verdict

Pairs = tuple[tuple[int, BoolExpr], ...]  # a row's value: (q, expression) in q order


class _Row:
    """One row value of an encoding, in its own frame: ``pairs``, its
    ``(q, expression)`` entries in q order; ``atoms``, their sorted atoms,
    the bit order of its narrow masks; ``size``, its node count; and
    ``certain``, the state whose entry is true, if any.  ``EHE._row`` makes
    one per value, so a row hashes and compares by identity."""

    __slots__ = ("pairs", "atoms", "size", "certain")

    def __init__(self, pairs: Pairs) -> None:
        self.pairs = pairs
        self.atoms = tuple(sorted(set().union(*(expr.atoms(e) for _, e in pairs))))
        self.size = sum(e.size for _, e in pairs)
        self.certain = next((q for q, e in pairs if e is expr.BTRUE), None)


class _Entry:
    """A step-table or narrow-table entry: the row one key leads to, its
    rewrite count, and what it adds to the encoding's entry and node
    counts."""

    __slots__ = ("row", "rewrites", "d_entries", "d_size")

    def __init__(self, row: _Row, rewrites: int, prev: Optional[_Row] = None) -> None:
        self.row = row
        self.rewrites = rewrites
        # a step adds its row; a narrowing replaces its key's row
        self.d_entries = len(row.pairs) - (0 if prev is None else len(prev.pairs))
        self.d_size = row.size - (0 if prev is None else prev.size)


def _build(
    monitor: synthesis.MooreMonitor, names: dict[str, int], prev: Pairs, known: int, values: int
) -> tuple[Pairs, int]:
    """Expand ``prev`` (row t-1 in frame t-1) under the masks of round t-1,
    whose bits are those of the memory's ``names``: row t in frame t and
    its rewrite count."""
    templates = synthesis.guard_templates(monitor)
    at0 = {
        Atom(0, name): bool(values >> i & 1)
        for name, i in names.items()
        if known >> i & 1
    }
    terms: dict[int, list[BoolExpr]] = {}
    for p, e in prev:
        for q, guard in sorted(templates[p].items()):
            if at0:
                guard = expr.substitute_atoms(guard, at0.get)
            terms.setdefault(q, []).append(expr.band(e, guard))
    stats = SimplifyStats()
    row = []
    for q in sorted(terms):
        combined = expr.simplify(expr.disj(terms[q]), stats)
        if combined is not expr.BFALSE:
            row.append((q, expr.stamp(combined, -1)))
    return tuple(row), stats.simplifications


def _narrow(row: _Row, known: int, values: int) -> tuple[Pairs, int]:
    """Substitute the known atoms into every entry of ``row`` and simplify
    the entries that take one in; drop those that fold to false."""
    at = {a: bool(values >> i & 1) for i, a in enumerate(row.atoms) if known >> i & 1}
    lookup, memo = at.get, {}
    stats = SimplifyStats()
    pairs = []
    for q, e in row.pairs:
        if not isinstance(e, expr.BConst):
            # entries are simplify fixed points: with no atom substituted
            # there is nothing to rewrite
            narrowed = expr.substitute_atoms(e, lookup, memo)
            if narrowed is not e:
                e = expr.simplify(narrowed, stats)
                if e is expr.BFALSE:
                    continue
        pairs.append((q, e))
    return tuple(pairs), stats.simplifications


class Trail:
    """The last walk a node concluded among the instances it respawned in
    the current round, for those respawned after it, which walk fresh over
    the same memory: ``steps[t]`` is ``(step, rest)``, the step-table entry
    that built the walk's row at round t and the rewrite count of its rows
    after t; ``target`` and ``found`` are the round it expanded to and what
    its ``smove`` returned.  It dies with the round.  Walks meet on step
    entries: two walks may hold one hash-consed row after different steps."""

    __slots__ = ("target", "found", "steps")

    def __init__(self) -> None:
        self.target: Optional[int] = None
        self.found: Optional[tuple[int, int, Verdict]] = None
        self.steps: dict[int, tuple[_Entry, int]] = {}


class EHE:
    """Rows round -> ``_Row`` for one monitor instance, each row in its
    own frame, narrowed against its own memory.  One watermark: every row
    is narrowed at memory version ``_version`` and scanned for ``true``;
    ``_found`` is the greatest round found certain.  The step and narrow
    tables outlive the instance: ``respawn`` starts the next one over the
    same memory."""

    __slots__ = (
        "monitor",
        "memory",
        "stats",
        "entries",
        "t_origin",
        "t_last",
        "_version",
        "_found",
        "n_entries",
        "total_size",
        "_steps",
        "_narrows",
        "_rows",
    )

    def __init__(
        self,
        monitor: synthesis.MooreMonitor,
        t_origin: int,
        memory: Memory,
        stats: Optional[SimplifyStats] = None,
    ):
        self.monitor = monitor
        self.memory = memory
        self.stats = SimplifyStats() if stats is None else stats
        self._steps: dict[tuple[_Row, tuple[int, int]], _Entry] = {}
        self._narrows: dict[tuple[_Row, int, int], _Entry] = {}
        self._rows: dict[Pairs, _Row] = {}
        self.respawn(t_origin)

    def _row(self, pairs: Pairs) -> _Row:
        """The one row object of value ``pairs`` in this encoding."""
        row = self._rows.get(pairs)
        if row is None:
            row = self._rows[pairs] = _Row(pairs)
        return row

    def respawn(self, t_origin: int) -> None:
        """Start a fresh instance at t_origin, certain of the initial state.
        Its one row has no atoms, so it is narrowed and scanned already."""
        initial = self.monitor.initial
        self.t_origin = self.t_last = t_origin
        self.entries: dict[int, _Row] = {t_origin: self._row(((initial, expr.BTRUE),))}
        self._version = self.memory.version
        self._found = (t_origin, initial, self.monitor.labels[initial])
        # counters are maintained incrementally: entry rows can span thousands
        # of rounds and recounting them every round is quadratic
        self.n_entries = 1
        self.total_size = expr.BTRUE.size

    def smove(self, t_future: int, trail: Optional[Trail] = None) -> tuple[int, int, Verdict]:
        """Narrow the rows if the memory changed, expand up to t_future
        (guard atoms for step t-1 -> t are those of round t-1) and scan the
        new rows for ``true``.  Return the greatest round whose state is
        certain, as (round, state, verdict), and drop the rows before it.
        With a ``trail`` of the same target, a walk that meets the trail's
        row at a certain round stops there and reports the trail's
        conclusion; either way it leaves its own walk in the trail."""
        memory, entries = self.memory, self.entries
        t_last = self.t_last
        if self._version == memory.version and t_future <= t_last:
            return self._found
        first, best_q, _ = self._found
        best, work = first, 0
        n_entries, total_size = self.n_entries, self.total_size
        rounds, names = memory.rounds, memory.names
        if self._version != memory.version:
            narrows = self._narrows
            for t, row in entries.items():  # replacing a row keeps the keys
                if not row.atoms:
                    continue
                known, values = memory.masks_over(row.atoms, t)
                # a substituted atom always changes the row, and only a
                # changed row can have become certain
                if known:
                    key = (row, known, values)
                    narrowed = narrows.get(key)
                    if narrowed is None:
                        pairs, rewrites = _narrow(row, known, values)
                        narrowed = narrows[key] = _Entry(self._row(pairs), rewrites, row)
                    work += narrowed.rewrites
                    n_entries += narrowed.d_entries
                    total_size += narrowed.d_size
                    row = entries[t] = narrowed.row
                    if row.certain is not None:
                        best, best_q = t, row.certain
            self._version = memory.version
        walk, merge = [], None
        if t_future > t_last:
            if trail is not None and trail.target != t_future:
                trail.target, trail.steps = t_future, {}
            steps = self._steps
            row = entries[t_last]
            for t in range(t_last + 1, t_future + 1):
                key = (row, rounds.get(t - 1, (0, 0)))
                step = steps.get(key)
                if step is None:
                    pairs, rewrites = _build(self.monitor, names, row.pairs, *key[1])
                    step = steps[key] = _Entry(self._row(pairs), rewrites)
                work += step.rewrites
                n_entries += step.d_entries
                total_size += step.d_size
                row = entries[t] = step.row
                if trail is not None:
                    walk.append((t, step))
                if row.certain is not None:
                    best, best_q = t, row.certain
                    hit = None if trail is None else trail.steps.get(t)
                    if hit is not None and hit[0] is step:
                        merge = hit
                        work += merge[1]
                        t_future = t
                        break
            self.t_last = t_future
        for t in range(first, best):
            row = entries.pop(t)
            n_entries -= len(row.pairs)
            total_size -= row.size
        self.n_entries, self.total_size = n_entries, total_size
        self.stats.simplifications += work
        found = (best, best_q, self.monitor.labels[best_q]) if merge is None else trail.found
        if walk and found[2].final:  # a walk that concludes is the trail's now
            rest = 0 if merge is None else merge[1]
            for t, step in reversed(walk):
                trail.steps[t] = (step, rest)
                rest += step.rewrites
            trail.found = found
        self._found = found
        return found

    def resolve(self) -> tuple[int, int, Verdict]:
        """``smove`` without expanding: narrow against the memory and
        report the greatest round whose state is certain."""
        return self.smove(self.t_last)

