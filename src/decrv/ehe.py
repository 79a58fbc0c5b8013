"""Execution history encoding: possible automaton states under partial info.

An EHE tracks, for each expanded round, a Boolean expression per reachable
automaton state; the expression over timestamped atoms is true exactly when
the automaton would be in that state.  Once an expression narrows to the
constant true, the state (and hence the verdict) at that round is certain.

Expansion conditions gate *when* the encoding is expanded: eagerly every
round, on an explicit trigger over received-verdict literals, or on any
message arrival (wildcard).

Narrow, then expand: ``smove`` first narrows every row against the memory
(``resolve``), so each row grows from a narrowed predecessor.

Frames: row t is stored in its own time frame, as ``(q, stamp(e, -t))``
pairs in q order, so its atoms carry times relative to t; ``expr_at`` and
``dump`` stamp it back.  Expanding narrowed row t-1 to row t depends only
on row t-1 in its frame and on what the memory knows of round t-1, so the
encoding keeps one step table for every row of every instance it runs,
keyed by ``(prev, known, values)``: round t-1 as the memory stores it,
bitmasks over the memory's names (not ``monitor.alphabet``) of the atoms
it holds and of those that are true.  An entry holds row t in frame t,
which the encoding stores as is; a certain predecessor is just the key
``((p, true),)``.  A miss decodes the masks through the memory's names
and builds in frame t-1, where the guard templates sit at time 0:
substitute the known atoms into the guards, ``band`` each with its
predecessor entry, simplify per successor and stamp by -1.  A hit does
no ``stamp``, ``band`` or ``simplify``.

Narrowing row t is a lookup too.  What it narrows to depends only on the
row in its frame and on what the memory holds for the row's atoms, so the
encoding keeps one narrow table, keyed by ``(row, known, values)``:
bitmasks over the row's sorted atoms (``_row_atoms[row]``, worked out once
per row) of those the memory holds at ``a.time + t`` and of those that
are true.  A row none of whose atoms is known is left as it is; a miss
substitutes the known atoms and simplifies each entry that takes one in
(``_narrow``).  Entries of both tables are ``_Entry``s: the row a key
leads to, its rewrite count and what it adds to the encoding's entry and
node counts, applied the same way by ``smove`` and ``resolve``.  The
tables belong to one node's encoding for one run: ``respawn`` starts the
next instance over the same memory and keeps them.

Why a frame-relative row is exact: ``simplify`` and ``substitute_atoms``
compare nodes by identity only, so renaming atoms one-to-one, as stamping
does, renames their results and applies the same rules the same number of
times.  Rows, node counts and rewrite counts are those of narrowing and
building every row symbolically at absolute times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import expr, synthesis
from .expr import Atom, BoolExpr, SimplifyStats
from .memory import Memory
from .verdicts import Verdict


@dataclass(frozen=True)
class TriggerLit:
    """Matches a received verdict: T(label) or F(label)."""

    label: str
    want: bool


@dataclass(frozen=True)
class TriggerAnd:
    left: "Trigger"
    right: "Trigger"


@dataclass(frozen=True)
class TriggerOr:
    left: "Trigger"
    right: "Trigger"


Trigger = TriggerLit | TriggerAnd | TriggerOr

WILDCARD = "wildcard"
EAGER = "eager"


def trigger_labels(cond: Trigger) -> frozenset[str]:
    match cond:
        case TriggerLit(label, _):
            return frozenset((label,))
        case TriggerAnd(a, b) | TriggerOr(a, b):
            return trigger_labels(a) | trigger_labels(b)
    raise TypeError(f"unknown trigger {cond!r}")


def sadv(cond: Trigger, memory: Memory, t: int) -> bool:
    """Does the condition hold for the verdicts stored at round t?"""
    match cond:
        case TriggerLit(label, want):
            got = memory.get(Atom(t, label))
            return got is not None and got == want
        case TriggerAnd(a, b):
            return sadv(a, memory, t) and sadv(b, memory, t)
        case TriggerOr(a, b):
            return sadv(a, memory, t) or sadv(b, memory, t)
    raise TypeError(f"unknown trigger {cond!r}")


def sadvs(cond: Trigger, memory: Memory, t_cur: int, t_max: int) -> set[int]:
    """Rounds in (t_cur, t_max] whose stored verdicts satisfy the condition."""
    return {t for t in range(t_cur + 1, t_max + 1) if sadv(cond, memory, t)}


class _Entry:
    """A step-table or narrow-table entry: the row one key leads to, in its
    own frame, as ``(q, expression)`` pairs, with its rewrite count and
    what it adds to the encoding's entry and node counts."""

    __slots__ = ("row", "rewrites", "d_entries", "d_size")

    def __init__(
        self, row: tuple[tuple[int, BoolExpr], ...], rewrites: int, d_entries: int, d_size: int
    ) -> None:
        self.row = row
        self.rewrites = rewrites
        self.d_entries = d_entries
        self.d_size = d_size


def _build(
    monitor: synthesis.MooreMonitor,
    names: dict[str, int],
    prev: tuple[tuple[int, BoolExpr], ...],
    known: int,
    values: int,
) -> _Entry:
    """Expand ``prev`` (row t-1 in frame t-1) under the masks of round t-1,
    whose bits are those of the memory's ``names``: a new row adds its
    length and node count."""
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
    return _Entry(tuple(row), stats.simplifications, len(row), sum(e.size for _, e in row))


def _atoms_of(row: tuple[tuple[int, BoolExpr], ...]) -> tuple[Atom, ...]:
    """The atoms of a row in its frame, sorted: the bit order of its masks."""
    return tuple(sorted(set().union(*(expr.atoms(e) for _, e in row))))


def _narrow(
    row: tuple[tuple[int, BoolExpr], ...],
    atoms: tuple[Atom, ...],
    known: int,
    values: int,
) -> _Entry:
    """Substitute the known atoms into every entry of ``row`` and simplify
    the entries that take one in; drop those that fold to false."""
    at = {a: bool(values >> i & 1) for i, a in enumerate(atoms) if known >> i & 1}
    lookup, memo = at.get, {}
    stats = SimplifyStats()
    pairs = []
    d_entries = d_size = 0
    for q, e in row:
        if not isinstance(e, expr.BConst):
            # entries are simplify fixed points: with no atom substituted
            # there is nothing to rewrite
            narrowed = expr.substitute_atoms(e, lookup, memo)
            if narrowed is not e:
                narrowed = expr.simplify(narrowed, stats)
                if narrowed is expr.BFALSE:
                    d_entries -= 1
                    d_size -= e.size
                    continue
                d_size += narrowed.size - e.size
                e = narrowed
        pairs.append((q, e))
    return _Entry(tuple(pairs), stats.simplifications, d_entries, d_size)


class EHE:
    """Rows round -> ``((state, BoolExpr), ...)`` for one monitor instance,
    each row in its own frame, narrowed against its own memory.  One
    watermark: every row is narrowed at memory version ``_version``, and
    rows up to ``_scanned_upto`` have been checked for ``true``.  The step
    and narrow tables outlive the instance: ``respawn`` starts the next
    one over the same memory."""

    __slots__ = (
        "monitor",
        "memory",
        "stats",
        "entries",
        "t_origin",
        "t_last",
        "_version",
        "_scanned_upto",
        "_found",
        "_n_entries",
        "_total_size",
        "_steps",
        "_narrows",
        "_row_atoms",
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
        self._steps: dict[tuple, _Entry] = {}
        self._narrows: dict[tuple, _Entry] = {}
        self._row_atoms: dict[tuple, tuple[Atom, ...]] = {}
        self.respawn(t_origin)

    def respawn(self, t_origin: int) -> None:
        """Start a fresh instance at t_origin, certain of the initial state."""
        self.t_origin = t_origin
        self.t_last = t_origin
        self.entries: dict[int, tuple[tuple[int, BoolExpr], ...]] = {
            t_origin: ((self.monitor.initial, expr.BTRUE),)
        }
        self._version: Optional[int] = None
        self._scanned_upto = t_origin - 1
        self._found: Optional[tuple[int, int, Verdict]] = None
        self._n_entries = 1
        self._total_size = expr.BTRUE.size

    def expr_at(self, t: int, state: int) -> Optional[BoolExpr]:
        """The entry at absolute atom times."""
        for q, e in self.entries.get(t, ()):
            if q == state:
                return expr.stamp(e, t)
        return None

    # counters are maintained incrementally: entry rows can span thousands
    # of rounds and recounting them every round is quadratic
    @property
    def n_entries(self) -> int:
        return self._n_entries

    @property
    def total_size(self) -> int:
        return self._total_size

    def smove(self, t_future: int) -> None:
        """Narrow the rows (``resolve``), then expand them up to t_future;
        guard atoms for step t-1 -> t are those of round t-1.  States whose
        expression folds to false are dropped.  A row built from a narrowed
        predecessor and the known atoms of its round is narrowed too, so
        the watermark stays where it is.  Rows come from the step table
        (see the module docstring)."""
        if t_future <= self.t_last:
            return
        self.resolve()
        monitor, memory, entries = self.monitor, self.memory, self.entries
        steps = self._steps
        for t in range(self.t_last + 1, t_future + 1):
            prev = entries[t - 1]
            known, values = memory.masks(t - 1)
            key = (prev, known, values)
            step = steps.get(key)
            if step is None:
                step = steps[key] = _build(monitor, memory.names, prev, known, values)
            self.stats.bump(step.rewrites)
            self._n_entries += step.d_entries
            self._total_size += step.d_size
            entries[t] = step.row
        self.t_last = t_future

    def resolve(self) -> Optional[tuple[int, int, Verdict]]:
        """Report the greatest round whose state became certain.  When the
        memory has changed since the last pass, narrow every row against
        it; otherwise only check the rows not yet scanned for ``true``, so
        a quiescent round costs nothing.  Narrowing a row is a lookup in
        the narrow table (see the module docstring).  Rows older than the
        latest certain round are dropped — the state there is settled."""
        memory, entries = self.memory, self.entries
        narrow = self._version != memory.version
        if narrow:
            times = entries  # replacing a row in place keeps the dict's keys
        elif self._scanned_upto < self.t_last:
            times = range(self._scanned_upto + 1, self.t_last + 1)
        else:
            return self._found
        monitor, stats, get = self.monitor, self.stats, memory.get
        narrows, row_atoms = self._narrows, self._row_atoms
        best = self._found
        for t in times:
            row = entries[t]
            if narrow:
                atoms = row_atoms.get(row)
                if atoms is None:
                    atoms = row_atoms[row] = _atoms_of(row)
                known = values = 0
                for i, (time, name) in enumerate(atoms):
                    value = get(Atom(time + t, name))
                    if value is not None:
                        known |= 1 << i
                        if value:
                            values |= 1 << i
                if known:  # a substituted atom always changes the row
                    key = (row, known, values)
                    narrowed = narrows.get(key)
                    if narrowed is None:
                        narrowed = narrows[key] = _narrow(row, atoms, known, values)
                    stats.bump(narrowed.rewrites)
                    self._n_entries += narrowed.d_entries
                    self._total_size += narrowed.d_size
                    row = entries[t] = narrowed.row
            for q, e in row:
                if e is expr.BTRUE and (best is None or t >= best[0]):
                    best = (t, q, monitor.verdict(q))
        if best is not None:
            # rows are kept in ascending t, from the last certain round on
            first = self.t_origin if self._found is None else self._found[0]
            for t in range(first, best[0]):
                row = entries.pop(t)
                self._n_entries -= len(row)
                for _, e in row:
                    self._total_size -= e.size
        self._version = memory.version
        self._scanned_upto = self.t_last
        self._found = best
        return best

    def dump(self) -> str:
        """One ``t | state | expr`` row per entry, at absolute atom times."""
        lines = []
        for t in sorted(self.entries):
            for q, e in self.entries[t]:
                lines.append(f"{t} | q{q} | {expr.stamp(e, t)}")
        return "\n".join(lines)
