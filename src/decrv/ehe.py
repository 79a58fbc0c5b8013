"""Execution history encoding: possible automaton states under partial info.

An EHE tracks, for each expanded round, a Boolean expression per reachable
automaton state; the expression over timestamped atoms is true exactly when
the automaton would be in that state.  Once an expression narrows to the
constant true, the state (and hence the verdict) at that round is certain.

Expansion conditions gate *when* the encoding is expanded: eagerly every
round, on an explicit trigger over received-verdict literals, or on any
message arrival (wildcard).

Step table: expanding row t-1 to row t stamps every guard to round t-1,
substitutes what the memory knows and simplifies.  The guards of a state
p therefore only ever meet round t-1's atoms, so the monitor keeps one
table for all rounds, keyed by ``(p, known, values)``: bitmasks over
``monitor.alphabet`` of the round-(t-1) atoms in memory and of those that
are true.  An entry holds p's guards with the known atoms substituted at
time 0, and the row of a certain predecessor ``{p: true}`` simplified at
time 0 with its rewrite count.  A certain predecessor is then a lookup:
stamp each non-constant expression of that row to t-1 and charge the
count.  A fully observed round is the case where every one is constant.
Any other predecessor builds ``band(substitute_atoms(e_p, memory.get),
stamp(G'_pq, t-1))``, which is the very node that substituting the
memory into ``band(e_p, stamp(G_pq, t-1))`` gives, and simplifies it.

Why a time-0 row is exact at every round: ``simplify`` compares nodes by
identity only, so renaming atoms one-to-one, as stamping does, renames
its result and applies the same rules the same number of times.  Rows,
node counts and rewrite counts are those of building every row
symbolically.
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


class _Step:
    """A ``monitor._steps`` entry: state p under one round's masks.

    ``guards`` are the guards out of p with the known atoms substituted
    (time 0, unsimplified), for predecessors that are not certain.  ``row``
    is what ``{p: true}`` expands to at time 0, as ``(q, expression,
    constant?)``, with its rewrite count and node count.  Each is filled on
    first use, so entries that only certain predecessors use hold no
    substituted guard (those trees would stay in the intern table)."""

    __slots__ = ("guards", "row", "rewrites", "size")

    def __init__(self) -> None:
        self.guards: Optional[tuple[tuple[int, BoolExpr], ...]] = None
        self.row: Optional[tuple[tuple[int, BoolExpr, bool], ...]] = None
        self.rewrites = 0
        self.size = 0


def _step(
    monitor: synthesis.MooreMonitor,
    templates: list[dict[int, BoolExpr]],
    key: tuple[int, int, int],
    certain: bool,
) -> _Step:
    """Entry ``key = (p, known, values)``, with ``row`` filled if the
    predecessor is certain and ``guards`` otherwise."""
    step = monitor._steps.get(key)
    if step is None:
        step = monitor._steps[key] = _Step()
    if (step.row if certain else step.guards) is not None:
        return step
    p, known, values = key
    guards = sorted(templates[p].items())
    if known:
        at0 = {
            Atom(0, name): bool(values >> i & 1)
            for i, name in enumerate(monitor.alphabet)
            if known >> i & 1
        }
        guards = [(q, expr.substitute_atoms(g, at0.get)) for q, g in guards]
    if not certain:
        step.guards = tuple(guards)
        return step
    stats = SimplifyStats()
    row = []
    for q, guard in guards:
        e = expr.simplify(expr.band(expr.BTRUE, guard), stats)
        if e is not expr.BFALSE:
            row.append((q, e, isinstance(e, expr.BConst)))
    step.row = tuple(row)
    step.rewrites = stats.simplifications
    step.size = sum(e.size for _, e, _ in row)
    return step


class EHE:
    """Entries (round, state) -> BoolExpr for one monitor instance, narrowed
    against its own memory.  One watermark: rows from ``_narrowed_from`` on
    are narrowed at memory version ``_version``, and rows up to
    ``_scanned_upto`` have been checked for ``true``."""

    __slots__ = (
        "monitor",
        "memory",
        "stats",
        "entries",
        "t_origin",
        "t_last",
        "_version",
        "_narrowed_from",
        "_scanned_upto",
        "_found",
        "_n_entries",
        "_total_size",
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
        self.t_origin = t_origin
        self.t_last = t_origin
        self.entries: dict[int, dict[int, BoolExpr]] = {
            t_origin: {monitor.initial: expr.BTRUE}
        }
        self._version: Optional[int] = None
        self._narrowed_from = t_origin + 1
        self._scanned_upto = t_origin - 1
        self._found: Optional[tuple[int, int, Verdict]] = None
        self._n_entries = 1
        self._total_size = expr.BTRUE.size

    def expr_at(self, t: int, state: int) -> Optional[BoolExpr]:
        return self.entries.get(t, {}).get(state)

    # counters are maintained incrementally: entry rows can span thousands
    # of rounds and recounting them every round is quadratic
    @property
    def n_entries(self) -> int:
        return self._n_entries

    @property
    def total_size(self) -> int:
        return self._total_size

    def _sync(self) -> None:
        """A store or gc since the last look leaves no row narrowed."""
        if self._version != self.memory.version:
            self._version = self.memory.version
            self._narrowed_from = self.t_last + 1

    def smove(self, t_future: int) -> None:
        """Expand entries up to t_future; guard atoms for step t-1 -> t are
        stamped t-1.  States whose expression folds to false are dropped.
        Each new row is narrowed against the memory as it is built, which
        keeps expressions small and leaves the watermark where it is.

        Guards come from the monitor's step table under the memory's masks
        of round t-1, and a row whose predecessor is ``{p: true}`` is read
        from it (see the module docstring); rows and rewrite counts are
        those of building every row symbolically."""
        if t_future <= self.t_last:
            return
        self._sync()
        monitor, memory, stats = self.monitor, self.memory, self.stats
        templates = synthesis.guard_templates(monitor)
        alphabet = monitor.alphabet
        first = self.t_last + 1
        stale = first - 1 < self._narrowed_from  # the row grown from is not narrowed
        for t in range(first, t_future + 1):
            prev = self.entries[t - 1]
            known, values = memory.masks(alphabet, t - 1)
            if len(prev) == 1 and expr.BTRUE in prev.values():
                [p] = prev
                step = _step(monitor, templates, (p, known, values), True)
                stats.bump(step.rewrites)
                self.entries[t] = {
                    q: e if const else expr.stamp(e, t - 1) for q, e, const in step.row
                }
                self._n_entries += len(step.row)
                self._total_size += step.size
                continue
            terms: dict[int, list[BoolExpr]] = {}
            for p, e in prev.items():
                if stale and t == first:
                    e = expr.substitute_atoms(e, memory.get)
                step = _step(monitor, templates, (p, known, values), False)
                for q, guard in step.guards:
                    terms.setdefault(q, []).append(
                        expr.band(e, expr.stamp(guard, t - 1))
                    )
            row: dict[int, BoolExpr] = {}
            for q in sorted(terms):
                combined = expr.simplify(expr.disj(terms[q]), stats)
                if combined is not expr.BFALSE:
                    row[q] = combined
                    self._n_entries += 1
                    self._total_size += combined.size
            self.entries[t] = row
        self.t_last = t_future

    def resolve(self) -> Optional[tuple[int, int, Verdict]]:
        """Narrow the rows below the watermark against the memory and
        report the greatest round whose state became certain.  Rows at or
        above it are only scanned for ``true``, and only once, so a
        quiescent round costs nothing.  Rows older than the latest certain
        round are dropped — the state there is settled."""
        self._sync()
        narrowed_from = self._narrowed_from
        if narrowed_from > self.t_origin:
            times = sorted(self.entries)
        elif self._scanned_upto < self.t_last:
            times = range(self._scanned_upto + 1, self.t_last + 1)
        else:
            return self._found
        memory, stats = self.memory, self.stats
        memo: dict = {}
        best = self._found
        for t in times:
            row = self.entries[t]
            for q in sorted(row):
                e = row[q]
                if t < narrowed_from and not isinstance(e, expr.BConst):
                    # entries are simplify fixed points: with no atom
                    # substituted there is nothing to rewrite
                    narrowed = expr.substitute_atoms(e, memory.get, memo)
                    if narrowed is e:
                        continue
                    narrowed = expr.simplify(narrowed, stats)
                    if narrowed is expr.BFALSE:
                        del row[q]
                        self._n_entries -= 1
                        self._total_size -= e.size
                        continue
                    row[q] = narrowed
                    self._total_size += narrowed.size - e.size
                    e = narrowed
                if e is expr.BTRUE and (best is None or t >= best[0]):
                    best = (t, q, self.monitor.verdict(q))
        self._narrowed_from = self.t_origin
        self._scanned_upto = self.t_last
        self._found = best
        if best is not None:
            for t in [t for t in self.entries if t < best[0]]:
                row = self.entries.pop(t)
                self._n_entries -= len(row)
                self._total_size -= sum(e.size for e in row.values())
        return best

    def dump(self) -> str:
        """One ``t | state | expr`` row per entry."""
        lines = []
        for t in sorted(self.entries):
            for q in sorted(self.entries[t]):
                lines.append(f"{t} | q{q} | {self.entries[t][q]}")
        return "\n".join(lines)
