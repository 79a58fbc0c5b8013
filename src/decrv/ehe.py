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
    """Entries (round, state) -> BoolExpr for one monitor instance."""

    __slots__ = (
        "monitor",
        "entries",
        "t_origin",
        "t_last",
        "_clean_version",
        "_clean_upto",
        "_built_version",
        "_built_from",
        "_found",
        "_n_entries",
        "_total_size",
    )

    def __init__(self, monitor: synthesis.MooreMonitor, t_origin: int = 0):
        self.monitor = monitor
        self.t_origin = t_origin
        self.t_last = t_origin
        self.entries: dict[int, dict[int, BoolExpr]] = {
            t_origin: {monitor.initial: expr.BTRUE}
        }
        self._clean_version: Optional[int] = None
        self._clean_upto = t_origin - 1
        # rows from _built_from on were narrowed against _built_version
        self._built_version: Optional[int] = None
        self._built_from = t_origin + 1
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

    def smove(
        self,
        t_future: int,
        stats: Optional[SimplifyStats] = None,
        memory: Optional[Memory] = None,
    ) -> None:
        """Expand entries up to t_future; guard atoms for step t-1 -> t are
        stamped t-1.  States whose expression folds to false are dropped.
        When a memory is given each new row is narrowed against it right
        away, which keeps expressions small across multi-round expansions.

        Guards come from the monitor's step table under the memory's masks
        of round t-1, and a row whose predecessor is ``{p: true}`` is read
        from it (see the module docstring); rows and rewrite counts are
        those of building every row symbolically."""
        if t_future <= self.t_last:
            return
        monitor = self.monitor
        templates = synthesis.guard_templates(monitor)
        alphabet = monitor.alphabet
        first = self.t_last + 1
        # new rows are built against the memory; the row before them needs
        # narrowing unless resolve or smove narrowed it at this version
        stale = memory is not None and memory.version not in (
            self._clean_version,
            self._built_version,
        )
        for t in range(first, t_future + 1):
            prev = self.entries[t - 1]
            known, values = (0, 0) if memory is None else memory.masks(alphabet, t - 1)
            if len(prev) == 1 and expr.BTRUE in prev.values():
                [p] = prev
                step = _step(monitor, templates, (p, known, values), True)
                if stats is not None:
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
        if memory is None:
            # rows were built unnarrowed; force a full pass in resolve
            self._clean_version = None
            self._built_version = None
        elif self._built_version != memory.version:
            self._built_version = memory.version
            self._built_from = first
        self.t_last = t_future

    def resolve(
        self, memory: Memory, stats: Optional[SimplifyStats] = None
    ) -> Optional[tuple[int, int, Verdict]]:
        """Narrow every entry against the memory; report the greatest round
        whose state became certain.  Results are cached against the memory
        version so quiescent rounds cost nothing, rows that smove narrowed
        against this very version are only scanned, and rows older than
        the latest certain round are dropped — the state there is settled."""
        if self._clean_version == memory.version:
            if self._clean_upto >= self.t_last:
                return self._found
            times = range(self._clean_upto + 1, self.t_last + 1)
        else:
            times = sorted(self.entries)
        if self._built_version == memory.version:
            narrowed_from = self._built_from
        else:
            narrowed_from = self.t_last + 1
        memo: dict = {}
        best = self._found
        for t in times:
            row = self.entries.get(t)
            if row is None:
                continue
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
        self._clean_version = memory.version
        self._clean_upto = self.t_last
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
