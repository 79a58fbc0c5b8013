"""Execution history encoding: possible automaton states under partial info.

An EHE tracks, for each expanded round, a Boolean expression per reachable
automaton state; the expression over timestamped atoms is true exactly when
the automaton would be in that state.  Once an expression narrows to the
constant true, the state (and hence the verdict) at that round is certain.

Expansion conditions gate *when* the encoding is expanded: eagerly every
round, on an explicit trigger over received-verdict literals, or on any
message arrival (wildcard).

Concrete step: when the previous row is ``{p: true}`` and the memory holds
every alphabet atom of that round, the new row is ``{delta[p][ev]: true}``
for the stored event ``ev``.  Building it symbolically stamps each guard,
substitutes the now-known atoms and simplifies the resulting constant
tree; that tree, and so its rewrite count, is the same at every round, so
it is worked out once per ``(p, ev)`` at template time 0 and kept on the
monitor.  Rows and simplification counts are those of the symbolic path.
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


def _event_at(alphabet: tuple[str, ...], memory: Memory, t: int) -> Optional[int]:
    """Event mask of round t, or None if an alphabet atom is not in memory."""
    ev = 0
    for i, name in enumerate(alphabet):
        value = memory.get(Atom(t, name))
        if value is None:
            return None
        if value:
            ev |= 1 << i
    return ev


def _concrete_step(
    monitor: synthesis.MooreMonitor,
    templates: list[dict[int, BoolExpr]],
    p: int,
    ev: int,
) -> tuple[int, int]:
    """(successor, rewrite count) of expanding row ``{p: true}`` under event
    ev, by the symbolic recipe over time-0 atoms; filled once per (p, ev)."""
    step = monitor._steps.get((p, ev))
    if step is None:
        known = {
            Atom(0, name): bool(ev >> i & 1) for i, name in enumerate(monitor.alphabet)
        }
        stats = SimplifyStats()
        row = {}
        for q in sorted(templates[p]):
            e = expr.band(expr.BTRUE, templates[p][q])
            e = expr.simplify(expr.substitute_atoms(e, known.get), stats)
            if e is not expr.BFALSE:
                row[q] = e
        q = monitor.delta[p][ev]
        assert row == {q: expr.BTRUE}, (p, ev, row)
        step = monitor._steps[(p, ev)] = (q, stats.simplifications)
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

        A row whose predecessor is ``{p: true}`` and whose round t-1 is
        fully in memory is a concrete step (see the module docstring): it
        is looked up, not built, and charges the same rewrite count."""
        monitor = self.monitor
        templates = synthesis.guard_templates(monitor)
        for t in range(self.t_last + 1, t_future + 1):
            prev = self.entries[t - 1]
            if (
                memory is not None
                and len(prev) == 1
                and expr.BTRUE in prev.values()
                and (ev := _event_at(monitor.alphabet, memory, t - 1)) is not None
            ):
                [p] = prev
                q, n = _concrete_step(monitor, templates, p, ev)
                if stats is not None:
                    stats.bump(n)
                self.entries[t] = {q: expr.BTRUE}
                self._n_entries += 1
                self._total_size += expr.BTRUE.size
                continue
            terms: dict[int, list[BoolExpr]] = {}
            for p, e in prev.items():
                for q, guard in templates[p].items():
                    terms.setdefault(q, []).append(
                        expr.band(e, expr.stamp(guard, t - 1))
                    )
            row: dict[int, BoolExpr] = {}
            for q in sorted(terms):
                combined = expr.disj(terms[q])
                if memory is None:
                    combined = expr.simplify(combined, stats)
                else:
                    combined = expr.seval(combined, memory, stats)
                if combined is not expr.BFALSE:
                    row[q] = combined
                    self._n_entries += 1
                    self._total_size += combined.size
            self.entries[t] = row
        if t_future > self.t_last:
            self.t_last = t_future
            if memory is None:
                # rows were built unnarrowed; force a full pass in resolve
                self._clean_version = None

    def resolve(
        self, memory: Memory, stats: Optional[SimplifyStats] = None
    ) -> Optional[tuple[int, int, Verdict]]:
        """Narrow every entry against the memory; report the greatest round
        whose state became certain.  Results are cached against the memory
        version so quiescent rounds cost nothing, and rows older than the
        latest certain round are dropped — the state there is settled."""
        if self._clean_version == memory.version:
            if self._clean_upto >= self.t_last:
                return self._found
            times = range(self._clean_upto + 1, self.t_last + 1)
        else:
            times = sorted(self.entries)
        best = self._found
        for t in times:
            row = self.entries.get(t)
            if row is None:
                continue
            for q in sorted(row):
                e = row[q]
                if not isinstance(e, expr.BConst):
                    # entries are simplify fixed points: with no atom
                    # substituted there is nothing to rewrite
                    narrowed = expr.substitute_atoms(e, memory.get)
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
