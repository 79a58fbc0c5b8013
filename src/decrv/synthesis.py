"""Three-valued Moore monitor synthesis from LTL formulas.

The classical construction: tableau-expand the formula and its negation
into generalized Büchi automata, degeneralize with a counter, mark each
automaton state with language nonemptiness (SCC analysis), then run one
subset construction over the product.  A monitor state is a pair of
subsets; the verdict is TRUE when the negation side dies, FALSE when the
positive side dies, UNKNOWN otherwise.

Events are total truth assignments over the alphabet, encoded as bitmasks
(bit i set means the i-th alphabet proposition holds).
"""

from __future__ import annotations

import operator
import os
import time
from collections import deque
from typing import Iterable, Mapping, Optional, Sequence

from sympy import And as SAnd, Not as SNot, Or as SOr, Symbol
from sympy.logic import SOPform
from sympy.logic.boolalg import BooleanFalse, BooleanTrue

from . import expr, ltl
from .verdicts import Verdict

DEFAULT_MAX_STATES = 2**20
MAX_ALPHABET = 16


class SynthesisCapacityError(RuntimeError):
    """Construction exceeded the configured state ceiling."""


def max_states_limit(override: Optional[int] = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("DECRV_MAX_STATES")
    return int(env) if env else DEFAULT_MAX_STATES


class MooreMonitor:
    """Complete deterministic Moore automaton labeled with verdicts.

    ``_templates`` holds the guard templates once ``guard_templates`` has
    built them; they live on the monitor so they die with it.
    """

    __slots__ = ("alphabet", "initial", "delta", "labels", "_templates")

    def __init__(
        self,
        alphabet: tuple[str, ...],
        initial: int,
        delta: list[list[int]],
        labels: list[Verdict],
    ):
        self.alphabet = alphabet
        self.initial = initial
        self.delta = delta
        self.labels = labels
        self._templates: Optional[list[dict[int, expr.BoolExpr]]] = None

    @property
    def n_states(self) -> int:
        return len(self.labels)

    @property
    def n_events(self) -> int:
        return 1 << len(self.alphabet)

    def verdict(self, state: int) -> Verdict:
        return self.labels[state]

    def step(self, state: int, event: int) -> int:
        return self.delta[state][event]

    def event_mask(self, assignment: Mapping[str, bool]) -> int:
        mask = 0
        for i, name in enumerate(self.alphabet):
            try:
                if assignment[name]:
                    mask |= 1 << i
            except KeyError:
                raise ValueError(f"event missing proposition {name!r}") from None
        return mask

    def run(self, events: Iterable[Mapping[str, bool]]) -> list[Verdict]:
        state = self.initial
        out = []
        for ev in events:
            state = self.delta[state][self.event_mask(ev)]
            out.append(self.labels[state])
        return out

    def edge_events(self) -> list[dict[int, list[int]]]:
        """Per source state: destination -> sorted list of event masks."""
        out: list[dict[int, list[int]]] = []
        for row in self.delta:
            edges: dict[int, list[int]] = {}
            for event, dst in enumerate(row):
                edges.setdefault(dst, []).append(event)
            out.append(edges)
        return out

    def to_dot(self) -> str:
        lines = ["digraph monitor {", "  rankdir=LR;", '  __init [shape=point, label=""];']
        for q, label in enumerate(self.labels):
            lines.append(f'  q{q} [shape=circle, label="q{q}\\n{label}"];')
        lines.append(f"  __init -> q{self.initial};")
        for q, edges in enumerate(guard_templates(self)):
            for dst in sorted(edges):
                lines.append(f'  q{q} -> q{dst} [label="{_guard_text(edges[dst])}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_transition_list(self) -> str:
        lines = [f"q{q} {label}" for q, label in enumerate(self.labels)]
        for q, edges in enumerate(guard_templates(self)):
            for dst in sorted(edges):
                lines.append(f"q{q} --{_guard_text(edges[dst])}--> q{dst}")
        return "\n".join(lines)


# --- negation normal form over tuples (literals, and/or, x, u, r) ---------

_NTRUE = ("true",)
_NFALSE = ("false",)


def _nnf(f: ltl.Formula, negated: bool):
    match f:
        case ltl.Const(v):
            return _NFALSE if v == negated else _NTRUE
        case ltl.Prop(name):
            return ("lit", name, not negated)
        case ltl.Not(a):
            return _nnf(a, not negated)
        case ltl.And(a, b):
            kind = "or" if negated else "and"
            return (kind, _nnf(a, negated), _nnf(b, negated))
        case ltl.Or(a, b):
            kind = "and" if negated else "or"
            return (kind, _nnf(a, negated), _nnf(b, negated))
        case ltl.Next(a):
            return ("x", _nnf(a, negated))
        case ltl.Until(a, b):
            kind = "r" if negated else "u"
            return (kind, _nnf(a, negated), _nnf(b, negated))
        case ltl.Globally(a):
            if negated:
                return ("u", _NTRUE, _nnf(a, True))
            return ("r", _NFALSE, _nnf(a, False))
        case ltl.Finally(a):
            if negated:
                return ("r", _NFALSE, _nnf(a, True))
            return ("u", _NTRUE, _nnf(a, False))
    raise TypeError(f"formula must be desugared first: {f!r}")


def _expand(obligations: frozenset):
    """Tableau disjuncts: (now_pos, now_neg, next_obligations, delayed_untils)."""
    results: set = set()

    def go(todo, pos, neg, nxt, delayed):
        if not todo:
            results.add((frozenset(pos), frozenset(neg), frozenset(nxt), frozenset(delayed)))
            return
        f, rest = todo[0], todo[1:]
        match f[0]:
            case "true":
                go(rest, pos, neg, nxt, delayed)
            case "false":
                pass
            case "lit":
                _, name, positive = f
                if positive:
                    if name in neg:
                        return
                    go(rest, pos | {name}, neg, nxt, delayed)
                else:
                    if name in pos:
                        return
                    go(rest, pos, neg | {name}, nxt, delayed)
            case "and":
                go((f[1], f[2]) + rest, pos, neg, nxt, delayed)
            case "or":
                go((f[1],) + rest, pos, neg, nxt, delayed)
                go((f[2],) + rest, pos, neg, nxt, delayed)
            case "x":
                go(rest, pos, neg, nxt | {f[1]}, delayed)
            case "u":
                go((f[2],) + rest, pos, neg, nxt, delayed)
                go((f[1],) + rest, pos, neg, nxt | {f}, delayed | {f})
            case "r":
                go((f[2], f[1]) + rest, pos, neg, nxt, delayed)
                go((f[2],) + rest, pos, neg, nxt | {f}, delayed)

    go(tuple(sorted(obligations, key=repr)), frozenset(), frozenset(), frozenset(), frozenset())
    return sorted(results, key=repr)


def _untils(node, out: set) -> None:
    kind = node[0]
    if kind == "u":
        out.add(node)
    if kind in ("and", "or", "u", "r"):
        _untils(node[1], out)
        _untils(node[2], out)
    elif kind == "x":
        _untils(node[1], out)


class _Buchi:
    """Degeneralized nondeterministic Büchi automaton with per-state liveness.

    States are (obligation-set, counter) pairs; ``good`` marks states from
    which some accepting lasso is reachable.
    """

    __slots__ = ("initial", "transitions", "good")

    def __init__(
        self,
        root,
        alphabet: Sequence[str],
        budget: int,
        deadline: Optional[float] = None,
    ):
        untils: set = set()
        _untils(root, untils)
        fairness = sorted(untils, key=repr)
        k = len(fairness)
        index = {name: i for i, name in enumerate(alphabet)}

        def masks(pos, neg):
            pm = nm = 0
            for name in pos:
                pm |= 1 << index[name]
            for name in neg:
                nm |= 1 << index[name]
            return pm, nm

        initial = (frozenset((root,)), 0)
        expand_cache: dict = {}
        transitions: dict = {}
        queue = [initial]
        seen = {initial}
        while queue:
            if deadline is not None and time.monotonic() > deadline:
                raise SynthesisCapacityError("synthesis timed out")
            state = queue.pop()
            obligations, counter = state
            disjuncts = expand_cache.get(obligations)
            if disjuncts is None:
                disjuncts = _expand(obligations)
                expand_cache[obligations] = disjuncts
            outs = []
            for pos, neg, nxt, delayed in disjuncts:
                base = 0 if counter == k else counter
                j = base
                while j < k and fairness[j] not in delayed:
                    j += 1
                dest = (nxt, j)
                outs.append(masks(pos, neg) + (dest,))
                if dest not in seen:
                    seen.add(dest)
                    queue.append(dest)
                    if len(seen) > budget:
                        raise SynthesisCapacityError(
                            f"tableau automaton exceeded {budget} states"
                        )
            transitions[state] = outs
        self.initial = initial
        self.transitions = transitions
        self.good = self._liveness(k)

    def _liveness(self, k: int) -> frozenset:
        succ = {
            src: [dst for _, _, dst in outs] for src, outs in self.transitions.items()
        }
        live = set()
        for scc in _sccs(succ):
            if len(scc) > 1 or scc[0] in succ[scc[0]]:
                live.update(s for s in scc if s[1] == k)
        preds: dict = {s: [] for s in succ}
        for src, dsts in succ.items():
            for dst in dsts:
                preds[dst].append(src)
        good = set(live)
        frontier = list(live)
        while frontier:
            for pred in preds[frontier.pop()]:
                if pred not in good:
                    good.add(pred)
                    frontier.append(pred)
        return frozenset(good)

    def tables(self, n_props: int) -> tuple[int, list[list[int]]]:
        """Number the good states 0, 1, ...; return the initial subset and,
        per good state, event -> bitmask of its good successors.

        A transition's events are its cube: the ``pm`` bits set, the ``nm``
        bits clear, and every submask of the remaining free bits.
        """
        number: dict = {}
        for state in self.transitions:
            if state in self.good:
                number[state] = len(number)
        full = (1 << n_props) - 1
        tables = []
        for state in number:
            table = [0] * (full + 1)
            for pm, nm, dst in self.transitions[state]:
                j = number.get(dst)
                if j is None:
                    continue
                bit = 1 << j
                free = full & ~(pm | nm)
                sub = free
                while True:
                    table[pm | sub] |= bit
                    if not sub:
                        break
                    sub = (sub - 1) & free
            tables.append(table)
        start = 1 << number[self.initial] if self.initial in number else 0
        return start, tables


def _sccs(succ: Mapping) -> list[list]:
    """Strongly connected components of the graph ``node -> successors``
    (iterative Tarjan; every successor must be a key)."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    out: list[list] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    out.append(scc)
    return out


def _row(tables: list[list[int]], subset: int, n_events: int) -> list[int]:
    """Per event, the successor subset of ``subset``: its members' tables ORed."""
    members = [tables[i] for i in range(subset.bit_length()) if subset >> i & 1]
    if not members:
        return [0] * n_events
    row = members[0]
    for table in members[1:]:
        row = list(map(operator.or_, row, table))
    return row


def synthesize(
    f: ltl.Formula,
    max_states: Optional[int] = None,
    timeout: Optional[float] = None,
) -> MooreMonitor:
    """Build a (not yet minimized) monitor equivalent to the LTL3 semantics.

    ``timeout`` is a wall-clock budget in seconds; exceeding it raises the
    same capacity error as the state ceiling.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    limit = max_states_limit(max_states)
    f = ltl.desugar(f)
    alphabet = tuple(sorted(ltl.propositions(f)))
    if len(alphabet) > MAX_ALPHABET:
        raise SynthesisCapacityError(
            f"alphabet of {len(alphabet)} propositions exceeds {MAX_ALPHABET}"
        )
    pos_nba = _Buchi(_nnf(f, False), alphabet, limit, deadline)
    neg_nba = _Buchi(_nnf(f, True), alphabet, limit, deadline)
    pos_start, pos_tables = pos_nba.tables(len(alphabet))
    neg_start, neg_tables = neg_nba.tables(len(alphabet))

    # A monitor state is a pair of subsets, each a bitmask of good states.
    n_events = 1 << len(alphabet)
    initial = (pos_start, neg_start)
    numbering = {initial: 0}
    order = [initial]
    delta: list[list[int]] = []
    queue = deque([initial])
    while queue:
        if deadline is not None and time.monotonic() > deadline:
            raise SynthesisCapacityError("synthesis timed out")
        pos_set, neg_set = queue.popleft()
        row = []
        for nxt in zip(
            _row(pos_tables, pos_set, n_events), _row(neg_tables, neg_set, n_events)
        ):
            num = numbering.get(nxt)
            if num is None:
                num = len(order)
                if num >= limit:
                    raise SynthesisCapacityError(
                        f"subset construction exceeded {limit} states"
                    )
                numbering[nxt] = num
                order.append(nxt)
                queue.append(nxt)
            row.append(num)
        delta.append(row)

    labels = []
    for pos_set, neg_set in order:
        if not neg_set:
            labels.append(Verdict.TRUE)
        elif not pos_set:
            labels.append(Verdict.FALSE)
        else:
            labels.append(Verdict.UNKNOWN)
    return MooreMonitor(alphabet, 0, delta, labels)


def minimize(m: MooreMonitor) -> MooreMonitor:
    """Quotient by Moore equivalence (partition refinement), renumber by BFS."""
    label_classes: dict[Verdict, int] = {}
    cls = [label_classes.setdefault(lab, len(label_classes)) for lab in m.labels]
    while True:
        signatures: dict[tuple, int] = {}
        new_cls = []
        for q in range(m.n_states):
            sig = (cls[q],) + tuple(cls[d] for d in m.delta[q])
            new_cls.append(signatures.setdefault(sig, len(signatures)))
        if new_cls == cls:
            break
        cls = new_cls

    representative: dict[int, int] = {}
    for q in range(m.n_states):
        representative.setdefault(cls[q], q)

    numbering = {cls[m.initial]: 0}
    order = [cls[m.initial]]
    queue = deque([cls[m.initial]])
    while queue:
        c = queue.popleft()
        for d in m.delta[representative[c]]:
            if cls[d] not in numbering:
                numbering[cls[d]] = len(order)
                order.append(cls[d])
                queue.append(cls[d])

    delta = [
        [numbering[cls[d]] for d in m.delta[representative[c]]] for c in order
    ]
    labels = [m.labels[representative[c]] for c in order]
    return MooreMonitor(m.alphabet, 0, delta, labels)


_build_cache: dict = {}


def build(
    f: ltl.Formula,
    max_states: Optional[int] = None,
    timeout: Optional[float] = None,
) -> MooreMonitor:
    """Synthesize + minimize, cached by rendered formula."""
    key = (ltl.render(f), max_states_limit(max_states))
    got = _build_cache.get(key)
    if got is None:
        got = minimize(synthesize(f, max_states, timeout))
        _build_cache[key] = got
    return got


# --- guard extraction -----------------------------------------------------

def guard_expr(m: MooreMonitor, events: Sequence[int]) -> expr.BoolExpr:
    """Minimal sum-of-products guard covering the events, over time-0 atoms."""
    if len(events) == m.n_events:
        return expr.BTRUE
    if not events:
        return expr.BFALSE
    symbols = [Symbol(name) for name in m.alphabet]
    minterms = [[(ev >> i) & 1 for i in range(len(m.alphabet))] for ev in events]
    return _from_sympy(SOPform(symbols, minterms) if symbols else BooleanTrue())


def _from_sympy(s) -> expr.BoolExpr:
    if isinstance(s, BooleanTrue):
        return expr.BTRUE
    if isinstance(s, BooleanFalse):
        return expr.BFALSE
    if isinstance(s, Symbol):
        return expr.batom(expr.Atom(0, s.name))
    if isinstance(s, SNot):
        return expr.bnot(_from_sympy(s.args[0]))
    if isinstance(s, SAnd):
        return expr.conj([_from_sympy(a) for a in s.args])
    if isinstance(s, SOr):
        return expr.disj([_from_sympy(a) for a in s.args])
    raise TypeError(f"unexpected sympy node {s!r}")


def _guard_text(e: expr.BoolExpr) -> str:
    """Render a time-0 guard with bare proposition names (for exports)."""
    match e:
        case expr.BConst():
            return str(e)
        case expr.BAtom():
            return e.atom.name
        case expr.BNot():
            inner = _guard_text(e.operand)
            if isinstance(e.operand, (expr.BAnd, expr.BOr)):
                inner = f"({inner})"
            return f"!{inner}"
        case expr.BAnd() | expr.BOr():
            cls = type(e)
            sep = " & " if cls is expr.BAnd else " | "
            parts = []
            for t in expr.flatten(e, cls):
                text = _guard_text(t)
                if isinstance(t, (expr.BAnd, expr.BOr)):
                    text = f"({text})"
                parts.append(text)
            return sep.join(parts)
    raise TypeError(f"unknown node {e!r}")


def guard_templates(m: MooreMonitor) -> list[dict[int, expr.BoolExpr]]:
    """Per state: successor -> guard over time-0 atoms (built once per monitor)."""
    if m._templates is None:
        m._templates = [
            {dst: guard_expr(m, evs) for dst, evs in edges.items()}
            for edges in m.edge_events()
        ]
    return m._templates
