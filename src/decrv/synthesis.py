"""Three-valued Moore monitor synthesis from LTL formulas.

The classical construction: tableau-expand the formula and its negation
into generalized Büchi automata, degeneralize with a counter, mark each
automaton state with language nonemptiness (SCC analysis), then run one
subset construction over the product.  A monitor state is a pair of
subsets, held as one int: the positive subset in the low bits, the
negative one above them.  The verdict is TRUE when the negation side dies,
FALSE when the positive side dies, UNKNOWN otherwise.

Each good automaton state's successors are packed, straight from its
transitions' cubes, into one int with a lane of whole 64-bit words per
event, so a monitor state's successors under every event are its members'
packed ints ORed.  The tableau sorts obligations and disjuncts by node
``repr``, computed once per node, which keeps the automaton's numbering
independent of the hash seed.

Events are total truth assignments over the alphabet, encoded as bitmasks
(bit i set means the i-th alphabet proposition holds).
"""

from __future__ import annotations

import struct
import sys
import time
from typing import Iterable, Mapping, Optional, Sequence

from . import expr, ltl
from .base import CapacityError
from .verdicts import Verdict

DEFAULT_MAX_STATES = 2**20
MAX_ALPHABET = 16


class SynthesisCapacityError(CapacityError):
    """Construction exceeded the configured state ceiling."""


class MooreMonitor:
    """Complete deterministic Moore automaton labeled with verdicts.

    ``_templates`` holds the guard templates once ``guard_templates`` has
    built them.
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


def _expand(obligations: frozenset, key):
    """Tableau disjuncts: (now_pos, now_neg, next_obligations, delayed_untils).

    ``key`` maps a node to its sort key; the disjuncts come sorted by their
    names and node keys, an order independent of the hash seed."""
    results: set = set()
    empty = frozenset()
    _disjuncts(tuple(sorted(obligations, key=key)), empty, empty, empty, empty, results)
    return sorted(
        results,
        key=lambda d: (sorted(d[0]), sorted(d[1]), sorted(map(key, d[2])), sorted(map(key, d[3]))),
    )


def _disjuncts(todo, pos, neg, nxt, delayed, results: set) -> None:
    """Add to ``results`` each disjunct that splitting ``todo`` leads to
    (a module function: a closure that calls itself is a reference cycle)."""
    if not todo:
        results.add((frozenset(pos), frozenset(neg), frozenset(nxt), frozenset(delayed)))
        return
    f, rest = todo[0], todo[1:]
    match f[0]:
        case "true":
            _disjuncts(rest, pos, neg, nxt, delayed, results)
        case "false":
            pass
        case "lit":
            _, name, positive = f
            if positive:
                if name in neg:
                    return
                _disjuncts(rest, pos | {name}, neg, nxt, delayed, results)
            else:
                if name in pos:
                    return
                _disjuncts(rest, pos, neg | {name}, nxt, delayed, results)
        case "and":
            _disjuncts((f[1], f[2]) + rest, pos, neg, nxt, delayed, results)
        case "or":
            _disjuncts((f[1],) + rest, pos, neg, nxt, delayed, results)
            _disjuncts((f[2],) + rest, pos, neg, nxt, delayed, results)
        case "x":
            _disjuncts(rest, pos, neg, nxt | {f[1]}, delayed, results)
        case "u":
            _disjuncts((f[2],) + rest, pos, neg, nxt, delayed, results)
            _disjuncts((f[1],) + rest, pos, neg, nxt | {f}, delayed | {f}, results)
        case "r":
            _disjuncts((f[2], f[1]) + rest, pos, neg, nxt, delayed, results)
            _disjuncts((f[2],) + rest, pos, neg, nxt | {f}, delayed, results)


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
        reprs: dict = {}  # id(node) -> (repr, node); holding the node keeps its id

        def key(node) -> str:
            got = reprs.get(id(node))
            if got is None:
                got = reprs[id(node)] = (repr(node), node)
            return got[0]

        untils: set = set()
        _untils(root, untils)
        fairness = sorted(untils, key=key)
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
                disjuncts = _expand(obligations, key)
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

    def tables(self, n_props: int, lane: int, shift: int) -> tuple[int, list[int]]:
        """Number the good states ``shift``, ``shift + 1``, ...; return the
        initial subset and, per good state, its good successors packed into
        one int, those under event e in lane e, ``lane`` bits wide.

        A transition's events are its cube: the ``pm`` bits set, the ``nm``
        bits clear, each free bit either way.  A cube's successors are put
        in lane ``pm``, then doubled once per free bit i, by a shift of
        ``lane << i``, into the lanes of every event of the cube."""
        good = [state for state in self.transitions if state in self.good]
        number = {state: shift + i for i, state in enumerate(good)}
        full = (1 << n_props) - 1
        packed = []
        for state in number:
            cubes: dict = {}  # (pm, nm) -> good successors
            for pm, nm, dst in self.transitions[state]:
                if dst in number:
                    cubes[pm, nm] = cubes.get((pm, nm), 0) | 1 << number[dst]
            table = 0
            for (pm, nm), succ in cubes.items():
                lanes = succ << pm * lane
                for i in _bits(full & ~(pm | nm)):
                    lanes |= lanes << (lane << i)
                table |= lanes
            packed.append(table)
        start = 1 << number[self.initial] if self.initial in number else 0
        return start, packed


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


class _Numbering(dict):
    """Numbers each key at its first lookup; ``order`` lists them by number."""

    def __init__(self):
        super().__init__()
        self.order: list = []

    def __missing__(self, key):
        num = self[key] = len(self.order)
        self.order.append(key)
        return num


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
    limit = DEFAULT_MAX_STATES if max_states is None else max_states
    f = ltl.desugar(f)
    alphabet = tuple(sorted(ltl.propositions(f)))
    if len(alphabet) > MAX_ALPHABET:
        raise SynthesisCapacityError(
            f"alphabet of {len(alphabet)} propositions exceeds {MAX_ALPHABET}"
        )
    pos_nba = _Buchi(_nnf(f, False), alphabet, limit, deadline)
    neg_nba = _Buchi(_nnf(f, True), alphabet, limit, deadline)
    # Lanes of whole 64-bit words, the negation side's bits above the
    # positive side's; read back as bytes, they key the monitor states.
    shift = len(pos_nba.good)
    words = max(1, -(-(shift + len(neg_nba.good)) // 64))
    pos_start, packed = pos_nba.tables(len(alphabet), 64 * words, 0)
    neg_start, neg_packed = neg_nba.tables(len(alphabet), 64 * words, shift)
    packed += neg_packed
    lane = 8 * words
    size = lane << len(alphabet)
    unpack = struct.Struct(f"{lane}s" * (1 << len(alphabet))).unpack
    pos_mask = (1 << shift) - 1
    numbering = _Numbering()
    numbering[(pos_start | neg_start).to_bytes(lane, sys.byteorder)]  # state 0
    delta: list[list[int]] = []
    labels = []
    for key in numbering.order:  # grows as successors are numbered: a BFS
        if deadline is not None and time.monotonic() > deadline:
            raise SynthesisCapacityError("synthesis timed out")
        state = int.from_bytes(key, sys.byteorder)
        succ = 0
        for i in _bits(state):
            succ |= packed[i]
        lanes = succ.to_bytes(size, sys.byteorder)
        delta.append(list(map(numbering.__getitem__, unpack(lanes))))
        if len(numbering) > limit:
            raise SynthesisCapacityError(f"subset construction exceeded {limit} states")
        if not state >> shift:
            labels.append(Verdict.TRUE)
        elif not state & pos_mask:
            labels.append(Verdict.FALSE)
        else:
            labels.append(Verdict.UNKNOWN)
    return MooreMonitor(alphabet, 0, delta, labels)


def minimize(m: MooreMonitor) -> MooreMonitor:
    """Quotient by Moore equivalence (partition refinement), renumber by BFS."""
    label_classes: dict[Verdict, int] = {}
    cls = [label_classes.setdefault(lab, len(label_classes)) for lab in m.labels]
    count = len(label_classes)
    while True:  # each round refines the last; equal counts mean a fixpoint
        signatures: dict[tuple, int] = {}
        get = cls.__getitem__
        cls = [
            signatures.setdefault((c, *map(get, row)), len(signatures))
            for c, row in zip(cls, m.delta)
        ]
        if len(signatures) == count:
            break
        count = len(signatures)

    representative: dict[int, int] = {}
    for q, c in enumerate(cls):
        representative.setdefault(c, q)
    numbering = _Numbering()
    numbering[cls[m.initial]]  # class 0
    delta = []
    for c in numbering.order:  # grows as successors are numbered: a BFS
        delta.append([numbering[cls[d]] for d in m.delta[representative[c]]])
    labels = [m.labels[representative[c]] for c in numbering.order]
    return MooreMonitor(m.alphabet, 0, delta, labels)


_build_cache: dict = {}


def build(f: ltl.Formula, max_states: Optional[int] = None) -> MooreMonitor:
    """Synthesize + minimize, cached by rendered formula."""
    if max_states is None:
        max_states = DEFAULT_MAX_STATES
    key = (ltl.render(f), max_states)
    got = _build_cache.get(key)
    if got is None:
        got = minimize(synthesize(f, max_states))
        _build_cache[key] = got
    return got


# --- guard extraction -----------------------------------------------------
#
# A guard is the sum of products that SymPy 1.14's ``SOPform`` picks: the
# primes in the order its Quine-McCluskey merging (``_simplified_pairs``)
# lists them, then its dominance and greedy cover (``_rem_redundancy``),
# ported here over int bitmasks.  The primes come from a sweep over the
# truth table (Brayton et al. 1984), not from merging minterms.  A term is
# a pair ``(v, d)``: the bits of d are don't-cares and every other bit
# reads as in v.


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sop_pairs(events: Sequence[int], n: int) -> list[tuple[int, int]]:
    """The prime implicants of the events over n propositions, in SymPy's
    order: deeper levels first; within a level, by the least event's
    popcount and position in ``events``, then the sorted positions of its
    neighbours in the cube; level 0 by position alone.

    Bit v of ``level[d]`` says the cube ``(v, d)`` is an implicant, and
    ``level[d] & level[d] >> 2^b``, on the v with bit b clear, says so of
    ``(v, d | b)``.  The primes of a level are the cubes that no cube one
    level up covers; two levels are held at a time."""
    pos = {ev: i for i, ev in enumerate(events)}

    def order(term: tuple[int, int]):
        v, d = term
        if not d:
            return pos[v]
        return v.bit_count(), pos[v], sorted(pos[v | 1 << b] for b in _bits(d))

    table = bytearray((1 << n) + 7 >> 3)
    for ev in events:
        table[ev >> 3] |= 1 << (ev & 7)
    ones = (1 << (1 << n)) - 1
    clear = [ones // ((1 << (1 << b)) + 1) for b in range(n)]  # the v with bit b clear
    out: list[tuple[int, int]] = []
    level = {0: int.from_bytes(table, "little")}
    while level:
        up = {}
        for d, imp in level.items():
            for b in range(d.bit_length(), n):  # each d | b from one d
                if got := imp & imp >> (1 << b) & clear[b]:
                    up[d | 1 << b] = got
        primes = []
        for d, imp in level.items():
            covered = 0
            for b in range(n):
                got = up.get(d | 1 << b, 0)  # 0 for b in d
                covered |= got | got << (1 << b)
            text = bin(imp & ~covered)[:1:-1]  # bit v at index v
            v = text.find("1")
            while v >= 0:
                primes.append((v, d))
                v = text.find("1", v + 1)
        primes.sort(key=order)
        out[:0] = primes
        level = up
    return out


def _sop_cover(primes: list[tuple[int, int]], events: Sequence[int]) -> list[tuple[int, int]]:
    """Reduce the prime implicant table (``rows[t]``: primes covering event
    t, ``cols[p]``: events covered by prime p) by row and column dominance,
    and, when both are stuck, by keeping the widest prime; return the
    primes left."""
    where = {ev: t for t, ev in enumerate(events)}
    rows = [0] * len(events)
    cols = []
    for p, (v, d) in enumerate(primes):
        col = 0
        sub = d
        while True:
            t = where[v | sub]
            rows[t] |= 1 << p
            col |= 1 << t
            if not sub:
                break
            sub = (sub - 1) & d
        cols.append(col)

    changed = True
    while changed:
        changed = False
        for r, row in enumerate(rows):
            if not row:
                continue
            dominating = -1  # rows holding every prime of row r
            for p in _bits(row):
                dominating &= cols[p]
            for r2 in _bits(dominating & ~(1 << r)):
                changed = True
                for p in _bits(rows[r2]):
                    cols[p] &= ~(1 << r2)
                rows[r2] = 0
        for c, col in enumerate(cols):
            if not col:
                continue
            sharing = 0  # primes covering some event of prime c
            for t in _bits(col):
                sharing |= rows[t]
            for c2 in _bits(sharing & ~(1 << c)):
                if not cols[c2] & ~col:
                    changed = True
                    for t in _bits(cols[c2]):
                        rows[t] &= ~(1 << c2)
                    cols[c2] = 0
        if not changed:
            best = max(range(len(cols)), key=lambda c: cols[c].bit_count())
            if cols[best].bit_count() > 1:
                for p, col in enumerate(cols):
                    hit = col & cols[best]
                    if p != best and hit:
                        changed = True
                        cols[p] ^= hit
                        for t in _bits(hit):
                            rows[t] &= ~(1 << p)
    return [prime for prime, col in zip(primes, cols) if col]


def guard_expr(m: MooreMonitor, events: Sequence[int]) -> expr.BoolExpr:
    """Sum-of-products guard covering the events, over time-0 atoms.

    It is the cover SymPy's ``SOPform`` picks, a heuristic one that is not
    always minimal, taken from the primes of the truth-table sweep in
    SymPy's order.  It is kept because identical guards keep every export
    and report byte-identical.  Products and literals come in the order of
    SymPy's ``ordered()``: positive literals by name, then negated ones by
    name; products by node count (``1 + #pos + 2 #neg``), then by literal
    count, then by literal list."""
    if len(events) == m.n_events:
        return expr.BTRUE
    if not events:
        return expr.BFALSE
    products = []
    for v, d in _sop_cover(_sop_pairs(events, len(m.alphabet)), events):
        lits = sorted(
            (not v >> i & 1, name)
            for i, name in enumerate(m.alphabet)
            if not d >> i & 1
        )
        n_neg = sum(neg for neg, _ in lits)
        products.append((1 + len(lits) + n_neg, len(lits), lits))
    products.sort()
    atom = {name: expr.batom(expr.Atom(0, name)) for name in m.alphabet}
    return expr.disj(
        expr.conj(expr.bnot(atom[name]) if neg else atom[name] for neg, name in lits)
        for _, _, lits in products
    )


def _guard_text(e: expr.BoolExpr) -> str:
    """Render a time-0 guard with bare proposition names (for exports)."""
    return expr.render(e, lambda atom: atom.name)


def guard_templates(m: MooreMonitor) -> list[dict[int, expr.BoolExpr]]:
    """Per state: successor -> guard over time-0 atoms (built once per
    monitor, with one cover per distinct event set)."""
    if m._templates is None:
        covers: dict[tuple[int, ...], expr.BoolExpr] = {}

        def cover(events: list[int]) -> expr.BoolExpr:
            key = tuple(events)
            if key not in covers:
                covers[key] = guard_expr(m, events)
            return covers[key]

        m._templates = [
            {dst: cover(evs) for dst, evs in edges.items()} for edges in m.edge_events()
        ]
    return m._templates
