"""Brute-force three-valued evaluator used as ground truth in tests.

Independent of the synthesis module by construction: a finite trace is
consumed by formula progression, and the leftover obligation is decided by
satisfiability checks.  Window-only residuals (pure X towers) are decided
by exhaustive event enumeration; residuals with unbounded operators go
through a filtration-style state graph with fair-cycle detection, over
its own reachability and SCC pass (Kosaraju's, not the Tarjan pass that
synthesis uses).

Formulas are normalized to negation normal form over nested tuples:
    ("true",) | ("false",) | ("lit", name, positive)
    ("and", children) | ("or", children) | ("x", sub)
    ("u", lhs, rhs) | ("r", lhs, rhs)
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from . import ltl
from .verdicts import Verdict

NTRUE = ("true",)
NFALSE = ("false",)

# keeps the filtration state space enumerable at test scale
MAX_ELEMENTARY = 14


class UnresolvedReferenceError(ValueError):
    pass


class OracleCapacityError(RuntimeError):
    pass


def _mk_and(children):
    flat = []
    for c in children:
        if c == NFALSE:
            return NFALSE
        if c == NTRUE:
            continue
        if c[0] == "and":
            flat.extend(c[1])
        else:
            flat.append(c)
    out = sorted(set(flat))
    for c in out:
        if _neg(c) in out:
            return NFALSE
    if not out:
        return NTRUE
    if len(out) == 1:
        return out[0]
    return ("and", tuple(out))


def _mk_or(children):
    flat = []
    for c in children:
        if c == NTRUE:
            return NTRUE
        if c == NFALSE:
            continue
        if c[0] == "or":
            flat.extend(c[1])
        else:
            flat.append(c)
    out = sorted(set(flat))
    for c in out:
        if _neg(c) in out:
            return NTRUE
    if not out:
        return NFALSE
    if len(out) == 1:
        return out[0]
    return ("or", tuple(out))


def _neg(node):
    kind = node[0]
    if kind == "true":
        return NFALSE
    if kind == "false":
        return NTRUE
    if kind == "lit":
        return ("lit", node[1], not node[2])
    if kind == "and":
        return _mk_or([_neg(c) for c in node[1]])
    if kind == "or":
        return _mk_and([_neg(c) for c in node[1]])
    if kind == "x":
        return ("x", _neg(node[1]))
    if kind == "u":
        return ("r", _neg(node[1]), _neg(node[2]))
    if kind == "r":
        return ("u", _neg(node[1]), _neg(node[2]))
    raise TypeError(node)


def _nnf(f: ltl.Formula, negated: bool):
    match f:
        case ltl.Const(v):
            return NFALSE if v == negated else NTRUE
        case ltl.Prop(name):
            return ("lit", name, not negated)
        case ltl.Not(a):
            return _nnf(a, not negated)
        case ltl.And(a, b):
            mk = _mk_or if negated else _mk_and
            return mk([_nnf(a, negated), _nnf(b, negated)])
        case ltl.Or(a, b):
            mk = _mk_and if negated else _mk_or
            return mk([_nnf(a, negated), _nnf(b, negated)])
        case ltl.Next(a):
            return ("x", _nnf(a, negated))
        case ltl.Until(a, b):
            if negated:
                return ("r", _nnf(a, True), _nnf(b, True))
            return ("u", _nnf(a, False), _nnf(b, False))
        case ltl.Globally(a):
            if negated:
                return ("u", NTRUE, _nnf(a, True))
            return ("r", NFALSE, _nnf(a, False))
        case ltl.Finally(a):
            if negated:
                return ("r", NFALSE, _nnf(a, True))
            return ("u", NTRUE, _nnf(a, False))
    raise TypeError(f"formula must be desugared first: {f!r}")


_props_cache: dict = {}


def _props(node) -> frozenset[str]:
    got = _props_cache.get(node)
    if got is not None:
        return got
    kind = node[0]
    if kind in ("true", "false"):
        out = frozenset()
    elif kind == "lit":
        out = frozenset((node[1],))
    elif kind in ("and", "or"):
        out = frozenset().union(*[_props(c) for c in node[1]])
    elif kind == "x":
        out = _props(node[1])
    else:
        out = _props(node[1]) | _props(node[2])
    _props_cache[node] = out
    return out


def _unbounded(node) -> bool:
    kind = node[0]
    if kind in ("true", "false", "lit"):
        return False
    if kind in ("and", "or"):
        return any(_unbounded(c) for c in node[1])
    if kind == "x":
        return _unbounded(node[1])
    return True


_prog_cache: dict = {}


def _progress(node, true_props: frozenset[str]):
    """Obligation left for the rest of the trace after reading one event."""
    key = (node, true_props & _props(node))
    got = _prog_cache.get(key)
    if got is not None:
        return got
    kind = node[0]
    if kind in ("true", "false"):
        out = node
    elif kind == "lit":
        holds = (node[1] in true_props) == node[2]
        out = NTRUE if holds else NFALSE
    elif kind == "and":
        out = _mk_and([_progress(c, true_props) for c in node[1]])
    elif kind == "or":
        out = _mk_or([_progress(c, true_props) for c in node[1]])
    elif kind == "x":
        out = node[1]
    elif kind == "u":
        a, b = node[1], node[2]
        out = _mk_or(
            [_progress(b, true_props), _mk_and([_progress(a, true_props), node])]
        )
    else:  # r
        a, b = node[1], node[2]
        out = _mk_and(
            [_progress(b, true_props), _mk_or([_progress(a, true_props), node])]
        )
    _prog_cache[key] = out
    return out


_sat_cache: dict = {}


def _satisfiable(node) -> bool:
    got = _sat_cache.get(node)
    if got is None:
        got = _sat_window(node) if not _unbounded(node) else _sat_filtration(node)
        _sat_cache[node] = got
    return got


def _sat_window(node) -> bool:
    """Pure X/boolean residuals terminate under progression; search for true."""
    if node == NTRUE:
        return True
    if node == NFALSE:
        return False
    props = sorted(_props(node))
    if len(props) > MAX_ELEMENTARY:
        raise OracleCapacityError(f"{len(props)} propositions in window residual")
    for bits in itertools.product((False, True), repeat=len(props)):
        ev = frozenset(p for p, b in zip(props, bits) if b)
        if _satisfiable(_progress(node, ev)):
            return True
    return False


def _subformulas(node, out: set) -> None:
    if node in out:
        return
    out.add(node)
    kind = node[0]
    if kind in ("and", "or"):
        for c in node[1]:
            _subformulas(c, out)
    elif kind == "x":
        _subformulas(node[1], out)
    elif kind in ("u", "r"):
        _subformulas(node[1], out)
        _subformulas(node[2], out)


def _sat_filtration(node) -> bool:
    """Fair-cycle search over valuations of the residual's elementary parts."""
    cl: set = set()
    _subformulas(node, cl)
    props = sorted(_props(node))
    untils = sorted(c for c in cl if c[0] == "u")
    releases = sorted(c for c in cl if c[0] == "r")
    xsubs = sorted(c for c in cl if c[0] == "x")
    temporal = untils + releases
    n_elem = len(props) + len(temporal) + len(xsubs)
    if n_elem > MAX_ELEMENTARY:
        raise OracleCapacityError(f"{n_elem} elementary subformulas in residual")

    def truth(f, val, tmem, xmem) -> bool:
        kind = f[0]
        if kind == "true":
            return True
        if kind == "false":
            return False
        if kind == "lit":
            return (f[1] in val) == f[2]
        if kind == "and":
            return all(truth(c, val, tmem, xmem) for c in f[1])
        if kind == "or":
            return any(truth(c, val, tmem, xmem) for c in f[1])
        if kind == "x":
            return xmem[f]
        return tmem[f]

    states = []
    for bits in itertools.product(
        (False, True), repeat=len(props) + len(temporal) + len(xsubs)
    ):
        val = frozenset(p for p, b in zip(props, bits) if b)
        tmem = dict(zip(temporal, bits[len(props) : len(props) + len(temporal)]))
        xmem = dict(zip(xsubs, bits[len(props) + len(temporal) :]))
        states.append((val, tmem, xmem))

    def requirements(state):
        """Per-temporal next-membership: True/False/None(free); None state if infeasible."""
        val, tmem, xmem = state
        reqs = {}
        for chi in temporal:
            a_holds = truth(chi[1], val, tmem, xmem)
            b_holds = truth(chi[2], val, tmem, xmem)
            member = tmem[chi]
            if chi[0] == "u":
                if member:
                    if b_holds:
                        reqs[chi] = None
                    elif a_holds:
                        reqs[chi] = True
                    else:
                        return None
                else:
                    if b_holds:
                        return None
                    reqs[chi] = False if a_holds else None
            else:  # r
                if member:
                    if not b_holds:
                        return None
                    reqs[chi] = None if a_holds else True
                else:
                    if not b_holds:
                        reqs[chi] = None
                    elif a_holds:
                        return None
                    else:
                        reqs[chi] = False
        return reqs

    succ: list[list[int]] = [[] for _ in states]
    for i, state in enumerate(states):
        reqs = requirements(state)
        if reqs is None:
            continue
        _, _, xmem = state
        for j, nxt in enumerate(states):
            nval, ntmem, nxmem = nxt
            if any(ntmem[chi] != want for chi, want in reqs.items() if want is not None):
                continue
            if any(
                truth(xi[1], nval, ntmem, nxmem) != xmem[xi] for xi in xsubs
            ):
                continue
            succ[i].append(j)

    initial = [
        i for i, (val, tmem, xmem) in enumerate(states) if truth(node, val, tmem, xmem)
    ]
    if not initial:
        return False
    reachable = set(initial)
    frontier = list(initial)
    while frontier:
        for j in succ[frontier.pop()]:
            if j not in reachable:
                reachable.add(j)
                frontier.append(j)

    for members in _sccs(succ):
        if members[0] not in reachable:  # a component is reached whole or not at all
            continue
        has_cycle = len(members) > 1 or members[0] in succ[members[0]]
        if not has_cycle:
            continue
        fair = all(
            any(
                not states[i][1][chi]
                or truth(chi[2], states[i][0], states[i][1], states[i][2])
                for i in members
            )
            for chi in untils
        )
        if fair:
            return True
    return False


def _sccs(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of the graph on nodes 0..n-1 with
    ``succ[i]`` the successors of i (Kosaraju: order the nodes by the time
    a depth-first search finishes them, then gather each component on the
    reversed graph, latest finished first)."""
    n = len(succ)
    finished: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if not seen[child]:
                    seen[child] = True
                    work.append((child, iter(succ[child])))
                    break
            else:
                work.pop()
                finished.append(node)
    pred: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in succ[i]:
            pred[j].append(i)
    placed = [False] * n
    out: list[list[int]] = []
    for root in reversed(finished):
        if placed[root]:
            continue
        placed[root] = True
        members = [root]
        for node in members:  # grows as it goes: a search on the reversed graph
            for p in pred[node]:
                if not placed[p]:
                    placed[p] = True
                    members.append(p)
        out.append(members)
    return out


def elementary_count(f: ltl.Formula) -> int:
    """Worst-case elementary-subformula count over the formula and its
    negation; progression never introduces new elementary parts, so this
    bounds every satisfiability check evaluate3 can trigger."""
    worst = 0
    for node in (_nnf(ltl.desugar(f), False), _nnf(ltl.desugar(f), True)):
        cl: set = set()
        _subformulas(node, cl)
        n = len(_props(node)) + sum(1 for c in cl if c[0] in ("u", "r", "x"))
        worst = max(worst, n)
    return worst


def residual(f: ltl.Formula, trace: Sequence[Mapping[str, bool]], t: int = 0):
    """NNF obligation left after progressing through trace[t:]."""
    node = _nnf(ltl.desugar(f), False)
    for event in trace[t:]:
        node = _progress(node, frozenset(p for p, v in event.items() if v))
    return node


def evaluate3(
    f: ltl.Formula,
    trace: Sequence[Mapping[str, bool]],
    t: int = 0,
    labels: Sequence[str] = (),
) -> Verdict:
    """LTL3 verdict of ``f`` on the trace suffix starting at ``t``."""
    refs = ltl.propositions(f) & set(labels)
    if refs:
        raise UnresolvedReferenceError(f"inline references first: {sorted(refs)}")
    node = residual(f, trace, t)
    if not _satisfiable(_neg(node)):
        return Verdict.TRUE
    if not _satisfiable(node):
        return Verdict.FALSE
    return Verdict.UNKNOWN
