"""Atoms and Boolean expressions over them, with counted simplification.

Expressions are immutable and hash-consed: structurally equal live
expressions are the same object, so equality checks and set membership are
O(1) no matter how large the tree is.  The intern table is a plain dict
keyed by a connective and its operands themselves (``("a", atom)``,
``("n", operand)``, ``("&", left, right)``, ``("|", left, right)``); nodes
hash by identity, so a key is no dearer to look up than one of ids and
holds no objects of its own.  The table keeps recently built nodes, so
that a node which recurs, as the frame-relative rows of ``ehe`` do round
after round, keeps its ``simplify`` pass memo.  A sweep bounds it: when it
reaches ``max(1024, 3/2 x its size after the last sweep)`` entries, it
drops, newest first, every node that only the table references, which it
reads from CPython's reference counts (``sys.getrefcount``), so the sweep
relies on CPython.  Atom maps memoise ``node -> result`` and ``atoms``
keeps a set of the nodes it has seen, both keyed by node.
Connectives are binary; chain-level rules (idempotence, absorption,
complement) flatten transparently.
"""

from __future__ import annotations

import sys
from typing import Iterable, NamedTuple, Optional


class Atom(NamedTuple):
    """A (timestamp, proposition-or-reference) observation key."""

    time: int
    name: str

    def __str__(self) -> str:
        return f"<{self.time},{self.name}>"


class SimplifyStats:
    """Counts applied rewrite-rule instances (one count per rule application)."""

    __slots__ = ("simplifications",)

    def __init__(self) -> None:
        self.simplifications = 0


class BoolExpr:
    # _simp memoises one simplify pass over the node: (result, rewrite
    # count), with result None when the pass returns the node itself, so
    # that no node references itself
    __slots__ = ("size", "_simp")

    def __str__(self) -> str:
        return render(self)


class BConst(BoolExpr):
    __slots__ = ("value",)


class BAtom(BoolExpr):
    __slots__ = ("atom",)


class BNot(BoolExpr):
    __slots__ = ("operand",)


class BAnd(BoolExpr):
    __slots__ = ("left", "right")


class BOr(BoolExpr):
    __slots__ = ("left", "right")


def render(e: BoolExpr, atom_text=str) -> str:
    """Infix text, chains flattened and nested chains parenthesised;
    ``atom_text`` renders each atom (guard exports pass bare names)."""
    if isinstance(e, BConst):
        return "true" if e.value else "false"
    if isinstance(e, BAtom):
        return atom_text(e.atom)
    if isinstance(e, BNot):
        prefix, sep, operands = "!", "", [e.operand]
    else:
        prefix, sep, operands = "", " & " if isinstance(e, BAnd) else " | ", flatten(e, type(e))
    return prefix + sep.join(
        f"({render(t, atom_text)})" if isinstance(t, (BAnd, BOr)) else render(t, atom_text)
        for t in operands
    )


# the pass memo of a node that every pass leaves as it is
_FIXED = (None, 0)

# Keys hold operands, not their ids (module docstring).  There is no lock:
# build expressions on one thread.
_interned: dict[tuple, BoolExpr] = {}
_SWEEP_MIN = 1024
_sweep_at = _SWEEP_MIN


def _sweep() -> None:
    """Drop the nodes that only the table references.  A node is inserted
    after its children, so going newest first frees a dead parent, and with
    its key the references that key held, before its children are looked
    at; the snapshot of keys is popped as it is walked, since a key it
    still held would pin its operands.  A dead node that only a younger
    node's pass memo held waits for the next sweep."""
    global _sweep_at
    table = _interned
    keys = list(table)
    while keys:
        key = keys.pop()  # rebinding frees the previous, deleted key
        if sys.getrefcount(table[key]) <= 2:  # the table and the argument
            del table[key]
    _sweep_at = max(_SWEEP_MIN, len(table) * 3 // 2)


def _make_const(value: bool) -> BConst:
    node = BConst()
    node.value = value
    node.size = 1
    node._simp = _FIXED
    return node


BTRUE: BConst = _make_const(True)
BFALSE: BConst = _make_const(False)


def bconst(value: bool) -> BConst:
    return BTRUE if value else BFALSE


def batom(atom: Atom) -> BAtom:
    key = ("a", atom)
    node = _interned.get(key)
    if node is None:
        if len(_interned) >= _sweep_at:
            _sweep()
        node = _interned[key] = BAtom()
        node.atom = atom
        node.size = 1
        node._simp = _FIXED
    return node


def bnot(operand: BoolExpr) -> BNot:
    key = ("n", operand)
    node = _interned.get(key)
    if node is None:
        if len(_interned) >= _sweep_at:
            _sweep()
        node = _interned[key] = BNot()
        node.operand = operand
        node.size = operand.size + 1
        node._simp = None
    return node


def band(left: BoolExpr, right: BoolExpr) -> BAnd:
    key = ("&", left, right)
    node = _interned.get(key)
    if node is None:
        if len(_interned) >= _sweep_at:
            _sweep()
        node = _interned[key] = BAnd()
        node.left = left
        node.right = right
        node.size = left.size + right.size + 1
        node._simp = None
    return node


def bor(left: BoolExpr, right: BoolExpr) -> BOr:
    key = ("|", left, right)
    node = _interned.get(key)
    if node is None:
        if len(_interned) >= _sweep_at:
            _sweep()
        node = _interned[key] = BOr()
        node.left = left
        node.right = right
        node.size = left.size + right.size + 1
        node._simp = None
    return node


def conj(terms: Iterable[BoolExpr]) -> BoolExpr:
    """Right-assoc conjunction of a term list (empty -> true)."""
    terms = list(terms)
    if not terms:
        return BTRUE
    result = terms[-1]
    for t in reversed(terms[:-1]):
        result = band(t, result)
    return result


def disj(terms: Iterable[BoolExpr]) -> BoolExpr:
    """Right-assoc disjunction of a term list (empty -> false)."""
    terms = list(terms)
    if not terms:
        return BFALSE
    result = terms[-1]
    for t in reversed(terms[:-1]):
        result = bor(t, result)
    return result


def flatten(e: BoolExpr, cls) -> list[BoolExpr]:
    """Operands of a same-connective chain, left to right."""
    out: list[BoolExpr] = []
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def atoms(e: BoolExpr) -> set[Atom]:
    found: set[Atom] = set()
    stack = [e]
    seen: set[BoolExpr] = set()
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, BAtom):
            found.add(node.atom)
        elif isinstance(node, BNot):
            stack.append(node.operand)
        elif isinstance(node, (BAnd, BOr)):
            stack.append(node.left)
            stack.append(node.right)
    return found


def evaluate(e: BoolExpr, assignment: dict[Atom, bool]) -> bool:
    """Truth-table evaluation under a total assignment of the atoms."""
    if isinstance(e, BConst):
        return e.value
    if isinstance(e, BAtom):
        return assignment[e.atom]
    if isinstance(e, BNot):
        return not evaluate(e.operand, assignment)
    if isinstance(e, BAnd):
        return evaluate(e.left, assignment) and evaluate(e.right, assignment)
    if isinstance(e, BOr):
        return evaluate(e.left, assignment) or evaluate(e.right, assignment)
    raise TypeError(f"unknown node {e!r}")


def simplify(e: BoolExpr, stats: Optional[SimplifyStats] = None) -> BoolExpr:
    """Rewrite to a fixed point: constant folding, double negation,
    idempotence, absorption, and complement.  Never grows the tree."""
    count = 0
    while True:
        result, n = _pass(e)
        count += n
        if result is None:
            break
        e = result
    if stats:
        stats.simplifications += count
    return e


def _pass(e: BoolExpr) -> tuple[Optional[BoolExpr], int]:
    """One rewrite pass: (result, or None for e itself; rules applied).

    A pass is a pure function of the node: it compares nodes by identity
    only, and a negation that the complement probe finds matters only if it
    is an operand, which it then is whether or not it was swept and built
    again.  So it is worked out once per node, and a node that the table
    hands back keeps its memo."""
    memo = e._simp
    if memo is None:
        memo = e._simp = _pass_once(e)
    return memo


def _pass_once(e: BoolExpr) -> tuple[Optional[BoolExpr], int]:
    if isinstance(e, BNot):
        result, count = _pass(e.operand)
        a = e.operand if result is None else result
        if isinstance(a, BConst):
            return bconst(not a.value), count + 1
        if isinstance(a, BNot):
            return a.operand, count + 1
        return (None if result is None else bnot(a)), count

    is_and = isinstance(e, BAnd)
    cls = BAnd if is_and else BOr
    identity, annihilator = (BTRUE, BFALSE) if is_and else (BFALSE, BTRUE)
    count = 0
    operands = []
    for t in flatten(e, cls):
        result, n = _pass(t)
        count += n
        operands.append(t if result is None else result)

    kept: list[BoolExpr] = []
    present: set[BoolExpr] = set()
    for t in operands:
        if t is annihilator:
            return annihilator, count + 1
        if t is identity or t in present:  # identity, idempotence
            count += 1
            continue
        present.add(t)
        kept.append(t)

    for t in kept:  # complement
        # a negation not in the table cannot be among the operands
        comp = t.operand if isinstance(t, BNot) else _interned.get(("n", t))
        if comp in present:
            return annihilator, count + 1

    # absorption: in a disjunction, drop a conjunction containing another
    # operand (and dually)
    inner_cls = BOr if is_and else BAnd
    absorbed: list[BoolExpr] = []
    for t in kept:
        if isinstance(t, inner_cls) and any(
            u in present and u is not t for u in flatten(t, inner_cls)
        ):
            count += 1
            present.discard(t)
            continue
        absorbed.append(t)

    if not absorbed:
        return identity, count
    if len(absorbed) == 1:
        return absorbed[0], count
    rebuilt = conj(absorbed) if is_and else disj(absorbed)
    return (None if rebuilt is e else rebuilt), count


def substitute_atoms(e: BoolExpr, lookup, memo: Optional[dict] = None) -> BoolExpr:
    """Replace atoms for which ``lookup(atom)`` returns a bool; leave others.

    ``memo`` (``node -> result``) may be shared by calls with the same
    lookup."""

    def leaf(node: BAtom) -> BoolExpr:
        v = lookup(node.atom)
        return node if v is None else bconst(v)

    return _map_atoms(e, leaf, {} if memo is None else memo)


def stamp(e: BoolExpr, offset: int) -> BoolExpr:
    """Shift every atom timestamp by ``offset`` (guard templates use time 0)."""
    if offset == 0:
        return e
    return _map_atoms(e, lambda node: batom(Atom(node.atom.time + offset, node.atom.name)), {})


# not a function: benchmarks/test_checks.py looks up every name the tracer
# probes, this one included; the recipe is tests/conftest.py's ``seval``
seval = None


def _map_atoms(node: BoolExpr, leaf, memo: dict) -> BoolExpr:
    """``node`` with each atom node replaced by ``leaf(atom node)``; a node
    whose operands map to themselves is returned as it is.  A module
    function, not a closure: a closure that calls itself is a reference
    cycle, which would keep its memo alive until the cyclic collector runs."""
    cached = memo.get(node)
    if cached is not None:
        return cached
    if isinstance(node, BConst):
        out = node
    elif isinstance(node, BAtom):
        out = leaf(node)
    elif isinstance(node, BNot):
        a = _map_atoms(node.operand, leaf, memo)
        out = node if a is node.operand else bnot(a)
    else:
        l, r = _map_atoms(node.left, leaf, memo), _map_atoms(node.right, leaf, memo)
        if l is node.left and r is node.right:
            out = node
        else:
            out = band(l, r) if isinstance(node, BAnd) else bor(l, r)
    memo[node] = out
    return out
