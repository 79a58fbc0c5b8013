"""Boolean expression engine: hash-consing, simplification, seval."""

import itertools

from hypothesis import given, strategies as st

from decrv import expr
from decrv.expr import Atom, SimplifyStats
from decrv.memory import Memory

from conftest import seval

A = expr.batom(Atom(1, "a"))
B = expr.batom(Atom(1, "b"))
C = expr.batom(Atom(2, "c"))


def test_atom_rendering():
    assert str(Atom(23, "s1")) == "<23,s1>"
    assert str(expr.band(A, expr.bnot(B))) == "<1,a> & !<1,b>"
    assert str(expr.BTRUE) == "true"
    assert str(expr.bnot(expr.band(A, B))) == "!(<1,a> & <1,b>)"
    assert str(expr.bor(expr.bor(A, B), C)) == "<1,a> | <1,b> | <2,c>"
    nested = expr.band(A, expr.bor(B, expr.band(C, expr.bnot(A))))
    assert str(nested) == "<1,a> & (<1,b> | (<2,c> & !<1,a>))"
    assert str(expr.bor(nested, expr.bnot(expr.bnot(C)))) == (
        "(<1,a> & (<1,b> | (<2,c> & !<1,a>))) | !!<2,c>"
    )


def test_guard_rendering_pinned():
    def bare(e):
        return expr.render(e, lambda atom: atom.name)

    assert bare(expr.BFALSE) == "false"
    assert bare(A) == "a"
    assert bare(expr.bnot(expr.bor(A, B))) == "!(a | b)"
    assert bare(expr.bor(expr.band(A, expr.bnot(B)), expr.band(expr.bnot(A), C))) == (
        "(a & !b) | (!a & c)"
    )


def test_hash_consing_gives_identity():
    assert expr.batom(Atom(1, "a")) is A
    assert expr.band(A, B) is expr.band(A, B)
    assert expr.bnot(expr.band(A, B)) is expr.bnot(expr.band(A, B))
    assert expr.band(A, B) is not expr.band(B, A)


def test_size():
    assert expr.BTRUE.size == 1
    assert expr.bor(A, B).size == 3
    assert expr.bnot(expr.band(A, expr.bor(B, C))).size == 6


def test_flatten_orders_left_to_right():
    chain = expr.band(A, expr.band(B, C))
    assert expr.flatten(chain, expr.BAnd) == [A, B, C]
    assert expr.flatten(expr.band(expr.band(A, B), C), expr.BAnd) == [A, B, C]
    assert expr.flatten(A, expr.BAnd) == [A]


def test_simplify_constant_folding():
    assert expr.simplify(expr.band(expr.BTRUE, A)) is A
    assert expr.simplify(expr.bor(expr.BFALSE, A)) is A
    assert expr.simplify(expr.band(expr.BFALSE, A)) is expr.BFALSE
    assert expr.simplify(expr.bor(expr.BTRUE, A)) is expr.BTRUE
    assert expr.simplify(expr.bnot(expr.BTRUE)) is expr.BFALSE


def test_simplify_double_negation():
    assert expr.simplify(expr.bnot(expr.bnot(A))) is A


def test_simplify_idempotence():
    assert expr.simplify(expr.band(A, A)) is A
    assert expr.simplify(expr.bor(A, expr.bor(A, A))) is A


def test_simplify_complement():
    assert expr.simplify(expr.band(A, expr.bnot(A))) is expr.BFALSE
    assert expr.simplify(expr.bor(A, expr.bnot(A))) is expr.BTRUE


def test_simplify_absorption():
    # a | (a & b) -> a   and dually
    assert expr.simplify(expr.bor(A, expr.band(A, B))) is A
    assert expr.simplify(expr.band(A, expr.bor(A, B))) is A


def test_simplify_counts_rule_applications():
    stats = SimplifyStats()
    expr.simplify(expr.band(expr.BTRUE, A), stats)
    assert stats.simplifications == 1
    stats = SimplifyStats()
    expr.simplify(A, stats)
    assert stats.simplifications == 0


def test_simplify_counts_shared_subtree_each_time():
    # !!a is rewritten once per occurrence, memoised or not
    nna = expr.bnot(expr.bnot(A))
    e = expr.band(nna, expr.bor(nna, B))
    for _ in range(2):
        stats = SimplifyStats()
        assert expr.simplify(e, stats) is A
        assert stats.simplifications == 3


def _memory(pairs):
    m = Memory()
    for atom, value in pairs:
        m.store(atom, value)
    return m


def test_seval_example():
    # <23,s1> | <23,l1> with s1 known true collapses to true
    e = expr.bor(expr.batom(Atom(23, "s1")), expr.batom(Atom(23, "l1")))
    m = _memory([(Atom(23, "s1"), True)])
    assert seval(e, m) is expr.BTRUE


def test_seval_empty_memory_is_simplify():
    e = expr.batom(Atom(5, "a"))
    assert seval(e, Memory()) is e


def test_stamp_shifts_timestamps():
    e = expr.band(expr.batom(Atom(0, "s")), expr.bnot(expr.batom(Atom(0, "l"))))
    shifted = expr.stamp(e, 7)
    assert expr.atoms(shifted) == {Atom(7, "s"), Atom(7, "l")}
    assert expr.stamp(e, 0) is e


@st.composite
def exprs(draw, depth=4):
    if depth == 0 or draw(st.booleans()) and depth < 3:
        return draw(
            st.sampled_from([A, B, C, expr.batom(Atom(2, "d")), expr.batom(Atom(3, "e")),
                             expr.BTRUE, expr.BFALSE])
        )
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return expr.bnot(draw(exprs(depth=depth - 1)))
    left = draw(exprs(depth=depth - 1))
    right = draw(exprs(depth=depth - 1))
    return (expr.band if kind == 1 else expr.bor)(left, right)


@given(exprs())
def test_simplify_preserves_truth_table(e):
    simplified = expr.simplify(e)
    names = sorted(expr.atoms(e) | expr.atoms(simplified))
    for bits in itertools.product((False, True), repeat=len(names)):
        assignment = dict(zip(names, bits))
        assert expr.evaluate(e, assignment) == expr.evaluate(simplified, assignment)


@given(exprs())
def test_simplify_never_grows(e):
    assert expr.simplify(e).size <= e.size


@given(exprs())
def test_simplify_fixed_point(e):
    once = expr.simplify(e)
    assert expr.simplify(once) is once


@given(exprs())
def test_seval_total_memory_matches_truth_table(e):
    names = sorted(expr.atoms(e))
    for bits in itertools.product((False, True), repeat=min(len(names), 5)):
        if len(names) > 5:
            break
        assignment = dict(zip(names, bits))
        m = _memory(assignment.items())
        assert seval(e, m) is expr.bconst(expr.evaluate(e, assignment))


@given(exprs())
def test_seval_idempotent(e):
    m = _memory([(Atom(1, "a"), True), (Atom(2, "c"), False)])
    once = seval(e, m)
    assert seval(once, m) is once


@given(exprs())
def test_seval_composes_over_disjoint_memories(e):
    m1 = _memory([(Atom(1, "a"), True), (Atom(2, "d"), False)])
    m2 = _memory([(Atom(1, "b"), False), (Atom(3, "e"), True)])
    both = _memory(
        [(Atom(1, "a"), True), (Atom(2, "d"), False), (Atom(1, "b"), False), (Atom(3, "e"), True)]
    )
    assert seval(e, both) is seval(seval(e, m1), m2)


def _forget_passes(e):
    """Clear the pass memo of every node a simplify of e can visit."""
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, f) for f in ("operand", "left", "right") if hasattr(node, f))
        if node._simp is not None and node._simp[0] is not None:
            stack.append(node._simp[0])
        if not isinstance(node, (expr.BConst, expr.BAtom)):
            node._simp = None
        # a memo never holds its own node
        assert node._simp is None or node._simp[0] is not node


@given(exprs())
def test_simplify_memo_charges_cold_count(e):
    expr.simplify(e)
    _forget_passes(e)
    cold = SimplifyStats()
    result = expr.simplify(e, cold)
    for _ in range(2):
        warm = SimplifyStats()
        assert expr.simplify(e, warm) is result
        assert warm.simplifications == cold.simplifications


def test_one_sweep_frees_a_dead_parent_and_the_children_only_it_held(monkeypatch):
    # keys hold operands, so a parent's key pins its children until the
    # sweep has dropped it: one pass, newest first, still frees them all
    monkeypatch.setattr(expr, "_interned", {})
    monkeypatch.setattr(expr, "_sweep_at", expr._SWEEP_MIN)
    kept = expr.batom(Atom(0, "kept"))
    a, b = expr.batom(Atom(0, "a")), expr.batom(Atom(0, "b"))
    parent = expr.bor(expr.band(a, b), expr.bnot(kept))
    assert len(expr._interned) == 6
    del a, b, parent
    expr._sweep()
    assert list(expr._interned.values()) == [kept]
