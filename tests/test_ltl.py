"""Parser, desugaring, and formula utilities."""

import pytest
from hypothesis import given, strategies as st

from decrv import ltl
from decrv.ltl import (
    And,
    Const,
    Finally,
    FinallyWithin,
    Globally,
    GloballyWithin,
    Implies,
    Next,
    Not,
    Or,
    ParseError,
    Prop,
    Until,
)


def test_parse_atoms_and_constants():
    assert ltl.parse("a") == Prop("a")
    assert ltl.parse("true") == Const(True)
    assert ltl.parse("false") == Const(False)


def test_parse_precedence():
    # ! binds tightest, then U, &, |, ->
    assert ltl.parse("!a & b") == And(Not(Prop("a")), Prop("b"))
    assert ltl.parse("a & b | c") == Or(And(Prop("a"), Prop("b")), Prop("c"))
    assert ltl.parse("a | b -> c") == Implies(Or(Prop("a"), Prop("b")), Prop("c"))
    assert ltl.parse("a U b & c") == And(Until(Prop("a"), Prop("b")), Prop("c"))
    assert ltl.parse("a->b") == Implies(Prop("a"), Prop("b"))


def test_parse_right_associativity():
    assert ltl.parse("a -> b -> c") == Implies(
        Prop("a"), Implies(Prop("b"), Prop("c"))
    )
    assert ltl.parse("a U b U c") == Until(Prop("a"), Until(Prop("b"), Prop("c")))


def test_parse_unary_temporal():
    assert ltl.parse("X a") == Next(Prop("a"))
    assert ltl.parse("G a") == Globally(Prop("a"))
    assert ltl.parse("F a") == Finally(Prop("a"))
    assert ltl.parse("G F a") == Globally(Finally(Prop("a")))
    assert ltl.parse("!X a") == Not(Next(Prop("a")))


def test_parse_bounded_operators():
    assert ltl.parse("F<=3 a") == FinallyWithin(3, Prop("a"))
    assert ltl.parse("G<=0 a") == GloballyWithin(0, Prop("a"))
    assert ltl.parse("G<=25 (a | b)") == GloballyWithin(25, Or(Prop("a"), Prop("b")))
    assert ltl.parse("F<=3a") == FinallyWithin(3, Prop("a"))


# text, message, line, column
PARSE_ERRORS = [
    ("a &", "unexpected token ''", 1, 4),
    ("F<= a", "expected a non-negative bound", 1, 5),
    ("X<=2 a", "X takes no bound", 1, 1),
    ("(a", "expected RPAREN, found ''", 1, 3),
    ("a @ b", "unexpected character '@'", 1, 3),
    ("a\n& @", "unexpected character '@'", 2, 3),
    ("a U", "unexpected token ''", 1, 4),
    ("a b", "unexpected token 'b'", 1, 3),
    ("U a", "operator U needs an operand", 1, 1),
    ("F<=\u00b2 a", "unexpected character '\u00b2'", 1, 4),  # a bound is 0-9 only
]


def test_parse_errors_have_positions():
    for text, message, line, column in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            ltl.parse(text)
        assert (err.value.message, err.value.line, err.value.column) == (message, line, column)
        assert str(err.value) == f"{message} (line {line}, column {column})"


def test_negative_bound_rejected():
    with pytest.raises(ValueError):
        FinallyWithin(-1, Prop("a"))
    with pytest.raises(ValueError):
        GloballyWithin(-2, Prop("a"))


def test_desugar_bounded_finally():
    # F<=2 a  ==  a | X a | X X a
    assert ltl.desugar(ltl.parse("F<=2 a")) == Or(
        Prop("a"), Or(Next(Prop("a")), Next(Next(Prop("a"))))
    )
    assert ltl.desugar(ltl.parse("G<=1 a")) == And(Prop("a"), Next(Prop("a")))
    assert ltl.desugar(ltl.parse("F<=0 a")) == Prop("a")


def test_desugar_implication():
    assert ltl.desugar(ltl.parse("a -> b")) == Or(Not(Prop("a")), Prop("b"))


def test_propositions():
    assert ltl.propositions(ltl.parse("G(a -> X(b U !a))")) == {"a", "b"}
    assert ltl.propositions(ltl.parse("true")) == frozenset()
    assert ltl.propositions(ltl.parse("F<=2 (a & c)")) == {"a", "c"}


def test_substitute_inlines_leaves():
    f = ltl.parse("G(s -> X(light U !s))")
    g = ltl.substitute(f, {"light": ltl.parse("l1 | l2")})
    assert ltl.propositions(g) == {"s", "l1", "l2"}
    # substitution is not recursive into the replacement
    h = ltl.substitute(ltl.parse("a"), {"a": ltl.parse("b"), "b": ltl.parse("c")})
    assert h == Prop("b")


def test_bounded_horizon():
    assert ltl.bounded_horizon(ltl.parse("a & b")) == 0
    assert ltl.bounded_horizon(ltl.parse("X X a")) == 2
    assert ltl.bounded_horizon(ltl.parse("F<=3 a")) == 3
    assert ltl.bounded_horizon(ltl.parse("G<=2 F<=3 a")) == 5
    assert ltl.bounded_horizon(ltl.parse("F<=3 a | X X X X b")) == 4
    assert ltl.bounded_horizon(ltl.parse("G a")) is None
    assert ltl.bounded_horizon(ltl.parse("a U b")) is None
    assert ltl.bounded_horizon(ltl.parse("F<=2 (a U b)")) is None


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        return draw(
            st.sampled_from(
                [Prop("a"), Prop("b"), Prop("c"), Const(True), Const(False)]
            )
        )
    kind = draw(st.integers(0, 9))
    sub = lambda: draw(formulas(depth=depth - 1))
    if kind == 0:
        return Not(sub())
    if kind == 1:
        return And(sub(), sub())
    if kind == 2:
        return Or(sub(), sub())
    if kind == 3:
        return Implies(sub(), sub())
    if kind == 4:
        return Next(sub())
    if kind == 5:
        return Until(sub(), sub())
    if kind == 6:
        return Globally(sub())
    if kind == 7:
        return Finally(sub())
    if kind == 8:
        return FinallyWithin(draw(st.integers(0, 4)), sub())
    return GloballyWithin(draw(st.integers(0, 4)), sub())


@given(formulas())
def test_render_parse_roundtrip(f):
    text = ltl.render(f)
    assert ltl.parse(text) == f
    assert ltl.render(ltl.parse(text)) == text


@given(formulas())
def test_desugar_removes_sugar(f):
    def sugar_free(g):
        match g:
            case Implies() | FinallyWithin() | GloballyWithin():
                return False
            case Const() | Prop():
                return True
            case Not(a) | Next(a) | Globally(a) | Finally(a):
                return sugar_free(a)
            case And(a, b) | Or(a, b) | Until(a, b):
                return sugar_free(a) and sugar_free(b)

    assert sugar_free(ltl.desugar(f))


@given(formulas())
def test_desugar_idempotent(f):
    once = ltl.desugar(f)
    assert ltl.desugar(once) == once


@given(formulas())
def test_desugar_preserves_propositions(f):
    assert ltl.propositions(ltl.desugar(f)) == ltl.propositions(f)


@given(formulas())
def test_desugar_preserves_bounded_horizon(f):
    assert ltl.bounded_horizon(ltl.desugar(f)) == ltl.bounded_horizon(f)


@given(formulas(), st.sampled_from(["a", "b", "c"]), formulas(depth=2))
def test_substitute_replaces_exactly_the_leaf(f, p, g):
    got = ltl.substitute(f, {p: g})
    if p in ltl.propositions(f):
        assert ltl.propositions(got) == ltl.propositions(f) - {p} | ltl.propositions(g)
    else:
        assert got == f


@given(formulas())
def test_substitute_nothing_is_identity(f):
    assert ltl.substitute(f, {}) == f
