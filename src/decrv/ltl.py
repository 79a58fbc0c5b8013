"""LTL abstract syntax, parser, and desugaring.

The surface syntax accepts bounded windows ``F<=n`` / ``G<=n`` and
implication; :func:`desugar` lowers all three so that downstream code only
sees the classic connectives plus ``X``/``U``/``G``/``F``.

Propositions and monitor references share one namespace here; the registry
decides which identifiers name monitors.
"""

from __future__ import annotations

from .base import Record


class Formula(Record):
    """An immutable syntax node (see :class:`decrv.base.Record`)."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


class Const(Formula):
    __slots__ = __match_args__ = ("value",)


class Prop(Formula):
    __slots__ = __match_args__ = ("name",)


class _Unary(Formula):
    __slots__ = __match_args__ = ("operand",)


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")


class _Window(Formula):
    __slots__ = __match_args__ = ("bound", "operand")

    def __init__(self, bound: int, operand: Formula) -> None:
        if bound < 0:
            raise ValueError(f"negative bound {bound}")
        super().__init__(bound, operand)


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


class Until(_Binary):
    __slots__ = ()


class Globally(_Unary):
    __slots__ = ()


class Finally(_Unary):
    __slots__ = ()


class FinallyWithin(_Window):
    __slots__ = ()


class GloballyWithin(_Window):
    __slots__ = ()


TRUE = Const(True)
FALSE = Const(False)


class ParseError(ValueError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    "!": "NOT",
    "&": "AND",
    "|": "OR",
}


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, column)`` tokens of a formula, ending in EOF."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in _PUNCT:
            tokens.append((_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        if text.startswith("->", i):
            tokens.append(("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("<=", i):
            tokens.append(("LE", "<=", line, col))
            i += 2
            col += 2
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


class _Parser:
    """Recursive descent; precedence ! > unary temporal > U > & > | > ->."""

    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2], tok[3])
        return self.advance()

    def parse(self) -> Formula:
        f = self.implication()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "ARROW":
            self.advance()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[0] == "OR":
            self.advance()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.until()
        while self.peek()[0] == "AND":
            self.advance()
            f = And(f, self.until())
        return f

    def until(self) -> Formula:
        left = self.unary()
        tok = self.peek()
        if tok[0] == "IDENT" and tok[1] == "U":
            self.advance()
            return Until(left, self.until())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok[0] == "NOT":
            self.advance()
            return Not(self.unary())
        if tok[0] == "IDENT" and tok[1] in ("X", "G", "F"):
            self.advance()
            if self.peek()[0] == "LE":
                if tok[1] == "X":
                    raise ParseError("X takes no bound", tok[2], tok[3])
                self.advance()
                bound = self.bound()
                sub = self.unary()
                return (FinallyWithin if tok[1] == "F" else GloballyWithin)(bound, sub)
            sub = self.unary()
            if tok[1] == "X":
                return Next(sub)
            if tok[1] == "G":
                return Globally(sub)
            return Finally(sub)
        return self.atom()

    def bound(self) -> int:
        tok = self.peek()
        if tok[0] != "INT":
            raise ParseError("expected a non-negative bound", tok[2], tok[3])
        self.advance()
        return int(tok[1])

    def atom(self) -> Formula:
        tok = self.advance()
        if tok[0] == "LPAREN":
            f = self.implication()
            self.expect("RPAREN")
            return f
        if tok[0] == "IDENT":
            if tok[1] == "true":
                return TRUE
            if tok[1] == "false":
                return FALSE
            if tok[1] in ("X", "G", "F", "U"):
                raise ParseError(f"operator {tok[1]} needs an operand", tok[2], tok[3])
            return Prop(tok[1])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])


def parse(text: str) -> Formula:
    """Parse a formula string, raising :class:`ParseError` with position."""
    return parse_tokens(tokenize(text))


def parse_tokens(tokens: list[tuple[str, str, int, int]]) -> Formula:
    """Parse the tokens :func:`tokenize` made (a caller may filter them)."""
    return _Parser(tokens).parse()


def _rebuild(f: Formula, fn) -> Formula:
    """A leaf as it is; any other node built again with ``fn`` applied to
    each operand."""
    if isinstance(f, (Const, Prop)):
        return f
    return f.__class__(*[fn(v) if isinstance(v, Formula) else v for v in f._values()])


def _operands(f: Formula) -> list[Formula]:
    """The fields of ``f`` that are formulas (none for a leaf)."""
    return [v for v in f._values() if isinstance(v, Formula)]


def desugar(f: Formula) -> Formula:
    """Lower F<=n, G<=n and -> to the core connectives."""
    match f:
        case Implies(a, b):
            return Or(Not(desugar(a)), desugar(b))
        case FinallyWithin(bound, a):
            return _window(Or, bound, desugar(a))
        case GloballyWithin(bound, a):
            return _window(And, bound, desugar(a))
    return _rebuild(f, desugar)


def _window(op, bound: int, sub: Formula) -> Formula:
    terms = [sub]
    for _ in range(bound):
        terms.append(Next(terms[-1]))
    result = terms.pop()
    while terms:
        result = op(terms.pop(), result)
    return result


def propositions(f: Formula) -> frozenset[str]:
    """All proposition / monitor-reference names occurring in the formula."""
    if isinstance(f, Prop):
        return frozenset((f.name,))
    return frozenset().union(*[propositions(g) for g in _operands(f)])


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Replace named leaves by formulas (used to inline monitor references)."""
    if isinstance(f, Prop):
        return mapping.get(f.name, f)
    return _rebuild(f, lambda g: substitute(g, mapping))


def bounded_horizon(f: Formula) -> int | None:
    """Max X-nesting depth after desugaring, or None if G/F/U make it unbounded."""
    match f:
        case Until() | Globally() | Finally():
            return None
        case Next():
            own = 1
        case FinallyWithin(bound, _) | GloballyWithin(bound, _):
            own = bound
        case _:
            own = 0
    below = [bounded_horizon(g) for g in _operands(f)]
    return None if None in below else own + max(below, default=0)


def render(f: Formula) -> str:
    """Re-render as parseable concrete syntax."""
    return _render(f, 0)


def _render(g: Formula, parent: int) -> str:
    # precedence levels: -> 0, | 1, & 2, U 3, unary 4, atom 5
    match g:
        case Const(v):
            return "true" if v else "false"
        case Prop(name):
            return name
        case Not(a):
            return "!" + _render(a, 4)
        case Next(a):
            return "X " + _render(a, 4)
        case Globally(a):
            return "G " + _render(a, 4)
        case Finally(a):
            return "F " + _render(a, 4)
        case FinallyWithin(b, a):
            return f"F<={b} " + _render(a, 4)
        case GloballyWithin(b, a):
            return f"G<={b} " + _render(a, 4)
        case Until(a, b):
            s = _render(a, 4) + " U " + _render(b, 3)
            return f"({s})" if parent > 3 else s
        case And(a, b):
            s = _render(a, 3) + " & " + _render(b, 3)
            return f"({s})" if parent > 2 else s
        case Or(a, b):
            s = _render(a, 2) + " | " + _render(b, 2)
            return f"({s})" if parent > 1 else s
        case Implies(a, b):
            s = _render(a, 1) + " -> " + _render(b, 0)
            return f"({s})" if parent > 0 else s
    raise TypeError(f"unknown node {g!r}")
