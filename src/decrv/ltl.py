"""LTL abstract syntax, parser, and desugaring.

The surface syntax accepts bounded windows ``F<=n`` / ``G<=n`` and
implication; :func:`desugar` lowers all three so that downstream code only
sees the classic connectives plus ``X``/``U``/``G``/``F``.  The operator
tables ``_BINARY`` and ``_UNARY`` are the one statement of the grammar's
precedence and associativity: the parser and :func:`render` both read them.

Propositions and monitor references share one namespace here; the registry
decides which identifiers name monitors.
"""

from __future__ import annotations

import re

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
    """Syntax error at a position; ``message`` is the text without it."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


# one token per match, after any blanks: the group that matched names its
# kind; any other non-blank character is an error
_TOKEN = re.compile(
    r"\s*(?:(?P<INT>[0-9]+)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<ARROW>->)|(?P<LE><=)"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<NOT>!)|(?P<AND>&)|(?P<OR>\|)|(?P<BAD>\S))"
)


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, column)`` tokens of a formula, ending in EOF."""
    tokens = []
    for line, row in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(row):
            kind = m.lastgroup
            if kind == "BAD":
                raise ParseError(f"unexpected character {m[kind]!r}", line, m.start(kind) + 1)
            tokens.append((kind, m[kind], line, m.start(kind) + 1))
    tokens.append(("EOF", "", line, len(row) + 1))
    return tokens


# The grammar's precedence, stated once: binary operators loosest first, as
# (token, node, right-associative); each binds tighter than those above it.
# The unary operators bind tighter still, each with its bounded window (if any).
_BINARY = (("->", Implies, True), ("|", Or, False), ("&", And, False), ("U", Until, True))
_INFIX = {text: (level, cls, right) for level, (text, cls, right) in enumerate(_BINARY)}
_UNARY = {"!": (Not, None), "X": (Next, None), "G": (Globally, GloballyWithin),
          "F": (Finally, FinallyWithin)}
_OPERAND = len(_BINARY)  # the level of a unary operator's operand


class _Parser:
    """Precedence climbing (Pratt, POPL 1973) over ``_BINARY`` and
    ``_UNARY``, the one statement of the grammar's precedence, which
    :func:`render` reads too."""

    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    def parse(self) -> Formula:
        f = self.binary(0)
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            raise ParseError(f"unexpected token {tok[1]!r}", *tok[2:])
        return f

    def binary(self, floor: int) -> Formula:
        """An operand, then any operators of level ``floor`` or tighter."""
        left = self.unary()
        while True:
            op = _INFIX.get(self.tokens[self.pos][1])
            if op is None or op[0] < floor:
                return left
            level, cls, right = op
            self.pos += 1
            left = cls(left, self.binary(level if right else level + 1))

    def unary(self) -> Formula:
        tok = self.tokens[self.pos]
        op = _UNARY.get(tok[1])
        if op is None:
            return self.atom()
        self.pos += 1
        cls, window = op
        if tok[0] != "IDENT" or self.tokens[self.pos][0] != "LE":
            return cls(self.unary())
        if window is None:
            raise ParseError(f"{tok[1]} takes no bound", *tok[2:])
        bound = self.tokens[self.pos + 1]
        self.pos += 2
        if bound[0] != "INT":
            raise ParseError("expected a non-negative bound", *bound[2:])
        return window(int(bound[1]), self.unary())

    def atom(self) -> Formula:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[0] == "LPAREN":
            f = self.binary(0)
            end = self.tokens[self.pos]
            self.pos += 1
            if end[0] != "RPAREN":
                raise ParseError(f"expected RPAREN, found {end[1]!r}", *end[2:])
            return f
        if tok[0] == "IDENT":
            if tok[1] in ("true", "false"):
                return TRUE if tok[1] == "true" else FALSE
            if tok[1] in _UNARY or tok[1] in _INFIX:
                raise ParseError(f"operator {tok[1]} needs an operand", *tok[2:])
            return Prop(tok[1])
        raise ParseError(f"unexpected token {tok[1]!r}", *tok[2:])


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


_PREFIX = {cls: text for text, pair in _UNARY.items() for cls in pair if cls}
_LEVEL = {cls: (level, text, right) for level, (text, cls, right) in enumerate(_BINARY)}


def _render(g: Formula, parent: int) -> str:
    """``g`` under an operator of level ``parent``, as :data:`_BINARY` numbers
    them: parenthesised when it binds more loosely."""
    match g:
        case Const(v):
            return "true" if v else "false"
        case Prop(name):
            return name
        case _Unary(a):
            return _PREFIX[type(g)] + ("" if type(g) is Not else " ") + _render(a, _OPERAND)
        case _Window(b, a):
            return f"{_PREFIX[type(g)]}<={b} " + _render(a, _OPERAND)
        case _Binary(a, b):
            level, text, right = _LEVEL[type(g)]
            s = f"{_render(a, level + 1)} {text} {_render(b, level if right else level + 1)}"
            return f"({s})" if parent > level else s
    raise TypeError(f"unknown node {g!r}")
