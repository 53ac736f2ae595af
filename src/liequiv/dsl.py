"""Generator DSL: parsing and canonical printing.

A generator is written as a signed sum of terms, each term a product of
coefficient factors ending in a direction:

    t*d/dx1 + d/du1
    x1*d/dx1 + u1*d/du1 + 2*p*d/dp + 2*Pi11*d/dPi11 + 2*G*d/dG

Coefficient factors are rational literals (``2``, ``3/4``), coordinate
names from the frozen grammar, opaque constants ``?name``, parenthesized
sums, and ``**`` powers.  Directions name the base coordinates only (t, x_i,
u_k, p, rho, Pi_ij, G, H); jet and stress-derivative directions are produced
by prolongation and are rejected here.  ``Pi21`` resolves to the symmetric
representative ``Pi12``.  The grammar is frozen in docs/dsl_grammar.ebnf.

``parse_generator(print_generator(g))`` returns a structurally identical
generator; the same holds for the expression sublanguage through
``parse_expr`` and ``str()``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .expr import Expr, ONE, ZERO, is_zero, signed_sum, unknown
from .generators import GeneratorSpec, base_coefficients, from_coefficients
from .jets import JetRegistry


class DslSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownCoordinateError(Exception):
    def __init__(self, name: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: unknown coordinate: {name}")
        self.coordinate = name


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<direction>d/d[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<unknown>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\*\*|[-+*()])
""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(src: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, reg: JetRegistry, src: str):
        self.reg = reg
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise DslSyntaxError(f"expected {op!r}, found {tok.text or 'end of input'!r}",
                                 tok.line, tok.column)

    def fail(self, message: str):
        tok = self.peek()
        raise DslSyntaxError(message, tok.line, tok.column)

    # -- expression sublanguage ------------------------------------------

    def parse_sum(self) -> Expr:
        sign = self.parse_sign()
        total = sign * self.parse_product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            sign = 1 if self.next().text == "+" else -1
            total = total + sign * self.parse_product()
        return total

    def parse_sign(self) -> int:
        """At most one sign, as in ``[ sign ]`` of the grammar."""
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.next()
            return -1 if tok.text == "-" else 1
        return 1

    def parse_product(self) -> Expr:
        total = self.parse_power()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.next()
            total = total * self.parse_power()
        return total

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        if self.peek().kind == "op" and self.peek().text == "**":
            self.next()
            tok = self.next()
            if tok.kind != "number" or "/" in tok.text:
                raise DslSyntaxError("expected a non-negative integer exponent",
                                     tok.line, tok.column)
            return base ** int(tok.text)
        return base

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return Expr.const(Fraction(tok.text))
        if tok.kind == "unknown":
            self.next()
            return Expr.of(unknown(tok.text[1:]))
        if tok.kind == "name":
            self.next()
            return Expr.of(self.resolve_name(tok, tok.text))
        if tok.kind == "op" and tok.text == "(":
            self.next()
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        self.fail(f"expected a coefficient factor, found {tok.text or 'end of input'!r}")

    def resolve_name(self, tok: _Token, name: str):
        resolved = _resolve_symmetric(name)
        if not self.reg.has_name(resolved):
            raise UnknownCoordinateError(name, tok.line, tok.column)
        return self.reg.coordinate(resolved)

    # -- generator level ---------------------------------------------------

    def parse_generator(self) -> dict:
        """Map base direction -> accumulated coefficient."""
        coeffs = {}
        tok = self.peek()
        if tok.kind == "number" and tok.text == "0":
            self.next()
            if self.peek().kind != "end":
                self.fail("trailing input after zero generator")
            return coeffs
        first = True
        while True:
            sign = self.parse_sign()
            if first and sign == 1 and self.peek().kind == "end":
                self.fail("empty generator")
            first = False
            coeff, tok = self.parse_term()
            name = tok.text[len("d/d"):]
            atom = self.resolve_name(tok, name)
            if atom not in self.reg.ansatz:
                raise DslSyntaxError(
                    f"d/d{name} is not a base direction; jet and stress-derivative "
                    "coordinates are prolonged automatically", tok.line, tok.column)
            coeffs[atom] = coeffs.get(atom, ZERO) + sign * coeff
            tok = self.peek()
            if tok.kind == "end":
                return coeffs
            if not (tok.kind == "op" and tok.text in "+-"):
                self.fail(f"expected '+', '-' or end of input, found {tok.text!r}")

    def parse_term(self):
        coeff = ONE
        while True:
            tok = self.peek()
            if tok.kind == "direction":
                self.next()
                return coeff, tok
            part = self.parse_power()
            coeff = coeff * part
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.next()
                continue
            self.fail("a term must end in a direction d/d<coordinate>")


def _resolve_symmetric(name: str) -> str:
    m = re.fullmatch(r"Pi(\d)(\d)", name)
    if m and int(m.group(1)) > int(m.group(2)):
        return f"Pi{m.group(2)}{m.group(1)}"
    return name


def parse_expr(reg: JetRegistry, src: str) -> Expr:
    """Parse the coefficient sublanguage into a canonical expression."""
    parser = _Parser(reg, src)
    out = parser.parse_sum()
    tok = parser.peek()
    if tok.kind != "end":
        raise DslSyntaxError(f"trailing input: {tok.text!r}", tok.line, tok.column)
    return out


def parse_generator(reg: JetRegistry, src: str) -> GeneratorSpec:
    return from_coefficients(reg, _Parser(reg, src).parse_generator())


def _coefficient_str(coeff: Expr) -> str:
    """Render a coefficient for a generator term; '' means coefficient one.
    Single-term signs are folded into the separator by the caller."""
    if coeff == ONE:
        return ""
    if len(coeff.terms) == 1:
        mono, c = coeff.terms[0]
        if mono.is_one():
            return str(c)
        if c == 1:
            return str(mono)
        return f"{c}*{mono}"
    return f"({coeff})"


def print_generator(reg: JetRegistry, g: GeneratorSpec) -> str:
    """Canonical DSL form; directions in registry order, zero slots omitted."""
    pieces = []
    for atom, coeff in base_coefficients(reg, g).items():
        if is_zero(coeff):
            continue
        negative = len(coeff.terms) == 1 and coeff.terms[0][1] < 0
        if negative:
            coeff = -coeff
        rendered = _coefficient_str(coeff)
        term = f"d/d{atom.name}" if not rendered else f"{rendered}*d/d{atom.name}"
        pieces.append((negative, term))
    return signed_sum(pieces)
