"""Generator DSL: parsing and canonical printing.

A generator is written as a signed sum of terms, each term a product of
coefficient factors ending in a direction:

    t*d/dx1 + d/du1
    x1*d/dx1 + u1*d/du1 + 2*p*d/dp + 2*Pi11*d/dPi11 + 2*G*d/dG

Coefficient factors are rational literals (``2``, ``3/4``), coordinate
names from the frozen grammar, opaque constants ``?name``, parenthesized
sums, and ``**`` powers; a power or a product whose size could pass
``POWER_BITS`` bits, its bound on the number of terms times its bound on the
bits of one coefficient, is a syntax error at its exponent or its ``*``, and
so is a ``(`` nested more than ``PAREN_DEPTH`` deep, at that ``(``.
Directions name the base coordinates only (t, x_i, u_k, p, rho, Pi_ij, G,
H); jet and stress-derivative directions are produced by prolongation and
are rejected here.  ``Pi21`` resolves to the symmetric representative
``Pi12``.  The input ``0`` alone is the zero generator; anywhere else ``0``
is an ordinary rational factor.  The grammar is frozen in
docs/dsl_grammar.ebnf.

One regular-expression pass turns the input into ``(kind, text, offset)``
tokens.  Line and column are computed from the offset only when a
DslSyntaxError or UnknownCoordinateError is raised.

``print_generator`` writes each nonzero coefficient as ``str`` does, moving
the sign of a one-term coefficient into the separator, leaving out a
coefficient of one and parenthesizing a sum of more than one term.
``parse_generator(print_generator(g))`` returns a structurally identical
generator; the same holds for the expression sublanguage through
``parse_expr`` and ``str()``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

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


RATIONAL = r"\d+(?:/\d+)?"  # the rational literal, also read by ``transform --param``
# The size of a power is bounded by the number of its terms times the bits
# of its largest coefficient.  A power of k terms has at most
# comb(n + k - 1, k - 1) terms, and a coefficient below n times the bits of
# the largest numerator and denominator of the base that are not 1, plus the
# bits of k - 1 for the multinomial factor when k > 1.  A product of a and
# b terms has at most a * b terms, and a coefficient below the bits of the
# two factors' largest coefficients plus the bits of min(a, b), the most
# products that add into one.  A power or product whose bound passes this
# many bits is refused before it is built.
POWER_BITS = 1 << 20
# The parser recurses four calls deep per pair of parentheses; this bound
# keeps the deepest input far inside the interpreter's recursion limit.
PAREN_DEPTH = 100

_TOKEN = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<direction>d/d[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>{RATIONAL})
  | (?P<unknown>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\*\*|[-+*()])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _bits(e: Expr) -> int:
    """The most bits of one coefficient of ``e``, numerator and denominator
    together, leaving out each that is 1."""
    return max((sum(v.bit_length() for v in (abs(c.numerator), c.denominator)
                    if v > 1) for c in e.coeffs.values()), default=0)


class _Parser:
    def __init__(self, reg: JetRegistry, src: str):
        """Split ``src`` into (kind, text, offset) tokens, dropping
        whitespace and closing with an end token."""
        self.reg = reg
        self.src = src
        self.pos = 0
        self.depth = 0  # the parentheses open at the next token
        self.tokens = []
        for m in _TOKEN.finditer(src):
            tok = (m.lastgroup, m.group(), m.start())
            if tok[0] == "bad":
                self.fail(f"unexpected character {tok[1]!r}", tok)
            if tok[0] != "ws":
                self.tokens.append(tok)
        self.tokens.append(("end", "", len(src)))

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def accept(self, *ops: str):
        """Consume the next token and return its text if it is one of ``ops``."""
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.pos += 1
            return text
        return None

    def position(self, tok: tuple):
        """1-based (line, column) of a token, from its offset."""
        offset = tok[2]
        return self.src.count("\n", 0, offset) + 1, offset - self.src.rfind("\n", 0, offset)

    def fail(self, message: str, tok: tuple | None = None):
        """Raise DslSyntaxError at ``tok``, by default the next token."""
        raise DslSyntaxError(message, *self.position(tok or self.peek()))

    # -- expression sublanguage ------------------------------------------

    def parse_sign(self) -> int:
        """At most one sign, as in ``[ sign ]`` of the grammar."""
        return -1 if self.accept("+", "-") == "-" else 1

    def parse_sum(self) -> Expr:
        total = self.parse_sign() * self.parse_product()
        while op := self.accept("+", "-"):
            total = total + (1 if op == "+" else -1) * self.parse_product()
        return total

    def parse_product(self) -> Expr:
        """power { "*" power }; a "*" before a direction is consumed and ends
        the product, which a generator term then closes with the direction."""
        total = self.parse_power()
        while self.accept("*") and self.peek()[0] != "direction":
            star = self.tokens[self.pos - 1]
            factor = self.parse_power()
            a, b = len(total.coeffs), len(factor.coeffs)
            bits = _bits(total) + _bits(factor) + min(a, b).bit_length()
            if a * b * bits > POWER_BITS:
                self.fail(f"the product of {a} and {b} terms passes the bound of "
                          f"{POWER_BITS} bits", star)
            total = total * factor
        return total

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        if not self.accept("**"):
            return base
        tok = kind, text, _ = self.peek()
        if kind != "number" or "/" in text:
            self.fail("expected a non-negative integer exponent")
        self.pos += 1
        n = self.number(tok).numerator
        k = len(base.coeffs)
        bits = _bits(base)
        if k > 1:  # a multinomial coefficient is below k**n
            bits += (k - 1).bit_length()
        size = n * bits
        if k > 1 and size <= POWER_BITS:
            # n is below POWER_BITS here, which keeps the binomial cheap
            size *= comb(n + k - 1, k - 1)
        if size > POWER_BITS:
            what = f"a sum of {k} terms" if k > 1 else f"a coefficient of {bits} bits"
            self.fail(f"the power {n} of {what} passes the bound of {POWER_BITS} "
                      "bits", tok)
        return base ** n

    def number(self, tok: tuple) -> Fraction:
        """The value of a number token; a zero denominator or a literal
        longer than ``int`` reads is a syntax error at the token."""
        try:
            return Fraction(tok[1])
        except ZeroDivisionError:
            self.fail(f"rational literal {tok[1]} has a zero denominator", tok)
        except ValueError:
            self.fail(f"rational literal of {len(tok[1])} characters is too long", tok)

    def parse_primary(self) -> Expr:
        tok = kind, text, _ = self.peek()
        self.pos += 1
        if kind == "number":
            return Expr.const(self.number(tok))
        if kind == "unknown":
            return Expr.of(unknown(text[1:]))
        if kind == "name":
            return Expr.of(self.resolve_name(tok))
        if text == "(":
            if self.depth == PAREN_DEPTH:
                self.fail(f"parentheses nest deeper than {PAREN_DEPTH} levels", tok)
            self.depth += 1
            inner = self.parse_sum()
            self.depth -= 1
            if not self.accept(")"):
                self.fail(f"expected ')', found {self.peek()[1] or 'end of input'!r}")
            return inner
        self.fail(f"expected a coefficient factor, found {text or 'end of input'!r}", tok)

    def resolve_name(self, tok: tuple):
        """The coordinate a name or direction token names; ``Pi21`` is ``Pi12``."""
        name = tok[1].removeprefix("d/d")
        m = re.fullmatch(r"Pi(\d)(\d)", name)
        resolved = f"Pi{m[2]}{m[1]}" if m and m[1] > m[2] else name
        if (a := self.reg.by_name.get(resolved)) is None:
            raise UnknownCoordinateError(name, *self.position(tok))
        return a

    # -- generator level ---------------------------------------------------

    def parse_generator(self) -> dict:
        """Map base direction -> accumulated coefficient.  The input ``0``
        alone is the zero generator; elsewhere ``0`` is a rational factor."""
        coeffs = {}
        if len(self.tokens) == 2 and self.tokens[0][1] == "0":
            return coeffs
        sign = self.parse_sign()
        if sign == 1 and self.peek()[0] == "end":
            self.fail("empty generator")
        while True:
            coeff = ONE
            if self.peek()[0] != "direction":
                coeff = self.parse_product()
                if self.tokens[self.pos - 1][1] != "*":  # no "*" joins it to a direction
                    self.fail("a term must end in a direction d/d<coordinate>")
            tok = self.peek()
            self.pos += 1
            atom = self.resolve_name(tok)
            if atom not in self.reg.ansatz:
                self.fail(f"{tok[1]} is not a base direction; jet and stress-derivative "
                          "coordinates are prolonged automatically", tok)
            coeffs[atom] = coeffs.get(atom, ZERO) + sign * coeff
            if self.peek()[0] == "end":
                return coeffs
            if self.peek()[1] not in ("+", "-"):
                self.fail(f"expected '+', '-' or end of input, found {self.peek()[1]!r}")
            sign = self.parse_sign()


def parse_expr(reg: JetRegistry, src: str) -> Expr:
    """Parse the coefficient sublanguage into a canonical expression."""
    parser = _Parser(reg, src)
    out = parser.parse_sum()
    if parser.peek()[0] != "end":
        parser.fail(f"trailing input: {parser.peek()[1]!r}")
    return out


def parse_generator(reg: JetRegistry, src: str) -> GeneratorSpec:
    return from_coefficients(reg, _Parser(reg, src).parse_generator())


def print_generator(reg: JetRegistry, g: GeneratorSpec) -> str:
    """Canonical DSL form; directions in registry order, zero slots omitted."""
    pieces = []
    for atom, coeff in base_coefficients(reg, g).items():
        if is_zero(coeff):
            continue
        negative = len(coeff.terms) == 1 and coeff.terms[0][1] < 0
        if negative:
            coeff = -coeff
        term = f"d/d{atom.name}"
        if coeff != ONE:
            term = f"({coeff})*{term}" if len(coeff.terms) > 1 else f"{coeff}*{term}"
        pieces.append((negative, term))
    return signed_sum(pieces)
