"""Exact symbolic expressions in canonical normal form.

The carrier is the polynomial ring, over exact rationals, in three kinds of
atoms:

* plain coordinates (``t``, ``x1``, ``rho_x2``, ...),
* function symbols with a declared argument list (``G`` over ``(p, rho)``),
* formal derivatives of function symbols, stored as a sorted multiset of
  differentiation arguments so that mixed partials coincide structurally.

The representation rests on CPython's own hashing and ordering:

* An ``Atom`` is the string ``chr(rank) + name``, rank 0 for function
  symbols, 1 for their formal derivatives and 2 for coordinates, with its
  kind, name and arguments in slots.  Its hash, ``==`` and ``<`` are
  ``str``'s, and they agree with the key ``(rank, name)``: atoms sort by
  kind rank, then by name.  An atom prints, and formats, as its name.
* A ``Monomial`` is the tuple of its ``(atom, exponent)`` pairs, sorted by
  atom, with nonzero int exponents, negative only on units; the empty
  tuple is 1.  Its hash, ``==`` and ``<`` are ``tuple``'s: monomials sort
  lexicographically on their pair sequences.  Only ``*`` multiplies
  monomials; tuple's ``+`` remains and concatenates plain tuples.  The
  empty monomial is falsy, so no code tests a monomial's truth: 1 is
  compared with ``MONO_ONE`` and a missing monomial with ``None``.
* An ``Expr`` holds ``coeffs``, a dict from monomial to nonzero rational
  coefficient, never mutated once built.  Equality and hash are the
  dict's and need no order.  Sums, products and every routine below add
  into dicts; ``Expr.terms`` alone orders terms: it sorts them by monomial
  on first read and keeps them (the write is idempotent, so expressions
  stay safe to share).  ``collect`` orders only its keys.  Every output
  reads ``terms``, so output is byte-stable across runs, platforms and hash
  seeds, whatever order the dicts were filled in.

A coefficient is a Python ``int`` when it is integral and a ``Fraction``
otherwise; ``_rational`` applies this rule wherever a coefficient is made,
and refuses anything but an ``int`` or a ``Fraction``.  Almost every
coefficient of a jet expression is an integer, and a sum or product of
small ints costs tens of nanoseconds where one of ``Fraction``s costs about
a microsecond.  ``Fraction(2) == 2`` and both hash alike, so the rule
changes no equality, only the cost.  ``rational_str`` prints a coefficient
whatever the interpreter's limit on the digits of ``str(int)``.

The normal-form rule lives in one routine, ``_normal_form``: it adds
(item, number) pairs with equal items and drops zero sums.  It builds every
``Monomial`` (then sorted) and every ``Expr`` made from arbitrary input.
Operands that are canonical already skip it: a sum folds one operand's dict
into a copy of the other's, and a product with a one-term expression makes
monomials that never coincide.  ``Monomial._trusted`` and
``Expr._trusted`` take input that is canonical as it stands.

The Leibniz rule lives in one routine, ``derive``, which applies the
derivation fixed by an image for each atom and adds each contribution into
one dict as it is made.  Every derivative in the engine, partial, per atom,
total or the action of a prolonged field, is an image table over it; the
share of one atom is ``derive`` over a one-entry table.

``replace_atoms`` rebuilds only the terms that hold a replaced atom: the
other terms go into its output as they are, the replaced pieces are added
in, and an expression that holds no replaced atom comes back itself.  A
caller that replaces over one table many times passes a memo of the
products it builds.

A coordinate declared with the print name of its inverse is a unit,
``coordinate("exp(a)", inverse="exp(-a)")``: its exponents may be negative
and cancel in products, a one-term expression over units (a nonzero
constant too) has every negative power, and ``exp(a)**-2`` prints
``exp(-a)**2``.  Division by any other expression is deliberately
unsupported; callers that need a denominator clear it explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Iterable, Mapping

COORD = "coord"
FUNC = "func"
DERIV = "deriv"

_KIND_RANK = {FUNC: 0, DERIV: 1, COORD: 2}
_UNSEEN = object()
# fewer digits than the least limit an interpreter accepts for str(int), 640
_CHUNK_DIGITS = 600
_CHUNK = 10 ** _CHUNK_DIGITS


class ExprError(Exception):
    """Base class for expression-engine failures."""


class UnsupportedFormError(ExprError):
    """Exponent outside the integers its base supports, or a value that
    cannot be read as an expression."""


class UnknownSymbolError(ExprError):
    """Differentiation request that does not name a usable coordinate."""


class CyclicSubstitutionError(ExprError):
    """A substitution key occurs inside one of the replacement values."""


class MissingBindingError(ExprError):
    """Numeric evaluation hit an atom with no bound value."""


class Atom(str):
    """An indivisible symbol: coordinate, function symbol, or formal derivative.

    Atoms are immutable value objects; identity is the pair (kind, name),
    held as the string ``chr(rank) + name``.  Function symbols carry the
    ordered tuple of coordinate names they are declared over; formal
    derivatives additionally carry the base symbol name and the sorted
    multiset of differentiation arguments.
    """

    __slots__ = ("kind", "name", "args", "base", "wrt", "inverse")

    def __new__(cls, kind: str, name: str, args: tuple = (), base: str = "",
                wrt: tuple = (), inverse: str = ""):
        self = super().__new__(cls, chr(_KIND_RANK[kind]) + name)
        self.kind = kind
        self.name = name
        self.args = tuple(args)
        self.base = base
        self.wrt = tuple(wrt)
        self.inverse = inverse
        return self

    def __reduce__(self):
        return Atom, (self.kind, self.name, self.args, self.base, self.wrt, self.inverse)

    def __repr__(self):
        return self.name

    __str__ = __repr__

    def __format__(self, spec):
        return format(self.name, spec)

    # arithmetic promotes to Expr, so atoms compose directly

    def __add__(self, other):
        return as_expr(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return as_expr(self) - other

    def __rsub__(self, other):
        return as_expr(other) - as_expr(self)

    def __mul__(self, other):
        return as_expr(self) * other

    __rmul__ = __mul__

    def __neg__(self):
        return -as_expr(self)

    def __pow__(self, n):
        return as_expr(self) ** n


def coordinate(name: str, inverse: str = "") -> Atom:
    return Atom(COORD, name, inverse=inverse)


def unknown(label: str) -> Atom:
    """An opaque rational constant, usable inside ansatz coefficients."""
    return Atom(COORD, "?" + label)


def is_unknown(a: Atom) -> bool:
    return a.kind == COORD and a.name.startswith("?")


def function_symbol(name: str, args: Iterable[str]) -> Atom:
    return Atom(FUNC, name, args=tuple(args))


def _derivative_name(base: str, wrt: tuple) -> str:
    # Frozen grammar: G_p / G_prho style for (p, rho)-functions, Pi12_d_u1x2
    # style for gradient-argument functions.
    tokens = [w.replace("_", "") for w in wrt]
    if all(tok in ("p", "rho") for tok in tokens):
        return base + "_" + "".join(tokens)
    return base + "_d_" + "".join(tokens)


def derivative_of(a: Atom, arg: str) -> Atom:
    """Formal derivative of a function symbol or of one of its derivatives.

    The differentiation argument must be one of the declared arguments of the
    base symbol; the multiset representation makes the result independent of
    differentiation order.
    """
    if a.kind == FUNC:
        base, args, wrt = a.name, a.args, (arg,)
    elif a.kind == DERIV:
        base, args, wrt = a.base, a.args, tuple(sorted(a.wrt + (arg,)))
    else:
        raise UnknownSymbolError(f"{a.name} has no formal derivatives")
    if arg not in args:
        raise UnknownSymbolError(f"{base} does not take {arg} as an argument")
    return Atom(DERIV, _derivative_name(base, wrt), args=args, base=base, wrt=wrt)


def _normal_form(pairs) -> dict:
    """Sum the numbers of equal items and drop zero sums."""
    acc = {}
    for item, n in pairs:
        prev = acc.get(item)
        acc[item] = n if prev is None else prev + n
    return {item: n for item, n in acc.items() if n}


def _rational(c):
    """The canonical coefficient of ``c``: an int when it is integral, a
    ``Fraction`` otherwise.  A float, or any other type, is refused: it
    would enter the exact carrier as the binary fraction nearest to it."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, (int, Fraction)):
        return _rational(Fraction(c))
    raise UnsupportedFormError(f"coefficient {c!r} is not an int or a Fraction")


def rational_str(c) -> str:
    """``str(c)`` of an int or a Fraction, whatever the interpreter's limit
    on the digits of ``str(int)``: a longer integer is written in chunks of
    fewer digits than any limit."""
    if isinstance(c, int) and -_CHUNK < c < _CHUNK:
        return str(c)
    if isinstance(c, Fraction):
        num = rational_str(c.numerator)
        return num if c.denominator == 1 else f"{num}/{rational_str(c.denominator)}"
    n, chunks = abs(c), []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(n))
    return "-" * (c < 0) + "".join(reversed(chunks))


class Monomial(tuple):
    """Product of atoms with nonzero int exponents, negative only on units,
    as its (atom, exponent) pairs sorted by atom; the empty product is 1."""

    __slots__ = ()

    def __new__(cls, factors: Iterable = ()):
        factors = tuple(factors)
        for a, e in factors:
            if not isinstance(e, int) or e < 0 and not a.inverse:
                raise UnsupportedFormError(f"unsupported exponent {e!r} on {a!r}")
        return tuple.__new__(cls, sorted(_normal_form(factors).items()))

    @classmethod
    def _trusted(cls, factors: tuple) -> "Monomial":
        """The monomial of ``factors``, taken as they are.

        Precondition: ``factors`` is canonical, sorted by distinct atoms with
        exponents the class allows, such as a run cut from a monomial.
        """
        return tuple.__new__(cls, factors)

    factors = property(tuple, doc="The (atom, exponent) pairs as a plain tuple.")

    def exponent(self, a: Atom) -> int:
        for b, e in self:
            if b == a:
                return e
        return 0

    def __mul__(self, other):
        if type(other) is not Monomial:
            return NotImplemented
        if other == MONO_ONE:
            return self
        if self == MONO_ONE:
            return other
        factors = sorted(self + other)
        if len(dict(factors)) == len(factors):  # no atom in both
            return tuple.__new__(Monomial, factors)
        mine = dict(self)
        for a, e in other:
            mine[a] = mine.get(a, 0) + e
        if 0 in mine.values():  # only a unit's exponents can sum to 0
            mine = {a: e for a, e in mine.items() if e}
        return tuple.__new__(Monomial, sorted(mine.items()))

    def __rmul__(self, other):
        # tuple's repetition must not answer int * monomial
        return NotImplemented

    def __reduce__(self):
        return Monomial, (tuple(self),)

    def __str__(self):
        if self == MONO_ONE:
            return "1"
        return "*".join((a.name if e > 0 else a.inverse)
                        + ("" if e in (1, -1) else f"**{rational_str(abs(e))}")
                        for a, e in self)

    __repr__ = __str__


MONO_ONE = Monomial()


class Expr:
    """Canonical sum of rational multiples of monomials.  Immutable.

    The zero expression is the empty sum.  Construction from an iterable of
    (monomial, coefficient) pairs merges duplicates and drops zero
    coefficients, so any Expr in circulation is canonical.
    """

    __slots__ = ("coeffs", "_terms")

    def __init__(self, terms=()):
        self.coeffs = {mono: _rational(c) for mono, c in _normal_form(terms).items()}
        self._terms = None

    @classmethod
    def _trusted(cls, coeffs: dict) -> "Expr":
        """The expression of ``coeffs``, taken as it is.

        Precondition: ``coeffs`` maps distinct monomials to nonzero
        coefficients, each an int when it is integral and a ``Fraction``
        otherwise, and no one else holds it.
        """
        e = cls.__new__(cls)
        e.coeffs = coeffs
        e._terms = None
        return e

    @property
    def terms(self) -> tuple:
        """The (monomial, coefficient) pairs sorted by monomial."""
        if self._terms is None:
            # monomials are distinct: the pairs sort by monomial alone
            self._terms = tuple(sorted(self.coeffs.items()))
        return self._terms

    @staticmethod
    def of(a: Atom) -> "Expr":
        return Expr._trusted({Monomial._trusted(((a, 1),)): 1})

    @staticmethod
    def const(c) -> "Expr":
        c = _rational(c)
        return Expr._trusted({MONO_ONE: c} if c else {})

    # -- ring operators -------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, as_expr(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        return Expr._trusted(_folded(dict(a), b.items()))

    __radd__ = __add__

    def __neg__(self):
        return Expr._trusted({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return Expr._trusted(_folded(
            dict(self.coeffs), ((m, -c) for m, c in as_expr(other).coeffs.items())))

    def __rsub__(self, other):
        return as_expr(other) - self

    def __mul__(self, other):
        a, b = self.coeffs, as_expr(other).coeffs
        if len(a) == 1:  # the product commutes: keep a one-term operand in b
            a, b = b, a
        if len(b) != 1:
            return Expr((m1 * m2, c1 * c2) for m1, c1 in a.items()
                        for m2, c2 in b.items())
        (m2, c2), = b.items()
        # products by one monomial never coincide: nothing to merge
        return Expr._trusted({m1 * m2: _rational(c1 * c2) for m1, c1 in a.items()})

    __rmul__ = __mul__

    def __pow__(self, n):
        if isinstance(n, int) and n < 0 and len(self.coeffs) == 1:
            (mono, c), = self.coeffs.items()
            if all(a.inverse for a, _ in mono):  # one term over units
                return Expr._trusted({Monomial._trusted(tuple(
                    (a, e * n) for a, e in mono)): _rational(Fraction(c) ** n)})
        if not isinstance(n, int) or n < 0:
            raise UnsupportedFormError(f"unsupported exponent {n!r}")
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __truediv__(self, s):
        if not isinstance(s, (int, Fraction)):
            raise UnsupportedFormError("division is only defined by rational scalars")
        return self * (Fraction(1) / Fraction(s))

    def __eq__(self, other):
        if isinstance(other, (Expr, int, Fraction, Atom)):
            return self.coeffs == as_expr(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        pieces = []
        for mono, c in self.terms:
            mag = abs(c)
            if mono == MONO_ONE:
                body = rational_str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{rational_str(mag)}*{mono}"
            pieces.append((c < 0, body))
        return signed_sum(pieces)

    __repr__ = __str__


def _folded(acc: dict, pairs) -> dict:
    """Add the canonical (monomial, coefficient) pairs into the canonical
    dict ``acc``, dropping the sums that vanish, and return it."""
    for m, c in pairs:
        prev = acc.get(m)
        if prev is None:
            acc[m] = c
        elif s := prev + c:
            acc[m] = _rational(s)
        else:
            del acc[m]
    return acc


ZERO = Expr()
ONE = Expr.const(1)


def signed_sum(pieces) -> str:
    """The ``(negative, body)`` pieces as one signed sum: the first body
    carries its own sign and the others join with " + " or " - "; "0" when
    there are none."""
    out = []
    for negative, body in pieces:
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(body)
    return "".join(out) if out else "0"


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, Atom):
        return Expr.of(v)
    if isinstance(v, (int, Fraction)):
        return Expr.const(v)
    raise UnsupportedFormError(f"cannot interpret {v!r} as an expression")


def is_zero(e) -> bool:
    return not as_expr(e).coeffs


def atoms_of(e) -> tuple:
    return tuple(sorted({a for mono in as_expr(e).coeffs for a, _ in mono}))


def derive(e, image) -> Expr:
    """The derivation sending each atom ``a`` to ``image(a)``, applied to e.

    ``image(a)`` is the (monomial, coefficient) pairs of one expression,
    such as its ``coeffs.items()``, or None (or no pairs) for zero, and is
    asked once per atom.  One pass over the terms of ``e``: each factor
    ``a**k`` of a term ``c*m`` contributes ``k*c*(m/a)*image(a)``, with
    ``m/a`` cut from ``m`` and so canonical, added into one dict as it is
    made; the sums are made canonical once, at the end.
    """
    images, acc = {}, {}
    for mono, c in as_expr(e).coeffs.items():
        for idx, (a, k) in enumerate(mono):
            img = images.get(a, _UNSEEN)
            if img is _UNSEEN:
                img = images[a] = image(a)
            if not img:
                continue
            rest = Monomial._trusted(
                mono[:idx] + ((a, k - 1),) + mono[idx + 1:] if k != 1
                else mono[:idx] + mono[idx + 1:])
            kc = k * c
            for m, ci in img:
                m = rest * m
                prev = acc.get(m)
                acc[m] = kc * ci if prev is None else prev + kc * ci
    if not acc:  # most partials of a jet expression vanish
        return ZERO
    return Expr._trusted({m: _rational(c) for m, c in acc.items() if c})


def diff_partial(e, v: Atom) -> Expr:
    """Formal partial derivative by the coordinate ``v``.

    Linear, Leibniz, and aware of declared arguments: differentiating a
    function symbol by one of its arguments yields the corresponding formal
    derivative atom, and the same chain applies to derivative atoms, so
    mixed partials commute.
    """
    if v.kind != COORD:
        raise UnknownSymbolError(f"cannot differentiate by {v.name}: not a coordinate")

    def image(a):
        if a == v:
            return ONE.coeffs.items()
        if a.kind != COORD and v.name in a.args:
            return Expr.of(derivative_of(a, v.name)).coeffs.items()
    return derive(e, image)


def replace_atoms(e, mapping: Mapping[Atom, object], memo: dict | None = None) -> Expr:
    """Simultaneous single-pass replacement of atoms by expressions.

    Atoms absent from the mapping are kept.  No recursion: keys occurring
    inside replacement values are left alone, which makes relabelings and
    self-referencing maps (x -> x + a) well defined.

    Only the terms that hold a replaced atom are rebuilt: every other term
    goes into the output as it is, and an input with no replaced atom comes
    back itself.  A touched term splits into its replaced factors and a
    kept run, which is cut from the canonical monomial and so canonical
    itself; the product of the replacement values is built once for each
    distinct tuple of replaced factors, (atom, exponent) pairs, and shared
    by every term with that tuple.  The products go into ``memo``, a dict
    from factor tuple to product: a fresh one per call by default, or one
    the caller owns and passes with every call over the same ``mapping``,
    so that each product is built once across the calls.
    """
    e = as_expr(e)
    table = {a: as_expr(v) for a, v in mapping.items()}
    touched = []
    for mono, c in e.coeffs.items():
        for a, _ in mono:
            if a in table:
                touched.append((mono, c))
                break
    if not touched:
        return e
    out, products = dict(e.coeffs), {} if memo is None else memo
    for mono, c in touched:
        del out[mono]
    for mono, c in touched:
        hit, rest = [], []
        for f in mono:
            (hit if f[0] in table else rest).append(f)
        hit = tuple(hit)
        product = products.get(hit)
        if product is None:
            product = products[hit] = reduce(
                mul, [table[a] ** k for a, k in hit])
        rest = Monomial._trusted(tuple(rest))
        _folded(out, ((m * rest, _rational(c * cc))
                      for m, cc in product.coeffs.items()))
    return Expr._trusted(out)


def substitute(e, bindings: Mapping[Atom, object]) -> Expr:
    """Simultaneous substitution followed by normalization.

    Contract: no binding key may occur inside any binding value; a violation
    raises CyclicSubstitutionError.  Use :func:`replace_atoms` for raw
    relabelings where self reference is intended.
    """
    table = {a: as_expr(v) for a, v in bindings.items()}
    keys = set(table)
    for a, v in table.items():
        hit = keys.intersection(atoms_of(v))
        if hit:
            worst = sorted(hit)[0]
            raise CyclicSubstitutionError(
                f"binding value for {a.name} contains bound atom {worst.name}")
    return replace_atoms(e, table)


def collect(e, parametric) -> dict:
    """Split ``e`` by monomials in the ``parametric`` atoms.

    Returns a mapping, sorted by key, from parametric monomial to the
    coefficient expression over the remaining atoms; summing monomial *
    coefficient over the entries recovers ``e`` exactly.  The zero
    expression yields an empty mapping.
    """
    if not parametric:
        raise ValueError("parametric set must be non-empty")
    coeffs = as_expr(e).coeffs
    if not coeffs:  # most restricted residuals: no set of atoms to build
        return {}
    pset, buckets = set(parametric), {}
    for mono, c in coeffs.items():
        par, rest = [], []
        for f in mono:
            (par if f[0] in pset else rest).append(f)
        # both runs are cut from a canonical factor tuple, and distinct
        # terms stay distinct after the split
        buckets.setdefault(Monomial._trusted(tuple(par)), {})[
            Monomial._trusted(tuple(rest))] = c
    return {key: Expr._trusted(buckets[key]) for key in sorted(buckets)}


def evaluate(e, point: Mapping[Atom, object]):
    """Exact or floating evaluation; a ring homomorphism on bound atoms."""
    total = Fraction(0)
    for mono, c in as_expr(e).terms:
        v = c
        for a, k in mono:
            if a not in point:
                raise MissingBindingError(f"no value bound for {a.name}")
            v = v * point[a] ** k
        total = total + v
    return total
