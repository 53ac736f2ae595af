"""Exact symbolic expressions in canonical normal form.

The carrier is the polynomial ring, over exact rationals, in three kinds of
atoms:

* plain coordinates (``t``, ``x1``, ``rho_x2``, ...),
* function symbols with a declared argument list (``G`` over ``(p, rho)``),
* formal derivatives of function symbols, stored as a sorted multiset of
  differentiation arguments so that mixed partials coincide structurally.

Every constructor and operator returns the canonical form directly: terms
carry nonzero rational coefficients, monomials map atoms to positive integer
exponents, and both are kept sorted under a fixed total order (atoms by kind
rank then name, with function symbols first, their formal derivatives second
and coordinates last; monomials lexicographically on their (atom, exponent)
sequences).  Structural equality therefore decides mathematical equality and
normalization is idempotent by construction.  Output is byte-stable across
runs and platforms.

A coefficient is a Python ``int`` when it is integral and a ``Fraction``
otherwise; ``_rational`` applies this rule wherever a coefficient is made,
and refuses anything but an ``int`` or a ``Fraction``.  Almost every
coefficient of a jet expression is an integer, and a sum or product of
small ints costs tens of nanoseconds where one of ``Fraction``s costs about
a microsecond.  ``Fraction(2) == 2`` and both hash alike, so the rule
changes no equality, only the cost.

The normal-form rule lives in one routine, ``_normal_form``: it adds
(item, number) pairs with equal items, drops zero sums and sorts by the
items' ``.key``.  It builds every ``Expr.terms`` (monomials with
coefficients) and every ``Monomial.factors`` (atoms with exponents) made
from arbitrary input.  Operands that are canonical already skip it:

* ``_merge`` combines two canonical tuples in one linear pass and gives the
  tuple ``_normal_form`` gives for their concatenation.  It serves the
  monomial product and the sum and difference of expressions.
* Negation and scaling by a constant keep the order of the terms.  A
  product with a one-term expression ``c1*m1`` makes monomials ``m*m1``
  that never coincide, so they are sorted but never merged.  Every other
  product of expressions goes through ``_normal_form``.
* ``Monomial._trusted`` and ``Expr._trusted`` take a tuple that is
  canonical as it stands: sorted by key, with distinct items and nonzero
  numbers (positive int exponents; coefficients that keep the coefficient
  rule).  A run cut from a canonical tuple qualifies; ``collect`` cuts each
  monomial into a parametric and a remaining run.  So does a single term,
  which ``Expr.of`` and ``Expr.const`` build.

The Leibniz rule lives in one routine, ``derive``, which applies the
derivation fixed by an image for each atom.  Every derivative in the engine,
partial, per atom, total or the action of a prolonged field, is an image
table over it.

An atom's key is ``(rank, name)``.  A monomial's key is flat, the atom keys
and exponents in factor order, ``(rank1, name1, e1, rank2, name2, e2, ...)``;
it holds only strings and ints, so the cyclic garbage collector untracks
it, and it sorts exactly as the nested ``((rank1, name1), e1), ...`` sequence
would, since the fields of every factor sit at the same positions.  Atoms
and monomials are immutable and compute their hash once, at construction.

Division and negative or fractional exponents are deliberately unsupported;
callers that need a denominator clear it explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import itemgetter, mul
from typing import Iterable, Mapping

COORD = "coord"
FUNC = "func"
DERIV = "deriv"

_KIND_RANK = {FUNC: 0, DERIV: 1, COORD: 2}
_UNSEEN = object()


class ExprError(Exception):
    """Base class for expression-engine failures."""


class UnsupportedFormError(ExprError):
    """Exponent outside the supported non-negative integers, or a value that
    cannot be read as an expression."""


class UnknownSymbolError(ExprError):
    """Differentiation request that does not name a usable coordinate."""


class CyclicSubstitutionError(ExprError):
    """A substitution key occurs inside one of the replacement values."""


class MissingBindingError(ExprError):
    """Numeric evaluation hit an atom with no bound value."""


class Atom:
    """An indivisible symbol: coordinate, function symbol, or formal derivative.

    Atoms are immutable value objects; identity is the pair (kind, name).
    Function symbols carry the ordered tuple of coordinate names they are
    declared over; formal derivatives additionally carry the base symbol name
    and the sorted multiset of differentiation arguments.
    """

    __slots__ = ("kind", "name", "args", "base", "wrt", "key", "_hash")

    def __init__(self, kind: str, name: str, args: tuple = (), base: str = "",
                 wrt: tuple = ()):
        self.kind = kind
        self.name = name
        self.args = tuple(args)
        self.base = base
        self.wrt = tuple(wrt)
        self.key = (_KIND_RANK[kind], name)
        self._hash = hash(self.key)

    def __eq__(self, other):
        return self is other or (isinstance(other, Atom) and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: unpickling rehashes
        return Atom, (self.kind, self.name, self.args, self.base, self.wrt)

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        return self.name

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


def coordinate(name: str) -> Atom:
    return Atom(COORD, name)


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


def _first_key(pair):
    return pair[0].key


def _normal_form(pairs) -> tuple:
    """Sum the numbers of equal items, drop zero sums, sort by item key."""
    acc = {}
    for item, n in pairs:
        prev = acc.get(item)
        acc[item] = n if prev is None else prev + n
    return tuple(sorted(filter(itemgetter(1), acc.items()), key=_first_key))


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


def _merge(a: tuple, b: tuple) -> tuple:
    """``_normal_form(a + b)`` for canonical ``a`` and ``b``, in one pass."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        pa, pb = a[i], b[j]
        ka, kb = pa[0].key, pb[0].key
        if ka < kb:
            out.append(pa)
            i += 1
        elif kb < ka:
            out.append(pb)
            j += 1
        else:
            n = pa[1] + pb[1]
            if n:
                out.append((pa[0], _rational(n)))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


class Monomial:
    """Product of atoms with positive integer exponents; the empty product is 1."""

    __slots__ = ("factors", "key", "_hash")

    def __init__(self, factors: Iterable = ()):
        factors = tuple(factors)
        for a, e in factors:
            if not isinstance(e, int) or e < 0:
                raise UnsupportedFormError(f"unsupported exponent {e!r} on {a!r}")
        self._set(_normal_form(factors))

    @classmethod
    def _trusted(cls, factors: tuple) -> "Monomial":
        """The monomial of ``factors``, taken as they are.

        Precondition: ``factors`` is canonical, sorted by atom key with
        distinct atoms and positive int exponents, such as a run cut from
        some ``Monomial.factors``.
        """
        m = cls.__new__(cls)
        m._set(factors)
        return m

    def _set(self, factors: tuple):
        key = []
        for a, e in factors:
            key += a.key
            key.append(e)
        self.factors = factors
        self.key = tuple(key)
        self._hash = hash(self.key)

    def exponent(self, a: Atom) -> int:
        for b, e in self.factors:
            if b == a:
                return e
        return 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other.factors:
            return self
        if not self.factors:
            return other
        return Monomial._trusted(_merge(self.factors, other.factors))

    def __eq__(self, other):
        return self is other or (isinstance(other, Monomial) and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Monomial, (self.factors,)

    def __str__(self):
        if not self.factors:
            return "1"
        return "*".join(a.name if e == 1 else f"{a.name}**{e}"
                        for a, e in self.factors)

    __repr__ = __str__


MONO_ONE = Monomial()


class Expr:
    """Canonical sum of rational multiples of monomials.  Immutable.

    The zero expression is the empty sum.  Construction from an iterable of
    (monomial, coefficient) pairs merges duplicates, drops zero coefficients
    and sorts, so any Expr in circulation is canonical.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = tuple((mono, _rational(c))
                           for mono, c in _normal_form(terms))

    @classmethod
    def _trusted(cls, terms: tuple) -> "Expr":
        """The expression of ``terms``, taken as they are.

        Precondition: ``terms`` is canonical, sorted by monomial key with
        distinct monomials and nonzero coefficients, each an int when it is
        integral and a ``Fraction`` otherwise.
        """
        e = cls.__new__(cls)
        e.terms = terms
        return e

    @staticmethod
    def of(a: Atom) -> "Expr":
        return Expr._trusted(((Monomial._trusted(((a, 1),)), 1),))

    @staticmethod
    def const(c) -> "Expr":
        c = _rational(c)
        return Expr._trusted(((MONO_ONE, c),) if c else ())

    # -- ring operators -------------------------------------------------

    def __add__(self, other):
        return Expr._trusted(_merge(self.terms, as_expr(other).terms))

    __radd__ = __add__

    def __neg__(self):
        return Expr._trusted(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-as_expr(other))

    def __rsub__(self, other):
        return as_expr(other) + (-self)

    def __mul__(self, other):
        a, b = self.terms, as_expr(other).terms
        if len(a) == 1:  # the product commutes: keep a one-term operand in b
            a, b = b, a
        if len(b) != 1:
            return Expr((m1 * m2, c1 * c2) for m1, c1 in a for m2, c2 in b)
        (m2, c2), = b
        if not m2.factors:
            return Expr._trusted(tuple((m1, _rational(c1 * c2)) for m1, c1 in a))
        products = ((m1 * m2, _rational(c1 * c2)) for m1, c1 in a)
        # products by one monomial never coincide: sort, nothing to merge
        return Expr._trusted(tuple(sorted(products, key=_first_key)))

    __rmul__ = __mul__

    def __pow__(self, n):
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
        if isinstance(other, Expr):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction, Atom)):
            return self.terms == as_expr(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        pieces = []
        for mono, c in self.terms:
            mag = abs(c)
            if not mono.factors:
                body = str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{mag}*{mono}"
            pieces.append((c < 0, body))
        return signed_sum(pieces)

    __repr__ = __str__


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
    return not as_expr(e).terms


def atoms_of(e) -> tuple:
    seen = set()
    for mono, _ in as_expr(e).terms:
        seen.update(a for a, _ in mono.factors)
    return tuple(sorted(seen))


def derive(e, image) -> tuple:
    """The derivation sending each atom ``a`` to ``image(a)``, applied to e.

    ``image(a)`` is canonical terms, or None (or no terms) for zero, and is
    asked once per atom.  One pass over the terms of ``e``: each factor
    ``a**k`` of a term ``c*m`` contributes ``k*c*(m/a)*image(a)``, with
    ``m/a`` cut from ``m`` and so canonical.  Returns ``(total, pieces)``:
    the derivative, normalized once, and the unnormalized contributions per
    atom, ``{a: [(monomial, coefficient), ...]}``, in the order first met.
    """
    images, pieces = {}, {}
    for mono, c in as_expr(e).terms:
        factors = mono.factors
        for idx, (a, k) in enumerate(factors):
            img = images.get(a, _UNSEEN)
            if img is _UNSEEN:
                img = images[a] = image(a)
            if not img:
                continue
            rest = Monomial._trusted(
                factors[:idx] + ((a, k - 1),) + factors[idx + 1:] if k > 1
                else factors[:idx] + factors[idx + 1:])
            kc = k * c
            pieces.setdefault(a, []).extend((rest * m, kc * ci)
                                            for m, ci in img)
    # most partials of a jet expression vanish; skip building those
    return (Expr(pair for p in pieces.values() for pair in p) if pieces
            else ZERO), pieces


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
            return ONE.terms
        if a.kind != COORD and v.name in a.args:
            return Expr.of(derivative_of(a, v.name)).terms
    return derive(e, image)[0]


def replace_atoms(e, mapping: Mapping[Atom, object]) -> Expr:
    """Simultaneous single-pass replacement of atoms by expressions.

    Atoms absent from the mapping are kept.  No recursion: keys occurring
    inside replacement values are left alone, which makes relabelings and
    self-referencing maps (x -> x + a) well defined.

    Each term splits into its replaced factors and a kept run, which is cut
    from the canonical monomial and so canonical itself.  The product of
    the replacement values is built once per call for each distinct tuple
    of replaced factors, (atom, exponent) pairs, and shared by every term
    with that tuple.
    """
    table = {a: as_expr(v) for a, v in mapping.items()}
    products = {}

    def pieces():
        for mono, c in as_expr(e).terms:
            hit, rest = [], []
            for f in mono.factors:
                (hit if f[0] in table else rest).append(f)
            if not hit:
                yield mono, c
                continue
            hit = tuple(hit)
            product = products.get(hit)
            if product is None:
                product = products[hit] = reduce(
                    mul, [table[a] ** k for a, k in hit])
            rest = Monomial._trusted(tuple(rest))
            for m, cc in product.terms:
                yield m * rest, c * cc
    return Expr(pieces())


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

    Returns an ordered mapping from parametric monomial to the coefficient
    expression over the remaining atoms; summing monomial * coefficient over
    the entries recovers ``e`` exactly.  The zero expression yields an empty
    mapping.
    """
    pset = set(parametric)
    if not pset:
        raise ValueError("parametric set must be non-empty")
    buckets = {}
    for mono, c in as_expr(e).terms:
        par, rest = [], []
        for f in mono.factors:
            (par if f[0] in pset else rest).append(f)
        # both runs are cut from a canonical factor tuple
        buckets.setdefault(Monomial._trusted(tuple(par)), []).append(
            (Monomial._trusted(tuple(rest)), c))
    # distinct terms stay distinct after the split: a sorted bucket is canonical
    return {key: Expr._trusted(tuple(sorted(buckets[key], key=_first_key)))
            for key in sorted(buckets, key=lambda m: m.key)}


def evaluate(e, point: Mapping[Atom, object]):
    """Exact or floating evaluation; a ring homomorphism on bound atoms."""
    total = Fraction(0)
    for mono, c in as_expr(e).terms:
        v = c
        for a, k in mono.factors:
            if a not in point:
                raise MissingBindingError(f"no value bound for {a.name}")
            v = v * point[a] ** k
        total = total + v
    return total
