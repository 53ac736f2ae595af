"""Finite transformations derived from the prolonged field.

``exponentiate`` takes a prolonged field X, the table that ``prolong``
builds and ``DeterminingSystem.prolonged`` keeps, and walks every registered
coordinate c: X(c) = k*c with an integer k scales it, c -> exp(a)^k * c;
any other coordinate is shifted by its Lie series (Olver, Applications of
Lie Groups to Differential Equations, sections 1.3 and 2.3)

    exp(aX) c = c + sum_{n >= 1} a^n/n! X^n(c),

which must end within len(space) + 1 terms, each affine in the coordinates.
A coordinate without a prolonged action (u_tx when xi^t depends on more than
t) or a series that breaks either rule raises NoClosedFormError naming the
coordinate.  The scale factors are carried symbolically through the
reserved atoms ``exp(a)`` and ``exp(-a)``, which cancel pairwise inside
monomials.  A flow holds one table, the image of each coordinate it moves,
in registry order.  An exact rational group parameter is bound inside the
series, and a shift that vanishes there leaves its coordinate out.

Rotation candidates have no closed form in this exact-rational carrier
(their flows need cos/sin); ``numeric_flow`` realizes their fully prolonged
motion pointwise with a hand-written rotation, the independent oracle of
the finite-difference cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .catalog import rotation_specs
from .expr import (Atom, Expr, Monomial, ZERO, ONE, as_expr, coordinate,
                   evaluate, is_unknown, is_zero, replace_atoms)
from .generators import GeneratorSpec, apply_with_trace, prolong
from .jets import JetRegistry

PARAM = coordinate("a")
SCALE = coordinate("exp(a)")
SCALE_INV = coordinate("exp(-a)")


class NoClosedFormError(Exception):
    """The generator has no closed-form flow in the exact carrier."""


def scale_power(d: int) -> Expr:
    if d == 0:
        return ONE
    if d > 0:
        return Expr.of(SCALE) ** d
    return Expr.of(SCALE_INV) ** (-d)


def reduce_scale(e) -> Expr:
    """Cancel exp(a) * exp(-a) pairs inside every monomial."""
    return Expr((_cancel_scale(mono), c) for mono, c in as_expr(e).terms)


def _cancel_scale(mono: Monomial) -> Monomial:
    m = min(mono.exponent(SCALE), mono.exponent(SCALE_INV))
    if not m:
        return mono
    return Monomial((a, k - m if a == SCALE or a == SCALE_INV else k)
                    for a, k in mono.factors)


class FiniteTransformation:
    """Closed-form group motion of every registered coordinate.

    ``images`` maps each moved coordinate, in registry order, to its image:
    exp(a)^k * c for a scaled coordinate, c + shift for a shifted one, never
    both.  Every other coordinate is fixed.
    """

    def __init__(self, reg: JetRegistry, images: dict):
        self.registry = reg
        self._images = images

    def image(self, a: Atom) -> Expr:
        """The transformed coordinate as an expression over the space plus
        the parameter and scale atoms."""
        return self._images.get(a, Expr.of(a))

    def images(self) -> tuple:
        """(coordinate, image) pairs for every non-identity coordinate map."""
        return tuple(self._images.items())

    def transform(self, e) -> Expr:
        """Pull an expression through the coordinate maps, scale-reduced."""
        return reduce_scale(replace_atoms(e, self._images))


_NO_FLOW = "no closed-form flow in the exact carrier"


def _weight(xc: Expr, c: Atom):
    """k when X(c) = k*c for an integer k, else None."""
    if is_zero(xc):
        return 0
    if len(xc.terms) == 1:
        mono, k = xc.terms[0]
        if mono.factors == ((c, 1),) and k.denominator == 1:
            return int(k)
    return None


def _is_affine(e: Expr) -> bool:
    return all(sum(k for a, k in mono.factors if not is_unknown(a)) <= 1
               for mono, _ in e.terms)


def _lie_series(pg: dict, c: Atom, bound: int, a: Expr) -> Expr:
    """sum_{n >= 1} a^n/n! X^n(c), required to end within ``bound`` terms
    (X^0(c) = c included), each affine in the coordinates; ``a`` is the
    parameter atom or its bound value."""
    shift, term, power = ZERO, pg[c], a
    for n in range(1, bound + 1):
        if is_zero(term):
            return shift
        if n == bound:
            break
        if not _is_affine(term):
            raise NoClosedFormError(
                f"{_NO_FLOW}: the Lie series of {c.name} leaves the affine "
                f"terms at order {n}")
        shift = shift + power * term
        term = apply_with_trace(pg, term)[0] / (n + 1)
        power = power * a
    raise NoClosedFormError(
        f"{_NO_FLOW}: the Lie series of {c.name} does not end within "
        f"{bound} terms")


def exponentiate(reg: JetRegistry, pg: dict, param=None) -> FiniteTransformation:
    """The flow exp(aX) of a prolonged field; ``param`` optionally binds the
    group parameter to an exact rational."""
    space = reg.space_atoms()
    for c in space:
        if c not in pg:
            raise NoClosedFormError(
                f"{_NO_FLOW}: the prolonged field gives {c.name} no action")
    a = Expr.of(PARAM) if param is None else Expr.const(Fraction(param))
    images = {}
    for c in space:
        k = _weight(pg[c], c)
        if k is None:
            shift = _lie_series(pg, c, len(space) + 1, a)
            if not is_zero(shift):
                images[c] = c + shift
        elif k:
            images[c] = scale_power(k) * c
    return FiniteTransformation(reg, images)


# -- pointwise numeric flows ----------------------------------------------


def _numeric_closed_form(reg: JetRegistry, ft: FiniteTransformation):
    def flow(point: dict, a: float) -> dict:
        bind = dict(point)
        bind[PARAM] = a
        bind[SCALE] = math.exp(a)
        bind[SCALE_INV] = math.exp(-a)
        return {c: float(evaluate(ft.image(c), bind))
                for c in reg.space_atoms()}
    return flow


def _rotation_matrix(dim: int, i: int, j: int, a: float):
    rot = [[1.0 if r == c else 0.0 for c in range(dim)] for r in range(dim)]
    rot[i - 1][i - 1] = math.cos(a)
    rot[j - 1][j - 1] = math.cos(a)
    rot[i - 1][j - 1] = -math.sin(a)
    rot[j - 1][i - 1] = math.sin(a)
    return rot


def _numeric_rotation(reg: JetRegistry, i: int, j: int, tensorial: bool):
    dim = reg.dim
    rng = range(1, dim + 1)

    def flow(point: dict, a: float) -> dict:
        rot = _rotation_matrix(dim, i, j, a)

        def mix(vec):
            return [sum(rot[r - 1][c - 1] * vec[c - 1] for c in rng) for r in rng]

        new = {c: float(point[c]) for c in reg.space_atoms()}
        for family in (reg.x, reg.u, reg.u_t, reg.p_x, reg.rho_x):
            mixed = mix([point[family[k - 1]] for k in rng])
            for k in rng:
                new[family[k - 1]] = mixed[k - 1]

        grad = [[point[reg.u_x[(k, l)]] for l in rng] for k in rng]
        for k in rng:
            for l in rng:
                new[reg.u_x[(k, l)]] = sum(
                    rot[k - 1][m - 1] * grad[m - 1][n - 1] * rot[l - 1][n - 1]
                    for m in rng for n in rng)

        def uxx(k, l, m):
            return point[reg.u_xx[(k, min(l, m), max(l, m))]]

        for (k, l, m) in sorted(reg.u_xx):
            new[reg.u_xx[(k, l, m)]] = sum(
                rot[k - 1][b - 1] * rot[l - 1][r - 1] * rot[m - 1][s - 1]
                * uxx(b, r, s)
                for b in rng for r in rng for s in rng)
        for (k, l) in sorted(reg.u_tx):
            new[reg.u_tx[(k, l)]] = sum(
                rot[k - 1][b - 1] * rot[l - 1][n - 1] * point[reg.u_tx[(b, n)]]
                for b in rng for n in rng)

        def pival(r, c):
            return point[reg.pi_at(r, c)]

        if tensorial:
            for (r, c) in reg.pi_pairs():
                new[reg.pi[(r, c)]] = sum(
                    rot[r - 1][b - 1] * rot[c - 1][d - 1] * pival(b, d)
                    for b in rng for d in rng)

        for (r, c, k, l) in sorted(reg.pi_d):
            if tensorial:
                val = sum(
                    rot[r - 1][b - 1] * rot[c - 1][d - 1]
                    * rot[k - 1][kk - 1] * rot[l - 1][ll - 1]
                    * point[reg.pi_d_at(b, d, kk, ll)]
                    for b in rng for d in rng for kk in rng for ll in rng)
            else:
                val = sum(
                    rot[k - 1][kk - 1] * rot[l - 1][ll - 1]
                    * point[reg.pi_d_at(r, c, kk, ll)]
                    for kk in rng for ll in rng)
            new[reg.pi_d[(r, c, k, l)]] = val
        return new

    return flow


def numeric_flow(reg: JetRegistry, g: GeneratorSpec):
    """Pointwise prolonged flow of ``g``: the closed form when
    ``exponentiate`` finds one, the hand-written flow of a rotation
    candidate, else None."""
    try:
        return _numeric_closed_form(reg, exponentiate(reg, prolong(reg, g)))
    except NoClosedFormError:
        pass
    for i in range(1, reg.dim + 1):
        for j in range(i + 1, reg.dim + 1):
            naive, tensorial = rotation_specs(reg, i, j)
            if g in (naive, tensorial):
                return _numeric_rotation(reg, i, j, g == tensorial)
    return None
