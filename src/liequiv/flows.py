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
reserved atoms ``exp(a)`` and ``exp(-a)``, which no other module names:
this module writes them, cancels them pairwise in ``reduce_scale``, and
reads them back in ``scale_factor``, which decides the factor c*exp(a)^k
of every finite check.  A flow is its public ``images`` table: the image
of each coordinate it moves, in registry order.  A group parameter given
as an int or a Fraction is bound inside the series (any other type raises
UnsupportedFormError), and a shift that vanishes there leaves its
coordinate out.

``FiniteTransformation.transform`` pulls an expression through the images.
``replace_atoms`` rebuilds only the terms that hold a moved coordinate, and
``reduce_scale`` returns its input unless a monomial holds both scale
atoms, so an expression the flow does not move, such as every equation
under a space or time translation, comes back itself.

Rotation candidates have no closed form in this exact-rational carrier
(their flows need cos/sin); ``numeric_flow`` realizes their fully prolonged
motion pointwise by one tensor law over the registered families, the
independent oracle of the finite-difference cross-checks: it never reads
the prolonged field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .catalog import rotation_specs
from .expr import (Atom, Expr, Monomial, ZERO, as_expr, collect, coordinate,
                   evaluate, is_unknown, is_zero, replace_atoms)
from .generators import GeneratorSpec, apply, prolong
from .jets import JetRegistry

PARAM = coordinate("a")
SCALE = coordinate("exp(a)")
SCALE_INV = coordinate("exp(-a)")


class NoClosedFormError(Exception):
    """The generator has no closed-form flow in the exact carrier."""


def scale_power(d: int) -> Expr:
    return Expr.of(SCALE if d > 0 else SCALE_INV) ** abs(d)


def reduce_scale(e) -> Expr:
    """Cancel exp(a) * exp(-a) pairs inside every monomial; an expression
    with no monomial holding both comes back itself."""
    e = as_expr(e)
    if not any(m.exponent(SCALE) and m.exponent(SCALE_INV) for m in e.coeffs):
        return e
    return sum((scale_power(s.exponent(SCALE) - s.exponent(SCALE_INV)) * part
                for s, part in collect(e, (SCALE, SCALE_INV)).items()), ZERO)


def scale_factor(eq: Expr, pullback: Expr) -> tuple | None:
    """The factor (c, k), c rational and k an int, with pullback =
    c*exp(a)^k*eq, or None when the pullback is no such multiple of the
    equation.

    Decided term by term: the pullback has as many terms as the equation,
    exp(a)^k is read from any one of them, and each equation term c_m*m
    must meet a pullback coefficient at m*exp(a)^k in the one ratio c,
    compared by cross-multiplication.  The verdict does not depend on
    which term is read."""
    pb = pullback.coeffs
    if not pb or len(pb) != len(eq.coeffs):
        return None
    scale = Monomial._trusted(tuple(
        f for f in next(iter(pb)) if f[0] in (SCALE, SCALE_INV)))
    m0, c0 = next(iter(eq.coeffs.items()))
    p0 = pb.get(m0 * scale)
    if p0 is None or not all(pb.get(m * scale, 0) * c0 == p0 * c
                             for m, c in eq.coeffs.items()):
        return None
    return Fraction(p0, c0), scale.exponent(SCALE) - scale.exponent(SCALE_INV)


class FiniteTransformation:
    """Closed-form group motion of every registered coordinate.

    ``images`` maps each moved coordinate, in registry order, to its image:
    exp(a)^k * c for a scaled coordinate, c + shift for a shifted one, never
    both.  Every other coordinate is fixed.
    """

    def __init__(self, images: dict):
        self.images = images

    def image(self, a: Atom) -> Expr:
        """The transformed coordinate as an expression over the space plus
        the parameter and scale atoms."""
        return self.images.get(a, Expr.of(a))

    def transform(self, e) -> Expr:
        """Pull an expression through the coordinate maps, scale-reduced."""
        return reduce_scale(replace_atoms(e, self.images))


_NO_FLOW = "no closed-form flow in the exact carrier"


def _weight(xc: Expr, c: Atom):
    """k when X(c) = k*c for an integer k, else None."""
    if is_zero(xc):
        return 0
    if len(xc.terms) == 1:
        mono, k = xc.terms[0]
        if mono == ((c, 1),) and type(k) is int:
            return k
    return None


def _is_affine(e: Expr) -> bool:
    return all(sum(k for a, k in mono if not is_unknown(a)) <= 1
               for mono in e.coeffs)


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
        term = apply(pg, term) / (n + 1)
        power = power * a
    raise NoClosedFormError(
        f"{_NO_FLOW}: the Lie series of {c.name} does not end within "
        f"{bound} terms")


def exponentiate(reg: JetRegistry, pg: dict, param=None) -> FiniteTransformation:
    """The flow exp(aX) of a prolonged field; ``param`` optionally binds the
    group parameter to an int or a Fraction."""
    for c in reg.space:
        if c not in pg:
            raise NoClosedFormError(
                f"{_NO_FLOW}: the prolonged field gives {c.name} no action")
    a = Expr.of(PARAM) if param is None else Expr.const(param)
    images = {}
    for c in reg.space:
        k = _weight(pg[c], c)
        if k is None:
            shift = _lie_series(pg, c, len(reg.space) + 1, a)
            if not is_zero(shift):
                images[c] = c + shift
        elif k:
            images[c] = scale_power(k) * c
    return FiniteTransformation(images)


# -- pointwise numeric flows ----------------------------------------------


def _numeric_closed_form(reg: JetRegistry, ft: FiniteTransformation):
    def flow(point: dict, a: float) -> dict:
        bind = dict(point)
        bind[PARAM] = a
        bind[SCALE] = math.exp(a)
        bind[SCALE_INV] = math.exp(-a)
        return {c: float(evaluate(ft.image(c), bind)) for c in reg.space}
    return flow


def _numeric_rotation(reg: JetRegistry, i: int, j: int, tensorial: bool):
    """The prolonged rotation by the angle a in the (x_i, x_j) plane.

    One tensor law moves every coordinate: a row of the table holds a
    family's atoms by index tuple, the lookup of any index tuple, and the
    position from which its indices turn.  With R the rotation matrix, the
    coordinate at ``idx`` goes to the sum over ``sub`` of
    prod_p R[idx_p][sub_p] * old[idx with ``sub`` at the turned positions];
    the entries of R that vanish at every angle are skipped.  The tensorial
    rotation turns every index of Pi^{ij} and Pi^{ij}_{kl}; the naive one
    turns only the gradient indices (k, l).  Coordinates in no row (t, p,
    rho, their time derivatives, G and H) are fixed.
    """
    rng = range(1, reg.dim + 1)
    vectors = [{(k,): a for k, a in zip(rng, family)}
               for family in (reg.x, reg.u, reg.u_t, reg.p_x, reg.rho_x)]
    stress = 0 if tensorial else 2
    table = [(v, v.__getitem__, 0) for v in vectors] + [
        (reg.u_x, reg.u_x.__getitem__, 0),
        (reg.u_tx, reg.u_tx.__getitem__, 0),
        (reg.u_xx, lambda idx: reg.u_xx[idx[:1] + tuple(sorted(idx[1:]))], 0),
        (reg.pi, lambda idx: reg.pi_at(*idx), stress),
        (reg.pi_d, lambda idx: reg.pi_d[tuple(sorted(idx[:2])) + idx[2:]], stress),
    ]

    def flow(point: dict, a: float) -> dict:
        # each row r of R as its entries (s, R[r][s]) that can be nonzero
        rot = {r: [(r, 1.0)] for r in rng}
        rot[i] = [(i, math.cos(a)), (j, -math.sin(a))]
        rot[j] = [(i, math.sin(a)), (j, math.cos(a))]
        new = {c: float(point[c]) for c in reg.space}
        for atoms, lookup, turn in table:
            for idx, c in atoms.items():
                total = 0.0
                for sub in product(*(rot[r] for r in idx[turn:])):
                    total += (math.prod(w for _, w in sub)
                              * point[lookup(idx[:turn] + tuple(s for s, _ in sub))])
                new[c] = total
        return new

    return flow


def numeric_flow(reg: JetRegistry, g: GeneratorSpec):
    """Pointwise prolonged flow of ``g``: the closed form when
    ``exponentiate`` finds one, the tensor-law flow of a rotation
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
