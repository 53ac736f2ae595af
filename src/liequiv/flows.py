"""Closed-form one-parameter motions for the built-in generator families.

Every built-in family with a closed form moves each coordinate as

    c  ->  exp(a)^d(c) * c + shift_c(a, coords)

with an integer exponent d(c) and a shift polynomial in the group parameter
``a``; the scale factor is carried symbolically through the reserved atoms
``exp(a)`` and ``exp(-a)``, which cancel pairwise inside monomials.  The
induced motion of the stress-derivative coordinates Pi^{ij}_{kl} is encoded
from the chain rule through the Pi and gradient-jet maps, never stored
independently of them.

Rotation candidates have no closed form in this exact-rational carrier
(their flows need cos/sin); they are still covered by ``numeric_flow``,
which realizes the fully prolonged motion pointwise for floating parameter
values and backs the finite-difference cross-checks.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .expr import (Atom, Expr, Monomial, ZERO, ONE, as_expr, atoms_of,
                   coordinate, evaluate, is_zero, replace_atoms)
from .jets import JetRegistry

PARAM = coordinate("a")
SCALE = coordinate("exp(a)")
SCALE_INV = coordinate("exp(-a)")

_FAMILY_NAME = re.compile(r"([XY])(\d)|S|T|Z1|Z2")
_ROTATION_NAME = re.compile(r"^J(\d)(\d)_(naive|tensorial)$")


class NoClosedFormError(Exception):
    """The named generator has no closed-form flow in the exact carrier."""


class SingularTransformationError(Exception):
    """A coordinate map failed to stay invertible."""


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
    """Closed-form group motion of every registered coordinate."""

    def __init__(self, reg: JetRegistry, name: str, scale: dict, shift: dict):
        self.registry = reg
        self.name = name
        self.scale = dict(scale)
        self.shift = {a: as_expr(v) for a, v in shift.items()}
        for a in self.scale:
            if self.scale[a] and not is_zero(self.shift.get(a, ZERO)):
                raise SingularTransformationError(
                    f"{name}: {a.name} carries both a scale and a shift")

    def image(self, a: Atom) -> Expr:
        """The transformed coordinate as an expression over the space plus
        the parameter and scale atoms."""
        d = self.scale.get(a, 0)
        out = scale_power(d) * a
        sh = self.shift.get(a)
        if sh is not None:
            out = out + sh
        return out

    def images(self) -> tuple:
        """(coordinate, image) pairs for every non-identity coordinate map."""
        moved = []
        for a in self.registry.space_atoms():
            img = self.image(a)
            if img != Expr.of(a):
                moved.append((a, img))
        return tuple(moved)

    def transform(self, e) -> Expr:
        """Pull an expression through the coordinate maps, scale-reduced."""
        e = as_expr(e)
        table = {a: self.image(a) for a in atoms_of(e)
                 if self.registry.has_name(a.name)}
        return reduce_scale(replace_atoms(e, table))

    def with_parameter(self, value) -> "FiniteTransformation":
        """Shift parts evaluated at an exact rational parameter value; the
        scale factors stay symbolic powers of exp(a)."""
        value = Fraction(value)
        shift = {a: replace_atoms(v, {PARAM: Expr.const(value)})
                 for a, v in self.shift.items()}
        return FiniteTransformation(self.registry, self.name, self.scale, shift)


def _family(reg: JetRegistry, name: str):
    """(family, index) of a built-in closed-form family name, or None."""
    m = _FAMILY_NAME.fullmatch(name)
    if m is None:
        return None
    if m.group(1) is None:
        return name, 0
    i = int(m.group(2))
    lowest = 0 if m.group(1) == "X" else 1
    return (m.group(1), i) if lowest <= i <= reg.dim else None


def _recipe(reg: JetRegistry, family: str, i: int):
    """(scale, shift) dicts for a family resolved by ``_family``."""
    rng = range(1, reg.dim + 1)
    a = Expr.of(PARAM)

    if family == "X":
        return {}, {reg.independents[i]: a}
    if family == "S":
        return {}, {reg.p: a}
    if family == "Y":
        shift = {reg.x[i - 1]: a * reg.t, reg.u[i - 1]: a}
        for k in rng:
            shift[reg.u_t[k - 1]] = -a * reg.u_x[(k, i)]
        shift[reg.p_t] = -a * reg.p_x[i - 1]
        shift[reg.rho_t] = -a * reg.rho_x[i - 1]
        for k in rng:
            for l in rng:
                pair = (min(i, l), max(i, l))
                shift[reg.u_tx[(k, l)]] = -a * reg.u_xx[(k,) + pair]
        return {}, shift
    if family == "T":
        shift = {reg.pi[(k, k)]: a for k in rng}
        shift[reg.g] = -a * reg.h
        return {}, shift
    if family == "Z1":
        scale = {}
        for i in rng:
            scale[reg.x[i - 1]] = 1
            scale[reg.u[i - 1]] = 1
            scale[reg.u_t[i - 1]] = 1
            scale[reg.p_x[i - 1]] = 1
            scale[reg.rho_x[i - 1]] = -1
        scale[reg.p] = 2
        scale[reg.p_t] = 2
        for key in reg.u_xx:
            scale[reg.u_xx[key]] = -1
        for key in reg.pi:
            scale[reg.pi[key]] = 2
        for key in reg.pi_d:
            scale[reg.pi_d[key]] = 2
        scale[reg.g] = 2
        return scale, {}
    # Z2
    scale = {reg.rho: 1, reg.p: 1, reg.p_t: 1, reg.rho_t: 1, reg.g: 1}
    for i in rng:
        scale[reg.p_x[i - 1]] = 1
        scale[reg.rho_x[i - 1]] = 1
    for key in reg.pi:
        scale[reg.pi[key]] = 1
    for key in reg.pi_d:
        scale[reg.pi_d[key]] = 1
    return scale, {}


def has_closed_form(reg: JetRegistry, name: str) -> bool:
    return _family(reg, name) is not None


def exponentiate(reg: JetRegistry, name: str, param=None) -> FiniteTransformation:
    """Finite transformation of a built-in family; ``param`` optionally binds
    the shift parameter to an exact rational."""
    family = _family(reg, name)
    if family is None:
        raise NoClosedFormError(
            f"no closed-form flow in the exact carrier for {name}")
    ft = FiniteTransformation(reg, name, *_recipe(reg, *family))
    if param is not None:
        ft = ft.with_parameter(param)
    return ft


def identity_at_zero(ft: FiniteTransformation) -> bool:
    at0 = {PARAM: ZERO, SCALE: ONE, SCALE_INV: ONE}
    for a in ft.registry.space_atoms():
        img = replace_atoms(ft.image(a), at0)
        if img != Expr.of(a):
            return False
    return True


def composition_is_additive(ft: FiniteTransformation) -> bool:
    """Symbolic check of flow(a1) followed by flow(a2) == flow(a1 + a2).

    Scaled coordinates compose through exp(a1)^d exp(a2)^d = exp(a1+a2)^d by
    construction (no coordinate carries both scale and shift), so the content
    of the check is the shift identity
    shift(a1) + shift(a2)[coords -> flow_a1(coords)] == shift(a1 + a2).
    """
    a1 = coordinate("a:first")
    a2 = coordinate("a:second")
    reg = ft.registry
    for c, sh in ft.shift.items():
        first = replace_atoms(sh, {PARAM: Expr.of(a1)})
        second = replace_atoms(sh, {PARAM: Expr.of(a2)})
        moved = {z: replace_atoms(ft.image(z), {PARAM: Expr.of(a1)})
                 for z in atoms_of(second) if reg.has_name(z.name)}
        second = replace_atoms(second, moved)
        combined = replace_atoms(sh, {PARAM: Expr.of(a1) + a2})
        if reduce_scale(first + second) != reduce_scale(combined):
            return False
    return True


# -- pointwise numeric flows ----------------------------------------------


def _numeric_from_recipe(reg: JetRegistry, ft: FiniteTransformation):
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


def numeric_flow(reg: JetRegistry, name: str):
    """Pointwise prolonged flow for any catalog entry, or None."""
    if has_closed_form(reg, name):
        return _numeric_from_recipe(reg, exponentiate(reg, name))
    m = _ROTATION_NAME.match(name)
    if m:
        i, j = int(m.group(1)), int(m.group(2))
        if 1 <= i < j <= reg.dim:
            return _numeric_rotation(reg, i, j, m.group(3) == "tensorial")
    return None
