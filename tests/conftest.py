import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from liequiv import build_catalog, build_registry, build_system
from liequiv.expr import ONE, ZERO, Atom, Expr, derive, unknown
from liequiv.generators import make_generator


@pytest.fixture(scope="session")
def spaces():
    """Registry, system and catalog for every supported dimension."""
    out = {}
    for dim in (1, 2, 3):
        reg = build_registry(dim)
        out[dim] = SimpleNamespace(
            reg=reg,
            system=build_system(dim, reg),
            catalog=build_catalog(dim, reg),
        )
    return out


def random_expr(rnd: random.Random, atoms, depth: int = 3) -> Expr:
    """Random normalized expression tree over the given atoms."""
    if depth == 0 or rnd.random() < 0.25:
        if rnd.random() < 0.3:
            return Expr.const(Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)))
        return Expr.of(rnd.choice(atoms))
    pick = rnd.random()
    left = random_expr(rnd, atoms, depth - 1)
    right = random_expr(rnd, atoms, depth - 1)
    if pick < 0.4:
        return left + right
    if pick < 0.75:
        return left * right
    if pick < 0.9:
        return left - right
    return left ** rnd.randint(0, 2)


def diff_atom(e, a: Atom) -> Expr:
    """Partial derivative treating every atom as an independent coordinate.

    This is the derivative entering directional actions of vector fields on
    the extended space, where function symbols are coordinates in their own
    right and must not chain through their declared arguments.
    """
    return derive(e, lambda b: ONE.terms if b == a else None)


def degree1_ansatz(reg):
    """Every coefficient slot gets one ?constant for 1 and one for each
    admitted coordinate: xi, eta^u on (t, x, u); eta^p, eta^rho on
    (t, x, u, p, rho); mu^Pi on the gradient jets and the Pi components;
    mu^G, mu^H on (p, rho, G, H)."""
    base = [reg.t, *reg.x, *reg.u]
    point = base + [reg.p, reg.rho]
    gradient = ([reg.u_x[k] for k in sorted(reg.u_x)]
                + [reg.pi[k] for k in reg.pi_pairs()])
    state = [reg.p, reg.rho, reg.g, reg.h]
    count = 0

    def general(atoms):
        nonlocal count
        e = ZERO
        for basis in [None] + atoms:
            count += 1
            c = unknown(f"c{count}")
            e = e + (Expr.of(c) if basis is None else c * basis)
        return e

    spec = make_generator(
        reg,
        xi_t=general(base),
        xi_x=tuple(general(base) for _ in reg.x),
        eta_u=tuple(general(base) for _ in reg.u),
        eta_p=general(point), eta_rho=general(point),
        mu_pi=tuple(general(gradient) for _ in reg.pi_pairs()),
        mu_g=general(state), mu_h=general(state))
    return spec, count
