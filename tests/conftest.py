import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from liequiv import build_catalog, build_registry, build_system
from liequiv.expr import ONE, Atom, Expr, derive


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
