import random
from fractions import Fraction

import pytest

from liequiv.expr import (CyclicSubstitutionError, Expr, MissingBindingError,
                          Monomial, UnknownSymbolError, UnsupportedFormError,
                          as_expr, atoms_of, collect, coordinate,
                          derivative_of, diff_atom, diff_partial, evaluate,
                          function_symbol, is_zero, replace_atoms, substitute,
                          unknown)

from conftest import random_expr

p = coordinate("p")
rho = coordinate("rho")
u1 = coordinate("u1")
u1_x1 = coordinate("u1_x1")
rho_t = coordinate("rho_t")
rho_x1 = coordinate("rho_x1")
p_t = coordinate("p_t")
G = function_symbol("G", ("p", "rho"))
Pi11 = function_symbol("Pi11", ("u1_x1",))

ATOMS = [p, rho, u1, u1_x1, rho_x1]


def test_ring_identities():
    assert (p + rho) * (p - rho) == p ** 2 - rho ** 2
    assert p + (-1) * p == Expr()
    assert 2 * (rho * u1) + 3 * (u1 * rho) == 5 * rho * u1


def test_zero_is_empty_sum():
    z = p - p
    assert is_zero(z)
    assert z.terms == ()
    assert str(z) == "0"


def test_normalize_idempotent_on_random_trees():
    rnd = random.Random(2024)
    for _ in range(1000):
        e = random_expr(rnd, ATOMS)
        assert as_expr(e) == e
        assert as_expr(as_expr(e)).terms == as_expr(e).terms


def test_ring_axioms_on_random_inputs():
    rnd = random.Random(99)
    for _ in range(200):
        a = random_expr(rnd, ATOMS, 2)
        b = random_expr(rnd, ATOMS, 2)
        c = random_expr(rnd, ATOMS, 2)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_unsupported_exponents():
    with pytest.raises(UnsupportedFormError):
        p ** -1
    with pytest.raises(UnsupportedFormError):
        (p + rho) ** Fraction(1, 2)
    assert p ** 0 == Expr.const(1)


def test_diff_power_rule():
    assert diff_partial(p ** 2 * rho, p) == 2 * p * rho


def test_diff_formal_derivative():
    g_rho = derivative_of(G, "rho")
    assert diff_partial(Expr.of(G), rho) == Expr.of(g_rho)
    assert diff_partial(Expr.of(Pi11), u1_x1) == Expr.of(
        derivative_of(Pi11, "u1_x1"))
    assert diff_partial(Expr.of(G), u1) == Expr()


def test_formal_derivatives_commute():
    g_pr = derivative_of(derivative_of(G, "p"), "rho")
    g_rp = derivative_of(derivative_of(G, "rho"), "p")
    assert g_pr == g_rp
    assert g_pr.name == "G_prho"


def test_derivative_argument_membership():
    with pytest.raises(UnknownSymbolError):
        derivative_of(G, "u1")
    with pytest.raises(UnknownSymbolError):
        derivative_of(p, "p")


def test_diff_requires_coordinate():
    with pytest.raises(UnknownSymbolError):
        diff_partial(Expr.of(G), G)


def test_diff_linearity_and_leibniz():
    rnd = random.Random(5)
    for _ in range(100):
        a = random_expr(rnd, ATOMS + [G], 2)
        b = random_expr(rnd, ATOMS + [G], 2)
        v = rnd.choice(ATOMS)
        assert diff_partial(a + b, v) == diff_partial(a, v) + diff_partial(b, v)
        assert (diff_partial(a * b, v)
                == diff_partial(a, v) * b + a * diff_partial(b, v))


def test_clairaut_on_random_expressions():
    rnd = random.Random(17)
    pool = ATOMS + [G, Pi11]
    for _ in range(100):
        e = random_expr(rnd, pool, 3)
        v, w = rnd.choice(ATOMS), rnd.choice(ATOMS)
        assert (diff_partial(diff_partial(e, v), w)
                == diff_partial(diff_partial(e, w), v))


def test_diff_atom_ignores_declared_arguments():
    # the directional partial treats G as its own coordinate
    assert diff_atom(Expr.of(G) * p, p) == Expr.of(G)
    assert diff_atom(Expr.of(G) * p, G) == Expr.of(p)
    assert diff_atom(Expr.of(G), p) == Expr()


def test_substitute_examples():
    e = rho_t + rho * u1_x1
    assert substitute(e, {rho_t: -rho * u1_x1}) == Expr()
    assert substitute(Expr.of(p), {}) == Expr.of(p)
    g_p = derivative_of(G, "p")
    got = substitute(g_p * p_t, {p_t: -Expr.of(G) * u1_x1})
    assert got == -1 * Expr.of(G) * g_p * u1_x1


def test_substitute_rejects_recursive_bindings():
    with pytest.raises(CyclicSubstitutionError):
        substitute(Expr.of(p), {p: p + rho, rho: Expr.of(u1)})
    with pytest.raises(CyclicSubstitutionError):
        substitute(Expr.of(p), {p: p + 1})


def test_replace_atoms_allows_self_reference():
    a = coordinate("a")
    assert replace_atoms(Expr.of(p), {p: p + a}) == p + a
    # simultaneous swap
    swapped = replace_atoms(p * rho ** 2, {p: Expr.of(rho), rho: Expr.of(p)})
    assert swapped == rho * p ** 2


def test_collect_examples():
    e = rho * u1_x1 + u1 * rho_x1
    got = collect(e, {u1_x1})
    key = Monomial(((u1_x1, 1),))
    assert got[key] == Expr.of(rho)
    assert got[Monomial()] == u1 * rho_x1

    assert collect(Expr(), {p}) == {}

    e2 = (p + rho) * u1_x1 ** 2
    got2 = collect(e2, {u1_x1})
    assert got2 == {Monomial(((u1_x1, 2),)): p + rho}


def test_collect_reconstructs():
    rnd = random.Random(31)
    for _ in range(100):
        e = random_expr(rnd, ATOMS, 3)
        parts = collect(e, {u1_x1, rho_x1})
        back = Expr()
        for mono, coeff in parts.items():
            back = back + Expr(((mono, Fraction(1)),)) * coeff
        assert back == e
        for coeff in parts.values():
            assert u1_x1 not in atoms_of(coeff)
            assert rho_x1 not in atoms_of(coeff)


def test_collect_requires_parametric():
    with pytest.raises(ValueError):
        collect(Expr.of(p), set())


def test_evaluate_examples():
    assert evaluate(2 * p * rho, {p: 3, rho: 2}) == 12
    assert evaluate(p - p, {}) == 0
    with pytest.raises(MissingBindingError):
        evaluate(p * rho, {p: 1})


def test_evaluate_is_ring_homomorphism():
    rnd = random.Random(12)
    for _ in range(100):
        a = random_expr(rnd, ATOMS, 2)
        b = random_expr(rnd, ATOMS, 2)
        point = {atom: Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
                 for atom in ATOMS}
        assert evaluate(a + b, point) == evaluate(a, point) + evaluate(b, point)
        assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)


def test_evaluate_matches_finite_difference():
    rnd = random.Random(77)
    h = 1e-6
    for _ in range(50):
        e = random_expr(rnd, ATOMS, 3)
        v = rnd.choice(ATOMS)
        point = {atom: rnd.uniform(0.5, 1.5) for atom in ATOMS}
        sym = float(evaluate(diff_partial(e, v), point))
        up = dict(point)
        down = dict(point)
        up[v] += h
        down[v] -= h
        fd = (float(evaluate(e, up)) - float(evaluate(e, down))) / (2 * h)
        assert abs(fd - sym) <= 1e-6 * max(1.0, abs(sym))


def test_unknown_atoms():
    a = unknown("alpha")
    assert a.name == "?alpha"
    e = a * p
    assert diff_partial(e, p) == Expr.of(a)


def test_canonical_string_is_stable():
    e = Expr.of(G) * u1_x1 + p_t - 2 * rho * u1_x1
    assert str(e) == "G*u1_x1 + p_t - 2*rho*u1_x1"
