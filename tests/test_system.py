from collections import Counter
from functools import reduce

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liequiv import expr as expr_module
from liequiv.expr import (ONE, Expr, Monomial, ZERO, as_expr, atoms_of,
                          diff_partial, is_zero, replace_atoms, substitute,
                          unknown)
from liequiv.generators import apply, prolong
from liequiv.jets import build_registry
from liequiv.system import (BalanceSystem, build_system, dissipation_function,
                            restrict_to_manifold)

from conftest import degree1_ansatz, plain


def test_dim1_equations(spaces):
    reg = spaces[1].reg
    system = spaces[1].system
    assert list(system.equations) == ["mass", "momentum_1", "pressure"]
    assert system.equations["mass"] == (reg.rho_t + reg.u[0] * reg.rho_x[0]
                                         + reg.rho * reg.u_x[(1, 1)])
    assert system.equations["momentum_1"] == (
        reg.rho * reg.u_t[0] + reg.rho * reg.u[0] * reg.u_x[(1, 1)]
        - reg.pi_d[(1, 1, 1, 1)] * reg.u_xx[(1, 1, 1)] + reg.p_x[0])
    assert system.equations["pressure"] == (
        reg.p_t + reg.u[0] * reg.p_x[0] + reg.g * reg.u_x[(1, 1)]
        + reg.h * reg.pi[(1, 1)] * reg.u_x[(1, 1)])


def test_dim2_dissipation(spaces):
    reg = spaces[2].reg
    phi = dissipation_function(reg)
    want = (reg.pi[(1, 1)] * reg.u_x[(1, 1)]
            + reg.pi[(1, 2)] * (reg.u_x[(1, 2)] + reg.u_x[(2, 1)])
            + reg.pi[(2, 2)] * reg.u_x[(2, 2)])
    assert phi == want


def test_dimension_mismatch():
    reg = build_registry(1)
    with pytest.raises(ValueError):
        build_system(2, reg)


def test_principal_map_is_triangular(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        system = spaces[dim].system
        principal = system.principal
        assert set(principal) == {reg.rho_t, reg.p_t} | set(reg.u_t)
        for e in principal.values():
            assert not set(principal).intersection(atoms_of(e))
        assert system.leads == {u_t: reg.rho for u_t in reg.u_t}
        momentum = {f"momentum_{i}": u_t for i, u_t in enumerate(reg.u_t, 1)}
        jets = {"mass": reg.rho_t, **momentum, "pressure": reg.p_t}
        assert list(system.equations) == list(jets)
        for name, eq in system.equations.items():
            # linear in its jet, with a lead free of every principal jet
            lead = diff_partial(eq, jets[name])
            assert not set(principal).intersection(atoms_of(lead)), name
            assert lead == as_expr(system.leads.get(jets[name], ONE)), name
            assert principal[jets[name]] == lead * jets[name] - eq, name


def test_principal_dim1_rho_t(spaces):
    reg = spaces[1].reg
    principal = spaces[1].system.principal
    assert principal[reg.rho_t] == -(reg.u[0] * reg.rho_x[0]
                                     + reg.rho * reg.u_x[(1, 1)])


def test_principal_dim2_pressure_binding_has_shear_term(spaces):
    reg = spaces[2].reg
    principal = spaces[2].system.principal
    # expansion of -H*Phi contributes -H*Pi12*(u1_x2 + u2_x1)
    terms = dict(principal[reg.p_t].terms)
    m1 = Monomial(((reg.h, 1), (reg.pi[(1, 2)], 1), (reg.u_x[(1, 2)], 1)))
    m2 = Monomial(((reg.h, 1), (reg.pi[(1, 2)], 1), (reg.u_x[(2, 1)], 1)))
    assert terms[m1] == -1
    assert terms[m2] == -1


def test_equations_vanish_on_manifold(spaces):
    for dim in (1, 2, 3):
        system = spaces[dim].system
        for name, eq in system.equations.items():
            restricted, power = restrict_to_manifold(eq, system)
            assert is_zero(restricted), name
            assert power == (1 if name.startswith("momentum") else 0)


def test_restrict_examples(spaces):
    reg = spaces[1].reg
    system = spaces[1].system
    got, power = restrict_to_manifold(reg.p_t + reg.g * reg.u_x[(1, 1)], system)
    want = (-reg.u[0] * reg.p_x[0]
            - reg.h * reg.pi[(1, 1)] * reg.u_x[(1, 1)])
    assert got == want
    assert power == 0

    got, power = restrict_to_manifold(reg.rho_t * reg.p, system)
    assert got == -reg.p * (reg.u[0] * reg.rho_x[0] + reg.rho * reg.u_x[(1, 1)])
    assert power == 0


def test_restrict_clears_momentum_denominator(spaces):
    reg = spaces[1].reg
    system = spaces[1].system
    numerator = system.principal[reg.u_t[0]]
    assert numerator == reg.rho * reg.u_t[0] - system.equations["momentum_1"]
    got, power = restrict_to_manifold(Expr.of(reg.u_t[0]), system)
    assert power == 1
    assert got == numerator
    # quadratic occurrence needs the square of the numerator
    got2, power2 = restrict_to_manifold(Expr.of(reg.u_t[0]) ** 2, system)
    assert power2 == 2
    assert got2 == numerator ** 2


def test_mass_equation_vanishes_at_consistent_point(spaces):
    # bind every non-principal coordinate randomly, then force rho_t from
    # the principal solution; the mass equation must evaluate to exactly 0
    import random

    from fractions import Fraction

    from liequiv.expr import evaluate

    reg = spaces[2].reg
    system = spaces[2].system
    rnd = random.Random(42)
    point = {a: Fraction(rnd.randint(1, 9), rnd.randint(1, 5))
             for a in reg.space}
    point[reg.rho_t] = evaluate(system.principal[reg.rho_t], point)
    assert evaluate(system.equations["mass"], point) == 0


def test_equations_linear_in_second_jets(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        second = set(reg.u_xx.values())
        for eq in spaces[dim].system.equations.values():
            for mono, _ in eq.terms:
                deg = sum(k for a, k in mono.factors if a in second)
                assert deg <= 1


def _axis_swap_map(reg, i, j):
    """Atom relabeling that transposes the spatial axes i and j."""
    def sw(k):
        return j if k == i else i if k == j else k

    table = {}
    table[reg.x[i - 1]], table[reg.x[j - 1]] = reg.x[j - 1], reg.x[i - 1]
    table[reg.u[i - 1]], table[reg.u[j - 1]] = reg.u[j - 1], reg.u[i - 1]
    for k in range(1, reg.dim + 1):
        table[reg.u_t[k - 1]] = reg.u_t[sw(k) - 1]
        table[reg.p_x[k - 1]] = reg.p_x[sw(k) - 1]
        table[reg.rho_x[k - 1]] = reg.rho_x[sw(k) - 1]
    for (k, l), atom in reg.u_x.items():
        table[atom] = reg.u_x[(sw(k), sw(l))]
    for (k, l, m), atom in reg.u_xx.items():
        a, b = sorted((sw(l), sw(m)))
        table[atom] = reg.u_xx[(sw(k), a, b)]
    for (k, l), atom in reg.u_tx.items():
        table[atom] = reg.u_tx[(sw(k), sw(l))]
    for (a, b), atom in reg.pi.items():
        table[atom] = reg.pi_at(sw(a), sw(b))
    for (a, b, k, l), atom in reg.pi_d.items():
        table[atom] = reg.advance[(reg.pi_at(sw(a), sw(b)), reg.u_x[(sw(k), sw(l))])]
    return {key: Expr.of(val) for key, val in table.items() if key != val}


@pytest.mark.parametrize("dim", [2, 3])
def test_momentum_components_swap(spaces, dim):
    reg = spaces[dim].reg
    equations = spaces[dim].system.equations
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            table = _axis_swap_map(reg, i, j)
            swapped = replace_atoms(equations[f"momentum_{i}"], table)
            assert swapped == equations[f"momentum_{j}"]
            for name in ("mass", "pressure"):
                assert replace_atoms(equations[name], table) == equations[name]


def restrict_reference(e, system):
    """Substitution of the polynomial rho_t and p_t solutions, then the
    per-term clearing: each term rebuilds its product of u_t numerators
    from ONE.  The power is the largest u_t degree of the input terms."""
    reg = system.registry
    principal = system.principal
    u_t = set(reg.u_t)
    power = max((sum(k for a, k in mono.factors if a in u_t)
                 for mono, _ in e.terms), default=0)
    e = substitute(e, {a: principal[a] for a in (reg.rho_t, reg.p_t)})
    if power == 0:
        return e, 0
    pieces = []
    for mono, c in e.terms:
        rest, num, deg = [], ONE, 0
        for a, k in mono.factors:
            if a in u_t:
                num = num * principal[a] ** k
                deg += k
            else:
                rest.append((a, k))
        rest.append((reg.rho, power - deg))
        factor = Monomial(rest)
        pieces.extend((m * factor, c * cn) for m, cn in num.terms)
    return Expr(pieces), power


SYSTEMS = {dim: build_system(dim, build_registry(dim)) for dim in (1, 2, 3)}


@st.composite
def residuals(draw):
    """(system, polynomial) with u_t powers, rho_t, p_t, rational
    coefficients and parametric atoms (jets, Pi, Pi_d, G, H) next to ?
    constants."""
    system = SYSTEMS[draw(st.integers(1, 3))]
    reg = system.registry
    others = ([reg.t, reg.p, reg.rho, reg.g, reg.h, unknown("c1"),
               unknown("c2")]
              + list(reg.x) + list(reg.u) + list(reg.p_x) + list(reg.rho_x)
              + list(reg.u_x.values()) + list(reg.u_xx.values())
              + list(reg.u_tx.values()) + list(reg.pi.values())
              + list(reg.pi_d.values()))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        # total degree up to 3 in the u_t, as u1_t**3 or u1_t**2*u2_t; up
        # to 2 at N = 3, where one cube of a 31-term numerator takes 0.3 s
        factors = [(a, 1) for a in draw(st.lists(
            st.sampled_from(reg.u_t), max_size=3 if reg.dim < 3 else 2))]
        factors += [(draw(st.sampled_from(others)), draw(st.integers(1, 2)))
                    for _ in range(draw(st.integers(0, 3)))]
        # at most one rho_t or p_t: their bindings have up to 15 terms
        factors += [(a, 1) for a in draw(st.lists(
            st.sampled_from([reg.rho_t, reg.p_t]), max_size=1))]
        terms.append((Monomial(factors),
                      draw(st.fractions(max_denominator=6).filter(bool))))
    return system, Expr(terms)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(residuals())
def test_restrict_matches_per_term_clearing(case):
    system, e = case
    assert restrict_to_manifold(e, system) == restrict_reference(e, system)


def restrict_rebuilt(e, system):
    """restrict_to_manifold with every piece rebuilt: the rho-scaled terms
    are normalised through Expr(...), and replace_atoms builds each product
    of bindings afresh, with no memo."""
    reg = system.registry
    u_t = set(reg.u_t)
    degree = {mono: sum(k for a, k in mono.factors if a in u_t)
              for mono, _ in e.terms}
    power = max(degree.values(), default=0)
    scaled = Expr((mono * Monomial(((reg.rho, power - degree[mono]),)), c)
                  for mono, c in e.terms)
    return replace_atoms(scaled, system.principal), power


def assert_restricts_as_rebuilt(exprs, system):
    """Each of ``exprs`` restricts as restrict_rebuilt has it, on a fresh
    system whose products memo is empty, and again on one whose memo every
    expression has filled."""
    reg = system.registry
    want = [restrict_rebuilt(e, system) for e in exprs]
    for e, w in zip(exprs, want):
        assert restrict_to_manifold(e, build_system(reg.dim, reg)) == w
    filled = build_system(reg.dim, reg)
    for e in exprs:
        restrict_to_manifold(e, filled)
    products = dict(filled.products)
    for e, w in zip(exprs, want):
        assert restrict_to_manifold(e, filled) == w
    assert filled.products == products


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_restrict_matches_rebuilt_on_ansatz_residuals(spaces, dim):
    reg = spaces[dim].reg
    system = spaces[dim].system
    pg = prolong(reg, degree1_ansatz(reg)[0])
    assert_restricts_as_rebuilt([apply(pg, eq) for eq in system.equations.values()],
                                system)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(residuals())
def test_restrict_matches_rebuilt_restriction(case):
    system, e = case
    assert_restricts_as_rebuilt([e], system)


def test_restrict_builds_each_product_once(monkeypatch):
    """Each product of the bindings is built once per system, for each
    distinct tuple of replaced factors: the u_t patterns and those with
    rho_t or p_t alike.  The first restriction builds it; a later one on the
    same system builds none."""
    calls = Counter()

    def counting(op, factors):
        factors = tuple(factors)
        calls[factors] += 1
        return reduce(op, factors)

    monkeypatch.setattr(expr_module, "reduce", counting)
    # a system of its own: the shared ones may hold products already
    system = build_system(2, build_registry(2))
    reg = system.registry
    principal = system.principal
    u1_t, u2_t = reg.u_t
    e = (u1_t * reg.p + 3 * u1_t * reg.g + u1_t ** 2 * u2_t * reg.h
         + u1_t ** 2 * u2_t * reg.rho + reg.rho_t * u2_t ** 2 + reg.p_t + reg.g)
    patterns = {((u1_t, 1),), ((u1_t, 2), (u2_t, 1)), ((reg.rho_t, 1), (u2_t, 2)),
                ((reg.p_t, 1),)}
    products = {tuple(principal[a] ** k for a, k in pattern) for pattern in patterns}
    restrict_to_manifold(e, system)
    assert calls == Counter(dict.fromkeys(products, 1))
    assert set(system.products) == patterns
    calls.clear()
    restrict_to_manifold(e, system)
    assert not calls
    restrict_to_manifold(reg.rho_t * reg.g + reg.p_t + reg.rho_t * reg.p, system)
    assert calls == Counter({(principal[reg.rho_t],): 1})
    assert set(system.products) == patterns | {((reg.rho_t, 1),)}


# -- the declaration against sympy ---------------------------------------------


def random_polynomial(draw, atoms, max_terms):
    """Up to ``max_terms`` rational multiples of products of up to two of
    ``atoms``, each to the power 1 or 2."""
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        factors = [(draw(st.sampled_from(atoms)), draw(st.integers(1, 2)))
                   for _ in range(draw(st.integers(0, 2)))]
        terms.append((Monomial(factors),
                      draw(st.fractions(-5, 5, max_denominator=4).filter(bool))))
    return Expr(terms)


@st.composite
def declarations(draw):
    """(registry, declared, leads, residual) at N = 1-2: some of the class's
    principal jets, in a random order, each with an equation lead*jet + rest,
    lead 1 or rho and rest free of the declared jets; and a residual in
    those jets and the other atoms."""
    reg = SYSTEMS[draw(st.integers(1, 2))].registry
    jets = draw(st.permutations([reg.rho_t, *reg.u_t, reg.p_t]))
    jets = jets[:draw(st.integers(1, len(jets)))]
    others = ([reg.t, reg.p, reg.rho, reg.g, reg.h, *reg.x, *reg.u, *reg.p_x,
               *reg.rho_x, *reg.u_x.values(), *reg.pi.values()]
              + [a for a in (reg.rho_t, *reg.u_t, reg.p_t) if a not in jets])
    declared, leads = {}, {}
    for n, jet in enumerate(jets):
        lead = draw(st.sampled_from([ONE, Expr.of(reg.rho)]))
        if lead != ONE:
            leads[jet] = reg.rho
        declared[f"e{n}"] = (lead * jet + random_polynomial(draw, others, 3), jet)
    residual = random_polynomial(draw, [*jets, *others], 4)
    return reg, declared, leads, residual


@settings(derandomize=True, deadline=None, max_examples=40)
@given(declarations())
def test_declared_bindings_match_sympy(case):
    reg, declared, leads, residual = case
    system = BalanceSystem(reg, declared)
    assert list(system.equations) == list(declared)
    assert system.leads == leads
    assert system.parametric == tuple(sorted(
        a for a in reg.space[len(reg.point):] if a not in system.principal))
    solved = {}
    for name, (eq, jet) in declared.items():
        assert system.equations[name] is eq
        binding = system.principal[jet]
        assert not set(system.principal).intersection(atoms_of(binding))
        symbol = sympy.Symbol(jet.name)
        (solution,) = sympy.solve(plain(eq), symbol)
        lead = sympy.Symbol(leads[jet].name) if jet in leads else 1
        assert sympy.cancel(plain(binding) / lead - solution) == 0, name
        solved[symbol] = solution
        assert restrict_to_manifold(eq, system)[0] == ZERO, name

    got, power = restrict_to_manifold(residual, system)
    assert power == max((sum(k for a, k in mono if a in leads)
                         for mono, _ in residual.terms), default=0)
    want = plain(residual).xreplace(solved) * sympy.Symbol(reg.rho.name) ** power
    assert sympy.cancel(plain(got) - want) == 0
