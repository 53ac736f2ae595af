import pytest

from liequiv.expr import (Expr, Monomial, atoms_of, is_zero, replace_atoms)
from liequiv.jets import build_registry
from liequiv.system import build_system, restrict_to_manifold


def test_dim1_equations(spaces):
    reg = spaces[1].reg
    system = spaces[1].system
    assert system.mass == (reg.rho_t + reg.u[0] * reg.rho_x[0]
                           + reg.rho * reg.u_x[(1, 1)])
    assert system.momentum[0] == (reg.rho * reg.u_t[0]
                                  + reg.rho * reg.u[0] * reg.u_x[(1, 1)]
                                  - reg.pi_d[(1, 1, 1, 1)] * reg.u_xx[(1, 1, 1)]
                                  + reg.p_x[0])
    assert system.pressure == (reg.p_t + reg.u[0] * reg.p_x[0]
                               + reg.g * reg.u_x[(1, 1)]
                               + reg.h * reg.pi[(1, 1)] * reg.u_x[(1, 1)])


def test_dim2_dissipation(spaces):
    reg = spaces[2].reg
    phi = spaces[2].system.dissipation
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
        pm = spaces[dim].system.principal
        principal = {reg.rho_t, reg.p_t} | set(reg.u_t)
        for e in (pm.rho_t, pm.p_t) + pm.u_t_num:
            assert not principal.intersection(atoms_of(e))


def test_principal_dim1_rho_t(spaces):
    reg = spaces[1].reg
    pm = spaces[1].system.principal
    assert pm.rho_t == -(reg.u[0] * reg.rho_x[0] + reg.rho * reg.u_x[(1, 1)])


def test_principal_dim2_pressure_binding_has_shear_term(spaces):
    reg = spaces[2].reg
    pm = spaces[2].system.principal
    # expansion of -H*Phi contributes -H*Pi12*(u1_x2 + u2_x1)
    terms = dict(pm.p_t.terms)
    m1 = Monomial(((reg.h, 1), (reg.pi[(1, 2)], 1), (reg.u_x[(1, 2)], 1)))
    m2 = Monomial(((reg.h, 1), (reg.pi[(1, 2)], 1), (reg.u_x[(2, 1)], 1)))
    assert terms[m1] == -1
    assert terms[m2] == -1


def test_equations_vanish_on_manifold(spaces):
    for dim in (1, 2, 3):
        system = spaces[dim].system
        for name, eq in system.equations():
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
    pm = system.principal
    got, power = restrict_to_manifold(Expr.of(reg.u_t[0]), system)
    assert power == 1
    assert got == pm.u_t_num[0]
    # quadratic occurrence needs the square of the numerator
    got2, power2 = restrict_to_manifold(Expr.of(reg.u_t[0]) ** 2, system)
    assert power2 == 2
    assert got2 == pm.u_t_num[0] ** 2


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
             for a in reg.space_atoms()}
    point[reg.rho_t] = evaluate(system.principal.rho_t, point)
    assert evaluate(system.mass, point) == 0


def test_equations_linear_in_second_jets(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        second = set(reg.u_xx.values())
        for _, eq in spaces[dim].system.equations():
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
        table[atom] = reg.pi_d_at(sw(a), sw(b), sw(k), sw(l))
    return {key: Expr.of(val) for key, val in table.items() if key != val}


@pytest.mark.parametrize("dim", [2, 3])
def test_momentum_components_swap(spaces, dim):
    reg = spaces[dim].reg
    system = spaces[dim].system
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            table = _axis_swap_map(reg, i, j)
            swapped = replace_atoms(system.momentum[i - 1], table)
            assert swapped == system.momentum[j - 1]
            assert replace_atoms(system.mass, table) == system.mass
            assert replace_atoms(system.pressure, table) == system.pressure
