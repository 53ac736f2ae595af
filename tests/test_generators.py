import random
from fractions import Fraction
from itertools import combinations

import pytest

from liequiv.catalog import find_entry
from liequiv.dsl import parse_generator, print_generator
from liequiv.expr import Expr, UnknownSymbolError, diff_atom, is_zero
from liequiv.generators import (AnsatzError, apply_with_trace, bracket,
                                base_coefficients, combine, make_generator,
                                prolong)
from liequiv.jets import total_derivative


def _spec(spaces, dim, name):
    return find_entry(spaces[dim].catalog, name).spec


def test_ansatz_rejects_forbidden_atoms(spaces):
    reg = spaces[1].reg
    with pytest.raises(AnsatzError) as err:
        make_generator(reg, xi_t=Expr.of(reg.pi[(1, 1)]))
    assert "Pi11" in str(err.value)
    with pytest.raises(AnsatzError):
        make_generator(reg, mu_g=Expr.of(reg.x[0]))
    with pytest.raises(AnsatzError):
        make_generator(reg, mu_pi=(Expr.of(reg.t),))
    # gradient jets are allowed inside mu_pi
    make_generator(reg, mu_pi=(Expr.of(reg.u_x[(1, 1)]),))


def test_prolong_translation_has_zero_jets(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        pg = prolong(reg, _spec(spaces, dim, "X0"))
        assert all(is_zero(v) for v in pg.zeta1.values())
        assert all(is_zero(v) for v in pg.zeta2.values())
        assert all(is_zero(v) for v in pg.mu_d.values())


def test_prolong_boost(spaces):
    reg = spaces[2].reg
    pg = prolong(reg, _spec(spaces, 2, "Y1"))
    for k in (1, 2):
        for l in (1, 2):
            assert is_zero(pg.zeta1[reg.u_x[(k, l)]])
        assert pg.zeta1[reg.u_t[k - 1]] == -Expr.of(reg.u_x[(k, 1)])


def test_prolong_scaling_leaves_gradient_invariant(spaces):
    reg = spaces[2].reg
    pg = prolong(reg, _spec(spaces, 2, "Z1"))
    for k in (1, 2):
        for l in (1, 2):
            assert is_zero(pg.zeta1[reg.u_x[(k, l)]])
    # weight-2 action on the stress-derivative coordinates
    for key, atom in reg.pi_d.items():
        assert pg.mu_d[atom] == 2 * Expr.of(atom)


def test_prolong_is_linear(spaces):
    reg = spaces[2].reg
    rnd = random.Random(3)
    names = ["X0", "Y1", "Z1", "Z2", "T", "J12_tensorial"]
    for _ in range(10):
        n1, n2 = rnd.sample(names, 2)
        c1 = Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
        c2 = Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
        g1, g2 = _spec(spaces, 2, n1), _spec(spaces, 2, n2)
        mixed = prolong(reg, combine(reg, [(c1, g1), (c2, g2)]))
        p1, p2 = prolong(reg, g1), prolong(reg, g2)
        for atom, coeff in mixed.coefficients().items():
            want = c1 * p1.coefficient(atom) + c2 * p2.coefficient(atom)
            assert coeff == want, atom


def test_second_prolongation_is_symmetric_in_the_pair(spaces):
    # computing zeta2 through x_l after x_j must agree with x_j after x_l
    reg = spaces[2].reg
    for name in ("Y1", "Z1", "J12_naive"):
        g = _spec(spaces, 2, name)
        pg = prolong(reg, g)
        dirs = (reg.t,) + reg.x
        xis = (g.xi_t,) + g.xi_x
        for k in (1, 2):
            alt = pg.zeta1[reg.u_x[(k, 2)]]
            val = total_derivative(alt, reg.x[0], reg)
            for v, xi in zip(dirs, xis):
                d = total_derivative(xi, reg.x[0], reg)
                if not is_zero(d):
                    val = val - d * reg.advance(reg.u_x[(k, 2)], v)
            assert val == pg.zeta2[reg.u_xx[(k, 1, 2)]]


def test_apply_autonomous_translation(spaces):
    reg = spaces[1].reg
    system = spaces[1].system
    pg = prolong(reg, _spec(spaces, 1, "X0"))
    assert is_zero(apply_with_trace(reg, pg, system.mass)[0])


def test_apply_pressure_shift_on_momentum(spaces):
    reg = spaces[2].reg
    system = spaces[2].system
    pg = prolong(reg, _spec(spaces, 2, "S"))
    for eq in system.momentum:
        assert is_zero(apply_with_trace(reg, pg, eq)[0])


def test_trace_shift_cancellation(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        system = spaces[dim].system
        pg = prolong(reg, _spec(spaces, dim, "T"))
        total, trace = apply_with_trace(reg, pg, system.pressure)
        assert is_zero(total)
        contributions = dict((a.name, term) for a, term in trace)
        divu = sum((Expr.of(reg.u_x[(i, i)]) for i in range(1, dim + 1)), Expr())
        assert contributions["G"] == -Expr.of(reg.h) * divu
        stress_part = sum(
            (term for name, term in contributions.items() if name != "G"),
            Expr())
        assert stress_part == Expr.of(reg.h) * divu


def test_apply_rejects_unreachable_coordinates(spaces):
    reg = spaces[1].reg
    pg = prolong(reg, _spec(spaces, 1, "X0"))
    with pytest.raises(UnknownSymbolError):
        apply_with_trace(reg, pg, Expr.of(reg.u_tx[(1, 1)]))[0]


def test_bracket_examples(spaces):
    reg = spaces[2].reg
    x0 = _spec(spaces, 2, "X0")
    x1 = _spec(spaces, 2, "X1")
    y1 = _spec(spaces, 2, "Y1")
    z1 = _spec(spaces, 2, "Z1")
    assert bracket(reg, x0, x1) == make_generator(reg)
    assert bracket(reg, x0, y1) == x1
    assert bracket(reg, z1, y1) == combine(reg, [(-1, y1)])


def test_bracket_with_gradient_dependent_stress_coefficient(spaces):
    # mu^Pi11 = u1_x1*Pi11 reaches the first-prolongation coefficient of u1_x1
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        mu = parse_generator(reg, "u1_x1*Pi11*d/dPi11")
        dilation = parse_generator(reg, "x1*d/dx1")
        boost = parse_generator(reg, "t*d/dx1 + d/du1")
        assert print_generator(reg, bracket(reg, dilation, mu)) == "-Pi11*u1_x1*d/dPi11"
        assert print_generator(reg, bracket(reg, boost, mu)) == "0"


def test_bracket_matches_commutator_of_full_prolongations(spaces):
    reg = spaces[2].reg
    tables = [(e.spec, prolong(reg, e.spec).coefficients())
              for e in spaces[2].catalog]
    for (g1, t1), (g2, t2) in combinations(tables, 2):
        want = {}
        for a in base_coefficients(reg, g1):
            want[a] = sum(
                (t1[b] * diff_atom(t2[a], b) - t2[b] * diff_atom(t1[a], b)
                 for b in t1), Expr())
        assert base_coefficients(reg, bracket(reg, g1, g2)) == want


def test_bracket_antisymmetry_and_jacobi(spaces):
    # all catalog pairs and triples for dims 1 and 2; dim 3 sampled below
    for dim in (1, 2):
        reg = spaces[dim].reg
        specs = [e.spec for e in spaces[dim].catalog]
        for g1, g2 in combinations(specs, 2):
            assert bracket(reg, g1, g2) == combine(
                reg, [(-1, bracket(reg, g2, g1))])
        for a, b, c in combinations(specs, 3):
            total = combine(reg, [
                (1, bracket(reg, bracket(reg, a, b), c)),
                (1, bracket(reg, bracket(reg, b, c), a)),
                (1, bracket(reg, bracket(reg, c, a), b)),
            ])
            assert total == make_generator(reg)


def test_bracket_jacobi_dim3_sampled(spaces):
    reg = spaces[3].reg
    specs = [e.spec for e in spaces[3].catalog]
    rnd = random.Random(3)
    triples = list(combinations(range(len(specs)), 3))
    rnd.shuffle(triples)
    for idx in triples[:40]:
        a, b, c = (specs[i] for i in idx)
        total = combine(reg, [
            (1, bracket(reg, bracket(reg, a, b), c)),
            (1, bracket(reg, bracket(reg, b, c), a)),
            (1, bracket(reg, bracket(reg, c, a), b)),
        ])
        assert total == make_generator(reg)


def test_base_coefficients_cover_all_directions(spaces):
    reg = spaces[2].reg
    table = base_coefficients(reg, _spec(spaces, 2, "Z2"))
    assert table[reg.rho] == Expr.of(reg.rho)
    assert table[reg.g] == Expr.of(reg.g)
    assert table[reg.h] == Expr()
    assert len(table) == 1 + 2 * reg.dim + 2 + len(reg.pi_pairs()) + 2
