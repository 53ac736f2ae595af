import math
import random
from fractions import Fraction

import pytest

from liequiv import flows
from liequiv.catalog import build_catalog, verified_entries
from liequiv.expr import Expr, evaluate
from liequiv.flows import (PARAM, SCALE, SCALE_INV, NoClosedFormError,
                           composition_is_additive, exponentiate,
                           has_closed_form, identity_at_zero, numeric_flow,
                           reduce_scale)
from liequiv.generators import prolong


def test_time_translation(spaces):
    reg = spaces[1].reg
    ft = exponentiate(reg, "X0")
    assert ft.image(reg.t) == reg.t + PARAM
    moved = dict(ft.images())
    assert set(moved) == {reg.t}


def test_boost_maps(spaces):
    reg = spaces[2].reg
    ft = exponentiate(reg, "Y1")
    assert ft.image(reg.x[0]) == reg.x[0] + PARAM * reg.t
    assert ft.image(reg.u[0]) == reg.u[0] + PARAM
    assert ft.image(reg.u_t[1]) == reg.u_t[1] - PARAM * reg.u_x[(2, 1)]
    assert ft.image(reg.p_t) == reg.p_t - PARAM * reg.p_x[0]
    assert ft.image(reg.u_x[(1, 1)]) == Expr.of(reg.u_x[(1, 1)])


def test_density_scaling_maps(spaces):
    reg = spaces[2].reg
    ft = exponentiate(reg, "Z2")
    e = Expr.of(SCALE)
    assert ft.image(reg.rho) == e * reg.rho
    assert ft.image(reg.p) == e * reg.p
    assert ft.image(reg.pi[(1, 2)]) == e * reg.pi[(1, 2)]
    assert ft.image(reg.pi_d[(1, 2, 2, 1)]) == e * reg.pi_d[(1, 2, 2, 1)]
    assert ft.image(reg.g) == e * reg.g
    assert ft.image(reg.h) == Expr.of(reg.h)
    assert ft.image(reg.u[0]) == Expr.of(reg.u[0])


def test_space_scaling_has_inverse_weights(spaces):
    reg = spaces[1].reg
    ft = exponentiate(reg, "Z1")
    assert ft.image(reg.rho_x[0]) == SCALE_INV * reg.rho_x[0]
    assert ft.image(reg.u_xx[(1, 1, 1)]) == SCALE_INV * reg.u_xx[(1, 1, 1)]
    assert ft.image(reg.p) == SCALE ** 2 * reg.p


def test_trace_shift_maps(spaces):
    reg = spaces[3].reg
    ft = exponentiate(reg, "T")
    for k in (1, 2, 3):
        assert ft.image(reg.pi[(k, k)]) == reg.pi[(k, k)] + PARAM
    assert ft.image(reg.pi[(1, 2)]) == Expr.of(reg.pi[(1, 2)])
    assert ft.image(reg.g) == reg.g - PARAM * reg.h
    assert ft.image(reg.pi_d[(1, 1, 1, 1)]) == Expr.of(reg.pi_d[(1, 1, 1, 1)])


def test_no_closed_form(spaces):
    reg = spaces[2].reg
    with pytest.raises(NoClosedFormError):
        exponentiate(reg, "J12_naive")
    with pytest.raises(NoClosedFormError):
        exponentiate(reg, "Q7")


def test_closed_form_names(spaces):
    reg = spaces[2].reg
    named = ["X0", "X1", "X2", "S", "Y1", "Y2", "T", "Z1", "Z2"]
    assert [n for n in named if not has_closed_form(reg, n)] == []
    unnamed = ["X3", "Y0", "Y3", "Z3", "X12", "x1", "X1\n", " S", "J12_naive", ""]
    assert [n for n in unnamed if has_closed_form(reg, n)] == []


def test_only_exponentiate_builds_a_recipe(spaces, monkeypatch):
    built = []
    original = flows._recipe

    def counting(*args):
        built.append(args[1:])
        return original(*args)

    monkeypatch.setattr(flows, "_recipe", counting)
    reg = spaces[3].reg
    build_catalog(3, reg)
    assert built == []
    numeric_flow(reg, "Y2")
    assert built == [("Y", 2)]


def test_identity_at_zero_and_composition(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        for entry in verified_entries(spaces[dim].catalog):
            ft = exponentiate(reg, entry.name)
            assert identity_at_zero(ft), entry.name
            assert composition_is_additive(ft), entry.name


def test_reduce_scale():
    e = Expr.of(SCALE) * SCALE_INV
    assert reduce_scale(e) == Expr.const(1)
    e = Expr.of(SCALE) ** 3 * SCALE_INV
    assert reduce_scale(e) == Expr.of(SCALE) ** 2


def test_with_parameter(spaces):
    reg = spaces[1].reg
    ft = exponentiate(reg, "X0", param=Fraction(3, 2))
    assert ft.image(reg.t) == reg.t + Fraction(3, 2)
    ft2 = exponentiate(reg, "Y1").with_parameter(2)
    assert ft2.image(reg.x[0]) == reg.x[0] + 2 * reg.t


def test_numeric_flow_exists_for_every_entry(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        for entry in spaces[dim].catalog:
            assert numeric_flow(reg, entry.name) is not None, entry.name
    assert numeric_flow(spaces[2].reg, "nope") is None


def test_numeric_rotation_is_a_rotation(spaces):
    reg = spaces[2].reg
    flow = numeric_flow(reg, "J12_naive")
    rnd = random.Random(1)
    point = {a: rnd.uniform(0.5, 1.5) for a in reg.space_atoms()}
    a = 0.3
    new = flow(point, a)
    # x rotates, norms preserved, stress components unchanged
    assert math.isclose(new[reg.x[0]] ** 2 + new[reg.x[1]] ** 2,
                        point[reg.x[0]] ** 2 + point[reg.x[1]] ** 2,
                        rel_tol=1e-12)
    assert new[reg.pi[(1, 1)]] == point[reg.pi[(1, 1)]]
    assert new[reg.t] == point[reg.t]


def _richardson(flow, point, atom, h=1e-4):
    fp, fm = flow(point, h), flow(point, -h)
    fp2, fm2 = flow(point, 2 * h), flow(point, -2 * h)
    return (fm2[atom] - 8 * fm[atom] + 8 * fp[atom] - fp2[atom]) / (12 * h)


def test_flow_derivative_matches_prolongation(spaces):
    # spot check here; the full sweep runs in the acceptance suite
    reg = spaces[2].reg
    rnd = random.Random(23)
    for name in ("Z1", "T", "J12_tensorial"):
        from liequiv.catalog import find_entry
        entry = find_entry(spaces[2].catalog, name)
        pg = prolong(reg, entry.spec)
        flow = numeric_flow(reg, name)
        point = {a: rnd.uniform(0.6, 1.6) for a in reg.space_atoms()}
        for atom, coeff in pg.coefficients().items():
            want = float(evaluate(coeff, point))
            got = _richardson(flow, point, atom)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (name, atom)
