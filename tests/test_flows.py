import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liequiv import flows
from liequiv.catalog import (build_catalog, find_entry, rotation_specs,
                             verified_entries)
from liequiv.cli import main
from liequiv.determining import finite_check
from liequiv.expr import (ONE, ZERO, Expr, UnsupportedFormError, atoms_of,
                          coordinate, evaluate, replace_atoms)
from liequiv.flows import (PARAM, SCALE, SCALE_INV, FiniteTransformation,
                           NoClosedFormError, exponentiate, numeric_flow,
                           reduce_scale, scale_power)
from liequiv.generators import combine, make_generator, prolong


def _flow(spaces, dim, name, param=None):
    reg = spaces[dim].reg
    spec = find_entry(spaces[dim].catalog, name).spec
    return exponentiate(reg, prolong(reg, spec), param)


def _dilation(reg):
    """D = t*d/dt + sum_i x_i*d/dx_i, outside the catalog."""
    return make_generator(reg, xi_t=Expr.of(reg.t),
                          xi_x=tuple(Expr.of(a) for a in reg.x))


def reference_images(reg, name):
    """Hand-derived coordinate -> image table of a verified family, written
    out family by family; the oracle for the flows derived from the
    prolonged field.  Unlisted coordinates are fixed."""
    rng = range(1, reg.dim + 1)
    a = Expr.of(PARAM)
    family, index = name[0], name[1:]
    if name == "S":
        return {reg.p: reg.p + a}
    if family == "X":
        c = reg.independents[int(index)]
        return {c: c + a}
    if family == "Y":
        i = int(index)
        out = {reg.x[i - 1]: reg.x[i - 1] + a * reg.t,
               reg.u[i - 1]: reg.u[i - 1] + a,
               reg.p_t: reg.p_t - a * reg.p_x[i - 1],
               reg.rho_t: reg.rho_t - a * reg.rho_x[i - 1]}
        for k in rng:
            out[reg.u_t[k - 1]] = reg.u_t[k - 1] - a * reg.u_x[(k, i)]
            for l in rng:
                pair = (min(i, l), max(i, l))
                out[reg.u_tx[(k, l)]] = (reg.u_tx[(k, l)]
                                         - a * reg.u_xx[(k,) + pair])
        return out
    if name == "T":
        out = {reg.pi[(k, k)]: reg.pi[(k, k)] + a for k in rng}
        out[reg.g] = reg.g - a * reg.h
        return out
    if name == "Z1":
        weights = {reg.p: 2, reg.p_t: 2, reg.g: 2}
        for i in rng:
            for c in (reg.x[i - 1], reg.u[i - 1], reg.u_t[i - 1],
                      reg.p_x[i - 1]):
                weights[c] = 1
            weights[reg.rho_x[i - 1]] = -1
        weights.update((c, -1) for c in reg.u_xx.values())
        weights.update((c, 2) for c in reg.pi.values())
        weights.update((c, 2) for c in reg.pi_d.values())
    else:
        assert name == "Z2"
        weights = {c: 1 for c in (reg.rho, reg.p, reg.p_t, reg.rho_t, reg.g)}
        weights.update((c, 1) for c in reg.p_x + reg.rho_x)
        weights.update((c, 1) for c in reg.pi.values())
        weights.update((c, 1) for c in reg.pi_d.values())
    return {c: scale_power(k) * c for c, k in weights.items()}


def test_exponentiate_matches_reference_tables(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        for entry in verified_entries(spaces[dim].catalog):
            ft = exponentiate(reg, prolong(reg, entry.spec))
            want = reference_images(reg, entry.name)
            for c in reg.space:
                assert ft.image(c) == want.get(c, Expr.of(c)), (entry.name, c)
            assert ft.images == want, entry.name


def test_time_translation(spaces):
    reg = spaces[1].reg
    ft = _flow(spaces, 1, "X0")
    assert ft.image(reg.t) == reg.t + PARAM
    moved = ft.images
    assert set(moved) == {reg.t}


def test_boost_maps(spaces):
    reg = spaces[2].reg
    ft = _flow(spaces, 2, "Y1")
    assert ft.image(reg.x[0]) == reg.x[0] + PARAM * reg.t
    assert ft.image(reg.u[0]) == reg.u[0] + PARAM
    assert ft.image(reg.u_t[1]) == reg.u_t[1] - PARAM * reg.u_x[(2, 1)]
    assert ft.image(reg.p_t) == reg.p_t - PARAM * reg.p_x[0]
    assert ft.image(reg.u_x[(1, 1)]) == Expr.of(reg.u_x[(1, 1)])
    assert ft.image(reg.u_tx[(2, 2)]) == (reg.u_tx[(2, 2)]
                                          - PARAM * reg.u_xx[(2, 1, 2)])


def test_density_scaling_maps(spaces):
    reg = spaces[2].reg
    ft = _flow(spaces, 2, "Z2")
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
    ft = _flow(spaces, 1, "Z1")
    assert ft.image(reg.rho_x[0]) == SCALE_INV * reg.rho_x[0]
    assert ft.image(reg.u_xx[(1, 1, 1)]) == SCALE_INV * reg.u_xx[(1, 1, 1)]
    assert ft.image(reg.p) == SCALE ** 2 * reg.p


def test_trace_shift_maps(spaces):
    reg = spaces[3].reg
    ft = _flow(spaces, 3, "T")
    for k in (1, 2, 3):
        assert ft.image(reg.pi[(k, k)]) == reg.pi[(k, k)] + PARAM
    assert ft.image(reg.pi[(1, 2)]) == Expr.of(reg.pi[(1, 2)])
    assert ft.image(reg.g) == reg.g - PARAM * reg.h
    assert ft.image(reg.pi_d[(1, 1, 1, 1)]) == Expr.of(reg.pi_d[(1, 1, 1, 1)])


def test_dilation_flow(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        ft = exponentiate(reg, prolong(reg, _dilation(reg)))
        assert ft.image(reg.t) == SCALE * reg.t
        assert ft.image(reg.u_t[0]) == SCALE_INV * reg.u_t[0]
        assert ft.image(reg.u_tx[(1, 1)]) == SCALE_INV ** 2 * reg.u_tx[(1, 1)]
        assert ft.image(reg.pi_d[(1, 1, 1, 1)]) == SCALE * reg.pi_d[(1, 1, 1, 1)]
        fc = finite_check(spaces[dim].system, ft)
        assert fc.passed
        assert all(f.factor == (1, -1) for f in fc.factors)


def test_no_closed_form(spaces):
    reg = spaces[2].reg
    rotation = find_entry(spaces[2].catalog, "J12_naive").spec
    with pytest.raises(NoClosedFormError, match="Lie series of x1 does not end"):
        exponentiate(reg, prolong(reg, rotation))
    # u_tx has no action once xi^t depends on x
    with pytest.raises(NoClosedFormError, match="gives u1_tx1 no action"):
        exponentiate(reg, prolong(reg, make_generator(reg, xi_t=Expr.of(reg.x[0]))))
    with pytest.raises(NoClosedFormError, match="affine"):
        exponentiate(reg, prolong(
            reg, make_generator(reg, xi_x=(reg.x[0] * reg.x[0], 0))))
    # weights must be integers: exp(a/2) is outside the carrier
    half = combine(reg, [(Fraction(1, 2), find_entry(spaces[2].catalog, "Z2").spec)])
    with pytest.raises(NoClosedFormError, match="Lie series of p does not end"):
        exponentiate(reg, prolong(reg, half))


def test_closed_form_names(capsys):
    named = ["X0", "X1", "X2", "S", "Y1", "Y2", "T", "Z1", "Z2"]
    for n in named:
        assert main(["transform", "--dim", "2", "--gen", n]) == 0, n
    capsys.readouterr()
    unnamed = ["X3", "Y0", "Y3", "Z3", "X12", "x1", "X1\n", " S", ""]
    for n in unnamed:
        assert main(["transform", "--dim", "2", "--gen", n]) == 2, n
        assert "unknown generator selector" in capsys.readouterr().err, n
    assert main(["transform", "--dim", "2", "--gen", "J12_naive"]) == 2
    assert "Lie series of x1" in capsys.readouterr().err
    assert main(["transform", "--dim", "2", "--gen", "all-theorem"]) == 2
    assert "exactly one generator" in capsys.readouterr().err


def test_transform_takes_any_selector(capsys, tmp_path):
    for dim in (1, 2, 3):
        dsl = " + ".join(["t*d/dt"] + [f"x{i}*d/dx{i}" for i in range(1, dim + 1)])
        path = tmp_path / f"dilation{dim}.dsl"
        path.write_text(f"D = {dsl}\n", encoding="utf-8")
        outs = []
        for sel in (dsl, f"@{path}"):
            assert main(["transform", "--dim", str(dim), "--gen", sel]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].replace(dsl, f"@{path}") == outs[1]
        factors = [line for line in outs[0].splitlines() if ": factor " in line]
        assert len(factors) == dim + 2
        assert all(line.endswith(": factor exp(-a)") for line in factors)
    path = tmp_path / "two.dsl"
    path.write_text("d/dt\nd/dp\n", encoding="utf-8")
    assert main(["transform", "--dim", "1", "--gen", f"@{path}"]) == 2
    assert "exactly one generator, got 2" in capsys.readouterr().err


def test_non_affine_series_fails_fast(capsys):
    gen = ("x1*u1*d/dx1 + x2*u3*d/du1 + x1*x3*d/dx2 + u2*u1*d/dx3 "
           "+ x1*d/du3")
    t0 = time.monotonic()
    code = main(["transform", "--dim", "3", "--gen", gen])
    elapsed = time.monotonic() - t0
    err = capsys.readouterr().err
    assert code == 2
    assert "no closed-form flow" in err
    assert elapsed < 1.0


def test_build_catalog_prolongs_nothing(spaces, monkeypatch):
    prolonged = []
    original = flows.prolong

    def counting(reg, g):
        prolonged.append(g)
        return original(reg, g)

    monkeypatch.setattr(flows, "prolong", counting)
    reg = spaces[3].reg
    catalog = build_catalog(3, reg)
    assert prolonged == []
    y2 = find_entry(catalog, "Y2").spec
    numeric_flow(reg, y2)
    assert prolonged == [y2]


def identity_at_zero(reg, ft: FiniteTransformation) -> bool:
    at0 = {PARAM: ZERO, SCALE: ONE, SCALE_INV: ONE}
    for a in reg.space:
        img = replace_atoms(ft.image(a), at0)
        if img != Expr.of(a):
            return False
    return True


def composition_is_additive(reg, ft: FiniteTransformation) -> bool:
    """Symbolic check of flow(a1) followed by flow(a2) == flow(a1 + a2).

    Scaled coordinates compose through exp(a1)^d exp(a2)^d = exp(a1+a2)^d by
    construction (no coordinate carries both scale and shift), so the content
    of the check is the shift identity
    shift(a1) + shift(a2)[coords -> flow_a1(coords)] == shift(a1 + a2),
    each shift read as image - c from an image free of the scale atoms.
    """
    a1 = coordinate("a:first")
    a2 = coordinate("a:second")
    for c, img in ft.images.items():
        if {SCALE, SCALE_INV}.intersection(atoms_of(img)):
            continue
        sh = img - c
        first = replace_atoms(sh, {PARAM: Expr.of(a1)})
        second = replace_atoms(sh, {PARAM: Expr.of(a2)})
        moved = {z: replace_atoms(ft.image(z), {PARAM: Expr.of(a1)})
                 for z in atoms_of(second) if z.name in reg.by_name}
        second = replace_atoms(second, moved)
        combined = replace_atoms(sh, {PARAM: Expr.of(a1) + a2})
        if reduce_scale(first + second) != reduce_scale(combined):
            return False
    return True


def test_identity_at_zero_and_composition(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        for entry in verified_entries(spaces[dim].catalog):
            ft = exponentiate(reg, prolong(reg, entry.spec))
            assert identity_at_zero(reg, ft), entry.name
            assert composition_is_additive(reg, ft), entry.name


@st.composite
def algebra_elements(draw):
    """(dim, [(coefficient, name), ...]): a rational combination of the
    translations, boosts, S and T, or an integer combination of Z1, Z2 and
    the dilation D."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        rng = range(1, dim + 1)
        pool = (["X0", "S", "T"] + [f"X{i}" for i in rng]
                + [f"Y{i}" for i in rng])
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        pool = ["Z1", "Z2", "D"]
        coeff = st.integers(-2, 2)
    picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                           unique=True))
    return dim, [(draw(coeff), name) for name in picked]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(algebra_elements())
def test_combinations_have_flows_that_preserve_the_system(spaces, element):
    dim, parts = element
    reg = spaces[dim].reg
    g = combine(reg, [
        (c, _dilation(reg) if name == "D"
         else find_entry(spaces[dim].catalog, name).spec)
        for c, name in parts])
    ft = exponentiate(reg, prolong(reg, g))
    assert identity_at_zero(reg, ft)
    assert composition_is_additive(reg, ft)
    assert finite_check(spaces[dim].system, ft).passed


def test_reduce_scale():
    e = Expr.of(SCALE) * SCALE_INV
    assert reduce_scale(e) == Expr.const(1)
    e = Expr.of(SCALE) ** 3 * SCALE_INV
    assert reduce_scale(e) == Expr.of(SCALE) ** 2
    # no monomial holds both scale atoms: the input comes back
    p = coordinate("p")
    e = SCALE * p + SCALE_INV ** 2 + p
    assert reduce_scale(e) is e
    assert reduce_scale(e + SCALE * SCALE_INV * p) == e + p


def test_transform_returns_an_equation_it_does_not_move(spaces):
    """A space translation moves no atom of the system's equations: the
    pullback is the equation itself."""
    system = spaces[3].system
    ft = _flow(spaces, 3, "X1")
    for _, eq in system.equations():
        assert ft.transform(eq) is eq


def test_with_parameter(spaces):
    reg = spaces[1].reg
    ft = _flow(spaces, 1, "X0", param=Fraction(3, 2))
    assert ft.image(reg.t) == reg.t + Fraction(3, 2)
    assert _flow(spaces, 1, "Y1", param=0).images == {}
    # the parameter is bound inside the series: each shifted image is the
    # unbound one at a = param, scaled images keep their symbolic factor, and
    # an image that becomes the identity is left out
    for dim in (1, 2, 3):
        for entry in verified_entries(spaces[dim].catalog):
            unbound = _flow(spaces, dim, entry.name)
            for param in (0, Fraction(3, 2), -2):
                bound = _flow(spaces, dim, entry.name, param).images
                want = {}
                for c, img in unbound.images.items():
                    if {SCALE, SCALE_INV}.intersection(atoms_of(img)):
                        want[c] = img
                        continue
                    at = replace_atoms(img, {PARAM: Expr.const(param)})
                    if at != Expr.of(c):
                        want[c] = at
                assert bound == want, (dim, entry.name, param)
                assert list(bound) == [c for c in unbound.images
                                       if c in bound]


def test_parameter_is_an_int_or_a_fraction(spaces):
    reg = spaces[1].reg
    pg = prolong(reg, find_entry(spaces[1].catalog, "X0").spec)
    assert exponentiate(reg, pg, 2).image(reg.t) == reg.t + 2
    # a float would enter as the binary fraction nearest to it
    with pytest.raises(UnsupportedFormError):
        exponentiate(reg, pg, 0.1)


def test_numeric_flow_exists_for_every_entry(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        for entry in spaces[dim].catalog:
            assert numeric_flow(reg, entry.spec) is not None, entry.name
        assert numeric_flow(reg, _dilation(reg)) is not None
    reg = spaces[2].reg
    assert numeric_flow(reg, make_generator(reg, xi_t=Expr.of(reg.x[0]))) is None


def test_numeric_rotation_is_a_rotation(spaces):
    reg = spaces[2].reg
    flow = numeric_flow(reg, find_entry(spaces[2].catalog, "J12_naive").spec)
    rnd = random.Random(1)
    point = {a: rnd.uniform(0.5, 1.5) for a in reg.space}
    a = 0.3
    new = flow(point, a)
    # x rotates, norms preserved, stress components unchanged
    assert math.isclose(new[reg.x[0]] ** 2 + new[reg.x[1]] ** 2,
                        point[reg.x[0]] ** 2 + point[reg.x[1]] ** 2,
                        rel_tol=1e-12)
    assert new[reg.pi[(1, 1)]] == point[reg.pi[(1, 1)]]
    assert new[reg.t] == point[reg.t]


@pytest.mark.parametrize("dim", [2, 3])
def test_rotation_flows_turn_the_equations_as_tensors(spaces, dim):
    """At random points the tensorial rotation keeps the values of mass and
    pressure and turns the momentum residuals by R; the naive one, which
    leaves Pi fixed, changes pressure and momentum."""
    reg, system = spaces[dim].reg, spaces[dim].system
    rnd = random.Random(dim)
    close = dict(rel_tol=1e-9, abs_tol=1e-9)
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            naive, tensorial = rotation_specs(reg, i, j)
            for _ in range(3):
                point = {c: rnd.uniform(0.5, 1.5) for c in reg.space}
                a = rnd.uniform(0.2, 1.2)
                rot = [[float(r == c) for c in range(dim)] for r in range(dim)]
                rot[i - 1][i - 1] = rot[j - 1][j - 1] = math.cos(a)
                rot[i - 1][j - 1], rot[j - 1][i - 1] = -math.sin(a), math.sin(a)
                old = [evaluate(e, point) for e in system.momentum]
                turned = [sum(r * v for r, v in zip(row, old)) for row in rot]

                new = numeric_flow(reg, tensorial)(point, a)
                for eq in (system.mass, system.pressure):
                    assert math.isclose(evaluate(eq, new), evaluate(eq, point),
                                        **close)
                for got, want in zip((evaluate(e, new) for e in system.momentum),
                                     turned):
                    assert math.isclose(got, want, **close)

                new = numeric_flow(reg, naive)(point, a)
                assert not math.isclose(evaluate(system.pressure, new),
                                        evaluate(system.pressure, point), **close)
                assert not all(
                    math.isclose(evaluate(e, new), want, **close)
                    for e, want in zip(system.momentum, turned))


def _richardson(flow, point, atom, h=1e-4):
    fp, fm = flow(point, h), flow(point, -h)
    fp2, fm2 = flow(point, 2 * h), flow(point, -2 * h)
    return (fm2[atom] - 8 * fm[atom] + 8 * fp[atom] - fp2[atom]) / (12 * h)


def test_flow_derivative_matches_prolongation(spaces):
    # spot check here; the full sweep runs in the acceptance suite
    rnd = random.Random(23)
    cases = [(2, find_entry(spaces[2].catalog, name).spec)
             for name in ("Z1", "T", "J12_tensorial")]
    cases += [(dim, _dilation(spaces[dim].reg)) for dim in (1, 2, 3)]
    for dim, spec in cases:
        reg = spaces[dim].reg
        pg = prolong(reg, spec)
        flow = numeric_flow(reg, spec)
        point = {a: rnd.uniform(0.6, 1.6) for a in reg.space}
        for atom, coeff in pg.items():
            want = float(evaluate(coeff, point))
            got = _richardson(flow, point, atom)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (dim, atom)
