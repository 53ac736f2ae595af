import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liequiv import determining as determining_module
from liequiv.catalog import KIND_USER, CatalogEntry, find_entry
from liequiv.catalog import verified_entries
from liequiv.determining import (FiniteCheckResult, FiniteFactor, check_entry,
                                 determining_equations, finite_check,
                                 solve_unknowns)
from liequiv.dsl import parse_generator
from liequiv.expr import (ZERO, Expr, atoms_of, collect, evaluate, is_unknown,
                          substitute, unknown)
from liequiv.flows import SCALE, FiniteTransformation, exponentiate
from liequiv.generators import apply, bracket, combine, make_generator, prolong
from liequiv.linsolve import solve_linear
from liequiv.report import verdict_payload
from liequiv.system import restrict_to_manifold

from conftest import degree1_ansatz


def witness_is_sound(verdict, seed=7, draws=5):
    """Every witness coefficient (the first term of a nonzero split)
    evaluates to a nonzero rational at one of ``draws`` seeded random
    rational points."""
    rng = random.Random(seed)
    for split in verdict.equations:
        if not split.terms:
            continue
        coeff = split.terms[0][1]
        hit = False
        for _ in range(draws):
            point = {a: Fraction(rng.randint(1, 19), rng.randint(1, 7))
                     for a in atoms_of(coeff)}
            if evaluate(coeff, point) != 0:
                hit = True
                break
        if not hit:
            return False
    return True


def test_zero_generator_gives_empty_system(spaces):
    system = spaces[1].system
    d = determining_equations(system, make_generator(spaces[1].reg), "zero")
    assert all(not s.terms for s in d.splits)


def test_verify_translations_all_dims(spaces):
    for dim in (1, 2, 3):
        entry = find_entry(spaces[dim].catalog, "X0")
        v = check_entry(spaces[dim].system, CatalogEntry("X0", KIND_USER, entry.spec))
        assert v.zero


def test_verify_density_scaling(spaces):
    for dim in (1, 2):
        entry = find_entry(spaces[dim].catalog, "Z2")
        assert check_entry(spaces[dim].system,
                           CatalogEntry("Z2", KIND_USER, entry.spec)).zero


def test_verify_trace_shift_dim3(spaces):
    entry = find_entry(spaces[3].catalog, "T")
    assert check_entry(spaces[3].system, CatalogEntry("T", KIND_USER, entry.spec)).zero


def test_naive_rotation_fails_with_stress_witness(spaces):
    system = spaces[2].system
    entry = find_entry(spaces[2].catalog, "J12_naive")
    v = check_entry(system, CatalogEntry(entry.name, KIND_USER, entry.spec))
    assert not v.zero
    momentum = [s for s in v.equations if s.equation.startswith("momentum")]
    bad = [s for s in momentum if s.terms]
    assert bad and all("Pi" in str(s.terms[0][0]) for s in bad)
    assert witness_is_sound(v)
    # hand check of the first momentum_1 witness term: the second-jet
    # coefficient zeta^{u1}_{x1x1} = -u2_x1x1 - 2*u1_x1x2 hits
    # -Pi11_d_u1x1, giving +2; the induced stress-derivative coefficient
    # on Pi11_d_u1x2 contributes -Pi11_d_u1x1*u1_x1x2; net +1, times the
    # rho clearing of the momentum equation.
    first = bad[0]
    assert first.equation == "momentum_1"
    mono, coeff = first.terms[0]
    assert str(mono) == "Pi11_d_u1x1*u1_x1x2"
    assert coeff == Expr.of(system.registry.rho)


def recompose(split) -> Expr:
    """Sum of monomial * coefficient; equals the restricted residual."""
    total = ZERO
    for mono, coeff in split.terms:
        total = total + Expr(((mono, 1),)) * coeff
    return total


def test_determining_system_reconstructs_residual(spaces):
    for name in ("Z1", "J12_naive", "Y2"):
        reg = spaces[2].reg
        system = spaces[2].system
        entry = find_entry(spaces[2].catalog, name)
        d = determining_equations(system, entry.spec, name)
        pg = prolong(reg, entry.spec)
        for split, eq in zip(d.splits, system.equations.values()):
            residual = apply(pg, eq)
            restricted, power = restrict_to_manifold(residual, system)
            assert split.rho_power == power
            assert recompose(split) == restricted


def hand_written_parametric(reg):
    """The split set written out family by family: the reference for the
    one derived from the registry and the system's principal table."""
    atoms = list(reg.u_xx.values()) + list(reg.u_tx.values())
    atoms += list(reg.u_x.values())
    atoms += list(reg.p_x) + list(reg.rho_x)
    atoms += list(reg.pi.values()) + list(reg.pi_d.values())
    atoms += [reg.g, reg.h]
    return tuple(sorted(atoms))


def test_parametric_set_follows_the_registry(spaces):
    for dim in (1, 2, 3):
        system = spaces[dim].system
        assert system.parametric == hand_written_parametric(spaces[dim].reg)
        entry = find_entry(spaces[dim].catalog, "T")
        d = determining_equations(system, entry.spec, entry.name)
        assert d.parametric is system.parametric


def assert_coefficients_on_base(reg, d):
    """Every split coefficient lives on t, x, u, p, rho and ?constants: the
    parametric coordinates, u_tx among them, are all split off."""
    base = {reg.t, reg.p, reg.rho, *reg.x, *reg.u}
    parametric = set(d.parametric)
    for coeff in d.coefficients():
        atoms = set(atoms_of(coeff))
        assert not parametric & atoms
        assert all(a in base or is_unknown(a) for a in atoms), coeff


def test_split_coefficients_are_free_of_parametric_atoms(spaces):
    for dim in (1, 2, 3):
        for entry in spaces[dim].catalog:
            d = determining_equations(spaces[dim].system, entry.spec, entry.name)
            assert_coefficients_on_base(spaces[dim].reg, d)


def test_scaling_family_forces_weights(spaces):
    reg = spaces[1].reg
    system = spaces[1].system
    al, be, ga = unknown("alpha"), unknown("beta"), unknown("gamma")
    g = make_generator(
        reg,
        xi_x=(Expr.of(reg.x[0]),),
        eta_u=(Expr.of(reg.u[0]),),
        eta_p=al * reg.p,
        mu_pi=(be * reg.pi[(1, 1)],),
        mu_g=ga * reg.g)
    d = determining_equations(system, g, "scaling-family")
    res = solve_unknowns(d)
    assert res["free"] == []
    assert res["solution"] == {al: 2, be: 2, ga: 2}
    forced = make_generator(
        reg,
        xi_x=(Expr.of(reg.x[0]),),
        eta_u=(Expr.of(reg.u[0]),),
        eta_p=2 * reg.p,
        mu_pi=(2 * reg.pi[(1, 1)],),
        mu_g=2 * reg.g)
    assert forced == find_entry(spaces[1].catalog, "Z1").spec


def test_degree1_ansatz_solver_counts(spaces):
    # (declared unknowns, unknowns reaching the solver, free, rank); the
    # unknowns that occur in no split coefficient never reach the solver.
    # nullity (declared - rank) 8 / 11 / 15
    expected = {1: (37, 34, 5, 29), 2: (80, 76, 7, 69), 3: (182, 177, 10, 167)}
    for dim, (declared, reaching, n_free, rank) in expected.items():
        spec, count = degree1_ansatz(spaces[dim].reg)
        assert count == declared
        d = determining_equations(spaces[dim].system, spec, f"ansatz{dim}")
        res = solve_unknowns(d)
        assert len(res["solution"]) == reaching
        assert len(res["free"]) == n_free
        assert reaching - n_free == rank
        assert_coefficients_on_base(spaces[dim].reg, d)
        if dim == 3:
            continue  # 11,523 substitutions take 9 s; N = 1-2 check the solver
        for coeff in d.coefficients():
            assert substitute(coeff, res["solution"]) == ZERO


def grouped_reference(dsys) -> tuple:
    """The (row, rhs) equations of every split coefficient, repeats grouped
    again, and the unknowns they hold, in the order solve_unknowns reads
    them."""
    equations, unknowns = [], set()
    for coeff in dsys.coefficients():
        groups = {}
        for mono, c in coeff.terms:
            found = [a for a, _ in mono if is_unknown(a)]
            rest = tuple(f for f in mono if not is_unknown(f[0]))
            var = found[0] if found else None
            unknowns.update(found)
            row = groups.setdefault(rest, {})
            row[var] = row.get(var, 0) + c
        equations += [(row, -row.pop(None, 0)) for row in groups.values()]
    return equations, sorted(unknowns)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_solve_unknowns_groups_each_coefficient_once(spaces, monkeypatch, dim):
    """solve_unknowns hands solve_linear one row per (coefficient, point
    monomial), repeated coefficients included, and solves as the reference
    that groups every coefficient does."""
    spec, _ = degree1_ansatz(spaces[dim].reg)
    d = determining_equations(spaces[dim].system, spec, f"ansatz{dim}")
    equations, unknowns = grouped_reference(d)
    seen = []

    def recording(eqs, variables):
        seen.append((list(eqs), list(variables)))
        return solve_linear(eqs, variables)

    monkeypatch.setattr(determining_module, "solve_linear", recording)
    res = solve_unknowns(d)
    (got, variables), = seen
    assert variables == unknowns
    assert len(got) == len(equations)
    assert got == equations
    # repeats share row objects: fewer rows are built than are passed
    coefficients = d.coefficients()
    assert len(set(coefficients)) < len(coefficients)
    assert len({id(row) for row, _ in got}) < len(got)
    solution, free = solve_linear(equations, unknowns)
    assert res == {"solution": solution, "free": free}


def test_solve_unknowns_rejects_nonlinear(spaces):
    reg = spaces[1].reg
    a = unknown("a")
    b, c = unknown("b"), unknown("c")
    cases = [(a * a * reg.p, r"nonlinear in unknown \?a"),
             (a * b * reg.p, "mixes unknowns"),
             (a * b * c * c * reg.p, r"nonlinear in unknown \?c")]
    for eta_p, message in cases:
        g = make_generator(reg, eta_p=eta_p)
        d = determining_equations(spaces[1].system, g, "bad")
        with pytest.raises(ValueError, match=message):
            solve_unknowns(d)


def _flow(spaces, dim, name):
    reg = spaces[dim].reg
    spec = find_entry(spaces[dim].catalog, name).spec
    return exponentiate(reg, prolong(reg, spec))


def test_finite_check_translation_factors(spaces):
    system = spaces[3].system
    fc = finite_check(system, _flow(spaces, 3, "X1"))
    assert fc.passed
    assert all(f.factor == (1, 0) for f in fc.factors)


def test_finite_check_scaling_factors(spaces):
    for dim in (1, 2, 3):
        system = spaces[dim].system
        fc = finite_check(system, _flow(spaces, dim, "Z1"))
        assert fc.passed
        factors = {f.equation: f.factor for f in fc.factors}
        assert factors["mass"] == (1, 0)
        for i in range(1, dim + 1):
            assert factors[f"momentum_{i}"] == (1, 1)
        assert factors["pressure"] == (1, 2)

        fc2 = finite_check(system, _flow(spaces, dim, "Z2"))
        assert fc2.passed
        assert all(f.factor == (1, 1) for f in fc2.factors)


def test_finite_factors_are_exact(spaces):
    """A factor's c is a Fraction, never the float that dividing two int
    coefficients gives: Z1 scales the pressure equation by exp(2*a)."""
    for dim in (1, 2, 3):
        for entry in spaces[dim].catalog:
            if not entry.has_flow:
                continue
            fc = finite_check(spaces[dim].system, _flow(spaces, dim, entry.name))
            for f in fc.factors:
                assert f.factor is not None, (dim, entry.name, f.equation)
                c, k = f.factor
                assert type(c) is Fraction and type(k) is int, \
                    (dim, entry.name, f.equation, f.factor)
    fc = finite_check(spaces[1].system, _flow(spaces, 1, "Z1"))
    assert dict((f.equation, f.factor) for f in fc.factors)["pressure"] == \
        (Fraction(1), 2)


def test_finite_check_trace_shift(spaces):
    # relies on Phi -> Phi + a*div(u) cancelling against G -> G - a*H
    system = spaces[2].system
    fc = finite_check(system, _flow(spaces, 2, "T"))
    assert fc.passed
    assert all(f.factor == (1, 0) for f in fc.factors)


def collect_finite_check(system, ft):
    """The finite check decided on whole expressions: the pullback splits
    into one bucket by its exp(a) monomial, and that bucket equals the
    ratio of the first terms times the equation."""
    factors = []
    for eq_name, eq in system.equations.items():
        pullback = ft.transform(eq)
        found = None
        buckets = collect(pullback, (SCALE,))
        if len(buckets) == 1:
            (scale, part), = buckets.items()
            ratio = Fraction(part.terms[0][1], eq.terms[0][1])
            if part == ratio * eq:
                found = (ratio, scale.exponent(SCALE))
        factors.append(FiniteFactor(eq_name, found, pullback))
    return FiniteCheckResult(all(f.factor is not None for f in factors),
                             tuple(factors))


def assert_same_finite_check(got, want, where):
    assert got == want, where
    for f, g in zip(got.factors, want.factors):
        assert f.pullback.terms == g.pullback.terms, where
        if f.factor is not None:
            assert [type(v) for v in f.factor] == [type(v) for v in g.factor]


# generators outside the catalog whose flows exist but move the system:
# their pullbacks differ from every multiple of some equation
NON_SYMMETRY_FLOWS = ("x1*d/dx1", "t*d/dt", "2*p*d/dp", "rho*d/drho",
                      "d/du1", "t*d/du1", "d/drho", "G*d/dG", "p*d/dG",
                      "u1*d/du1", "x1*d/dx1 + 2*p*d/dp + d/dt")


@pytest.mark.parametrize("param", [None, Fraction(-3, 2), Fraction(5, 3)])
def test_finite_check_matches_the_collect_decision(spaces, param):
    """Every theorem entry's flow at N = 1-3, symbolic and with a rational
    parameter, and flows of generators that move the system, get the
    factors and pullbacks of the decision on whole expressions."""
    for dim in (1, 2, 3):
        reg, system = spaces[dim].reg, spaces[dim].system
        specs = [(e.name, e.spec) for e in verified_entries(spaces[dim].catalog)]
        specs += [(src, parse_generator(reg, src)) for src in NON_SYMMETRY_FLOWS]
        for name, spec in specs:
            ft = exponentiate(reg, prolong(reg, spec), param)
            assert_same_finite_check(finite_check(system, ft),
                                     collect_finite_check(system, ft),
                                     (dim, name, param))


def test_finite_check_refuses_pullbacks_that_are_no_multiple(spaces):
    """Hand-built maps of the N = 1 mass equation rho*u1_x1 + rho_t +
    rho_x1*u1 whose pullback is no constant multiple of it."""
    reg, system = spaces[1].reg, spaces[1].system
    rho, rho_t, u1 = (Expr.of(a) for a in (reg.rho, reg.rho_t, reg.u[0]))
    cases = {
        # u1 -> u1 + 1 adds rho_x1: four terms against three
        "term count": {reg.u[0]: u1 + 1},
        # rho -> exp(a)*rho: the same three terms under two scale monomials
        "two scales": {reg.rho: SCALE * rho},
        # rho_t -> 2*rho_t: one scale monomial, the ratio 2 on one term only
        "one ratio off": {reg.rho_t: 2 * rho_t},
    }
    for why, images in cases.items():
        ft = FiniteTransformation(images)
        got = finite_check(system, ft)
        assert_same_finite_check(got, collect_finite_check(system, ft), why)
        mass = got.factors[0]
        assert mass.equation == "mass" and mass.factor is None, why
        assert not got.passed
    pullback = finite_check(system, FiniteTransformation(cases["term count"]))
    assert len(pullback.factors[0].pullback.terms) == 4
    # scaling every term of the equation by one factor passes
    ft = FiniteTransformation({c: 3 * SCALE * Expr.of(c)
                               for c in (reg.rho, reg.rho_t, reg.rho_x[0])})
    mass = finite_check(system, ft).factors[0]
    assert mass.factor == (Fraction(3), 1)


def test_infinitesimal_and_finite_routes_agree(spaces):
    for dim in (1, 2, 3):
        for entry in spaces[dim].catalog:
            v = check_entry(spaces[dim].system, entry)
            if entry.has_flow:
                assert v.agreement is True, entry.name
            else:
                assert v.finite is None and v.agreement is None


def test_verify_is_check_entry_of_a_user_entry(spaces):
    system = spaces[2].system
    for entry in spaces[2].catalog:
        user = CatalogEntry(entry.name, KIND_USER, entry.spec)
        assert not user.has_flow
        plain = check_entry(system, user)
        assert plain.finite is None and plain.agreement is None
        full = check_entry(system, entry)
        assert (full.zero, full.equations) == (plain.zero, plain.equations)
        assert (full.finite is not None) == entry.has_flow


def test_verdicts_serialize_deterministically(spaces):
    entry = find_entry(spaces[2].catalog, "J12_naive")
    one = verdict_payload(check_entry(spaces[2].system, entry))
    two = verdict_payload(check_entry(spaces[2].system, entry))
    assert json.dumps(one) == json.dumps(two)


def test_batch_verification_fans_out(spaces):
    # everything is immutable, so a catalog sweep can run on a thread pool
    # and the joined results match the sequential ones
    from concurrent.futures import ThreadPoolExecutor

    system = spaces[2].system
    catalog = spaces[2].catalog
    sequential = {e.name: verdict_payload(check_entry(system, e))
                  for e in catalog}
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = dict(pool.map(
            lambda e: (e.name, verdict_payload(check_entry(system, e))),
            catalog))
    assert parallel == sequential


@st.composite
def bracket_pairs(draw):
    """(dim, left, right): two rational combinations, as lists of
    (coefficient, name), of the verified entries and the tensorial
    rotations."""
    dim = draw(st.sampled_from((2, 3)))
    rng = range(1, dim + 1)
    pool = (["X0", "S", "T", "Z1", "Z2"] + [f"X{i}" for i in rng]
            + [f"Y{i}" for i in rng]
            + [f"J{i}{j}_tensorial" for i in rng for j in rng if i < j])
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def side():
        names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                              unique=True))
        return [(draw(coeff), name) for name in names]

    return dim, side(), side()


@settings(derandomize=True, deadline=None, max_examples=20)
@given(bracket_pairs())
def test_brackets_of_symmetries_are_symmetries(spaces, pair):
    dim, left, right = pair
    reg, catalog = spaces[dim].reg, spaces[dim].catalog
    g1, g2 = (combine(reg, [(c, find_entry(catalog, n).spec) for c, n in side])
              for side in (left, right))
    user = CatalogEntry("bracket", KIND_USER, bracket(reg, g1, g2))
    assert check_entry(spaces[dim].system, user).zero
