import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liequiv import generators
from liequiv.catalog import build_catalog, find_entry
from liequiv.dsl import parse_generator, print_generator
from liequiv.expr import (ONE, ZERO, Expr, UnknownSymbolError,
                          UnsupportedFormError, atoms_of, is_unknown, is_zero,
                          unknown)
from liequiv.generators import (AnsatzError, GeneratorSpec, apply,
                                apply_with_trace, bracket, base_coefficients,
                                combine, first_order_field, from_coefficients,
                                make_generator, prolong)
from liequiv.jets import build_registry, total_derivative

from conftest import diff_atom, random_expr


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


def slot_by_slot_reference(reg, g):
    """The ansatz check written out per slot, each slot with its own admitted
    set and label: the reference for the one table ``reg.ansatz``."""
    def check(coeff, allowed, slot):
        for a in atoms_of(coeff):
            if not is_unknown(a) and a not in allowed:
                raise AnsatzError(f"{slot} may not depend on {a.name}")

    point = set(reg.point)
    check(g.xi_t, point, "xi^t")
    for i, c in enumerate(g.xi_x, start=1):
        check(c, point, f"xi^x{i}")
    for k, c in enumerate(g.eta_u, start=1):
        check(c, point, f"eta^u{k}")
    check(g.eta_p, point, "eta^p")
    check(g.eta_rho, point, "eta^rho")
    gradient = set(reg.u_x.values()) | set(reg.pi.values())
    for (i, j), c in zip(reg.pi_pairs(), g.mu_pi):
        check(c, gradient, f"mu^Pi{i}{j}")
    state = {reg.p, reg.rho, reg.g, reg.h}
    check(g.mu_g, state, "mu^G")
    check(g.mu_h, state, "mu^H")


ANSATZ_REGISTRIES = {dim: build_registry(dim) for dim in (1, 2, 3)}


@st.composite
def unchecked_specs(draw):
    """(registry, GeneratorSpec built without the ansatz check): up to four
    products of atoms, each drawn from every registered coordinate and a
    ?constant or from the atoms some slot admits, added into random slots."""
    reg = ANSATZ_REGISTRIES[draw(st.integers(1, 3))]
    d, m = reg.dim, 1 + 2 * reg.dim
    anywhere = [*reg.space, unknown("c")]
    admitted = [*reg.point, *reg.u_x.values(), *reg.pi.values(), reg.g, reg.h]
    atom = st.one_of(st.sampled_from(anywhere), st.sampled_from(admitted))
    slots = [ZERO] * (m + 2 + len(reg.pi) + 2)
    for k, atoms in draw(st.lists(st.tuples(st.integers(0, len(slots) - 1),
                                            st.lists(atom, max_size=3)),
                                  max_size=4)):
        term = ONE
        for a in atoms:
            term = term * Expr.of(a)
        slots[k] = slots[k] + term
    return reg, GeneratorSpec(
        slots[0], tuple(slots[1:1 + d]), tuple(slots[1 + d:m]), slots[m],
        slots[m + 1], tuple(slots[m + 2:-2]), slots[-2], slots[-1])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(unchecked_specs())
def test_validate_ansatz_matches_the_slot_by_slot_checker(case):
    reg, g = case

    def outcome(check):
        try:
            check(reg, g)
        except AnsatzError as err:
            return str(err)
        return None

    assert outcome(generators.validate_ansatz) == outcome(slot_by_slot_reference)


def test_from_coefficients_rejects_a_key_off_the_base_directions(spaces):
    reg = spaces[1].reg
    with pytest.raises(AnsatzError, match="u1_x1 is not a base direction"):
        from_coefficients(reg, {reg.u_x[(1, 1)]: 1})
    with pytest.raises(AnsatzError, match="Pi11_d_u1x1"):
        from_coefficients(reg, {reg.t: 1, reg.pi_d[(1, 1, 1, 1)]: reg.t})
    assert from_coefficients(reg, {reg.t: 1}) == make_generator(reg, xi_t=1)


def test_make_generator_rejects_tuples_of_another_dimension(spaces):
    reg = spaces[2].reg
    message = "coefficient tuple lengths do not match the dimension"
    for kwargs in ({"xi_x": (reg.t,)}, {"eta_u": (0, 0, 1)},
                   {"mu_pi": (0,) * 4}):
        with pytest.raises(ValueError, match=message):
            make_generator(reg, **kwargs)


def test_prolong_translation_has_zero_jets(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        pg = prolong(reg, _spec(spaces, dim, "X0"))
        assert pg.get(reg.t) == Expr.const(1)
        assert all(is_zero(pg.get(a)) for a in reg.space
                   if a != reg.t)


def test_prolong_boost(spaces):
    reg = spaces[2].reg
    pg = prolong(reg, _spec(spaces, 2, "Y1"))
    for k in (1, 2):
        for l in (1, 2):
            assert is_zero(pg.get(reg.u_x[(k, l)]))
        assert pg.get(reg.u_t[k - 1]) == -Expr.of(reg.u_x[(k, 1)])


def test_prolong_scaling_leaves_gradient_invariant(spaces):
    reg = spaces[2].reg
    pg = prolong(reg, _spec(spaces, 2, "Z1"))
    for k in (1, 2):
        for l in (1, 2):
            assert is_zero(pg.get(reg.u_x[(k, l)]))
    # weight-2 action on the stress-derivative coordinates
    for key, atom in reg.pi_d.items():
        assert pg.get(atom) == 2 * Expr.of(atom)


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
        for atom, coeff in mixed.items():
            want = c1 * p1.get(atom) + c2 * p2.get(atom)
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
            alt = pg.get(reg.u_x[(k, 2)])
            val = total_derivative(alt, reg.x[0], reg)
            for v, xi in zip(dirs, xis):
                d = total_derivative(xi, reg.x[0], reg)
                if not is_zero(d):
                    val = val - d * reg.advance[(reg.u_x[(k, 2)], v)]
            assert val == pg.get(reg.u_xx[(k, 1, 2)])


def test_prolong_differentiates_each_first_jet_coefficient_once(spaces, monkeypatch):
    # d zeta^{u_r}_{x_s} / d u^k_{x_l} is shared by every stress pair: one
    # call per (kl, rs), plus one d mu / d u^k_{x_l} per stress pair and kl
    reg = spaces[3].reg
    calls = []
    original = generators.diff_partial

    def counting(e, v):
        calls.append(v)
        return original(e, v)

    monkeypatch.setattr(generators, "diff_partial", counting)
    prolong(reg, _spec(spaces, 3, "J12_tensorial"))
    grad = len(reg.u_x)
    assert len(calls) == grad * grad + len(reg.pi_pairs()) * grad == 81 + 54


def test_prolong_derives_each_xi_once(spaces, monkeypatch):
    # N = 3: 16 D_w(xi^v), 20 first jets, 18 u_xx, and 9 u_tx only when
    # xi^t depends on t alone
    reg = spaces[3].reg
    calls = []
    original = generators.total_derivative

    def counting(e, w, reg):
        calls.append(w)
        return original(e, w, reg)

    monkeypatch.setattr(generators, "total_derivative", counting)
    prolong(reg, _spec(spaces, 3, "J12_tensorial"))
    assert len(calls) == 16 + 20 + 18 + 9 == 63
    calls.clear()
    prolong(reg, make_generator(reg, xi_t=Expr.of(reg.x[0])))
    assert len(calls) == 16 + 20 + 18 == 54


def test_apply_autonomous_translation(spaces):
    reg = spaces[1].reg
    system = spaces[1].system
    pg = prolong(reg, _spec(spaces, 1, "X0"))
    assert is_zero(apply(pg, system.equations["mass"]))


def test_apply_pressure_shift_on_momentum(spaces):
    reg = spaces[2].reg
    system = spaces[2].system
    pg = prolong(reg, _spec(spaces, 2, "S"))
    for i in (1, 2):
        assert is_zero(apply(pg, system.equations[f"momentum_{i}"]))


def test_trace_shift_cancellation(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        system = spaces[dim].system
        pg = prolong(reg, _spec(spaces, dim, "T"))
        total, trace = apply_with_trace(pg, system.equations["pressure"])
        assert is_zero(total)
        contributions = dict((a.name, term) for a, term in trace)
        divu = sum((Expr.of(reg.u_x[(i, i)]) for i in range(1, dim + 1)), Expr())
        assert contributions["G"] == -Expr.of(reg.h) * divu
        stress_part = sum(
            (term for name, term in contributions.items() if name != "G"),
            Expr())
        assert stress_part == Expr.of(reg.h) * divu


def test_apply_rejects_unreachable_coordinates(spaces):
    # D_x(xi^t) != 0 would bring in the unregistered u_tt, so u_tx has no
    # coefficient
    reg = spaces[1].reg
    pg = prolong(reg, make_generator(reg, xi_t=Expr.of(reg.x[0])))
    assert pg.get(reg.u_tx[(1, 1)]) is None
    with pytest.raises(UnknownSymbolError):
        apply(pg, Expr.of(reg.u_tx[(1, 1)]))


def test_bracket_examples(spaces):
    reg = spaces[2].reg
    x0 = _spec(spaces, 2, "X0")
    x1 = _spec(spaces, 2, "X1")
    y1 = _spec(spaces, 2, "Y1")
    z1 = _spec(spaces, 2, "Z1")
    assert bracket(reg, x0, x1) == make_generator(reg)
    assert bracket(reg, x0, y1) == x1
    assert bracket(reg, z1, y1) == combine(reg, [(-1, y1)])


def test_combine_takes_exact_coefficients_only(spaces):
    reg = spaces[1].reg
    x0 = _spec(spaces, 1, "X0")
    assert combine(reg, [(Fraction(1, 2), x0), (Fraction(1, 2), x0)]) == x0
    with pytest.raises(UnsupportedFormError):
        combine(reg, [(0.5, x0)])


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
    tables = [(e.spec, prolong(reg, e.spec))
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


# -- prolongation against sympy ------------------------------------------------


def jet_table(reg):
    """The independents as sympy symbols, and each dependent and jet atom as
    a function of (t, x) or its derivative."""
    ind = [sympy.Symbol(a.name) for a in reg.independents]
    t, xs = ind[0], ind[1:]
    table = dict(zip(reg.independents, ind))
    for a in reg.u + (reg.p, reg.rho):
        table[a] = sympy.Function(a.name)(*ind)
        for v, s in zip(reg.independents, ind):
            table[reg.advance[(a, v)]] = sympy.diff(table[a], s)
    for (k, l, j), a in reg.u_xx.items():
        table[a] = sympy.diff(table[reg.u[k - 1]], xs[l - 1], xs[j - 1])
    for (k, l), a in reg.u_tx.items():
        table[a] = sympy.diff(table[reg.u[k - 1]], t, xs[l - 1])
    return ind, table


def element_table(reg):
    """Each stress component as a function of the gradient-jet symbols and
    each stress-derivative atom as its sympy derivative."""
    grad = {a: sympy.Symbol(a.name) for a in reg.u_x.values()}
    table = dict(grad)
    for a in reg.pi.values():
        table[a] = sympy.Function(a.name)(*(grad[reg.by_name[n]] for n in a.args))
    for (i, j, k, l), a in reg.pi_d.items():
        table[a] = sympy.diff(table[reg.pi[(i, j)]], grad[reg.u_x[(k, l)]])
    return table


def to_sympy(e, table):
    """``e`` with every atom replaced by its table entry; other atoms become
    plain symbols."""
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[table.get(a, sympy.Symbol(a.name)) ** k
                                     for a, k in mono.factors])
                       for mono, c in e.terms])


def random_generator(reg, rnd, time_only=False):
    # xi and eta^u stay off p and rho: their second prolongation would need
    # the unregistered jets p_xx and rho_xx (JetOrderError); ``time_only``
    # keeps xi^t on t, which gives the mixed jets u_tx a coefficient
    base = [reg.t, *reg.x, *reg.u, unknown("c1")]
    point = base + [reg.p, reg.rho]
    gradient = [*reg.u_x.values(), *reg.pi.values(), unknown("c2")]

    def coeff(pool):
        return random_expr(rnd, pool, 2) if rnd.random() < 0.8 else Expr()

    xi_t = coeff([reg.t, unknown("c1")] if time_only else base)
    return make_generator(
        reg, xi_t=xi_t, xi_x=[coeff(base) for _ in reg.x],
        eta_u=[coeff(base) for _ in reg.u], eta_p=coeff(point),
        eta_rho=coeff(point), mu_pi=[coeff(gradient) for _ in reg.pi])


def assert_same(got, want, what):
    assert sympy.expand(got - want) == 0, what


def test_prolongation_matches_sympy(spaces):
    # zeta^a_w = D_w(eta^a) - sum_v D_w(xi^v) a_v with D_w = d/dw on functions
    # of (t, x); zeta^u_{x_l x_j} = D_{x_j} of zeta^u_{x_l} and
    # zeta^u_{t x_l} = D_{x_l} of zeta^u_t likewise, the latter only when
    # xi^t is free of x; the stress derivatives differentiate through
    # Pi(grad u) in element space
    for dim in (1, 2):
        reg = spaces[dim].reg
        ind, jets = jet_table(reg)
        elem = element_table(reg)
        rnd = random.Random(20 + dim)
        for n in range(12):
            g = random_generator(reg, rnd, time_only=n % 2 == 0)
            pg = prolong(reg, g)
            xi = [to_sympy(c, jets) for c in (g.xi_t,) + g.xi_x]

            def zeta(f, eta, w):
                return (sympy.diff(eta, w)
                        - sum(sympy.diff(xv, w) * sympy.diff(f, v)
                              for xv, v in zip(xi, ind)))

            for alpha, eta in zip(reg.u + (reg.p, reg.rho),
                                  g.eta_u + (g.eta_p, g.eta_rho)):
                for v, w in zip(reg.independents, ind):
                    jet = reg.advance[(alpha, v)]
                    assert_same(to_sympy(pg.get(jet), jets),
                                zeta(jets[alpha], to_sympy(eta, jets), w), jet)
            for (k, l, j), jet in reg.u_xx.items():
                first = to_sympy(pg.get(reg.u_x[(k, l)]), jets)
                assert_same(to_sympy(pg.get(jet), jets),
                            zeta(jets[reg.u_x[(k, l)]], first, ind[j]), jet)
            time_only = all(sympy.diff(xi[0], w) == 0 for w in ind[1:])
            for (k, l), jet in reg.u_tx.items():
                assert (pg.get(jet) is not None) == time_only, jet
                if time_only:
                    first = to_sympy(pg.get(reg.u_t[k - 1]), jets)
                    assert_same(to_sympy(pg.get(jet), jets),
                                zeta(jets[reg.u_t[k - 1]], first, ind[l]), jet)
            for (i, j, k, l), a in reg.pi_d.items():
                arg = elem[reg.u_x[(k, l)]]
                mu = to_sympy(g.mu_pi[reg.pi_pairs().index((i, j))], elem)
                want = sympy.diff(mu, arg) - sum(
                    elem[reg.pi_d[(i, j, r, s)]]
                    * sympy.diff(to_sympy(pg.get(reg.u_x[(r, s)]), elem),
                                 arg)
                    for (r, s) in reg.u_x)
                assert_same(to_sympy(pg.get(a), elem), want, a)


def test_first_order_field_is_the_head_of_the_prolongation(spaces):
    # the brackets take the first order alone; it must be the same table as
    # the full prolongation's base directions and first-order jets
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        rnd = random.Random(40 + dim)
        specs = [e.spec for e in spaces[dim].catalog]
        specs += [random_generator(reg, rnd, time_only=n % 2 == 0)
                  for n in range(6)]
        for g in specs:
            first, pg = first_order_field(reg, g), prolong(reg, g)
            assert list(pg)[:len(first)] == list(first)
            assert {a: pg[a] for a in first} == first


# -- the one-pass action against its definition --------------------------------


REGISTRIES = {dim: build_registry(dim) for dim in (1, 2, 3)}
CATALOGS = {dim: build_catalog(dim, reg) for dim, reg in REGISTRIES.items()}
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def reference_action(pg, e):
    """The action by its definition: sum over the atoms a of ``e`` of
    coefficient(a) * d e / d a, one ``diff_atom`` per atom."""
    trace = []
    for a in atoms_of(e):
        if is_unknown(a):
            continue
        c = pg.get(a)
        if c is None:
            raise UnknownSymbolError(
                f"no prolonged action is defined for {a.name}")
        term = c * diff_atom(e, a)
        if not is_zero(term):
            trace.append((a, term))
    return sum((term for _, term in trace), Expr()), tuple(trace)


@st.composite
def combinations_of_entries(draw, dim):
    """[(c, spec), ...]: a rational combination of catalog entries, rotation
    candidates included."""
    entries = draw(st.lists(st.sampled_from(CATALOGS[dim]), min_size=1,
                            max_size=4, unique_by=lambda e: e.name))
    return [(draw(RATIONALS.filter(bool)), e.spec) for e in entries]


@st.composite
def actions(draw):
    """(dim, generator, polynomial): the generator is a combination of
    catalog entries, plus x_i*d/dt when drawn (then u_tx has no
    coefficient); the polynomial is over every registered coordinate,
    Pi, G, H and ?constants, plus a u_tx term when drawn."""
    dim = draw(st.integers(1, 3))
    reg = REGISTRIES[dim]
    parts = draw(combinations_of_entries(dim))
    if draw(st.booleans()):
        xi_t = Expr.of(draw(st.sampled_from(reg.x)))
        parts.append((1, make_generator(reg, xi_t=xi_t)))
    pool = list(reg.space) + [unknown("a"), unknown("b2")]
    e = Expr()
    factors = st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)),
                       max_size=3)
    for c, fs in draw(st.lists(st.tuples(RATIONALS, factors), min_size=1,
                               max_size=4)):
        term = Expr.const(c)
        for a, k in fs:
            term = term * a ** k
        e = e + term
    if draw(st.booleans()):
        e = e + draw(st.sampled_from(list(reg.u_tx.values())))
    return dim, combine(reg, parts), e


@settings(derandomize=True, deadline=None, max_examples=80)
@given(actions())
def test_apply_matches_the_definition(case):
    dim, g, e = case
    reg = REGISTRIES[dim]
    pg = prolong(reg, g)
    try:
        want_total, want_trace = reference_action(pg, e)
    except UnknownSymbolError as err:
        for act in (apply, apply_with_trace):
            with pytest.raises(UnknownSymbolError, match=re.escape(str(err))):
                act(pg, e)
        return
    total, trace = apply_with_trace(pg, e)
    assert [a for a, _ in trace] == [a for a, _ in want_trace]
    for (a, got), (_, want) in zip(trace, want_trace):
        assert got == want, a
    assert total == want_total
    # the trace is built from shares of the action and sums to it
    action = apply(pg, e)
    assert total == action == sum((term for _, term in trace), ZERO)
    assert action.terms == want_total.terms


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(1, 3).flatmap(
    lambda dim: st.tuples(st.just(dim), combinations_of_entries(dim))))
def test_action_on_the_system_is_linear_in_the_generator(spaces, case):
    dim, parts = case
    reg, system = spaces[dim].reg, spaces[dim].system
    mixed = prolong(reg, combine(reg, parts))
    singles = [(c, prolong(reg, g)) for c, g in parts]
    for name, eq in system.equations.items():
        want = sum((c * apply(pg, eq) for c, pg in singles), Expr())
        assert apply(mixed, eq) == want, name
