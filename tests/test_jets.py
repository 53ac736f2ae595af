import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liequiv.expr import (COORD, Expr, Monomial, UnknownSymbolError,
                          derivative_of, diff_partial, is_zero, unknown)
from liequiv.jets import (JetOrderError, UnsupportedDimensionError,
                          build_registry, total_derivative)

from conftest import random_expr


def counts(reg):
    """(independents, dependents, constitutive coordinates)."""
    return (len(reg.independents), len(reg.u) + 2,
            len(reg.pi) + len(reg.pi_d) + 2)


def test_counts():
    assert counts(build_registry(1)) == (2, 3, 1 + 1 + 2)
    assert counts(build_registry(2)) == (3, 4, 3 + 3 * 4 + 2)
    assert counts(build_registry(3)) == (4, 5, 6 + 6 * 9 + 2)


def test_stress_advances_to_its_derivative_coordinate():
    for dim in (1, 2, 3):
        reg = build_registry(dim)
        for (i, j, k, l), a in reg.pi_d.items():
            assert reg.advance[(reg.pi[(i, j)], reg.u_x[(k, l)])] == a


def test_unsupported_dimension():
    for bad in (0, 4, -1):
        with pytest.raises(UnsupportedDimensionError):
            build_registry(bad)


def test_frozen_names(spaces):
    reg = spaces[2].reg
    assert reg.by_name["u1_x2"] == reg.u_x[(1, 2)]
    assert reg.by_name["Pi12_d_u1x2"] == reg.pi_d[(1, 2, 1, 2)]
    assert reg.g.name == "G"
    from liequiv.expr import derivative_of
    assert derivative_of(reg.g, "p").name == "G_p"
    assert reg.by_name["u1_tx2"] == reg.u_tx[(1, 2)]
    assert "q" not in reg.by_name


def test_registration_is_unique(spaces):
    for dim in (1, 2, 3):
        atoms = spaces[dim].reg.space
        assert len({a.name for a in atoms}) == len(atoms)


def reference_space(dim):
    """The names of the space in registry order and its advances as
    (c, w, c_w) name triples, written out from the grammar of
    docs/names.md."""
    rng = range(1, dim + 1)
    pairs = [(a, b) for a in rng for b in rng]
    names = ["t", *(f"x{i}" for i in rng), *(f"u{k}" for k in rng), "p", "rho",
             *(f"u{k}_t" for k in rng), *(f"u{k}_x{l}" for k, l in pairs),
             "p_t", *(f"p_x{i}" for i in rng), "rho_t", *(f"rho_x{i}" for i in rng),
             *(f"u{k}_x{l}x{j}" for k in rng for l, j in pairs if l <= j),
             *(f"u{k}_tx{l}" for k, l in pairs),
             *(f"Pi{i}{j}" for i, j in pairs if i <= j),
             *(f"Pi{i}{j}_d_u{k}x{l}" for i, j in pairs if i <= j
               for k, l in pairs),
             "G", "H"]
    advances = {(f"u{k}_x{l}", f"x{j}", f"u{k}_x{min(l, j)}x{max(l, j)}")
                for k in rng for l, j in pairs}
    for k, l in pairs:
        advances |= {(f"u{k}", f"x{l}", f"u{k}_x{l}"),
                     (f"u{k}_x{l}", "t", f"u{k}_tx{l}"),
                     (f"u{k}_t", f"x{l}", f"u{k}_tx{l}")}
    for c in ("p", "rho", *(f"u{k}" for k in rng)):
        advances.add((c, "t", f"{c}_t"))
    for c in ("p", "rho"):
        advances |= {(c, f"x{i}", f"{c}_x{i}") for i in rng}
    advances |= {(f"Pi{i}{j}", f"u{k}_x{l}", f"Pi{i}{j}_d_u{k}x{l}")
                 for i, j in pairs if i <= j for k, l in pairs}
    return names, advances


def test_space_and_advances_follow_the_name_grammar():
    for dim in (1, 2, 3):
        reg = build_registry(dim)
        names, advances = reference_space(dim)
        assert [a.name for a in reg.space] == names
        assert {(c.name, w.name, a.name)
                for (c, w), a in reg.advance.items()} == advances


def test_jet_table_names_every_jet_and_family(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        for (d, ws), a in reg.jets.items():
            name = d.name + "_" + "".join(w.name for w in ws) if ws else d.name
            assert a == reg.by_name[name]
        rng = range(1, dim + 1)
        u, x, t, jets = reg.u, reg.x, reg.t, reg.jets
        assert reg.u_t == tuple(jets[d, (t,)] for d in u)
        assert reg.u_x == {(k, l): jets[u[k - 1], (x[l - 1],)]
                           for k in rng for l in rng}
        assert reg.p_t == jets[reg.p, (t,)]
        assert reg.rho_t == jets[reg.rho, (t,)]
        assert reg.p_x == tuple(jets[reg.p, (w,)] for w in x)
        assert reg.rho_x == tuple(jets[reg.rho, (w,)] for w in x)
        assert reg.u_xx == {(k, l, j): jets[u[k - 1], (x[l - 1], x[j - 1])]
                            for k in rng for l in rng for j in rng if l <= j}
        assert reg.u_tx == {(k, l): jets[u[k - 1], (t, x[l - 1])]
                            for k in rng for l in rng}
        # the dependents and these families, no more, in space order
        assert list(jets.values()) == [
            *u, reg.p, reg.rho, *reg.u_t, *reg.u_x.values(), reg.p_t,
            *reg.p_x, reg.rho_t, *reg.rho_x, *reg.u_xx.values(),
            *reg.u_tx.values()]


def test_space_starts_with_the_point(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        names = ["t", *(f"x{i}" for i in range(1, dim + 1)),
                 *(f"u{k}" for k in range(1, dim + 1)), "p", "rho"]
        assert [a.name for a in reg.point] == names
        assert reg.space[:len(names)] == reg.point


def test_symmetric_stress_resolution(spaces):
    reg = spaces[3].reg
    assert reg.pi_at(3, 1) == reg.pi_at(1, 3)
    assert reg.advance[(reg.pi_at(2, 1), reg.u_x[(1, 2)])] == reg.pi_d[(1, 2, 1, 2)]


def test_second_jets_store_sorted_pairs(spaces):
    reg = spaces[2].reg
    a = reg.advance[(reg.u_x[(1, 2)], reg.x[0])]
    b = reg.advance[(reg.u_x[(1, 1)], reg.x[1])]
    assert a == b == reg.u_xx[(1, 1, 2)]


def test_total_derivative_examples(spaces):
    reg = spaces[2].reg
    assert total_derivative(Expr.of(reg.rho), reg.x[0], reg) == Expr.of(reg.rho_x[0])

    got = total_derivative(Expr.of(reg.pi[(1, 1)]), reg.x[0], reg)
    want = (reg.pi_d[(1, 1, 1, 1)] * reg.u_xx[(1, 1, 1)]
            + reg.pi_d[(1, 1, 1, 2)] * reg.u_xx[(1, 1, 2)]
            + reg.pi_d[(1, 1, 2, 1)] * reg.u_xx[(2, 1, 1)]
            + reg.pi_d[(1, 1, 2, 2)] * reg.u_xx[(2, 1, 2)])
    assert got == want

    assert (total_derivative(Expr.of(reg.p) ** 2, reg.t, reg)
            == 2 * reg.p * reg.p_t)


def test_total_derivative_chains_through_state_functions(spaces):
    reg = spaces[1].reg
    from liequiv.expr import derivative_of
    got = total_derivative(Expr.of(reg.g), reg.t, reg)
    want = (derivative_of(reg.g, "p") * reg.p_t
            + derivative_of(reg.g, "rho") * reg.rho_t)
    assert got == want


def test_spatial_commutativity(spaces):
    reg = spaces[2].reg
    rnd = random.Random(8)
    pool = [reg.t] + list(reg.x) + list(reg.u)
    for _ in range(50):
        e = random_expr(rnd, pool, 3)
        d12 = total_derivative(total_derivative(e, reg.x[0], reg), reg.x[1], reg)
        d21 = total_derivative(total_derivative(e, reg.x[1], reg), reg.x[0], reg)
        assert d12 == d21


def test_linearity_and_leibniz(spaces):
    reg = spaces[2].reg
    rnd = random.Random(4)
    pool = [reg.t, reg.x[0], reg.u[0], reg.p, reg.rho, reg.g]
    for _ in range(60):
        a = random_expr(rnd, pool, 2)
        b = random_expr(rnd, pool, 2)
        w = rnd.choice([reg.t, reg.x[0], reg.x[1]])
        assert (total_derivative(a + b, w, reg)
                == total_derivative(a, w, reg) + total_derivative(b, w, reg))
        assert (total_derivative(a * b, w, reg)
                == total_derivative(a, w, reg) * b
                + a * total_derivative(b, w, reg))


def test_matches_partial_on_independents(spaces):
    reg = spaces[2].reg
    e = reg.t * reg.x[0] ** 2 + 3 * reg.x[1]
    for w in reg.independents:
        assert total_derivative(e, w, reg) == diff_partial(e, w)


def test_order_overflow(spaces):
    reg = spaces[1].reg
    with pytest.raises(JetOrderError):
        total_derivative(Expr.of(reg.u_xx[(1, 1, 1)]), reg.x[0], reg)
    # second derivatives of p are not registered
    with pytest.raises(JetOrderError):
        total_derivative(Expr.of(reg.p_x[0]), reg.x[0], reg)


def test_direction_must_be_independent(spaces):
    reg = spaces[1].reg
    with pytest.raises(UnknownSymbolError):
        total_derivative(Expr.of(reg.p), reg.p, reg)


# -- equivalence with the chain over every registered coordinate ---------------

REGISTRIES = {dim: build_registry(dim) for dim in (1, 2, 3)}


def reference_total_derivative(e, w, reg):
    """The partial by ``w`` plus the chain through every registered
    coordinate that is not an independent one, in registry order."""
    out = diff_partial(e, w)
    for c in reg.space:
        if c.kind != COORD or c in reg.independents:
            continue
        d = diff_partial(e, c)
        if is_zero(d):
            continue
        a = reg.advance.get((c, w))
        if a is None:
            raise JetOrderError(
                f"d/d{w.name} of an expression depending on {c.name} "
                "leaves the registered jet space")
        out = out + d * a
    return out


def atom_pool(reg):
    """Registry atoms, formal derivatives of Pi, G and H up to second order,
    and ``?`` constants."""
    first = [derivative_of(f, v) for f in (reg.g, reg.h) for v in f.args]
    second = [derivative_of(derivative_of(reg.g, "p"), "rho"),
              derivative_of(derivative_of(reg.h, "rho"), "rho"),
              derivative_of(reg.pi_d[(1, 1, 1, 1)], reg.pi[(1, 1)].args[-1])]
    return list(reg.space) + first + second + [unknown("c1"), unknown("c2")]


POOLS = {dim: atom_pool(reg) for dim, reg in REGISTRIES.items()}


@st.composite
def jet_polynomials(draw):
    dim = draw(st.sampled_from(sorted(REGISTRIES)))
    pool = POOLS[dim]
    monomial = st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2)),
                        max_size=3)
    coefficient = st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2)])
    terms = draw(st.lists(st.tuples(monomial, coefficient), max_size=4))
    w = draw(st.sampled_from(REGISTRIES[dim].independents))
    return dim, Expr((Monomial(m), c) for m, c in terms), w


def outcome(f, *args):
    try:
        return "value", f(*args)
    except JetOrderError as err:
        return "error", str(err)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(jet_polynomials())
def test_total_derivative_matches_full_chain(case):
    dim, e, w = case
    reg = REGISTRIES[dim]
    assert (outcome(total_derivative, e, w, reg)
            == outcome(reference_total_derivative, e, w, reg))
