from collections import Counter
from fractions import Fraction

import pytest

from liequiv import catalog, generators
from liequiv.catalog import (KIND_CANDIDATE, KIND_USER, CatalogEntry,
                             build_catalog, decompose_in_span, find_entry,
                             rotation_specs, structure_constants,
                             verified_entries)
from liequiv.determining import check_entry
from liequiv.dsl import parse_generator
from liequiv.expr import Expr
from liequiv.generators import bracket, make_generator
from liequiv.jets import UnsupportedDimensionError, build_registry


def test_entry_counts(spaces):
    expected = {1: (7, 0), 2: (9, 2), 3: (11, 6)}
    for dim, (n_verified, n_candidates) in expected.items():
        cat = spaces[dim].catalog
        assert len(verified_entries(cat)) == n_verified
        assert sum(e.kind == KIND_CANDIDATE for e in cat) == n_candidates


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimensionError):
        build_catalog(4, build_registry(3))
    with pytest.raises(ValueError):  # not the dimension of the registry
        build_catalog(2, build_registry(3))


def test_density_scaling_coefficients(spaces):
    reg = spaces[2].reg
    z2 = find_entry(spaces[2].catalog, "Z2").spec
    assert z2.eta_rho == Expr.of(reg.rho)
    assert z2.eta_p == Expr.of(reg.p)
    assert z2.mu_pi == tuple(Expr.of(reg.pi[pair]) for pair in reg.pi_pairs())
    assert z2.mu_g == Expr.of(reg.g)
    assert z2.mu_h == Expr()
    assert z2.xi_t == Expr()


def test_flows_only_on_verified_entries(spaces):
    for dim in (2, 3):
        for entry in spaces[dim].catalog:
            assert entry.has_flow == (entry.kind == "theorem")


def test_rotation_specs_match_dense_omega_products(spaces):
    """Omega v and delta Pi = Omega Pi - Pi Omega as full matrix products."""
    for dim in (2, 3):
        reg = spaces[dim].reg
        rng = range(1, dim + 1)
        for i in rng:
            for j in range(i + 1, dim + 1):
                omega = {(i, j): -1, (j, i): 1}

                def w(r, m):
                    return omega.get((r, m), 0)

                def times(vec):
                    return tuple(sum((w(r, m) * Expr.of(vec[m - 1]) for m in rng),
                                     Expr()) for r in rng)

                mu_pi = tuple(
                    sum((w(r, m) * Expr.of(reg.pi_at(m, c))
                         - w(m, c) * Expr.of(reg.pi_at(r, m)) for m in rng), Expr())
                    for (r, c) in reg.pi_pairs())
                xi_x, eta_u = times(reg.x), times(reg.u)
                assert rotation_specs(reg, i, j) == (
                    make_generator(reg, xi_x=xi_x, eta_u=eta_u),
                    make_generator(reg, xi_x=xi_x, eta_u=eta_u, mu_pi=mu_pi))


def test_structure_table_matches_hand_values(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        entries = verified_entries(spaces[dim].catalog)
        table = structure_constants(reg, entries)
        assert table.closed and not table.failures
        for i in range(1, dim + 1):
            assert table.cell("X0", f"Y{i}") == {f"X{i}": 1}
            assert table.cell("Z1", f"Y{i}") == {f"Y{i}": -1}
        assert table.cell("S", "Z1") == {"S": 2}
        assert table.cell("T", "Z1") == {"T": 2}
        assert table.cell("T", "Z2") == {"T": 1}
        assert table.cell("Z1", "Z2") == {}
        assert table.cell("S", "Z2") == {"S": 1}
        # antisymmetry of the full table
        for n1 in table.names:
            for n2 in table.names:
                if n1 == n2:
                    assert table.cell(n1, n2) == {}
                    continue
                flipped = {k: -v for k, v in table.cell(n2, n1).items()}
                assert table.cell(n1, n2) == flipped


def test_table_cells_match_single_brackets(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        entries = verified_entries(spaces[dim].catalog)
        table = structure_constants(reg, entries)
        assert table.closed
        for a in entries:
            for b in entries:
                want = decompose_in_span(reg, bracket(reg, a.spec, b.spec), entries)
                assert table.cell(a.name, b.name) == want, (a.name, b.name)


def test_entries_compare_by_value(spaces):
    entry = find_entry(spaces[2].catalog, "Y1")
    twin = CatalogEntry(entry.name, entry.kind, entry.spec)
    assert twin is not entry
    assert twin == entry and hash(twin) == hash(entry)
    assert twin != CatalogEntry(entry.name, KIND_USER, entry.spec)


def test_table_prolongs_each_entry_once(spaces, monkeypatch):
    reg = spaces[3].reg
    entries = verified_entries(spaces[3].catalog)
    prolonged = Counter()
    original = catalog.first_order_field

    def counting(reg, g):
        prolonged[id(g)] += 1
        return original(reg, g)

    # bracket() prolongs through the generators module's own reference
    monkeypatch.setattr(catalog, "first_order_field", counting)
    monkeypatch.setattr(generators, "first_order_field", counting)
    structure_constants(reg, entries)
    assert len(entries) == 11
    assert prolonged == Counter(id(e.spec) for e in entries)


def test_table_builds_each_feature_vector_once(spaces, monkeypatch):
    reg = spaces[3].reg
    entries = verified_entries(spaces[3].catalog)
    built = Counter()
    original = catalog._feature_vector

    def counting(reg, g):
        built[id(g)] += 1
        return original(reg, g)

    monkeypatch.setattr(catalog, "_feature_vector", counting)
    structure_constants(reg, entries)
    assert len(entries) == 11
    assert [built[id(e.spec)] for e in entries] == [1] * 11
    # and one for each of the 55 brackets
    assert sum(built.values()) == 11 + 55


def test_table_that_does_not_close(spaces):
    reg, cat = spaces[1].reg, spaces[1].catalog
    # [X0, Y1] = X1 lies outside the span of the two
    table = structure_constants(reg, [find_entry(cat, "X0"), find_entry(cat, "Y1")])
    assert table.failures == (("X0", "Y1"),)
    assert table.closed is False
    assert table.cell("X0", "Y1") == {}


def test_decompose_detects_outside_span(spaces):
    reg = spaces[1].reg
    entries = verified_entries(spaces[1].catalog)
    lone = make_generator(reg, eta_p=Expr.of(reg.p))
    assert decompose_in_span(reg, lone, entries) is None
    shifted = make_generator(reg, eta_p=Expr.const(Fraction(5, 2)))
    assert decompose_in_span(reg, shifted, entries) == {"S": Fraction(5, 2)}


def test_naive_rotations_fail(spaces):
    for dim in (2, 3):
        for entry in spaces[dim].catalog:
            if entry.kind != KIND_CANDIDATE or not entry.name.endswith("naive"):
                continue
            user = CatalogEntry(entry.name, KIND_USER, entry.spec)
            assert not check_entry(spaces[dim].system, user).zero


def test_tensorial_rotation_verdict_is_reported(spaces):
    # exploratory candidate: the verdict must exist and be well formed, but
    # no particular outcome is asserted
    entry = find_entry(spaces[2].catalog, "J12_tensorial")
    v = check_entry(spaces[2].system,
                    CatalogEntry(entry.name, KIND_USER, entry.spec))
    assert v.generator == "J12_tensorial"
    assert {ev.equation for ev in v.equations} == {
        "mass", "momentum_1", "momentum_2", "pressure"}
    print(f"J12_tensorial infinitesimal status: "
          f"{'zero' if v.zero else 'nonzero'}")


def test_catalog_order_is_stable(spaces):
    names = [e.name for e in spaces[3].catalog]
    assert names == ["X0", "X1", "X2", "X3", "S", "Y1", "Y2", "Y3", "T",
                     "Z1", "Z2", "J12_naive", "J13_naive", "J23_naive",
                     "J12_tensorial", "J13_tensorial", "J23_tensorial"]


def paper_definitions(dim):
    """The theorem entries as the paper defines them, in DSL, in catalog
    order."""
    rng = range(1, dim + 1)
    pairs = [f"{i}{j}" for i in rng for j in rng if i <= j]
    out = {"X0": "d/dt"}
    out.update({f"X{i}": f"d/dx{i}" for i in rng})
    out["S"] = "d/dp"
    out.update({f"Y{i}": f"t*d/dx{i} + d/du{i}" for i in rng})
    out["T"] = " + ".join(f"d/dPi{k}{k}" for k in rng) + " - H*d/dG"
    out["Z1"] = " + ".join(
        [f"x{i}*d/dx{i}" for i in rng] + [f"u{i}*d/du{i}" for i in rng]
        + ["2*p*d/dp"] + [f"2*Pi{ij}*d/dPi{ij}" for ij in pairs] + ["2*G*d/dG"])
    out["Z2"] = " + ".join(["rho*d/drho", "p*d/dp"]
                           + [f"Pi{ij}*d/dPi{ij}" for ij in pairs] + ["G*d/dG"])
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_entries_match_the_paper_definitions(spaces, dim):
    reg = spaces[dim].reg
    defined = paper_definitions(dim)
    entries = verified_entries(spaces[dim].catalog)
    assert [e.name for e in entries] == list(defined)
    for e in entries:
        assert e.spec == parse_generator(reg, defined[e.name]), e.name
