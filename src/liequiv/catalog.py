"""Built-in generator families and the structure constants of their span.

The verified families, for spatial dimension N:

    X0       time translation
    X1..XN   space translations
    S        pressure shift
    Y1..YN   velocity boosts
    T        trace shift of the stress, compensated through G
    Z1       space/velocity scaling with weight-2 action on p, Pi, G
    Z2       density/pressure/stress/G scaling

(N + N + 5 entries).  For N >= 2 rotation candidates J{i}{j} are exposed in
two readings: ``naive`` leaves the constitutive coordinates fixed, and
``tensorial`` conjugates the stress through the infinitesimal rotation,
delta Pi = Omega Pi - Pi Omega.  Candidates are exploratory; their flows
need cos/sin, so only the verified entries carry a closed-form flow
(``has_flow``, derived from the kind).  Generators given outside the
catalog, as DSL text, travel as entries of kind ``"user"``, which are
checked infinitesimally only.

``structure_constants`` prolongs each entry and builds its feature vector
once per table, reduces the span of those vectors once, brackets every pair
from the first-order fields, and expresses each bracket over the span with
one reduction of its own row, the same two steps as ``decompose_in_span``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Expr, ZERO
from .generators import (GeneratorSpec, base_coefficients, bracket_fields,
                         first_order_field, make_generator)
from .jets import JetRegistry, UnsupportedDimensionError
from .linsolve import express, span_basis

KIND_VERIFIED = "theorem"
KIND_CANDIDATE = "rotation-candidate"
KIND_USER = "user"


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    kind: str
    spec: GeneratorSpec

    @property
    def has_flow(self) -> bool:
        return self.kind == KIND_VERIFIED


def _unit(dim: int, idx: int) -> tuple:
    return tuple(Expr.const(1) if k == idx else ZERO for k in range(dim))


def rotation_specs(reg: JetRegistry, i: int, j: int):
    """(naive, tensorial) rotation generators in the x_i-x_j plane.

    Omega has two nonzero entries, so (Omega v)_i = -v_j, (Omega v)_j = v_i,
    and for symmetric Pi delta Pi = Omega Pi - Pi Omega = Omega Pi + (Omega Pi)^T.
    """
    def omega(r, v):
        return -Expr.of(v(j)) if r == i else Expr.of(v(i)) if r == j else ZERO

    rng = range(1, reg.dim + 1)
    xi_x = tuple(omega(r, lambda m: reg.x[m - 1]) for r in rng)
    eta_u = tuple(omega(r, lambda m: reg.u[m - 1]) for r in rng)
    naive = make_generator(reg, xi_x=xi_x, eta_u=eta_u)
    mu_pi = tuple(omega(r, lambda m: reg.pi_at(m, c))
                  + omega(c, lambda m: reg.pi_at(m, r)) for (r, c) in reg.pi_pairs())
    tensorial = make_generator(reg, xi_x=xi_x, eta_u=eta_u, mu_pi=mu_pi)
    return naive, tensorial


def build_catalog(dim: int, reg: JetRegistry) -> tuple:
    if dim not in (1, 2, 3):
        raise UnsupportedDimensionError(f"dimension must be 1, 2 or 3, got {dim!r}")
    if dim != reg.dim:
        raise ValueError("dimension does not match registry")
    rng = range(1, dim + 1)
    entries = []

    def add(name, kind, spec):
        entries.append(CatalogEntry(name, kind, spec))

    add("X0", KIND_VERIFIED, make_generator(reg, xi_t=1))
    for i in rng:
        add(f"X{i}", KIND_VERIFIED, make_generator(reg, xi_x=_unit(dim, i - 1)))
    add("S", KIND_VERIFIED, make_generator(reg, eta_p=1))
    for i in rng:
        add(f"Y{i}", KIND_VERIFIED, make_generator(
            reg,
            xi_x=tuple(Expr.of(reg.t) if k == i - 1 else ZERO for k in range(dim)),
            eta_u=_unit(dim, i - 1)))
    add("T", KIND_VERIFIED, make_generator(
        reg,
        mu_pi=tuple(Expr.const(1) if a == b else ZERO for (a, b) in reg.pi_pairs()),
        mu_g=-Expr.of(reg.h)))
    add("Z1", KIND_VERIFIED, make_generator(
        reg,
        xi_x=tuple(Expr.of(a) for a in reg.x),
        eta_u=tuple(Expr.of(a) for a in reg.u),
        eta_p=2 * Expr.of(reg.p),
        mu_pi=tuple(2 * Expr.of(reg.pi[pair]) for pair in reg.pi_pairs()),
        mu_g=2 * Expr.of(reg.g)))
    add("Z2", KIND_VERIFIED, make_generator(
        reg,
        eta_rho=Expr.of(reg.rho),
        eta_p=Expr.of(reg.p),
        mu_pi=tuple(Expr.of(reg.pi[pair]) for pair in reg.pi_pairs()),
        mu_g=Expr.of(reg.g)))

    planes = [(i, j) for i in rng for j in rng if i < j]
    rotations = [(pair, rotation_specs(reg, *pair)) for pair in planes]
    for (i, j), (naive, _) in rotations:
        add(f"J{i}{j}_naive", KIND_CANDIDATE, naive)
    for (i, j), (_, tensorial) in rotations:
        add(f"J{i}{j}_tensorial", KIND_CANDIDATE, tensorial)
    return tuple(entries)


def verified_entries(catalog) -> tuple:
    return tuple(e for e in catalog if e.kind == KIND_VERIFIED)


def find_entry(catalog, name: str):
    for e in catalog:
        if e.name == name:
            return e
    return None


def _feature_vector(reg: JetRegistry, g: GeneratorSpec) -> dict:
    vec = {}
    for direction, coeff in base_coefficients(reg, g).items():
        for mono, c in coeff.terms:
            vec[(direction.name, mono.key)] = c
    return vec


@dataclass(frozen=True)
class StructureTable:
    names: tuple
    combos: dict      # (name1, name2) -> {name: Fraction}, zero entries absent
    closed: bool
    failures: tuple   # pairs whose bracket left the span

    def cell(self, n1: str, n2: str) -> dict:
        return self.combos.get((n1, n2), {})


def _express(basis, names, target: dict) -> dict | None:
    """Exact coefficients over ``names`` of the feature vector ``target`` in
    the span reduced to ``basis``, or None."""
    combo = express(basis, target)
    return None if combo is None else {names[i]: c for i, c in combo.items()}


def decompose_in_span(reg: JetRegistry, g: GeneratorSpec, entries) -> dict | None:
    """Exact coefficients expressing ``g`` over the entries, or None."""
    basis = span_basis([_feature_vector(reg, e.spec) for e in entries])
    return _express(basis, [e.name for e in entries], _feature_vector(reg, g))


def structure_constants(reg: JetRegistry, entries) -> StructureTable:
    """All pairwise brackets expressed over the entries themselves; each
    entry is prolonged once and gives one feature vector per table, and
    every pair goes through ``bracket_fields``."""
    names = tuple(e.name for e in entries)
    fields = [first_order_field(reg, e.spec) for e in entries]
    basis = span_basis([_feature_vector(reg, e.spec) for e in entries])
    combos = {}
    failures = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            n1, n2 = names[a], names[b]
            br = bracket_fields(reg, fields[a], fields[b])
            combo = _express(basis, names, _feature_vector(reg, br))
            if combo is None:
                failures.append((n1, n2))
                continue
            combos[(n1, n2)] = combo
            combos[(n2, n1)] = {k: -v for k, v in combo.items()}
    return StructureTable(names, combos, not failures, tuple(failures))
