"""Built-in generator families and the structure constants of their span.

The verified families, for spatial dimension N:

    X0       time translation
    X1..XN   space translations
    S        pressure shift
    Y1..YN   velocity boosts
    T        trace shift of the stress, compensated through G
    Z1       space/velocity scaling with weight-2 action on p, Pi, G
    Z2       density/pressure/stress/G scaling

(N + N + 5 entries), each one table {direction: coefficient} over the
keys of ``reg.ansatz`` given to ``from_coefficients``, e.g.
Y_i = {x_i: t, u_i: 1}.  For N >= 2 rotation candidates J{i}{j} are exposed
in two readings: ``naive``, {x_i: -x_j, x_j: x_i, u_i: -u_j, u_j: u_i},
leaves the constitutive coordinates fixed, and ``tensorial`` conjugates the
stress through the infinitesimal rotation, delta Pi = Omega Pi - Pi Omega.
Candidates are exploratory; their flows need cos/sin, so only the verified
entries carry a closed-form flow (``has_flow``, derived from the kind).
Generators given outside the catalog, as DSL text, travel as entries of kind
``"user"``, which are checked infinitesimally only.

``structure_constants`` prolongs each entry and builds its feature vector
once per table, reduces the span of those vectors once, brackets every pair
from the first-order fields, and expresses each bracket over the span with
one reduction of its own row, the same two steps as ``decompose_in_span``.
"""

from __future__ import annotations

from typing import NamedTuple

from .generators import (GeneratorSpec, base_coefficients, bracket_fields,
                         first_order_field, from_coefficients)
from .jets import JetRegistry, UnsupportedDimensionError
from .linsolve import express, span_basis

KIND_VERIFIED = "theorem"
KIND_CANDIDATE = "rotation-candidate"
KIND_USER = "user"


class CatalogEntry(NamedTuple):
    name: str
    kind: str
    spec: GeneratorSpec

    @property
    def has_flow(self) -> bool:
        return self.kind == KIND_VERIFIED


def rotation_specs(reg: JetRegistry, i: int, j: int):
    """(naive, tensorial) rotation generators in the x_i-x_j plane.

    Omega has two nonzero entries, so (Omega v)_i = -v_j, (Omega v)_j = v_i,
    and for symmetric Pi delta Pi = Omega Pi - Pi Omega = Omega Pi + (Omega Pi)^T.
    """
    def omega_pi(r, c):
        """(Omega Pi)_rc."""
        return -reg.pi_at(j, c) if r == i else reg.pi_at(i, c) if r == j else 0

    xi, xj, ui, uj = reg.x[i - 1], reg.x[j - 1], reg.u[i - 1], reg.u[j - 1]
    naive = {xi: -xj, xj: xi, ui: -uj, uj: ui}
    stress = {reg.pi[rc]: omega_pi(*rc) + omega_pi(*rc[::-1])
              for rc in reg.pi_pairs()}
    return from_coefficients(reg, naive), from_coefficients(reg, {**naive, **stress})


def build_catalog(dim: int, reg: JetRegistry) -> tuple:
    """The entries in catalog order; each theorem entry is one table
    {direction: coefficient}."""
    if dim not in (1, 2, 3):
        raise UnsupportedDimensionError(f"dimension must be 1, 2 or 3, got {dim!r}")
    if dim != reg.dim:
        raise ValueError("dimension does not match registry")
    rng = range(1, dim + 1)
    entries = []

    def theorem(name, table):
        entries.append(CatalogEntry(name, KIND_VERIFIED, from_coefficients(reg, table)))

    stress = tuple(reg.pi.values())
    theorem("X0", {reg.t: 1})
    for i in rng:
        theorem(f"X{i}", {reg.x[i - 1]: 1})
    theorem("S", {reg.p: 1})
    for i in rng:
        theorem(f"Y{i}", {reg.x[i - 1]: reg.t, reg.u[i - 1]: 1})
    theorem("T", {**{reg.pi[(k, k)]: 1 for k in rng}, reg.g: -reg.h})
    theorem("Z1", {**{a: a for a in reg.x + reg.u}, reg.p: 2 * reg.p,
                   **{a: 2 * a for a in stress}, reg.g: 2 * reg.g})
    theorem("Z2", {reg.rho: reg.rho, reg.p: reg.p, **{a: a for a in stress},
                   reg.g: reg.g})

    planes = [(i, j) for i in rng for j in rng if i < j]
    rotations = [(pair, rotation_specs(reg, *pair)) for pair in planes]
    for (i, j), (naive, _) in rotations:
        entries.append(CatalogEntry(f"J{i}{j}_naive", KIND_CANDIDATE, naive))
    for (i, j), (_, tensorial) in rotations:
        entries.append(CatalogEntry(f"J{i}{j}_tensorial", KIND_CANDIDATE, tensorial))
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
        for mono, c in coeff.coeffs.items():
            vec[(direction.name, mono)] = c
    return vec


class StructureTable(NamedTuple):
    names: tuple
    combos: dict      # (name1, name2) -> {name: Fraction}, zero entries absent
    closed: bool
    failures: tuple   # pairs whose bracket left the span

    def cell(self, n1: str, n2: str) -> dict:
        return self.combos.get((n1, n2), {})


def decompose_in_span(reg: JetRegistry, g: GeneratorSpec, entries) -> dict | None:
    """Exact coefficients expressing ``g`` over the entries, or None."""
    basis = span_basis({e.name: _feature_vector(reg, e.spec) for e in entries})
    return express(basis, _feature_vector(reg, g))


def structure_constants(reg: JetRegistry, entries) -> StructureTable:
    """All pairwise brackets expressed over the entries themselves; each
    entry is prolonged once and gives one feature vector per table, and
    every pair goes through ``bracket_fields``."""
    names = tuple(e.name for e in entries)
    fields = [first_order_field(reg, e.spec) for e in entries]
    basis = span_basis({e.name: _feature_vector(reg, e.spec) for e in entries})
    combos = {}
    failures = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            n1, n2 = names[a], names[b]
            br = bracket_fields(reg, fields[a], fields[b])
            combo = express(basis, _feature_vector(reg, br))
            if combo is None:
                failures.append((n1, n2))
                continue
            combos[(n1, n2)] = combo
            combos[(n2, n1)] = {k: -v for k, v in combo.items()}
    return StructureTable(names, combos, not failures, tuple(failures))
