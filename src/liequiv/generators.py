"""Equivalence generators: ansatz checking, prolongation, action, brackets.

A generator is a vector field on the extended space,

    X = xi^t d/dt + xi^{x_i} d/dx_i + eta^{u_i} d/du_i + eta^p d/dp
        + eta^rho d/drho + mu^{Pi_ij} d/dPi_ij + mu^G d/dG + mu^H d/dH,

restricted to the classical ansatz: xi and eta coefficients live on
(t, x, u, p, rho); mu coefficients on Pi components live on the velocity
gradient jets and the Pi components; mu^G and mu^H live on (p, rho, G, H).
Opaque ``?name`` constants are admitted everywhere for ansatz exploration.

Prolongation extends the field to the first-order jets, the second-order
velocity jets, and the stress-derivative coordinates:

    zeta^a_w    = D_w(eta^a) - sum_v D_w(xi^v) a_v
    zeta^a_wv   = D_v(zeta^a_w) - sum_z D_v(xi^z) a_wz
    mu^{ij}_kl  = Dt_kl(mu^{ij}) - sum_rs Pi^{ij}_rs Dt_kl(zeta^{u_r}_{x_s})

where D_w is the registered total derivative and Dt_kl is the total
derivative in the element-argument space, realized by the chaining partial
by u^r_{x^s} (constant on everything that is not a gradient jet or a Pi
component).  The mixed jets u_tx take the second formula with w = t and
v = x_l; its D_{x_l}(xi^t) u_tt term needs the unregistered u_tt, so u_tx
has a coefficient only for generators whose xi^t depends on t alone.

The directional action of a prolonged field (``apply_with_trace``) treats
every coordinate of the extended space as independent, as a vector field
must; the constitutive argument declarations play no role there.  It makes
one pass over the terms of its input, differentiating each factor whose
coordinate has a nonzero coefficient, and normalizes each per-coordinate
contribution and the total once.  It is the only derivation in the engine:
the invariance residual is the action of the full prolongation on an
equation, and the Lie bracket is the bracket of the prolonged fields, whose
base components

    [X1, X2]^a = X1(c2^a) - X2(c1^a)

need only the first prolongation, since a base coefficient depends on no
jet beyond the velocity gradient.  ``bracket`` and the structure-constant
table both take it through ``bracket_fields``; the table prolongs each
entry once.  ``base_coefficients`` and
``from_coefficients`` convert between a generator and its ordered map
direction -> coefficient.  A prolonged field is that map extended by every
prolonged coordinate, one table that ``prolong`` and ``first_order_field``
build and every reader, the brackets included, reads through ``coefficient``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (Atom, Expr, Monomial, ZERO, as_expr, atoms_of,
                   diff_partial, is_unknown, is_zero, UnknownSymbolError)
from .jets import JetRegistry, total_derivative


class AnsatzError(Exception):
    """A generator coefficient depends on a coordinate its slot forbids."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Coefficients of an equivalence generator in the classical ansatz.

    ``mu_pi`` is ordered like ``registry.pi_pairs()``; stress-derivative
    coefficients are not free data, they are produced by prolongation.
    """

    dim: int
    xi_t: Expr
    xi_x: tuple
    eta_u: tuple
    eta_p: Expr
    eta_rho: Expr
    mu_pi: tuple
    mu_g: Expr
    mu_h: Expr


def _check_atoms(coeff: Expr, allowed: set, slot: str):
    for a in atoms_of(coeff):
        if is_unknown(a):
            continue
        if a not in allowed:
            raise AnsatzError(f"{slot} may not depend on {a.name}")


def validate_ansatz(reg: JetRegistry, g: GeneratorSpec):
    """Raise AnsatzError when a coefficient leaves its admitted atom set."""
    point = {reg.t, reg.p, reg.rho} | set(reg.x) | set(reg.u)
    _check_atoms(g.xi_t, point, "xi^t")
    for i, c in enumerate(g.xi_x, start=1):
        _check_atoms(c, point, f"xi^x{i}")
    for k, c in enumerate(g.eta_u, start=1):
        _check_atoms(c, point, f"eta^u{k}")
    _check_atoms(g.eta_p, point, "eta^p")
    _check_atoms(g.eta_rho, point, "eta^rho")

    gradient = set(reg.u_x.values()) | set(reg.pi.values())
    for (i, j), c in zip(reg.pi_pairs(), g.mu_pi):
        _check_atoms(c, gradient, f"mu^Pi{i}{j}")
    state = {reg.p, reg.rho, reg.g, reg.h}
    _check_atoms(g.mu_g, state, "mu^G")
    _check_atoms(g.mu_h, state, "mu^H")


def make_generator(reg: JetRegistry, *, xi_t=0, xi_x=None, eta_u=None,
                   eta_p=0, eta_rho=0, mu_pi=None, mu_g=0, mu_h=0) -> GeneratorSpec:
    dim = reg.dim
    xi_x = tuple(as_expr(v) for v in (xi_x or (0,) * dim))
    eta_u = tuple(as_expr(v) for v in (eta_u or (0,) * dim))
    pairs = reg.pi_pairs()
    mu_pi = tuple(as_expr(v) for v in (mu_pi or (0,) * len(pairs)))
    if len(xi_x) != dim or len(eta_u) != dim or len(mu_pi) != len(pairs):
        raise ValueError("coefficient tuple lengths do not match the dimension")
    g = GeneratorSpec(dim, as_expr(xi_t), xi_x, eta_u, as_expr(eta_p),
                      as_expr(eta_rho), mu_pi, as_expr(mu_g), as_expr(mu_h))
    validate_ansatz(reg, g)
    return g


def combine(reg: JetRegistry, parts) -> GeneratorSpec:
    """Exact rational linear combination of generators: parts = [(c, g), ...]."""
    acc = {}
    for c, g in parts:
        for a, coeff in base_coefficients(reg, g).items():
            acc[a] = acc.get(a, ZERO) + c * coeff
    return from_coefficients(reg, acc)


def _base_directions(reg: JetRegistry) -> tuple:
    """The unprolonged directions in slot order."""
    return ((reg.t,) + reg.x + reg.u + (reg.p, reg.rho)
            + tuple(reg.pi[pair] for pair in reg.pi_pairs()) + (reg.g, reg.h))


def base_coefficients(reg: JetRegistry, g: GeneratorSpec) -> dict:
    """Ordered map coordinate -> coefficient over the unprolonged directions."""
    return dict(zip(_base_directions(reg),
                    (g.xi_t,) + g.xi_x + g.eta_u + (g.eta_p, g.eta_rho)
                    + g.mu_pi + (g.mu_g, g.mu_h)))


def from_coefficients(reg: JetRegistry, table: dict) -> GeneratorSpec:
    """Inverse of ``base_coefficients``; absent directions are zero."""
    def c(a):
        return table.get(a, ZERO)

    return make_generator(
        reg, xi_t=c(reg.t), xi_x=tuple(c(a) for a in reg.x),
        eta_u=tuple(c(a) for a in reg.u), eta_p=c(reg.p), eta_rho=c(reg.rho),
        mu_pi=tuple(c(reg.pi[pair]) for pair in reg.pi_pairs()),
        mu_g=c(reg.g), mu_h=c(reg.h))


class ProlongedGenerator:
    """A generator together with all prolonged coefficients, in one table.

    ``coefficient(atom)`` covers the base directions, the first-order jets,
    the second-order velocity jets (``u_tx`` only when every D_x(xi^t) is
    zero) and the stress-derivative coordinates, and is None for a
    coordinate without an action.  ``first_order_field`` builds one that
    stops at the first-order jets.
    """

    def __init__(self, reg: JetRegistry, table: dict):
        self.registry = reg
        self._table = table

    def coefficient(self, a: Atom):
        return self._table.get(a)

    def coefficients(self) -> dict:
        return dict(self._table)


def first_jet_coefficients(reg: JetRegistry, g: GeneratorSpec) -> tuple:
    """First-prolongation coefficients for every first-order jet.

    Returns (table, d_xi): table maps each base direction and first-order jet
    to its coefficient, d_xi maps (v, w) to the nonzero total derivatives
    D_w(xi^v).
    """
    dirs = reg.independents
    d_xi = {}
    for v, xi in zip(dirs, (g.xi_t,) + g.xi_x):
        for w in dirs:
            d = total_derivative(xi, w, reg)
            if not is_zero(d):
                d_xi[(v, w)] = d

    table = base_coefficients(reg, g)
    for alpha, eta in zip(reg.u + (reg.p, reg.rho),
                          g.eta_u + (g.eta_p, g.eta_rho)):
        for w in dirs:
            val = total_derivative(eta, w, reg)
            for v in dirs:
                d = d_xi.get((v, w))
                if d is not None:
                    val = val - d * reg.advance(alpha, v)
            table[reg.advance(alpha, w)] = val
    return table, d_xi


def prolong(reg: JetRegistry, g: GeneratorSpec) -> ProlongedGenerator:
    validate_ansatz(reg, g)
    dirs = reg.independents
    table, d_xi = first_jet_coefficients(reg, g)

    def second(jet, w):
        val = total_derivative(table[jet], w, reg)
        for v in dirs:
            d = d_xi.get((v, w))
            if d is not None:
                val = val - d * reg.advance(jet, v)
        return val

    table.update((a, second(reg.u_x[(k, l)], reg.x[j - 1]))
                 for (k, l, j), a in sorted(reg.u_xx.items()))
    # the D_x(xi^t) u_tt term of zeta^u_tx needs the unregistered u_tt
    if not any((reg.t, w) in d_xi for w in reg.x):
        table.update((a, second(reg.u_t[k - 1], reg.x[l - 1]))
                     for (k, l), a in sorted(reg.u_tx.items()))

    # d zeta^{u_r}_{x_s} / d u^k_{x_l} does not depend on the stress pair
    grad_keys = sorted(reg.u_x)
    d_zeta = {}
    for kl in grad_keys:
        for rs in grad_keys:
            d = diff_partial(table[reg.u_x[rs]], reg.u_x[kl])
            if not is_zero(d):
                d_zeta[(kl, rs)] = d

    for (i, j), mu in zip(reg.pi_pairs(), g.mu_pi):
        for kl in grad_keys:
            val = diff_partial(mu, reg.u_x[kl])
            for rs in grad_keys:
                d = d_zeta.get((kl, rs))
                if d is not None:
                    val = val - reg.pi_d[(i, j) + rs] * d
            table[reg.pi_d[(i, j) + kl]] = val

    return ProlongedGenerator(reg, table)


def apply_with_trace(reg: JetRegistry, pg: ProlongedGenerator, e) -> tuple:
    """Directional derivative of ``e`` with the per-coordinate contributions.

    Returns (total, trace) where trace is the tuple of (coordinate, term)
    pairs, in canonical coordinate order, before any cross-coordinate
    cancellation; summing the trace normalizes to the total.

    One pass over the terms of ``e``: each factor ``a**k`` whose coefficient
    ``c`` is nonzero contributes ``k * rest * c``, with ``rest`` the monomial
    less one power of ``a``.  Every trace entry and the total are each
    normalized once, from these pairs.  The coordinates are checked first,
    in canonical order, so the first one without a coefficient is the one
    named by ``UnknownSymbolError``.
    """
    e = as_expr(e)
    coeffs = {}
    for a in atoms_of(e):
        if is_unknown(a):
            continue
        c = pg.coefficient(a)
        if c is None:
            raise UnknownSymbolError(
                f"no prolonged action is defined for {a.name}")
        if c.terms:
            coeffs[a] = c.terms
    if not coeffs:
        return ZERO, ()
    pieces = {a: [] for a in coeffs}
    for mono, c in e.terms:
        factors = mono.factors
        for idx, (a, k) in enumerate(factors):
            c_terms = coeffs.get(a)
            if c_terms is None:
                continue
            # the factors less one power of a: still canonical
            rest = Monomial._trusted(
                factors[:idx] + ((a, k - 1),) + factors[idx + 1:] if k > 1
                else factors[:idx] + factors[idx + 1:])
            kc = k * c
            pieces[a].extend((rest * m2, kc * c2) for m2, c2 in c_terms)
    trace = tuple((a, Expr(p)) for a, p in pieces.items())
    trace = tuple(item for item in trace if item[1].terms)
    if len(trace) == 1:
        return trace[0][1], trace
    return Expr(pair for p in pieces.values() for pair in p), trace


def first_order_field(reg: JetRegistry, g: GeneratorSpec) -> ProlongedGenerator:
    """The first prolongation of ``g``: base directions and first-order jets."""
    validate_ansatz(reg, g)
    return ProlongedGenerator(reg, first_jet_coefficients(reg, g)[0])


def bracket_fields(reg: JetRegistry, p1: ProlongedGenerator,
                   p2: ProlongedGenerator) -> GeneratorSpec:
    """[X1, X2] on the base directions from two first-order fields."""
    return from_coefficients(reg, {
        a: (apply_with_trace(reg, p1, p2.coefficient(a))[0]
            - apply_with_trace(reg, p2, p1.coefficient(a))[0])
        for a in _base_directions(reg)})


def bracket(reg: JetRegistry, g1: GeneratorSpec, g2: GeneratorSpec) -> GeneratorSpec:
    """Lie bracket [g1, g2] of the prolonged fields, on the base directions.

    Each component is X1(c2) - X2(c1), where X1 and X2 act through their
    first prolongations: the mu^Pi coefficients may contain gradient jets,
    and a first-order field already carries their coefficients.
    """
    return bracket_fields(reg, first_order_field(reg, g1), first_order_field(reg, g2))
