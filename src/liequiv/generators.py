"""Equivalence generators: ansatz checking, prolongation, action, brackets.

A generator is a vector field on the extended space,

    X = xi^t d/dt + xi^{x_i} d/dx_i + eta^{u_i} d/du_i + eta^p d/dp
        + eta^rho d/drho + mu^{Pi_ij} d/dPi_ij + mu^G d/dG + mu^H d/dH,

restricted to the classical ansatz ``reg.ansatz``: xi and eta coefficients
live on (t, x, u, p, rho); mu coefficients on Pi components live on the
velocity gradient jets and the Pi components; mu^G and mu^H live on
(p, rho, G, H).  Opaque ``?name`` constants are admitted everywhere for
ansatz exploration.  ``validate_ansatz`` is one loop over that table.

A prolonged field is one table {coordinate: coefficient}: the base
directions, then every prolonged coordinate, all from one rule (Olver 1986,
Thm 2.36).  For a coordinate c with coefficient table[c] and a direction w,
the coordinate c_w = reg.advance[(c, w)] gets

    table[c_w] = D_w(table[c]) - sum_v D_w(table[v]) c_v

over one of two spaces.  Over the jets, v and w run over (t, x) and D_w is
the registered total derivative, and each (c, w) is read off a key of the
jet table ``reg.jets``: (d, w) for (d, (w,)) gives the first-order jets,
then (jets[d, (w1,)], w2) for (d, (w1, w2)) the second-order velocity jets
u_xx and u_tx.  Over the constitutive elements (Ovsiannikov's equivalence
method), v and w run over the gradient jets u^k_{x_l}, D_w is the chaining
partial ``diff_partial`` (constant on everything that is not a gradient jet
or a Pi component), and c = Pi^{ij} gives the stress-derivative coordinates
Pi^{ij}_{kl}.  The D_{x_l}(xi^t) u_tt term of u^k_{tx_l} needs the
unregistered u_tt, so u_tx has a coefficient only for generators whose
xi^t depends on t alone.  A coordinate with no action has no table entry.

The directional action of a prolonged field, ``apply``, treats every
coordinate of the extended space as independent, as a vector field must;
the constitutive argument declarations play no role there.  It is
``expr.derive``, the one Leibniz routine of the engine, with the prolonged
coefficients as its image table, and it is the only action of a field:
the invariance residual is the action of the full prolongation on an
equation, the Lie series of a flow repeats it, and the Lie bracket is the
bracket of the prolonged fields, whose base components

    [X1, X2]^a = X1(c2^a) - X2(c1^a)

need only the first prolongation, since a base coefficient depends on no
jet beyond the velocity gradient.  ``bracket`` and the structure-constant
table both take it through ``bracket_fields``; the table prolongs each
entry once.  ``base_coefficients`` and ``from_coefficients`` convert
between a generator and its table {direction: coefficient} over the keys of
``reg.ansatz``.  ``first_order_field`` extends it by the first-order jets,
and ``prolong`` goes on from that same first prolongation; every key they
add is a value of the registry table ``reg.advance``.

``apply_with_trace`` returns the action with the share of each coordinate,
``derive`` over that coordinate's one-entry image table; the shares sum to
the action.  It serves inspection only: no caller in the engine needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .expr import (Expr, ZERO, as_expr, atoms_of, derive, diff_partial,
                   is_unknown, is_zero, UnknownSymbolError)
from .jets import JetRegistry, total_derivative


class AnsatzError(Exception):
    """A generator coefficient depends on a coordinate its slot forbids."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Coefficients of an equivalence generator in the classical ansatz.

    ``mu_pi`` is ordered like ``registry.pi_pairs()``; stress-derivative
    coefficients are not free data, they are produced by prolongation.
    """

    xi_t: Expr
    xi_x: tuple
    eta_u: tuple
    eta_p: Expr
    eta_rho: Expr
    mu_pi: tuple
    mu_g: Expr
    mu_h: Expr


def _slot_values(g: GeneratorSpec) -> tuple:
    """The coefficients of ``g`` in slot order, the order of ``reg.ansatz``."""
    return ((g.xi_t,) + g.xi_x + g.eta_u + (g.eta_p, g.eta_rho) + g.mu_pi
            + (g.mu_g, g.mu_h))


def validate_ansatz(reg: JetRegistry, g: GeneratorSpec):
    """Raise AnsatzError when a coefficient leaves its admitted atom set."""
    for (direction, admitted), coeff in zip(reg.ansatz.items(), _slot_values(g)):
        for a in atoms_of(coeff):
            if a not in admitted and not is_unknown(a):
                slot = ("xi" if direction in reg.independents
                        else "eta" if direction in reg.point else "mu")
                raise AnsatzError(
                    f"{slot}^{direction.name} may not depend on {a.name}")


def make_generator(reg: JetRegistry, *, xi_t=0, xi_x=None, eta_u=None,
                   eta_p=0, eta_rho=0, mu_pi=None, mu_g=0, mu_h=0) -> GeneratorSpec:
    dim = reg.dim
    xi_x = tuple(as_expr(v) for v in (xi_x or (0,) * dim))
    eta_u = tuple(as_expr(v) for v in (eta_u or (0,) * dim))
    pairs = reg.pi_pairs()
    mu_pi = tuple(as_expr(v) for v in (mu_pi or (0,) * len(pairs)))
    if len(xi_x) != dim or len(eta_u) != dim or len(mu_pi) != len(pairs):
        raise ValueError("coefficient tuple lengths do not match the dimension")
    g = GeneratorSpec(as_expr(xi_t), xi_x, eta_u, as_expr(eta_p),
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


def base_coefficients(reg: JetRegistry, g: GeneratorSpec) -> dict:
    """Ordered map direction -> coefficient over ``reg.ansatz``."""
    return dict(zip(reg.ansatz, _slot_values(g)))


def from_coefficients(reg: JetRegistry, table: dict) -> GeneratorSpec:
    """Inverse of ``base_coefficients``; absent directions are zero, and a
    key that is not a base direction raises AnsatzError."""
    for a in table:
        if a not in reg.ansatz:
            raise AnsatzError(f"{a.name} is not a base direction")
    c = [table.get(a, ZERO) for a in reg.ansatz]
    n = 1 + 2 * reg.dim
    return make_generator(
        reg, xi_t=c[0], xi_x=c[1:1 + reg.dim], eta_u=c[1 + reg.dim:n],
        eta_p=c[n], eta_rho=c[n + 1], mu_pi=c[n + 2:-2], mu_g=c[-2],
        mu_h=c[-1])


def _derivatives(table: dict, vs: tuple, D) -> dict:
    """w -> {v: D_w(table[v])} over the nonzero derivatives, v and w in ``vs``."""
    return {w: {v: d for v in vs if not is_zero(d := D(table[v], w))}
            for w in vs}


def _prolong(reg: JetRegistry, table: dict, pairs, D, dv: dict):
    """Enter c_w = reg.advance[(c, w)] for each (c, w) of ``pairs`` into
    ``table``, with the coefficient D_w(table[c]) - sum_v D_w(table[v]) c_v;
    ``dv`` holds the nonzero D_w(table[v]) as ``_derivatives`` gives them."""
    for c, w in pairs:
        val = D(table[c], w)
        for v, d in dv[w].items():
            val = val - d * reg.advance[(c, v)]
        table[reg.advance[(c, w)]] = val


def _first_order(reg: JetRegistry, g: GeneratorSpec) -> tuple:
    """(table, D, d_xi): the first prolongation of ``g`` over the base
    directions and the first-order jets, the total derivative D it was taken
    with, and the nonzero D_w(xi^v) as ``_derivatives`` gives them."""
    validate_ansatz(reg, g)
    D = partial(total_derivative, reg=reg)
    table = base_coefficients(reg, g)
    d_xi = _derivatives(table, reg.independents, D)
    _prolong(reg, table, [(d, ws[0]) for d, ws in reg.jets if len(ws) == 1],
             D, d_xi)
    return table, D, d_xi


def prolong(reg: JetRegistry, g: GeneratorSpec) -> dict:
    """The prolonged field of ``g`` as one table {coordinate: coefficient}."""
    table, D, d_xi = _first_order(reg, g)
    # the D_x(xi^t) u_tt term of zeta^u_tx needs the unregistered u_tt
    tx = not any(reg.t in d_xi[w] for w in reg.x)
    _prolong(reg, table, [(reg.jets[d, ws[:-1]], ws[-1]) for d, ws in reg.jets
                          if len(ws) == 2 and (tx or reg.t not in ws)],
             D, d_xi)
    grad = tuple(reg.u_x.values())
    _prolong(reg, table, [(s, a) for s in reg.pi.values() for a in grad],
             diff_partial, _derivatives(table, grad, diff_partial))
    return table


def apply(pg: dict, e) -> Expr:
    """The directional derivative of ``e`` along the prolonged field ``pg``.

    The derivation ``expr.derive`` with the prolonged coefficients as its
    image table; ?constants are constant.  A coordinate of ``e`` without a
    coefficient raises ``UnknownSymbolError``, naming the first such
    coordinate in canonical order.
    """
    missing = []

    def image(a):
        c = pg.get(a)
        if c is None and not is_unknown(a):
            missing.append(a)
        return c and c.coeffs.items()

    out = derive(e, image)
    if missing:
        raise UnknownSymbolError(
            f"no prolonged action is defined for {min(missing).name}")
    return out


def apply_with_trace(pg: dict, e) -> tuple:
    """``apply(pg, e)`` with the per-coordinate contributions.

    Returns (total, trace) where trace is the tuple of (coordinate, term)
    pairs, in canonical coordinate order, before any cross-coordinate
    cancellation; the trace sums to the total.  Each term is ``derive`` over
    the one-entry image table of its coordinate, and coordinates whose term
    vanishes are left out.
    """
    total = apply(pg, e)
    trace = ((a, derive(e, {a: c.coeffs.items()}.get))
             for a in atoms_of(e) if (c := pg.get(a)))
    return total, tuple(item for item in trace if item[1])


def first_order_field(reg: JetRegistry, g: GeneratorSpec) -> dict:
    """The first prolongation of ``g``: base directions and first-order jets."""
    return _first_order(reg, g)[0]


def bracket_fields(reg: JetRegistry, p1: dict, p2: dict) -> GeneratorSpec:
    """[X1, X2] on the base directions from two first-order fields."""
    return from_coefficients(reg, {
        a: apply(p1, p2[a]) - apply(p2, p1[a])
        for a in reg.ansatz})


def bracket(reg: JetRegistry, g1: GeneratorSpec, g2: GeneratorSpec) -> GeneratorSpec:
    """Lie bracket [g1, g2] of the prolonged fields, on the base directions.

    Each component is X1(c2) - X2(c1), where X1 and X2 act through their
    first prolongations: the mu^Pi coefficients may contain gradient jets,
    and a first-order field already carries their coefficients.
    """
    return bracket_fields(reg, first_order_field(reg, g1), first_order_field(reg, g2))
