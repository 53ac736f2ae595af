"""The viscous balance-law system and its on-manifold restriction.

Three equations over the registered space:

* mass:        rho_t + sum_i (u^i rho_{x^i} + rho u^i_{x^i}) = 0
* momentum i:  rho (u^i_t + sum_j u^j u^i_{x^j}) - sum_j D_{x^j} Pi^{ij}
               + p_{x^i} = 0
* pressure:    p_t + sum_i u^i p_{x^i} + G div(u) + H Phi = 0

with the dissipation Phi = Pi : grad(u) contracted through the symmetric
representative of Pi.  The principal derivatives rho_t, u^i_t, p_t are
solved for and kept in one table, ``BalanceSystem.principal``.  The u^i_t
solutions carry a denominator rho, so the table binds each u^i_t to its
numerator.  Restriction scales every term by the power of rho that clears
its denominators, then makes one ``replace_atoms`` pass over the table, and
reports the power.
"""

from __future__ import annotations

from .expr import Expr, Monomial, ZERO, as_expr, atoms_of, replace_atoms
from .jets import JetRegistry, total_derivative


class BalanceSystem:
    """Immutable container for the three equations of one dimension.

    ``principal`` maps rho_t and p_t to their polynomial solutions and each
    u^i_t to the numerator rho*u^i_t - momentum_i of its solution
    numerator / rho.  No binding contains a principal derivative.
    """

    def __init__(self, reg: JetRegistry, mass: Expr, momentum: tuple,
                 pressure: Expr, dissipation: Expr, principal: dict):
        self.registry = reg
        self.mass = mass
        self.momentum = momentum
        self.pressure = pressure
        self.dissipation = dissipation
        self.principal = principal

    def equations(self) -> tuple:
        named = [("mass", self.mass)]
        named += [(f"momentum_{i + 1}", eq) for i, eq in enumerate(self.momentum)]
        named.append(("pressure", self.pressure))
        return tuple(named)


def dissipation_function(reg: JetRegistry) -> Expr:
    """Phi = sum_ij Pi^{ij} u^i_{x^j} with the symmetric representative."""
    phi = ZERO
    for i in range(1, reg.dim + 1):
        for j in range(1, reg.dim + 1):
            phi = phi + reg.pi_at(i, j) * reg.u_x[(i, j)]
    return phi


def build_system(dim: int, reg: JetRegistry) -> BalanceSystem:
    if dim != reg.dim:
        raise ValueError(f"dimension {dim} does not match registry dim {reg.dim}")
    rng = range(1, dim + 1)

    mass = as_expr(reg.rho_t)
    for i in rng:
        mass = mass + reg.u[i - 1] * reg.rho_x[i - 1] + reg.rho * reg.u_x[(i, i)]

    momentum = []
    for i in rng:
        eq = reg.rho * reg.u_t[i - 1] + reg.p_x[i - 1]
        for j in rng:
            eq = (eq + reg.rho * reg.u[j - 1] * reg.u_x[(i, j)]
                  - total_derivative(Expr.of(reg.pi_at(i, j)), reg.x[j - 1], reg))
        momentum.append(eq)

    phi = dissipation_function(reg)
    divu = ZERO
    for i in rng:
        divu = divu + reg.u_x[(i, i)]
    pressure = as_expr(reg.p_t)
    for i in rng:
        pressure = pressure + reg.u[i - 1] * reg.p_x[i - 1]
    pressure = pressure + reg.g * divu + reg.h * phi

    principal = {reg.rho_t: as_expr(reg.rho_t) - mass,
                 reg.p_t: as_expr(reg.p_t) - pressure}
    principal.update((u_t, reg.rho * u_t - eq) for u_t, eq in zip(reg.u_t, momentum))
    for e in principal.values():
        hit = principal.keys() & atoms_of(e)
        if hit:
            raise ValueError(
                f"principal solution depends on principal derivative "
                f"{sorted(hit)[0].name}")

    return BalanceSystem(reg, mass, tuple(momentum), pressure, phi, principal)


def restrict_to_manifold(e, system: BalanceSystem) -> tuple:
    """Eliminate principal derivatives, clearing rho denominators.

    Returns (restricted expression, rho power used).  The power is the
    largest total degree of the u_t among the terms of ``e``.  Each term of
    u_t degree d is multiplied by rho**(power - d), and one ``replace_atoms``
    pass over ``system.principal`` then gives the polynomial rho**power * e
    on the manifold.
    """
    reg = system.registry
    e = as_expr(e)
    u_t = set(reg.u_t)
    degrees = [sum(k for a, k in mono.factors if a in u_t) for mono, _ in e.terms]
    power = max(degrees, default=0)
    if power:
        rho_powers = [Monomial(((reg.rho, n),)) for n in range(power + 1)]
        e = Expr((mono * rho_powers[power - d], c)
                 for (mono, c), d in zip(e.terms, degrees))
    return replace_atoms(e, system.principal), power
