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
reports the power.  The products of bindings that the pass builds depend on
the table alone, so the system keeps them, ``BalanceSystem.products``, and
each is built once for the life of the system.

The registered coordinates after the point (t, x, u, p, rho) that the table
does not bind are left free on the solution manifold, and the restricted
invariance residual is split on them: ``BalanceSystem.parametric``, sorted
by atom key.  They are the first-order spatial jets of u, p and rho, the
second-order velocity jets and the constitutive coordinates Pi^{ij},
Pi^{ij}_{kl}, G, H.  The mixed jets u_tx are among them: the system fixes
u_t, but u_tx only through D_x of the momentum equation, which is third
order, so in J^2 nothing constrains them.
"""

from __future__ import annotations

from .expr import Expr, Monomial, ZERO, as_expr, replace_atoms
from .jets import JetRegistry, total_derivative


class BalanceSystem:
    """The three equations of one dimension, fixed once built.

    ``principal`` maps rho_t and p_t to their polynomial solutions and each
    u^i_t to the numerator rho*u^i_t - momentum_i of its solution
    numerator / rho.  No binding contains a principal derivative.
    ``parametric`` holds the coordinates the system leaves free.
    ``products`` is the one thing that grows: the ``replace_atoms`` memo of
    ``restrict_to_manifold``, from a tuple of replaced factors to its
    product of ``principal`` bindings, filled on first use.  It depends on
    the system alone and holds one entry per distinct tuple seen.
    """

    def __init__(self, reg: JetRegistry, mass: Expr, momentum: tuple,
                 pressure: Expr, dissipation: Expr, principal: dict,
                 parametric: tuple):
        self.registry = reg
        self.mass = mass
        self.momentum = momentum
        self.pressure = pressure
        self.dissipation = dissipation
        self.principal = principal
        self.parametric = parametric
        self.products = {}

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

    parametric = tuple(sorted(a for a in reg.space[len(reg.point):]
                              if a not in principal))
    return BalanceSystem(reg, mass, tuple(momentum), pressure, phi, principal,
                         parametric)


def restrict_to_manifold(e, system: BalanceSystem) -> tuple:
    """Eliminate principal derivatives, clearing rho denominators.

    Returns (restricted expression, rho power used).  The power is the
    largest total degree of the u_t among the terms of ``e``.  Each term of
    u_t degree d is multiplied by rho**(power - d), and one ``replace_atoms``
    pass over ``system.principal`` then gives the polynomial rho**power * e
    on the manifold.  After the scaling the terms stay distinct: terms of
    one u_t degree gain the same power of rho, and terms of different u_t
    degree keep apart.
    """
    reg = system.registry
    e = as_expr(e)
    u_t = set(reg.u_t)
    degrees = {mono: sum(k for a, k in mono if a in u_t) for mono in e.coeffs}
    power = max(degrees.values(), default=0)
    if power:
        rho_powers = [Monomial(((reg.rho, n),)) for n in range(power + 1)]
        e = Expr._trusted({mono * rho_powers[power - degrees[mono]]: c
                           for mono, c in e.coeffs.items()})
    return replace_atoms(e, system.principal, system.products), power
