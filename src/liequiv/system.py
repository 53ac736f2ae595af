"""The viscous balance-law system and its on-manifold restriction.

Three equations over the registered space:

* mass:        rho_t + sum_i (u^i rho_{x^i} + rho u^i_{x^i}) = 0
* momentum i:  rho (u^i_t + sum_j u^j u^i_{x^j}) - sum_j D_{x^j} Pi^{ij}
               + p_{x^i} = 0
* pressure:    p_t + sum_i u^i p_{x^i} + G div(u) + H Phi = 0

with the dissipation Phi = Pi : grad(u) contracted through the symmetric
representative of Pi.  ``build_system`` declares each equation, by name and
in print order, with the principal derivative it is solved for (rho_t,
u^i_t, p_t).  The contract, which the tests check and the build does not:
each equation is linear in its jet, with a lead coefficient of 1 or of one
atom shared by every non-unit lead (rho here), and no binding holds a
principal jet.  The solutions are kept in one table,
``BalanceSystem.principal``.  The u^i_t solutions carry a denominator rho,
so the table binds each u^i_t to its numerator.  Restriction scales every
term by the power of rho that clears its denominators, then makes one
``replace_atoms`` pass over the table, and reports the power.  The products
of bindings that the pass builds depend on the table alone, so the system
keeps them, ``BalanceSystem.products``, and each is built once for the life
of the system.

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

from .expr import (ONE, Expr, Monomial, ZERO, as_expr, atoms_of, diff_partial,
                   replace_atoms)
from .jets import JetRegistry, total_derivative


class BalanceSystem:
    """A declared system of equations, fixed once built.

    ``declared`` maps each equation name, in print order, to (equation,
    principal jet).  Contract, checked by the tests and not here: each
    equation is linear in its jet, its lead is 1 or one atom that every
    non-unit lead shares, and no binding holds a principal jet.
    ``equations`` maps each name to its equation, ``principal`` each jet to
    lead*jet - equation, and ``leads`` each jet whose lead is not 1 to its
    lead atom.  ``parametric`` holds the coordinates the system leaves free.
    ``products`` is the one thing that grows: the ``replace_atoms`` memo of
    ``restrict_to_manifold``, from a tuple of replaced factors to its
    product of ``principal`` bindings, filled on first use.  It depends on
    the system alone and holds one entry per distinct tuple seen.
    """

    def __init__(self, reg: JetRegistry, declared: dict):
        self.registry = reg
        self.equations = {name: eq for name, (eq, _) in declared.items()}
        self.principal, self.leads = {}, {}
        for eq, jet in declared.values():
            lead = diff_partial(eq, jet)
            self.principal[jet] = lead * jet - eq
            if lead != ONE:
                self.leads[jet], = atoms_of(lead)
        self.parametric = tuple(sorted(a for a in reg.space[len(reg.point):]
                                       if a not in self.principal))
        self.products = {}


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
    declared = {"mass": (mass, reg.rho_t)}

    for i in rng:
        eq = reg.rho * reg.u_t[i - 1] + reg.p_x[i - 1]
        for j in rng:
            eq = (eq + reg.rho * reg.u[j - 1] * reg.u_x[(i, j)]
                  - total_derivative(Expr.of(reg.pi_at(i, j)), reg.x[j - 1], reg))
        declared[f"momentum_{i}"] = (eq, reg.u_t[i - 1])

    divu = ZERO
    for i in rng:
        divu = divu + reg.u_x[(i, i)]
    pressure = as_expr(reg.p_t)
    for i in rng:
        pressure = pressure + reg.u[i - 1] * reg.p_x[i - 1]
    pressure = pressure + reg.g * divu + reg.h * dissipation_function(reg)
    declared["pressure"] = (pressure, reg.p_t)
    return BalanceSystem(reg, declared)


def restrict_to_manifold(e, system: BalanceSystem) -> tuple:
    """Eliminate principal derivatives, clearing lead denominators.

    Returns (restricted expression, power of the lead atom used).  The
    power is the largest total degree, among the terms of ``e``, of the
    jets in ``system.leads``.  Each term of degree d is multiplied by
    lead**(power - d), and one ``replace_atoms`` pass over
    ``system.principal`` then gives the polynomial lead**power * e on the
    manifold.  After the scaling the terms stay distinct: terms of one
    degree gain the same power of the lead, and terms of different degree
    keep apart.
    """
    e = as_expr(e)
    leads = system.leads
    degrees = {mono: sum(k for a, k in mono if a in leads) for mono in e.coeffs}
    power = max(degrees.values(), default=0)
    if power:
        lead, = set(leads.values())
        lead_powers = [Monomial(((lead, n),)) for n in range(power + 1)]
        e = Expr._trusted({mono * lead_powers[power - degrees[mono]]: c
                           for mono, c in e.coeffs.items()})
    return replace_atoms(e, system.principal, system.products), power
