"""The viscous balance-law system and its on-manifold restriction.

Three equations over the registered space:

* mass:        rho_t + sum_i (u^i rho_{x^i} + rho u^i_{x^i}) = 0
* momentum i:  rho (u^i_t + sum_j u^j u^i_{x^j}) - sum_j D_{x^j} Pi^{ij}
               + p_{x^i} = 0
* pressure:    p_t + sum_i u^i p_{x^i} + G div(u) + H Phi = 0

with the dissipation Phi = Pi : grad(u) contracted through the symmetric
representative of Pi.  The principal derivatives rho_t, u^i_t, p_t are
solved for; the u^i_t solutions carry a denominator rho, so restriction
multiplies by the minimal clearing power of rho (the maximal total degree of
the momentum principal derivatives in the input) and reports that power.
"""

from __future__ import annotations

from .expr import Expr, Monomial, ONE, ZERO, as_expr, atoms_of, substitute
from .jets import JetRegistry, total_derivative


class PrincipalMap:
    """Solutions of the system for the principal time derivatives.

    rho_t and p_t are bound to polynomial expressions; each u^i_t is bound to
    numerator(i) / rho, the numerator rho*u^i_t - momentum_i stored
    polynomial.  The map is triangular: no binding contains a principal
    derivative.
    """

    def __init__(self, reg: JetRegistry, rho_t: Expr, p_t: Expr, u_t_num: tuple):
        principal = {reg.rho_t, reg.p_t} | set(reg.u_t)
        for e in (rho_t, p_t) + u_t_num:
            hit = principal.intersection(atoms_of(e))
            if hit:
                raise ValueError(
                    f"principal solution depends on principal derivative "
                    f"{sorted(hit)[0].name}")
        self.rho_t = rho_t
        self.p_t = p_t
        self.u_t_num = u_t_num


class BalanceSystem:
    """Immutable container for the three equations of one dimension."""

    def __init__(self, reg: JetRegistry, mass: Expr, momentum: tuple,
                 pressure: Expr, dissipation: Expr, principal: PrincipalMap):
        self.registry = reg
        self.dim = reg.dim
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

    rho_t_sol = as_expr(reg.rho_t) - mass
    p_t_sol = as_expr(reg.p_t) - pressure
    u_t_num = tuple(reg.rho * u_t - eq for u_t, eq in zip(reg.u_t, momentum))
    principal = PrincipalMap(reg, rho_t_sol, p_t_sol, u_t_num)

    return BalanceSystem(reg, mass, tuple(momentum), pressure, phi, principal)


def restrict_to_manifold(e, system: BalanceSystem) -> tuple:
    """Eliminate principal derivatives, clearing rho denominators.

    Returns (restricted expression, rho power used).  The power is the
    maximal total degree of the momentum principal derivatives after the
    polynomial rho_t / p_t bindings have been substituted, which is the
    minimal uniform multiplier keeping the result polynomial.  Terms that
    share a u_t exponent pattern share one product of the u_t numerators,
    built once per call.
    """
    reg = system.registry
    pm = system.principal
    e = substitute(e, {reg.rho_t: pm.rho_t, reg.p_t: pm.p_t})

    u_t_index = {a: i for i, a in enumerate(reg.u_t)}
    power = 0
    for mono, _ in e.terms:
        deg = sum(k for a, k in mono.factors if a in u_t_index)
        power = max(power, deg)
    if power == 0:
        return e, 0

    # prod_i u_t_num[i]**k_i for each u_t exponent pattern ((i, k_i), ...)
    numerators = {}
    rho_powers = [Monomial(((reg.rho, n),)) for n in range(power + 1)]

    def cleared():
        for mono, c in e.terms:
            rest = []
            pattern = []
            deg = 0
            for a, k in mono.factors:
                i = u_t_index.get(a)
                if i is None:
                    rest.append((a, k))
                else:
                    pattern.append((i, k))
                    deg += k
            pattern = tuple(pattern)
            num = numerators.get(pattern)
            if num is None:
                num = numerators[pattern] = _numerator_product(pm.u_t_num, pattern)
            # the u_t-free run of a canonical monomial is canonical
            factor = Monomial._trusted(tuple(rest)) * rho_powers[power - deg]
            for m, cn in num.terms:
                yield m * factor, c * cn
    return Expr(cleared()), power


def _numerator_product(u_t_num: tuple, pattern: tuple) -> Expr:
    """prod u_t_num[i]**k over the (i, k) of a u_t exponent pattern."""
    num = ONE
    for i, k in pattern:
        num = num * u_t_num[i] ** k
    return num
