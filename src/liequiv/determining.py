"""Determining equations, verdicts, and infinitesimal/finite cross checks.

The invariance residual of a generator on an equation is the directional
derivative of the equation under the prolonged field, restricted to the
solution manifold (principal time derivatives eliminated, rho denominators
cleared) and split by monomials in the parametric coordinates: the spatial
and mixed (u_tx) second-order velocity jets, the first-order spatial jets
of u, p and rho, and the constitutive coordinates Pi^{ij}, Pi^{ij}_{kl}, G,
H.  Everything in t, x, u, p, rho (and any opaque ?constants) stays inside
the split coefficients.

A generator is an equivalence symmetry exactly when every split coefficient
is the zero expression.  ``check_entry`` is the one verdict routine; its
``Verdict`` keeps the ``EquationSplit``s it was decided from, so an
equation's witness is the first term of its split in canonical order, as an
expression.  For catalog entries with a closed-form flow it exponentiates
the field the determining equations were built with and cross-checks the
statement finitely: the pullback of each equation must equal a nonzero
factor, constant over the space, times the equation.  That factor is kept
exact, as the pair (c, k) meaning c*exp(a)^k.  A generator without a
catalog entry is checked as an entry of kind ``"user"``, which has no flow.

This module makes no text: witnesses and factors are printed by ``report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .catalog import CatalogEntry
from .expr import Expr, collect, is_unknown, is_zero
from .flows import (SCALE, SCALE_INV, FiniteTransformation, exponentiate,
                    reduce_scale)
from .generators import (GeneratorSpec, ProlongedGenerator, apply_with_trace,
                         prolong)
from .jets import JetRegistry
from .linsolve import solve_linear
from .system import BalanceSystem, restrict_to_manifold


def parametric_atoms(reg: JetRegistry) -> tuple:
    """The coordinates the restricted residual is split on.

    These are the jets left free on the system manifold in J^2, plus the
    constitutive coordinates.  The mixed jets u_tx are among them: the
    system fixes u_t, but u_tx only through D_x of the momentum equation,
    which is third order, so in J^2 nothing constrains them.
    """
    atoms = list(reg.u_xx.values()) + list(reg.u_tx.values())
    atoms += list(reg.u_x.values())
    atoms += list(reg.p_x) + list(reg.rho_x)
    atoms += list(reg.pi.values()) + list(reg.pi_d.values())
    atoms += [reg.g, reg.h]
    return tuple(sorted(atoms))


@dataclass(frozen=True)
class EquationSplit:
    equation: str
    rho_power: int
    terms: tuple  # ((parametric Monomial, coefficient Expr), ...) sorted


@dataclass(frozen=True)
class DeterminingSystem:
    dim: int
    generator: str
    parametric: tuple
    splits: tuple
    # the field the residuals were taken with, kept for the finite route
    prolonged: ProlongedGenerator = field(compare=False, repr=False)

    def coefficients(self) -> tuple:
        return tuple(c for s in self.splits for _, c in s.terms)


def determining_equations(system: BalanceSystem, g: GeneratorSpec,
                          name: str = "generator") -> DeterminingSystem:
    reg = system.registry
    pg = prolong(reg, g)
    parametric = parametric_atoms(reg)
    splits = []
    for eq_name, eq in system.equations():
        residual = apply_with_trace(reg, pg, eq)[0]
        restricted, power = restrict_to_manifold(residual, system)
        buckets = {} if is_zero(restricted) else collect(restricted, parametric)
        splits.append(EquationSplit(eq_name, power, tuple(buckets.items())))
    return DeterminingSystem(reg.dim, name, parametric, tuple(splits), pg)


@dataclass(frozen=True)
class FiniteFactor:
    equation: str
    factor: tuple | None  # (Fraction c, int k): c*exp(a)^k; None: no multiple
    pullback: Expr  # the equation pulled back through the transformation


@dataclass(frozen=True)
class FiniteCheckResult:
    passed: bool
    factors: tuple


@dataclass(frozen=True)
class Verdict:
    generator: str
    kind: str
    zero: bool  # no split has a term
    equations: tuple  # the EquationSplits of determining_equations
    finite: FiniteCheckResult | None
    agreement: bool | None


def finite_check(system: BalanceSystem, ft: FiniteTransformation) -> FiniteCheckResult:
    """Pull every equation back through the coordinate maps and test that the
    result is a nonzero constant multiple (a rational times a power of
    exp(a)) of the original equation."""
    factors = []
    for eq_name, eq in system.equations():
        pullback = ft.transform(eq)
        found = None
        lead_mono, lead_coeff = eq.terms[0]
        for mono, c in pullback.terms:
            q = mono.try_divide(lead_mono)
            if q is None:
                continue
            if any(a != SCALE and a != SCALE_INV for a in q.atoms()):
                continue
            ratio = Fraction(c, lead_coeff)
            lam = Expr(((q, ratio),))
            if reduce_scale(lam * eq) == pullback:
                k = q.exponent(SCALE) - q.exponent(SCALE_INV)
                found = (ratio, k)
                break
        factors.append(FiniteFactor(eq_name, found, pullback))
    return FiniteCheckResult(all(f.factor is not None for f in factors),
                             tuple(factors))


def check_entry(system: BalanceSystem, entry: CatalogEntry) -> Verdict:
    """Infinitesimal verdict plus, when the entry has a closed-form flow, the
    finite cross-check and the agreement flag between the two routes; the
    flow is exponentiated from the field the determining equations used."""
    dsys = determining_equations(system, entry.spec, entry.name)
    zero = not any(s.terms for s in dsys.splits)
    if not entry.has_flow:
        return Verdict(entry.name, entry.kind, zero, dsys.splits, None, None)
    fin = finite_check(system, exponentiate(dsys.prolonged))
    return Verdict(entry.name, entry.kind, zero, dsys.splits, fin,
                   zero == fin.passed)


def solve_unknowns(dsys: DeterminingSystem) -> dict:
    """Values of the ?constants forced by the determining equations.

    Every split coefficient must vanish identically in the remaining
    coordinates, which yields one linear equation over the unknowns per
    residual monomial.  Raises on a nonlinear occurrence; returns the unique
    exact solution, in which unknowns the system does not constrain stay at 0
    and are listed in the companion ``free`` list.  The unknowns are collected
    from the split coefficients only: an unknown of the generator that
    occurs in no split coefficient is reported neither in ``solution`` nor in
    ``free`` (ROADMAP open item 1).
    """
    unknowns = set()
    equations = []
    for coeff in dsys.coefficients():
        groups = {}
        for mono, c in coeff.terms:
            var = None
            mixed = False
            rest = []
            for a, k in mono.factors:
                if is_unknown(a):
                    if k > 1:
                        raise ValueError(
                            f"coefficient is nonlinear in unknown {a.name}")
                    # raised after the loop: a nonlinear factor goes first
                    mixed = var is not None
                    var = a
                else:
                    rest.append((a, k))
            if mixed:
                raise ValueError("coefficient mixes unknowns within one term")
            # factors are sorted, so the filtered subsequence is canonical;
            # a row keeps its constant term under None
            rest = tuple(rest)
            row = groups.get(rest)
            if row is None:
                row = groups[rest] = {}
            row[var] = row.get(var, 0) + c
            if var is not None:
                unknowns.add(var)
        for row in groups.values():
            equations.append((row, -row.pop(None, 0)))
    solution, free = solve_linear(equations, sorted(unknowns))
    return {"solution": solution, "free": free}

