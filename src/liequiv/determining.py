"""Determining equations, verdicts, and infinitesimal/finite cross checks.

The invariance residual of a generator on an equation is the directional
derivative of the equation under the prolonged field, restricted to the
solution manifold (principal time derivatives eliminated, rho denominators
cleared) and split by monomials in the coordinates the system leaves free,
``BalanceSystem.parametric``.  Everything in t, x, u, p, rho (and any
opaque ?constants) stays inside the split coefficients.

A generator is an equivalence symmetry exactly when every split coefficient
is the zero expression.  ``check_entry`` is the one verdict routine; its
``Verdict`` keeps the ``EquationSplit``s it was decided from, so an
equation's witness is the first term of its split in canonical order, as an
expression.  For catalog entries with a closed-form flow it exponentiates
the field the determining equations were built with and cross-checks the
statement finitely: the pullback of each equation must equal a nonzero
factor, constant over the space, times the equation.  That factor is kept
exact, as the pair (c, k) meaning c*exp(a)^k, and ``flows.scale_factor``
decides it: only ``flows`` reads the scale atoms.  A generator without a
catalog entry is checked as an entry of kind ``"user"``, which has no flow.

This module makes no text: witnesses and factors are printed by ``report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import CatalogEntry
from .expr import Expr, collect, is_unknown
from .flows import FiniteTransformation, exponentiate, scale_factor
from .generators import GeneratorSpec, apply, prolong
from .linsolve import solve_linear
from .system import BalanceSystem, restrict_to_manifold


@dataclass(frozen=True)
class EquationSplit:
    equation: str
    rho_power: int
    terms: tuple  # ((parametric Monomial, coefficient Expr), ...) sorted


@dataclass(frozen=True)
class DeterminingSystem:
    generator: str
    parametric: tuple
    splits: tuple
    # the field the residuals were taken with, kept for the finite route
    prolonged: dict = field(compare=False, repr=False)

    def coefficients(self) -> tuple:
        return tuple(c for s in self.splits for _, c in s.terms)


def determining_equations(system: BalanceSystem, g: GeneratorSpec,
                          name: str = "generator") -> DeterminingSystem:
    pg = prolong(system.registry, g)
    splits = []
    for eq_name, eq in system.equations():
        residual = apply(pg, eq)
        restricted, power = restrict_to_manifold(residual, system)
        buckets = collect(restricted, system.parametric)
        splits.append(EquationSplit(eq_name, power, tuple(buckets.items())))
    return DeterminingSystem(name, system.parametric, tuple(splits), pg)


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
    """Pull every equation back through the coordinate maps and record the
    factor c*exp(a)^k that ``flows.scale_factor`` finds between the
    pullback and the equation, or None."""
    factors = []
    for eq_name, eq in system.equations():
        pullback = ft.transform(eq)
        factors.append(FiniteFactor(eq_name, scale_factor(eq, pullback), pullback))
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
    fin = finite_check(system, exponentiate(system.registry, dsys.prolonged))
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
    ``free`` (ROADMAP open item 1).  Each distinct coefficient is grouped
    into rows once; a repeat passes the same row objects to ``solve_linear``
    again, so the solver still sees one row per coefficient and monomial.
    """
    unknowns = set()
    equations = []
    rows_of = {}
    for coeff in dsys.coefficients():
        rows = rows_of.get(coeff)
        if rows is None:
            rows = rows_of[coeff] = _grouped_rows(coeff, unknowns)
        equations += rows
    solution, free = solve_linear(equations, sorted(unknowns))
    return {"solution": solution, "free": free}


def _grouped_rows(coeff: Expr, unknowns: set) -> list:
    """The (row, rhs) equations of one split coefficient, one per monomial
    over the coordinates, adding the unknowns they hold to ``unknowns``."""
    groups = {}
    for mono, c in coeff.terms:
        var = None
        mixed = False
        rest = []
        for a, k in mono:
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
    return [(row, -row.pop(None, 0)) for row in groups.values()]
