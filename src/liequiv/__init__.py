"""Exact symbolic engine for equivalence generators of a viscous
balance-law system (mass, momentum, pressure) with unspecified stress
Pi(grad u) and state functions G(p, rho), H(p, rho)."""

__version__ = "0.1.0"

from .expr import (Atom, Expr, Monomial, as_expr, atoms_of, collect,
                   diff_partial, evaluate, is_zero, replace_atoms, substitute)
from .jets import JetRegistry, build_registry, total_derivative
from .system import BalanceSystem, build_system, restrict_to_manifold
from .generators import (GeneratorSpec, apply_with_trace, bracket, combine,
                         from_coefficients, make_generator, prolong)
from .flows import FiniteTransformation, exponentiate, numeric_flow
from .determining import (DeterminingSystem, Verdict, check_entry,
                          determining_equations, finite_check, solve_unknowns)
from .catalog import (CatalogEntry, build_catalog, structure_constants,
                      verified_entries)
from .dsl import parse_expr, parse_generator, print_generator

__all__ = [
    "Atom", "Expr", "Monomial", "as_expr", "atoms_of", "collect",
    "diff_partial", "evaluate", "is_zero", "replace_atoms", "substitute",
    "JetRegistry", "build_registry", "total_derivative",
    "BalanceSystem", "build_system", "restrict_to_manifold",
    "GeneratorSpec", "apply_with_trace", "bracket",
    "combine", "from_coefficients", "make_generator", "prolong",
    "FiniteTransformation", "exponentiate", "numeric_flow",
    "DeterminingSystem", "Verdict", "check_entry", "determining_equations",
    "finite_check", "solve_unknowns",
    "CatalogEntry", "build_catalog", "structure_constants", "verified_entries",
    "parse_expr", "parse_generator", "print_generator",
    "__version__",
]
