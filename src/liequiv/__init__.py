"""Exact symbolic engine for equivalence generators of a viscous
balance-law system (mass, momentum, pressure) with unspecified stress
Pi(grad u) and state functions G(p, rho), H(p, rho).

The package exports the names its callers read from it; every other name
is read from its module (``liequiv.expr``, ``liequiv.linsolve``, ...)."""

__version__ = "0.1.0"

from .jets import build_registry
from .system import build_system
from .generators import combine, from_coefficients, make_generator, prolong
from .flows import exponentiate
from .determining import check_entry
from .catalog import CatalogEntry, build_catalog
from .dsl import parse_generator, print_generator

__all__ = [
    "build_registry", "build_system", "build_catalog", "CatalogEntry",
    "check_entry", "exponentiate", "from_coefficients", "parse_generator",
    "prolong", "combine", "make_generator", "print_generator", "__version__",
]
