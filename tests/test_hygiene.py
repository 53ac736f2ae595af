"""Source hygiene checks over the package modules, with the stdlib only."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import liequiv

PACKAGE = Path(liequiv.__file__).parent


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["os", "b"]
    assert unused_imports("import os.path\nos.sep\n") == []


def test_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def imported_modules(source: str) -> set:
    """The top-level names of the modules a source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_are_found():
    source = "import os.path\nfrom a.b import c\nfrom . import d\n"
    assert imported_modules(source) == {"os", "a"}


def test_no_module_imports_dataclasses():
    """A record is a NamedTuple: a dataclass generates and compiles its
    methods when its module is imported, on every command of the CLI."""
    found = {p.name for p in PACKAGE.glob("*.py")
             if "dataclasses" in imported_modules(p.read_text())}
    assert found == set()


def test_cold_cli_import_loads_no_code_generation():
    """A fresh ``import liequiv.cli`` loads neither ``dataclasses`` nor
    ``inspect``; the subprocess writes no bytecode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(PACKAGE.parent))
    code = ("import liequiv.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def spanned_targets(source: str) -> list:
    """The ``(module, attribute)`` pairs of the ``SPANNED`` table in the
    source of the bench tracer."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SPANNED":
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("no SPANNED table")


def test_bench_spans_name_existing_functions():
    source = Path(__file__).parents[1] / "bench" / "spans.py"
    targets = spanned_targets(source.read_text())
    assert ("linsolve", "solve_linear") in targets
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(f"liequiv.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append((module, attr))
    assert missing == []


def test_every_export_resolves():
    namespace = {}
    exec("from liequiv import *", namespace)
    assert sorted(set(liequiv.__all__) - namespace.keys()) == []


def test_package_exports_what_its_callers_use():
    """The README example, the tests and the benchmark read these names from
    the package; every other name is read from its module."""
    assert set(liequiv.__all__) == {
        "build_registry", "build_system", "build_catalog", "CatalogEntry",
        "check_entry", "exponentiate", "from_coefficients", "parse_generator",
        "prolong", "combine", "make_generator", "print_generator", "__version__"}
