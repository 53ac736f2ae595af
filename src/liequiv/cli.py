"""Command-line interface.

Commands: verify, deteq, bracket, transform, list, system-dump.  Each
subparser carries its handler, and ``main`` is the one entry point: the
``liequiv`` script and ``python -m liequiv`` exit with its return value, and
it leaves the interpreter's limit on the digits of ``str(int)`` as it is, so
a command gives the same bytes in process as from the console.  Exit codes:
0 on success (for verify: all selected generators pass), 1 when
verification finds a failing generator, 2 on usage or input errors.  Output
is deterministic; two runs over the same inputs produce byte-identical
reports.

Each dimension's registry, system and catalog depend on the dimension alone
(the catalog is a tuple of frozen entries), so the CLI builds each of them
once per process, on first use, and every later command at that dimension
shares it; a DSL or @file selector still builds no catalog.  The system's
memo of principal products grows as commands restrict, but it holds system
data only: nothing computed from a generator is kept between commands.  A
library caller that runs many checks should likewise build the three once
per dimension and pass them around.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from . import report
from .catalog import (KIND_USER, CatalogEntry, build_catalog,
                      decompose_in_span, find_entry, structure_constants,
                      verified_entries)
from .determining import check_entry, determining_equations, finite_check
from .dsl import (RATIONAL, DslSyntaxError, UnknownCoordinateError,
                  parse_generator, print_generator)
from .flows import NoClosedFormError, exponentiate
from .generators import AnsatzError, bracket, prolong
from .jets import JetOrderError, build_registry
from .system import build_system, dissipation_function


class UsageError(Exception):
    """An argument the CLI's own checks refuse."""


_INPUT_ERRORS = (UsageError, JetOrderError, AnsatzError, DslSyntaxError,
                 UnknownCoordinateError, NoClosedFormError, OSError)


@functools.cache
def _registry(dim: int):
    return build_registry(dim)


@functools.cache
def _system(dim: int):
    return build_system(dim, _registry(dim))


@functools.cache
def _catalog(dim: int) -> tuple:
    return build_catalog(dim, _registry(dim))


def _select_generators(args, reg) -> tuple:
    """Resolve --gen into catalog entries.  DSL strings and @file lines become
    entries of kind "user"; only a catalog selector builds the catalog.  An
    @file line's name is its label or user_<line>, and must be new."""
    sel = args.gen
    if sel.startswith("@"):
        out, first = [], {}
        try:
            with open(sel[1:], "r", encoding="utf-8-sig") as handle:
                lines = handle.readlines()
        except UnicodeDecodeError:
            raise UsageError(f"{sel[1:]} is not UTF-8 text") from None
        for idx, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, body = f"user_{idx}", line
            if "=" in line.split("d/d")[0]:
                label, _, body = line.partition("=")
                name = label.strip()
            if not name or name in first:
                raise UsageError(f"{sel[1:]}, line {idx}: " + (
                    f"generator name {name} repeats line {first[name]}"
                    if name else "empty generator name"))
            first[name] = idx
            # the body at its line and column: an error points into the file
            pad = len(raw.rstrip()) - len(body)
            spec = parse_generator(reg, "\n" * (idx - 1) + " " * pad + body)
            out.append(CatalogEntry(name, KIND_USER, spec))
        if not out:
            raise UsageError(f"no generators found in {sel[1:]}")
        return tuple(out)
    # "0", the zero generator, is the only DSL string without a direction
    if "d/d" in sel or sel.strip() == "0":
        return (CatalogEntry("user", KIND_USER, parse_generator(reg, sel)),)
    catalog = _catalog(args.dim)
    if sel == "all-theorem":
        return verified_entries(catalog)
    if sel == "all":
        return catalog
    entry = find_entry(catalog, sel)
    if entry is None:
        raise UsageError(f"unknown generator selector: {sel}")
    return (entry,)


def _cmd_verify(args, reg, payload) -> int:
    system = _system(args.dim)
    verdicts = [check_entry(system, entry) for entry in
                sorted(_select_generators(args, reg), key=lambda e: e.name)]
    all_pass = all(v.zero and v.agreement is not False for v in verdicts)
    payload["results"] = [report.verdict_payload(v) for v in verdicts]
    payload["status"] = "pass" if all_pass else "fail"
    return 0 if all_pass else 1


def _cmd_deteq(args, reg, payload) -> int:
    system = _system(args.dim)
    payload["results"] = [
        report.determining_payload(determining_equations(system, e.spec, e.name))
        for e in sorted(_select_generators(args, reg), key=lambda e: e.name)]
    return 0


def _cmd_bracket(args, reg, payload) -> int:
    entries = verified_entries(_catalog(args.dim))
    if args.pair:
        left, _, right = args.pair.partition(",")
        left, right = left.strip(), right.strip()
        specs = {e.name: e.spec for e in entries}
        if left not in specs or right not in specs:
            raise UsageError(f"--pair must name two verified entries, got {args.pair}")
        combo = decompose_in_span(
            reg, bracket(reg, specs[left], specs[right]), entries)
        payload.update(report.bracket_pair_payload(left, right, combo))
    else:
        payload.update(report.bracket_table_payload(
            structure_constants(reg, entries)))
    return 0


def _cmd_transform(args, reg, payload) -> int:
    system = _system(args.dim)
    param = None
    if args.param is not None:
        try:  # an optional sign and the DSL's rational literal, not all Fraction reads
            if re.fullmatch(f"[-+]?{RATIONAL}", args.param):
                param = Fraction(args.param)
        except (ValueError, ZeroDivisionError):  # too long for int, or n/0
            pass
        if param is None:
            raise UsageError(f"--param must be an exact rational, got {args.param!r}")
    selected = _select_generators(args, reg)
    if len(selected) != 1:
        raise UsageError(f"transform needs exactly one generator, "
                         f"got {len(selected)} from {args.gen}")
    ft = exponentiate(reg, prolong(reg, selected[0].spec), param)
    payload.update(report.transform_payload(args.gen, param, ft,
                                            finite_check(system, ft)))
    return 0


def _cmd_list(args, reg, payload) -> int:
    payload["entries"] = [
        {"name": e.name, "kind": e.kind, "has_flow": e.has_flow,
         "dsl": print_generator(reg, e.spec)}
        for e in _catalog(args.dim)]
    return 0


def _cmd_system_dump(args, reg, payload) -> int:
    system = _system(args.dim)
    payload["equations"] = [{"name": name, "expression": str(eq)}
                            for name, eq in system.equations.items()]
    payload["dissipation"] = str(dissipation_function(reg))
    return 0


@functools.cache  # parse_args leaves the parser as it is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liequiv",
        description="symbolic equivalence-generator analysis of the viscous "
                    "balance-law system")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, run, about, gen=None):
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=run)
        p.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
        if gen:
            p.add_argument("--gen", required=True, help=gen)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
        return p

    many = "catalog name, all-theorem, all, @file.dsl, or a DSL string"
    common("verify", _cmd_verify, "check generators infinitesimally and by "
           "finite transformation", gen=many)
    common("deteq", _cmd_deteq, "emit the split determining system", gen=many)
    p = common("bracket", _cmd_bracket, "Lie brackets over the built-in span")
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--table", action="store_true",
                       help="full table over the verified entries (the "
                            "default)")
    shape.add_argument("--pair", default=None, metavar="A,B",
                       help="single bracket, e.g. X0,Y1")
    p = common("transform", _cmd_transform, "pull the system back through a "
               "finite transformation", gen="catalog name, a DSL string, or "
               "@file.dsl holding one generator")
    p.add_argument("--param", default=None, help="exact group parameter: an "
                   "optional sign and n or n/d, e.g. -3/2")
    common("list", _cmd_list, "print the catalog in DSL syntax")
    common("system-dump", _cmd_system_dump, "print the equations")
    return parser


def main(argv=None) -> int:
    """Parse, let the command's handler fill the report skeleton and choose
    the exit code, then render and write the report once."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    for flag in ("--gen", "--param"):  # a value may start with "-"
        while flag in argv[:-1]:
            i = argv.index(flag)
            argv[i:i + 2] = [f"{flag}={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        reg = _registry(args.dim)
        payload = report.skeleton(args.command, args.dim)
        code = args.run(args, reg, payload)
        payload.setdefault("status", "ok")  # verify sets pass or fail
        text = (report.render_json(payload) if args.format == "json"
                else report.render_text(payload))
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return code
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"liequiv: error: {exc}\n")
        return 2
