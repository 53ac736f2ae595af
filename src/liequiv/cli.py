"""Command-line interface.

Commands: verify, deteq, bracket, transform, list, system-dump.  Exit codes:
0 on success (for verify: all selected generators pass), 1 when verification
finds a failing generator, 2 on usage or input errors.  Output is
deterministic; two runs over the same inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import report
from .catalog import (KIND_USER, CatalogEntry, build_catalog,
                      decompose_in_span, find_entry, structure_constants,
                      verified_entries)
from .determining import check_entry, determining_equations, finite_check
from .dsl import (DslSyntaxError, UnknownCoordinateError, parse_generator,
                  print_generator)
from .expr import ExprError
from .flows import NoClosedFormError, exponentiate
from .generators import AnsatzError, bracket, prolong
from .jets import JetOrderError, UnsupportedDimensionError, build_registry
from .linsolve import InconsistentSystemError
from .system import build_system

_INPUT_ERRORS = (ExprError, JetOrderError, UnsupportedDimensionError,
                 AnsatzError, DslSyntaxError, UnknownCoordinateError,
                 NoClosedFormError, InconsistentSystemError, ValueError,
                 ZeroDivisionError, OSError)


@functools.cache  # parse_args leaves the parser as it is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liequiv",
        description="symbolic equivalence-generator analysis of the viscous "
                    "balance-law system")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, gen=None, param=False):
        p.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
        if gen:
            p.add_argument("--gen", required=True, help=gen)
        if param:
            p.add_argument("--param", default=None,
                           help="exact rational group parameter, e.g. 3/2")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")

    many = "catalog name, all-theorem, all, @file.dsl, or a DSL string"
    common(sub.add_parser("verify", help="check generators infinitesimally "
                                         "and by finite transformation"), gen=many)
    common(sub.add_parser("deteq", help="emit the split determining system"),
           gen=many)
    p = sub.add_parser("bracket", help="Lie brackets over the built-in span")
    common(p)
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--table", action="store_true",
                       help="full table over the verified entries (the "
                            "default)")
    shape.add_argument("--pair", default=None, metavar="A,B",
                       help="single bracket, e.g. X0,Y1")
    common(sub.add_parser("transform", help="pull the system back through a "
                                            "finite transformation"),
           gen="catalog name, a DSL string, or @file.dsl holding one generator",
           param=True)
    common(sub.add_parser("list", help="print the catalog in DSL syntax"))
    common(sub.add_parser("system-dump", help="print the equations"))
    return parser


def _select_generators(args, reg) -> tuple:
    """Resolve --gen into catalog entries.  DSL strings and @file lines become
    entries of kind "user"; only a catalog selector builds the catalog."""
    sel = args.gen
    if sel.startswith("@"):
        out = []
        with open(sel[1:], "r", encoding="utf-8") as handle:
            for idx, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" in line.split("d/d")[0]:
                    label, _, body = line.partition("=")
                    name = label.strip()
                else:
                    name, body = f"user_{idx}", line
                out.append(CatalogEntry(name, KIND_USER,
                                        parse_generator(reg, body.strip())))
        if not out:
            raise ValueError(f"no generators found in {sel[1:]}")
        return tuple(out)
    # "0", the zero generator, is the only DSL string without a direction
    if "d/d" in sel or sel.strip() == "0":
        return (CatalogEntry("user", KIND_USER, parse_generator(reg, sel)),)
    catalog = build_catalog(args.dim, reg)
    if sel == "all-theorem":
        return verified_entries(catalog)
    if sel == "all":
        return catalog
    entry = find_entry(catalog, sel)
    if entry is None:
        raise ValueError(f"unknown generator selector: {sel}")
    return (entry,)


def _cmd_verify(args, reg, payload) -> int:
    system = build_system(args.dim, reg)
    verdicts = [check_entry(system, entry) for entry in
                sorted(_select_generators(args, reg), key=lambda e: e.name)]
    all_pass = all(v.zero and v.agreement is not False for v in verdicts)
    payload["results"] = [report.verdict_payload(v) for v in verdicts]
    payload["status"] = "pass" if all_pass else "fail"
    return 0 if all_pass else 1


def _cmd_deteq(args, reg, payload) -> int:
    system = build_system(args.dim, reg)
    payload["results"] = [
        report.determining_payload(determining_equations(system, e.spec, e.name))
        for e in sorted(_select_generators(args, reg), key=lambda e: e.name)]
    return 0


def _cmd_bracket(args, reg, payload) -> int:
    entries = verified_entries(build_catalog(args.dim, reg))
    if args.pair:
        left, _, right = args.pair.partition(",")
        left, right = left.strip(), right.strip()
        specs = {e.name: e.spec for e in entries}
        if left not in specs or right not in specs:
            raise ValueError(f"--pair must name two verified entries, got {args.pair}")
        combo = decompose_in_span(
            reg, bracket(reg, specs[left], specs[right]), entries)
        payload.update(report.bracket_pair_payload(left, right, combo))
    else:
        payload.update(report.bracket_table_payload(
            structure_constants(reg, entries)))
    return 0


def _cmd_transform(args, reg, payload) -> int:
    system = build_system(args.dim, reg)
    if args.param is None:
        param = None
    else:
        try:
            param = Fraction(args.param)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--param must be an exact rational, got {args.param!r}")
    selected = _select_generators(args, reg)
    if len(selected) != 1:
        raise ValueError(f"transform needs exactly one generator, "
                         f"got {len(selected)} from {args.gen}")
    ft = exponentiate(prolong(reg, selected[0].spec), param)
    payload.update(report.transform_payload(args.gen, param, ft,
                                            finite_check(system, ft)))
    return 0


def _cmd_list(args, reg, payload) -> int:
    payload["entries"] = [
        {"name": e.name, "kind": e.kind, "has_flow": e.has_flow,
         "dsl": print_generator(reg, e.spec)}
        for e in build_catalog(args.dim, reg)]
    return 0


def _cmd_system_dump(args, reg, payload) -> int:
    system = build_system(args.dim, reg)
    payload["equations"] = [{"name": name, "expression": str(eq)}
                            for name, eq in system.equations()]
    payload["dissipation"] = str(system.dissipation)
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "deteq": _cmd_deteq,
    "bracket": _cmd_bracket,
    "transform": _cmd_transform,
    "list": _cmd_list,
    "system-dump": _cmd_system_dump,
}


def _join_negative_params(argv: list) -> list:
    """Rewrite ``--param -3/2`` as ``--param=-3/2``.

    argparse reads a token that starts with '-' and is not a plain negative
    number as an option, so a negative rational would otherwise be rejected.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--param" and tok.startswith("-"):
            try:
                Fraction(tok)
            except (ValueError, ZeroDivisionError):
                pass
            else:
                out[-1] = f"--param={tok}"
                continue
        out.append(tok)
    return out


def main(argv=None) -> int:
    """Parse, let the command's handler fill the report skeleton and choose
    the exit code, then render and write the report once."""
    parser = _build_parser()
    argv = _join_negative_params(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        reg = build_registry(args.dim)
        payload = report.skeleton(args.command, args.dim)
        code = _HANDLERS[args.command](args, reg, payload)
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


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
