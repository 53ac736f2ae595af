"""Deterministic report assembly for the command-line tool.

Reports are plain dictionaries with a fixed key order and no volatile
content (no timestamps, no paths, no environment data), so identical inputs
serialize to byte-identical JSON.  Every report embeds the adopted-
assumptions block; the two modeling choices it records travel with every
number this tool prints.  The JSON shapes are documented in
docs/report_schema.json and frozen by golden-file tests.

This module makes the text of every report; expressions and generators
print themselves (``str``, ``print_generator``).  A verdict keeps the split
determining equations it was decided from, and an equation's witness is the
first term of its split, printed by the same rule as every ``deteq`` term.
A finite factor arrives exact, as (c, k) for c*exp(a)^k, and a bracket as a
map name -> rational coefficient; both are printed here, as is the
"not form-invariant" note of ``transform``.
"""

from __future__ import annotations

import json

from . import __version__
from .catalog import KIND_USER, StructureTable
from .determining import DeterminingSystem, FiniteCheckResult, Verdict
from .expr import rational_str, signed_sum
from .flows import FiniteTransformation

TOOL = "liequiv"
_NO_FACTOR = "none (not form-invariant)"

ASSUMPTIONS = {
    "pressure_equation": (
        "the third balance law is the pressure evolution equation "
        "p_t + (u.grad)p + G*div(u) + H*Phi = 0 with Phi = Pi : grad(u)"),
    "mu_ansatz": (
        "generator coefficients on Pi components may depend on the velocity "
        "gradient jets and the Pi components; coefficients on G and H may "
        "depend on p, rho, G, H"),
    "stress_derivative_action": (
        "the action on the stress-derivative coordinates Pi_ij_d_ukxl is "
        "always induced from the Pi and gradient-jet actions by the chain "
        "rule, never chosen independently"),
}


def skeleton(command: str, dim: int) -> dict:
    return {
        "tool": TOOL,
        "version": __version__,
        "command": command,
        "dimension": dim,
        "assumptions": dict(ASSUMPTIONS),
    }


def _term(mono, coeff) -> dict:
    return {"monomial": str(mono), "coefficient": str(coeff)}


def _factor_string(factor) -> str | None:
    """c*exp(a)^k from the exact pair (c, k); None stays None."""
    if factor is None:
        return None
    coeff, k = factor
    if k == 0:
        return rational_str(coeff)
    if k == 1:
        exp_part = "exp(a)"
    elif k == -1:
        exp_part = "exp(-a)"
    else:
        exp_part = f"exp({rational_str(k)}*a)"
    if coeff == 1:
        return exp_part
    return f"{rational_str(coeff)}*{exp_part}"


def _combo_string(combo) -> str:
    """The map name -> coefficient as a signed sum; None prints 0."""
    return signed_sum((c < 0, name if abs(c) == 1 else f"{rational_str(abs(c))}*{name}")
                      for name, c in sorted((combo or {}).items()))


def verdict_payload(v: Verdict) -> dict:
    eqs = [{"equation": s.equation,
            "status": "nonzero" if s.terms else "zero",
            "rho_power": s.rho_power,
            "witness": _term(*s.terms[0]) if s.terms else None}
           for s in v.equations]
    if v.finite is None:
        finite = {"available": False, "status": None, "factors": None}
    else:
        finite = {
            "available": True,
            "status": "pass" if v.finite.passed else "fail",
            "factors": {f.equation: _factor_string(f.factor)
                        for f in v.finite.factors},
        }
    return {
        "generator": v.generator,
        "kind": v.kind,
        "infinitesimal": {
            "status": "zero" if v.zero else "nonzero",
            "equations": eqs,
        },
        "finite": finite,
        "agreement": v.agreement,
    }


def determining_payload(d: DeterminingSystem) -> dict:
    return {
        "generator": d.generator,
        "parametric": [a.name for a in d.parametric],
        "equations": [
            {
                "equation": s.equation,
                "rho_power": s.rho_power,
                "terms": [_term(m, c) for m, c in s.terms],
            }
            for s in d.splits
        ],
    }


def bracket_pair_payload(left: str, right: str, combo) -> dict:
    """One bracket; a bracket outside the span (None) prints 0, as its table
    cell does."""
    return {"left": left, "right": right, "value": _combo_string(combo)}


def bracket_table_payload(table: StructureTable) -> dict:
    return {
        "basis": list(table.names),
        "closed": table.closed,
        "table": [[_combo_string(table.cell(n1, n2)) for n2 in table.names]
                  for n1 in table.names],
    }


def transform_payload(generator: str, param, ft: FiniteTransformation,
                      result: FiniteCheckResult) -> dict:
    return {
        "generator": generator,
        "parameter": "a" if param is None else rational_str(param),
        "maps": [{"coordinate": a.name, "image": str(img)}
                 for a, img in ft.images.items()],
        "equations": [
            {"equation": f.equation,
             "factor": _factor_string(f.factor) or _NO_FACTOR,
             "image": str(f.pullback)}
            for f in result.factors],
    }


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _verdict_lines(entry: dict) -> list:
    lines = [f"generator {entry['generator']} [{entry['kind']}]:"]
    inf = entry["infinitesimal"]
    lines.append(f"  infinitesimal: {inf['status']}")
    for eq in inf["equations"]:
        detail = f"    {eq['equation']}: {eq['status']} (rho power {eq['rho_power']})"
        if eq["witness"]:
            detail += (f"; witness {eq['witness']['monomial']} -> "
                       f"{eq['witness']['coefficient']}")
        lines.append(detail)
    fin = entry["finite"]
    if fin["available"]:
        factors = ", ".join(f"{k}: {v or _NO_FACTOR}"
                            for k, v in fin["factors"].items())
        lines.append(f"  finite: {fin['status']} ({factors})")
        lines.append(f"  agreement: {entry['agreement']}")
    elif entry["kind"] == KIND_USER:
        lines.append("  finite: not run for user generators (see transform)")
    else:
        lines.append("  finite: no closed-form flow in the exact carrier")
    return lines


def render_text(payload: dict) -> str:
    lines = [f"{payload['tool']} {payload['version']} "
             f"{payload['command']} (dim {payload['dimension']})"]
    lines.append("assumptions:")
    for key, value in payload["assumptions"].items():
        lines.append(f"  {key}: {value}")
    command = payload["command"]

    if command == "verify":
        for entry in payload["results"]:
            lines.extend(_verdict_lines(entry))
    elif command == "deteq":
        for entry in payload["results"]:
            lines.append(f"generator {entry['generator']}:")
            for eq in entry["equations"]:
                lines.append(f"  {eq['equation']} (rho power {eq['rho_power']}):")
                if not eq["terms"]:
                    lines.append("    0 = 0 (identically satisfied)")
                for term in eq["terms"]:
                    lines.append(f"    [{term['monomial']}] {term['coefficient']} = 0")
    elif command == "bracket":
        if "table" in payload:
            names = payload["basis"]
            width = max(max(len(c) for row in payload["table"] for c in row),
                        max(len(n) for n in names)) + 2
            header = " " * width + "".join(n.ljust(width) for n in names)
            lines.append(header)
            for name, row in zip(names, payload["table"]):
                lines.append(name.ljust(width) + "".join(c.ljust(width) for c in row))
        else:
            lines.append(f"[{payload['left']}, {payload['right']}] = {payload['value']}")
    elif command == "transform":
        lines.append(f"generator {payload['generator']}, parameter {payload['parameter']}")
        lines.append("coordinate maps (identity omitted):")
        for item in payload["maps"]:
            lines.append(f"  {item['coordinate']} -> {item['image']}")
        lines.append("pulled-back equations:")
        for item in payload["equations"]:
            lines.append(f"  {item['equation']}: factor {item['factor']}")
            lines.append(f"    {item['image']}")
    elif command == "list":
        for item in payload["entries"]:
            flow = "flow" if item["has_flow"] else "no closed-form flow"
            lines.append(f"{item['name']} [{item['kind']}; {flow}]")
            lines.append(f"  {item['dsl']}")
    elif command == "system-dump":
        for item in payload["equations"]:
            lines.append(f"{item['name']}: {item['expression']} = 0")
        lines.append(f"dissipation: {payload['dissipation']}")
    lines.append(f"status: {payload['status']}")
    return "\n".join(lines) + "\n"
