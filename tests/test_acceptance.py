"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them
all).  Tolerances are pinned here and nowhere else."""

import json
import random
import time

from liequiv.catalog import (KIND_CANDIDATE, KIND_USER, CatalogEntry,
                             find_entry, structure_constants, verified_entries)
from liequiv.cli import main
from liequiv.determining import check_entry, determining_equations
from liequiv.dsl import parse_generator, print_generator
from liequiv.expr import Expr, evaluate, is_zero, unknown
from liequiv.flows import numeric_flow
from liequiv.generators import apply_with_trace, make_generator, prolong

FD_RELATIVE_TOLERANCE = 1e-6
WALL_TIME_BUDGET_S = 60.0


def _report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_acceptance_1_catalog_reproduction(spaces):
    t0 = time.monotonic()
    ok = True
    for dim in (1, 2, 3):
        entries = verified_entries(spaces[dim].catalog)
        ok = ok and len(entries) == 2 * dim + 5
        for entry in entries:
            user = CatalogEntry(entry.name, KIND_USER, entry.spec)
            ok = ok and check_entry(spaces[dim].system, user).zero
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < WALL_TIME_BUDGET_S
    _report(1, f"all 7/9/11 verified generators give all-zero verdicts "
               f"in {elapsed:.2f}s (< {WALL_TIME_BUDGET_S:.0f}s)", ok)


def test_acceptance_2_no_naive_rotations(spaces):
    ok = True
    witnesses = []
    for dim in (2, 3):
        for entry in spaces[dim].catalog:
            if entry.kind != KIND_CANDIDATE:
                continue
            v = check_entry(spaces[dim].system,
                            CatalogEntry(entry.name, KIND_USER, entry.spec))
            if entry.name.endswith("_naive"):
                bad = [s for s in v.equations if s.terms]
                ok = ok and not v.zero and bool(bad)
                if bad:
                    witnesses.append(
                        f"{entry.name}@{dim}d: {bad[0].equation} "
                        f"[{bad[0].terms[0][0]}]")
            else:
                # tensorial candidates: verdict reported, never asserted
                print(f"  (reported) {entry.name}@{dim}d infinitesimal "
                      f"status: {'zero' if v.zero else 'nonzero'}")
    for w in witnesses:
        print(f"  witness {w}")
    _report(2, "every naive rotation candidate fails with a printed witness",
            ok)


def test_acceptance_3_routes_agree(spaces):
    ok = True
    for dim in (1, 2, 3):
        for entry in spaces[dim].catalog:
            v = check_entry(spaces[dim].system, entry)
            if not entry.has_flow:
                ok = ok and v.finite is None and v.agreement is None
                continue
            ok = ok and v.agreement is True
            factors = {f.equation: f.factor for f in v.finite.factors}
            if entry.name == "Z1":
                want = {"mass": (1, 0), "pressure": (1, 2)}
                want.update({f"momentum_{i}": (1, 1)
                             for i in range(1, dim + 1)})
                ok = ok and factors == want
            elif entry.name == "Z2":
                ok = ok and all(f == (1, 1) for f in factors.values())
            else:
                ok = ok and all(f == (1, 0) for f in factors.values())
    _report(3, "infinitesimal and finite checks agree, with the 1 / exp(a) / "
               "exp(2*a) scaling factors", ok)


def test_acceptance_4_trace_shift_cancellation(spaces):
    ok = True
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        entry = find_entry(spaces[dim].catalog, "T")
        total, trace = apply_with_trace(
            prolong(reg, entry.spec), spaces[dim].system.equations["pressure"])
        contributions = {a.name: term for a, term in trace}
        divu = sum((Expr.of(reg.u_x[(i, i)]) for i in range(1, dim + 1)),
                   Expr())
        h = Expr.of(reg.h)
        state_term = contributions.get("G", Expr())
        stress_term = sum(
            (term for name, term in contributions.items() if name != "G"),
            Expr())
        ok = ok and state_term == -1 * h * divu
        ok = ok and stress_term == h * divu
        ok = ok and is_zero(total)
    _report(4, "the trace-shift residual on the pressure equation carries "
               "-H*div(u) against +H*div(u) and cancels to zero", ok)


def test_acceptance_5_structure_constants(spaces):
    ok = True
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        table = structure_constants(reg, verified_entries(spaces[dim].catalog))
        ok = ok and table.closed and not table.failures
        for i in range(1, dim + 1):
            ok = ok and table.cell("X0", f"Y{i}") == {f"X{i}": 1}
            ok = ok and table.cell("Z1", f"Y{i}") == {f"Y{i}": -1}
        ok = ok and table.cell("S", "Z1") == {"S": 2}
        ok = ok and table.cell("T", "Z1") == {"T": 2}
        ok = ok and table.cell("T", "Z2") == {"T": 1}
        ok = ok and table.cell("Z1", "Z2") == {}
        for n1 in table.names:
            for n2 in table.names:
                flipped = {k: -v for k, v in table.cell(n2, n1).items()}
                ok = ok and table.cell(n1, n2) == flipped
    _report(5, "bracket table is antisymmetric, closed, and matches the "
               "hand-derived cells", ok)


def test_acceptance_6_scaling_family_recovery(spaces):
    from liequiv.determining import solve_unknowns
    reg = spaces[1].reg
    al, be, ga = unknown("alpha"), unknown("beta"), unknown("gamma")
    family = make_generator(
        reg,
        xi_x=(Expr.of(reg.x[0]),),
        eta_u=(Expr.of(reg.u[0]),),
        eta_p=al * reg.p,
        mu_pi=(be * reg.pi[(1, 1)],),
        mu_g=ga * reg.g)
    result = solve_unknowns(
        determining_equations(spaces[1].system, family, "scaling-family"))
    ok = (result["free"] == []
          and result["solution"] == {al: 2, be: 2, ga: 2})
    _report(6, "splitting the scaling family forces the exponents "
               "alpha = beta = gamma = 2", ok)


def test_acceptance_7_prolongation_matches_flows(spaces):
    rnd = random.Random(2718)
    h = 1e-4
    worst = 0.0
    ok = True
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        for entry in spaces[dim].catalog:
            flow = numeric_flow(reg, entry.spec)
            ok = ok and flow is not None
            if flow is None:
                continue
            coeffs = prolong(reg, entry.spec)
            for _ in range(10):
                point = {a: rnd.uniform(0.6, 1.7) for a in reg.space}
                fp, fm = flow(point, h), flow(point, -h)
                fp2, fm2 = flow(point, 2 * h), flow(point, -2 * h)
                for atom, coeff in coeffs.items():
                    want = float(evaluate(coeff, point))
                    got = (fm2[atom] - 8 * fm[atom] + 8 * fp[atom]
                           - fp2[atom]) / (12 * h)
                    rel = abs(got - want) / max(1.0, abs(want))
                    worst = max(worst, rel)
                    ok = ok and rel <= FD_RELATIVE_TOLERANCE
    _report(7, f"symbolic prolongation coefficients match flow derivatives "
               f"at 10 random points per entry (worst rel err {worst:.2e} "
               f"<= {FD_RELATIVE_TOLERANCE:.0e})", ok)


def test_acceptance_8_determinism_and_round_trip(spaces, tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    codes = []
    for target in (first, second):
        codes.append(main(["verify", "--dim", "3", "--gen", "all",
                           "--format", "json", "--out", str(target)]))
        capsys.readouterr()
    # --gen all includes the failing naive rotations: exit 1, bytes equal
    ok = codes == [1, 1] and first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text(encoding="utf-8"))
    ok = ok and len(payload["results"]) == 17

    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        for entry in spaces[dim].catalog:
            printed = print_generator(reg, entry.spec)
            ok = ok and parse_generator(reg, printed) == entry.spec
    _report(8, "byte-identical consecutive JSON reports and full catalog "
               "DSL round-trip", ok)
