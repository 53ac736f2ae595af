"""Correctness checks on the outputs of a benchmark run.

Every check compares against sympy, a result the paper states, or a
property the method must have; none compares against a stored copy of an
earlier output.  Each check function returns a list of failure messages.
sympy and jsonschema are imported here, after the timed passes, so they do
not count towards the measured memory or time.
"""

from __future__ import annotations

import json
import os
import random
import re
from fractions import Fraction
from itertools import combinations

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = os.path.join(ROOT, "docs", "report_schema.json")

# Share of a traced classify operation that wrapped layers must cover, and
# the pass-to-pass spread allowed between a traced and an untraced operation.
COVERAGE = 0.99
NOISE = 0.05

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def sym(text: str):
    """Parse an engine expression string: every identifier but ``exp`` is
    a symbol, so the scale atoms ``exp(a)``, ``exp(-a)`` are sympy's exp."""
    import sympy
    from sympy.parsing.sympy_parser import parse_expr
    names = {n: sympy.Symbol(n) for n in _NAME.findall(text) if n != "exp"}
    return parse_expr(text, local_dict=names)


def random_point(expr, rng):
    import sympy
    return {s: sympy.Rational(rng.randint(1, 10**6), rng.randint(1, 10**6))
            for s in expr.free_symbols}


# -- the paper's system and catalog ------------------------------------------


def paper_system(dim: int) -> dict:
    """The balance laws as the paper writes them, in sympy."""
    import sympy
    S = sympy.Symbol
    rng = range(1, dim + 1)

    def pi(i, j):
        return S(f"Pi{min(i, j)}{max(i, j)}")

    def uxx(k, l, j):
        return S(f"u{k}_x{min(l, j)}x{max(l, j)}")

    rho = S("rho")
    eqs = {"mass": S("rho_t") + sum(S(f"u{i}") * S(f"rho_x{i}") + rho * S(f"u{i}_x{i}")
                                    for i in rng)}
    for i in rng:
        div_pi = sum(S(f"Pi{min(i, j)}{max(i, j)}_d_u{k}x{l}") * uxx(k, l, j)
                     for j in rng for k in rng for l in rng)
        eqs[f"momentum_{i}"] = (rho * (S(f"u{i}_t") + sum(S(f"u{j}") * S(f"u{i}_x{j}")
                                                          for j in rng))
                                - div_pi + S(f"p_x{i}"))
    phi = sum(pi(i, j) * S(f"u{i}_x{j}") for i in rng for j in rng)
    eqs["pressure"] = (S("p_t") + sum(S(f"u{i}") * S(f"p_x{i}") for i in rng)
                       + S("G") * sum(S(f"u{i}_x{i}") for i in rng) + S("H") * phi)
    return eqs


def theorem_names(dim: int) -> list:
    rng = range(1, dim + 1)
    return (["X0"] + [f"X{i}" for i in rng] + ["S"] + [f"Y{i}" for i in rng]
            + ["T", "Z1", "Z2"])


def rotation_names(dim: int) -> list:
    planes = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    return ([f"J{i}{j}_naive" for i, j in planes]
            + [f"J{i}{j}_tensorial" for i, j in planes])


# Form-invariance factors of the scalings as the paper states them.
PAPER_FACTORS = {
    "Z1": lambda eq: "1" if eq == "mass" else
    "exp(a)" if eq.startswith("momentum") else "exp(2*a)",
    "Z2": lambda eq: "exp(a)",
}


def known_generators(dim: int) -> dict:
    """The 2N+5 theorem generators and the dilation D as ansatz constants:
    name -> {(slot, basis): value}, read off the paper's definitions."""
    rng = range(1, dim + 1)
    pis = [f"Pi{i}{j}" for i in rng for j in rng if i <= j]
    gens = {"X0": {("xi_t", "1"): 1}, "S": {("eta_p", "1"): 1}}
    for i in rng:
        gens[f"X{i}"] = {(f"xi_x{i}", "1"): 1}
        gens[f"Y{i}"] = {(f"xi_x{i}", "t"): 1, (f"eta_u{i}", "1"): 1}
    gens["T"] = {(f"mu_Pi{i}{i}", "1"): 1 for i in rng}
    gens["T"][("mu_G", "H")] = -1
    z1 = {("eta_p", "p"): 2, ("mu_G", "G"): 2}
    for i in rng:
        z1[(f"xi_x{i}", f"x{i}")] = 1
        z1[(f"eta_u{i}", f"u{i}")] = 1
    z1.update({(f"mu_{p}", p): 2 for p in pis})
    gens["Z1"] = z1
    z2 = {("eta_rho", "rho"): 1, ("eta_p", "p"): 1, ("mu_G", "G"): 1}
    z2.update({(f"mu_{p}", p): 1 for p in pis})
    gens["Z2"] = z2
    gens["D"] = {("xi_t", "t"): 1, **{(f"xi_x{i}", f"x{i}"): 1 for i in rng}}
    return gens


# -- classify ----------------------------------------------------------------


def linear_rows(coefficients) -> list:
    """One row per (split coefficient, monomial in the non-constant atoms):
    ({unknown name: Fraction}, constant part).  A row vanishes exactly when
    that monomial's coefficient does."""
    rows = []
    for coeff in coefficients:
        groups = {}
        for mono, c in coeff.terms:
            unknowns = [a.name for a, _ in mono.factors if a.name.startswith("?")]
            rest = tuple((a.name, k) for a, k in mono.factors if not a.name.startswith("?"))
            if len(unknowns) > 1 or any(k > 1 for a, k in mono.factors
                                        if a.name.startswith("?")):
                raise ValueError("coefficient is not linear in the unknowns")
            row = groups.setdefault(rest, ({}, [Fraction(0)]))
            if unknowns:
                row[0][unknowns[0]] = row[0].get(unknowns[0], Fraction(0)) + Fraction(c)
            else:
                row[1][0] += Fraction(c)
        rows.extend((coeffs, const[0]) for coeffs, const in groups.values())
    return rows


def residual(row, values) -> Fraction:
    coeffs, const = row
    return sum((c * Fraction(values.get(v, 0)) for v, c in coeffs.items()), const)


def check_classify(results, labels, seed, dims, trace) -> list:
    import sympy
    failures = []
    for dim in dims:
        dsys, solved = results[f"classify dim{dim}"]
        declared = sorted(labels[dim].values(), key=lambda n: int(n[2:]))
        rows = linear_rows(dsys.coefficients())
        occurring = sorted({v for coeffs, _ in rows for v in coeffs},
                           key=lambda n: int(n[2:]))
        order = {v: i for i, v in enumerate(occurring)}
        unique = spans.distinct_rows(rows, order)
        matrix = sympy.Matrix([[sympy.Rational(coeffs.get(v, 0)) for v in occurring]
                               for coeffs, _ in unique])
        rank = matrix.rank()
        solver_rank = len(occurring) - len(solved["free"])
        if solver_rank != rank:
            failures.append(f"classify dim{dim}: solver rank {solver_rank} "
                            f"!= sympy rank {rank}")

        solution = {a.name: v for a, v in solved["solution"].items()}
        bad = sum(1 for row in rows if residual(row, solution) != 0)
        if bad:
            failures.append(f"classify dim{dim}: solution violates {bad} rows")

        vectors = []
        for name, gen in known_generators(dim).items():
            values = {labels[dim][key]: v for key, v in gen.items()}
            vectors.append([values.get(v, 0) for v in declared])
            bad = sum(1 for row in rows if residual(row, values) != 0)
            if bad:
                failures.append(f"classify dim{dim}: {name} violates {bad} "
                                "split coefficients")
        independent = sympy.Matrix(vectors).rank()
        nullity = len(declared) - rank
        if independent != 2 * dim + 6 or nullity < 2 * dim + 6:
            failures.append(f"classify dim{dim}: nullity {nullity} over "
                            f"{len(declared)} declared unknowns, known "
                            f"independent generators {independent}, "
                            f"expected >= {2 * dim + 6}")

        if trace is not None and dim == max(dims):
            layer = trace["metrics"]
            if (layer["linsolve.largest.rows"] != len(rows)
                    or layer["linsolve.largest.unique_rows"] != len(unique)
                    or layer["linsolve.largest.rank"] != rank):
                failures.append(
                    f"classify dim{dim}: traced solve ({layer['linsolve.largest.rows']}, "
                    f"{layer['linsolve.largest.unique_rows']}, "
                    f"{layer['linsolve.largest.rank']}) != rows/unique/rank "
                    f"({len(rows)}, {len(unique)}, {rank})")
            # The layer spans must cover the traced operation, and their self
            # times must match the untraced time up to the tracing overhead
            # plus the pass-to-pass spread of one operation (NOISE).
            traced, covered = trace["ops"][f"classify dim{dim}"]
            untraced = trace["untraced_op_s"][f"classify dim{dim}"]
            overhead = traced - untraced
            if (covered < COVERAGE * traced
                    or abs(covered - untraced) > abs(overhead) + NOISE * untraced):
                failures.append(
                    f"classify dim{dim}: layer self times {covered:.3f} s do not "
                    f"account for {untraced:.3f} s (traced {traced:.3f} s, "
                    f"overhead {overhead:.3f} s)")
    return failures


# -- catalog -----------------------------------------------------------------


def schema_failures(results) -> list:
    """Every JSON report validated against docs/report_schema.json."""
    import jsonschema
    with open(SCHEMA, encoding="utf-8") as handle:
        validator = jsonschema.Draft7Validator(json.load(handle))
    return [f"{key}: schema: {err.message}"
            for key, (_, out) in results.items() if key.endswith("json")
            for err in validator.iter_errors(json.loads(out))]


def _witness_nonzero(result, rng) -> str | None:
    eqs = result["infinitesimal"]["equations"]
    nonzero = [e for e in eqs if e["status"] == "nonzero"]
    if not nonzero:
        return "no nonzero equation"
    for e in nonzero:
        coeff = sym(e["witness"]["coefficient"])
        if coeff.subs(random_point(coeff, rng)) == 0:
            return f"witness of {e['equation']} vanishes at a random point"
    return None


def check_catalog(ctx, results, seed, dims, trace) -> list:
    import sympy
    failures = schema_failures(results)
    rng = random.Random(f"catalog-check-{seed}")

    for dim in dims:
        theorem = theorem_names(dim)
        rotations = rotation_names(dim)
        expect_rc = 0 if dim == 1 else 1

        # verify: theorem entries zero with agreeing finite route, the
        # paper's scaling factors, naive rotations nonzero with a witness
        # that is nonzero at a random point; tensorial ones are not judged.
        rc, out = results[f"verify --dim {dim} --gen all --format json"]
        report = {r["generator"]: r for r in json.loads(out)["results"]}
        if rc != expect_rc or sorted(report) != sorted(theorem + rotations):
            failures.append(f"verify dim{dim}: exit {rc}, generators {sorted(report)}")
        for name in theorem:
            r = report.get(name)
            if r is None:
                continue
            fin = r["finite"]
            if (r["infinitesimal"]["status"] != "zero" or not fin["available"]
                    or fin["status"] != "pass" or r["agreement"] is not True):
                failures.append(f"verify dim{dim}: {name} is not a verified symmetry")
            if name in PAPER_FACTORS and fin["factors"]:
                want = {eq: PAPER_FACTORS[name](eq) for eq in fin["factors"]}
                if fin["factors"] != want:
                    failures.append(f"verify dim{dim}: {name} factors "
                                    f"{fin['factors']} != {want}")
        for name in rotations:
            if name.endswith("_naive") and name in report:
                if report[name]["infinitesimal"]["status"] != "nonzero":
                    failures.append(f"verify dim{dim}: {name} reported zero")
                else:
                    problem = _witness_nonzero(report[name], rng)
                    if problem:
                        failures.append(f"verify dim{dim}: {name}: {problem}")

        rc, out = results[f"verify --dim {dim} --gen all-theorem"]
        if rc != 0 or not out.rstrip().endswith("status: pass"):
            failures.append(f"verify dim{dim} all-theorem: exit {rc}")
        for name in theorem + rotations:
            rc, out = results[f"verify --dim {dim} --gen {name}"]
            verdict = re.search(r"infinitesimal: (\w+)", out).group(1)
            if name in theorem and (rc, verdict) != (0, "zero"):
                failures.append(f"verify dim{dim} {name}: exit {rc}, {verdict}")
            if name.endswith("_naive") and (rc, verdict) != (1, "nonzero"):
                failures.append(f"verify dim{dim} {name}: exit {rc}, {verdict}")

        # seeded combinations: the algebra is a linear space, so theorem
        # combinations are symmetries and adding a naive rotation is not.
        rc, out = results[f"verify --dim {dim} --gen @seeded --format json"]
        for r in json.loads(out)["results"]:
            status = r["infinitesimal"]["status"]
            if r["generator"].startswith("zero_") and status != "zero":
                failures.append(f"verify dim{dim}: combination {r['generator']} nonzero")
            if r["generator"].startswith("naive_"):
                problem = (_witness_nonzero(r, rng) if status == "nonzero"
                           else "reported zero")
                if problem:
                    failures.append(f"verify dim{dim}: {r['generator']}: {problem}")
        if rc != expect_rc:
            failures.append(f"verify dim{dim} @seeded: exit {rc}")

        # deteq: theorem entries split to nothing; naive variants do not.
        rc, out = results[f"deteq --dim {dim} --gen all-theorem --format json"]
        for r in json.loads(out)["results"]:
            if any(eq["terms"] for eq in r["equations"]):
                failures.append(f"deteq dim{dim}: {r['generator']} has split terms")
        rc, out = results[f"deteq --dim {dim} --gen @seeded --format json"]
        for r in json.loads(out)["results"]:
            nonempty = any(eq["terms"] for eq in r["equations"])
            if nonempty != r["generator"].startswith("naive_"):
                failures.append(f"deteq dim{dim}: {r['generator']} split terms {nonempty}")
        rc, out = results[f"deteq --dim {dim} --gen all"]
        sections = re.split(r"^generator (\S+):$", out, flags=re.M)[1:]
        for name, body in zip(sections[::2], sections[1::2]):
            satisfied = "= 0\n" not in body.replace("0 = 0 (identically satisfied)", "")
            if name in theorem and not satisfied:
                failures.append(f"deteq dim{dim} text: {name} has split terms")
            if name.endswith("_naive") and satisfied:
                failures.append(f"deteq dim{dim} text: {name} has no split terms")

        # system-dump against the paper's equations; text and JSON agree.
        paper = paper_system(dim)
        rc, out = results[f"system-dump --dim {dim} --format json"]
        dumped = {e["name"]: e["expression"] for e in json.loads(out)["equations"]}
        if sorted(dumped) != sorted(paper):
            failures.append(f"system-dump dim{dim}: equations {sorted(dumped)}")
        for name, expr in dumped.items():
            if name in paper and sympy.expand(sym(expr) - paper[name]) != 0:
                failures.append(f"system-dump dim{dim}: {name} differs from the paper")
        rc, out = results[f"system-dump --dim {dim} --format text"]
        for name, expr in dumped.items():
            if f"{name}: {expr} = 0" not in out:
                failures.append(f"system-dump dim{dim} text: {name} missing")

        # transform: every theorem entry pulls each equation back to a
        # factor times itself; the scalings give the paper's factors.
        for name in theorem:
            rc, out = results[f"transform --dim {dim} --gen {name} --format json"]
            for e in json.loads(out)["equations"]:
                factor = e["factor"]
                want = PAPER_FACTORS[name](e["equation"]) if name in PAPER_FACTORS else None
                if factor.startswith("none") or (want and factor != want):
                    failures.append(f"transform dim{dim} {name}: {e['equation']} "
                                    f"factor {factor}")
                    continue
                gap = sympy.expand(sym(e["image"]) - sym(factor) * paper[e["equation"]])
                if gap != 0:
                    failures.append(f"transform dim{dim} {name}: {e['equation']} "
                                    "image is not factor * equation")
            param_key = [k for k in results
                         if k.startswith(f"transform --dim {dim} --gen {name} --param=")]
            rc, out = results[param_key[0]]
            if "not form-invariant" in out or not out.rstrip().endswith("status: ok"):
                failures.append(f"{param_key[0]}: not form-invariant")

        # list: the catalog the paper defines, text and JSON alike.
        rc, out = results[f"list --dim {dim} --format json"]
        entries = json.loads(out)["entries"]
        kinds = {e["name"]: e["kind"] for e in entries}
        want = {**{n: "theorem" for n in theorem},
                **{n: "rotation-candidate" for n in rotations}}
        if kinds != want or not all(e["has_flow"] for e in entries
                                    if e["kind"] == "theorem"):
            failures.append(f"list dim{dim}: entries {kinds}")
        rc, out = results[f"list --dim {dim} --format text"]
        for e in entries:
            if e["dsl"] not in out:
                failures.append(f"list dim{dim} text: {e['name']} missing")

    if trace is not None and trace["metrics"]["linsolve.solve.calls"] != 0:
        failures.append("catalog: linsolve called "
                        f"{trace['metrics']['linsolve.solve.calls']} times")
    return failures


# -- brackets ----------------------------------------------------------------


def sympy_structure_constants(catalog, dim) -> dict:
    """(left, right) -> {name: Rational} from sympy brackets of the verified
    entries as vector fields on the base coordinates, decomposed over the
    entries by sympy's exact Gauss-Jordan."""
    import sympy
    rng = range(1, dim + 1)
    base = (["t"] + [f"x{i}" for i in rng] + [f"u{i}" for i in rng] + ["p", "rho"]
            + [f"Pi{i}{j}" for i in rng for j in rng if i <= j] + ["G", "H"])
    coords = [sympy.Symbol(n) for n in base]
    slots = (["xi_t"] + [("xi_x", i) for i in range(dim)] + [("eta_u", i) for i in range(dim)]
             + ["eta_p", "eta_rho"] + [("mu_pi", i) for i in range(len(base) - 2 * dim - 5)]
             + ["mu_g", "mu_h"])
    fields = {}
    for e in catalog:
        if e.kind != "theorem":
            continue
        vec = []
        for slot in slots:
            coeff = (getattr(e.spec, slot) if isinstance(slot, str)
                     else getattr(e.spec, slot[0])[slot[1]])
            vec.append(sum((sympy.Rational(c.numerator, c.denominator)
                            * sympy.Mul(*[sympy.Symbol(a.name) ** k for a, k in mono.factors])
                            for mono, c in coeff.terms), sympy.Integer(0)))
        if not set().union(*[v.free_symbols for v in vec]) <= set(coords):
            raise ValueError(f"{e.name} leaves the base coordinates")
        fields[e.name] = vec
    names = list(fields)

    def bracket(a, b):
        return [sum(a[k] * sympy.diff(b[c], coords[k]) - b[k] * sympy.diff(a[c], coords[k])
                    for k in range(len(coords))) for c in range(len(coords))]

    def features(vec):
        out = {}
        for c, comp in enumerate(vec):
            if comp != 0:
                for monom, coeff in sympy.Poly(comp, *coords).terms():
                    out[(c, monom)] = coeff
        return out

    pairs = [(a, b) for a in names for b in names if a != b]
    targets = [features(bracket(fields[a], fields[b])) for a, b in pairs]
    columns = [features(fields[n]) for n in names]
    keys = sorted(set().union(*columns, *targets))
    lhs = sympy.Matrix([[col.get(k, 0) for col in columns] for k in keys])
    rhs = sympy.Matrix([[t.get(k, 0) for t in targets] for k in keys])
    solution, params = lhs.gauss_jordan_solve(rhs)
    if params.shape[0]:
        raise ValueError("verified entries are linearly dependent")
    return {pair: {n: solution[i, j] for i, n in enumerate(names) if solution[i, j] != 0}
            for j, pair in enumerate(pairs)}


def combo(text: str) -> dict:
    """'2*X0 - Y1' -> {'X0': 2, 'Y1': -1} as sympy rationals."""
    import sympy
    expr = sym(text)
    return {str(s): expr.coeff(s) for s in expr.free_symbols if expr.coeff(s) != 0} \
        if expr != 0 else {}


def check_brackets(ctx, results, seed, dims, trace) -> list:
    failures = schema_failures(results)

    for dim in dims:
        _, _, catalog = ctx.spaces[dim]
        expected = sympy_structure_constants(catalog, dim)
        rc, out = results[f"bracket --dim {dim} --table --format json"]
        payload = json.loads(out)
        names = payload["basis"]
        if names != theorem_names(dim) or payload["closed"] is not True:
            failures.append(f"bracket dim{dim}: basis {names}, closed {payload['closed']}")
            continue
        table = {(a, b): combo(payload["table"][i][j])
                 for i, a in enumerate(names) for j, b in enumerate(names)}
        for (a, b), cell in table.items():
            if a == b and cell:
                failures.append(f"bracket dim{dim}: [{a}, {a}] = {cell}")
            if a != b and cell != expected[(a, b)]:
                failures.append(f"bracket dim{dim}: [{a}, {b}] = {cell}, "
                                f"sympy gives {expected[(a, b)]}")
            neg = {n: -c for n, c in table[(b, a)].items()}
            if cell != neg:
                failures.append(f"bracket dim{dim}: [{a}, {b}] not antisymmetric")

        def bracket_of(left: dict, right: str) -> dict:
            out = {}
            for n, c in left.items():
                for m, d in table[(n, right)].items():
                    out[m] = out.get(m, 0) + c * d
            return out

        for a, b, c in combinations(names, 3):
            total = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for n, v in bracket_of(table[(x, y)], z).items():
                    total[n] = total.get(n, 0) + v
            if any(v != 0 for v in total.values()):
                failures.append(f"bracket dim{dim}: Jacobi fails on {a}, {b}, {c}")

        rc, out = results[f"bracket --dim {dim} --table --format text"]
        if rc != 0 or not out.rstrip().endswith("status: ok") or \
                not all(re.search(rf"^{re.escape(n)}\s", out, re.M) for n in names):
            failures.append(f"bracket dim{dim} text table: exit {rc}")

        for key, (rc, out) in results.items():
            if not key.startswith(f"bracket --dim {dim} --pair"):
                continue
            payload = json.loads(out)
            pair = (payload["left"], payload["right"])
            if combo(payload["value"]) != expected[pair]:
                failures.append(f"{key}: {payload['value']}, sympy gives {expected[pair]}")
    return failures
