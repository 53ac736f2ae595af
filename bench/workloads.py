"""The benchmark's workloads: operation lists made from a seed.

Each workload builds a fixed list of operations from ``--seed`` once, before
timing; every pass then runs the same list in the same order.  The inputs
per workload (see README.md for the reasons):

* ``classify``: the general degree-1 ansatz at each dimension through
  ``determining_equations`` and ``solve_unknowns``.  The ansatz does not
  depend on the seed; the seed picks the evaluation points of the checks.
* ``catalog``: CLI commands on the named catalog entries and on seeded DSL
  generators (rational combinations of theorem entries, alone and plus a
  naive rotation) passed as ``--gen @file.dsl``; seeded ``--param`` values.
* ``brackets``: ``bracket --table`` and a seeded sample of ``--pair`` calls.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks

COMBOS_PER_DIM = 3       # seeded theorem combinations (and naive variants)
PAIRS_PER_DIM = 4        # seeded bracket --pair calls
# The N = 3 classification is one call of 15 to 25 s: too long to repeat
# within a run, and too long for the calibration at its two ends to follow
# the machine's speed (README.md).  It runs once per run, checked, traced
# and reported; the timed passes repeat N = 1 and 2.
HEAVY_DIM = 3


@dataclass
class Context:
    lq: object           # the imported liequiv package
    spaces: dict         # dim -> (registry, system, catalog)


@dataclass
class Op:
    key: str             # unique within the workload
    family: str          # operation kind, e.g. "verify" or "classify"
    dim: int
    fn: Callable
    once: bool = False   # run once per run, before the passes, instead of per pass
    digest: Callable = lambda value: value   # what must repeat from pass to pass


def cli_op(ctx, family, dim, argv, key=None) -> Op:
    """A CLI command run in-process; exit code 2 (input error) fails the op."""
    argv = tuple(str(a) for a in argv)

    def fn():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ctx.lq.cli.main(list(argv))
        if rc not in (0, 1):
            raise RuntimeError(f"exit {rc}: {err.getvalue().strip()}")
        return rc, out.getvalue()

    return Op(key or " ".join(argv), family, dim, fn)


# -- classify ---------------------------------------------------------------


def degree1_ansatz(lq, reg):
    """Every coefficient slot gets one ?c constant per admitted monomial of
    degree <= 1.  Returns (spec, labels) with labels[(slot, basis)] = name,
    basis being '1' or a coordinate name."""
    Expr, unknown = lq.expr.Expr, lq.expr.unknown

    base = [reg.t, *reg.x, *reg.u]
    point = base + [reg.p, reg.rho]
    gradient = ([reg.u_x[k] for k in sorted(reg.u_x)]
                + [reg.pi[k] for k in reg.pi_pairs()])
    state = [reg.p, reg.rho, reg.g, reg.h]
    slots = [("xi_t", base)]
    slots += [(f"xi_{a.name}", base) for a in reg.x]
    slots += [(f"eta_{a.name}", base) for a in reg.u]
    slots += [("eta_p", point), ("eta_rho", point)]
    slots += [(f"mu_{reg.pi[k].name}", gradient) for k in reg.pi_pairs()]
    slots += [("mu_G", state), ("mu_H", state)]

    labels, coeffs = {}, {}
    for slot, atoms in slots:
        e = lq.expr.ZERO
        for basis in [None] + atoms:
            c = unknown(f"c{len(labels) + 1}")
            labels[(slot, "1" if basis is None else basis.name)] = c.name
            e = e + (Expr.of(c) if basis is None else Expr.of(c) * Expr.of(basis))
        coeffs[slot] = e
    spec = lq.make_generator(
        reg,
        xi_t=coeffs["xi_t"],
        xi_x=tuple(coeffs[f"xi_{a.name}"] for a in reg.x),
        eta_u=tuple(coeffs[f"eta_{a.name}"] for a in reg.u),
        eta_p=coeffs["eta_p"], eta_rho=coeffs["eta_rho"],
        mu_pi=tuple(coeffs[f"mu_{reg.pi[k].name}"] for k in reg.pi_pairs()),
        mu_g=coeffs["mu_G"], mu_h=coeffs["mu_H"])
    return spec, labels


def classify_digest(value):
    dsys, solved = value
    return (tuple(str(c) for c in dsys.coefficients()),
            sorted(a.name for a in solved["free"]),
            sorted((a.name, str(v)) for a, v in solved["solution"].items()))


class Classify:
    def build(self, ctx, seed, dims, work_dir):
        self.labels = {}
        ops = []
        for dim in dims:
            reg, system, _ = ctx.spaces[dim]
            spec, self.labels[dim] = degree1_ansatz(ctx.lq, reg)

            def fn(system=system, spec=spec, dim=dim):
                det = ctx.lq.determining
                dsys = det.determining_equations(system, spec, f"ansatz{dim}")
                return dsys, det.solve_unknowns(dsys)

            ops.append(Op(f"classify dim{dim}", "classify", dim, fn,
                          once=dim == HEAVY_DIM, digest=classify_digest))
        return ops

    def check(self, ctx, results, seed, dims, trace):
        return checks.check_classify(results, self.labels, seed, dims, trace)


# -- catalog ----------------------------------------------------------------


def seeded_generators(lq, reg, catalog, rng) -> list:
    """'name = dsl' lines: rational combinations of theorem entries, each
    also shifted by a rational multiple of a naive rotation when N >= 2."""
    theorem = [e for e in catalog if e.kind == "theorem"]
    naive = [e for e in catalog if e.name.endswith("_naive")]
    lines = []
    for k in range(COMBOS_PER_DIM):
        parts = rng.sample(theorem, rng.randint(2, 5))
        spec = lq.combine(reg, [
            (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)),
             e.spec) for e in parts])
        lines.append(f"zero_{k} = {lq.print_generator(reg, spec)}")
        if naive:
            shifted = lq.combine(reg, [
                (1, spec),
                (Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.choice(naive).spec)])
            lines.append(f"naive_{k} = {lq.print_generator(reg, shifted)}")
    return lines


class Catalog:
    def build(self, ctx, seed, dims, work_dir):
        rng = random.Random(f"catalog-{seed}")
        ops = []
        for dim in dims:
            reg, _, catalog = ctx.spaces[dim]
            path = os.path.join(work_dir, f"dim{dim}.dsl")
            lines = seeded_generators(ctx.lq, reg, catalog, rng)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            d = ("--dim", dim)
            ops.append(cli_op(ctx, "verify", dim, ("verify", *d, "--gen", "all",
                                                   "--format", "json")))
            ops.append(cli_op(ctx, "verify", dim, ("verify", *d, "--gen", "all-theorem")))
            ops.append(cli_op(ctx, "verify", dim,
                              ("verify", *d, "--gen", "@" + path, "--format", "json"),
                              key=f"verify --dim {dim} --gen @seeded --format json"))
            for e in catalog:
                ops.append(cli_op(ctx, "verify", dim, ("verify", *d, "--gen", e.name)))
            ops.append(cli_op(ctx, "deteq", dim, ("deteq", *d, "--gen", "all")))
            ops.append(cli_op(ctx, "deteq", dim, ("deteq", *d, "--gen", "all-theorem",
                                                  "--format", "json")))
            ops.append(cli_op(ctx, "deteq", dim,
                              ("deteq", *d, "--gen", "@" + path, "--format", "json"),
                              key=f"deteq --dim {dim} --gen @seeded --format json"))
            for e in catalog:
                if e.kind != "theorem":
                    continue
                param = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                ops.append(cli_op(ctx, "transform", dim,
                                  ("transform", *d, "--gen", e.name, "--format", "json")))
                ops.append(cli_op(ctx, "transform", dim,
                                  ("transform", *d, "--gen", e.name, f"--param={param}")))
            for fmt in ("text", "json"):
                ops.append(cli_op(ctx, "list", dim, ("list", *d, "--format", fmt)))
                ops.append(cli_op(ctx, "system-dump", dim,
                                  ("system-dump", *d, "--format", fmt)))
        return ops

    def check(self, ctx, results, seed, dims, trace):
        return checks.check_catalog(ctx, results, seed, dims, trace)


# -- brackets ---------------------------------------------------------------


class Brackets:
    def build(self, ctx, seed, dims, work_dir):
        rng = random.Random(f"brackets-{seed}")
        ops = []
        for dim in dims:
            _, _, catalog = ctx.spaces[dim]
            names = [e.name for e in catalog if e.kind == "theorem"]
            d = ("--dim", dim)
            for fmt in ("json", "text"):
                ops.append(cli_op(ctx, "bracket-table", dim,
                                  ("bracket", *d, "--table", "--format", fmt)))
            pairs = [(a, b) for a in names for b in names if a != b]
            for a, b in rng.sample(pairs, PAIRS_PER_DIM):
                ops.append(cli_op(ctx, "bracket-pair", dim,
                                  ("bracket", *d, "--pair", f"{a},{b}", "--format", "json")))
        return ops

    def check(self, ctx, results, seed, dims, trace):
        return checks.check_brackets(ctx, results, seed, dims, trace)


WORKLOADS = {"classify": Classify, "catalog": Catalog, "brackets": Brackets}


def family_medians(ops, seconds) -> dict:
    """Median over the operations of each (operation family, dimension) of
    their time in milliseconds, e.g. ``verify_dim3_ms``; ``seconds`` maps
    each op key to its time."""
    samples = {}
    for op in ops:
        if op.key in seconds:
            samples.setdefault(f"{op.family}_dim{op.dim}_ms", []).append(
                1000.0 * seconds[op.key])
    return {k: statistics.median(v) for k, v in sorted(samples.items())}
