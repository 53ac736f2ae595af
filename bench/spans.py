"""Span and count tracing for the traced benchmark run.

The tracer wraps public functions of the liequiv modules from outside the
program.  Modules import each other's functions by name (``determining``
holds its own reference to ``restrict_to_manifold``), so a wrapper is put on
every module attribute that refers to the original function, not only on
the defining module.  ``Expr`` ring operators get call counters without
spans, which keeps the overhead of the hottest calls bounded.

Spans live in memory as ``[id, parent, name, start, end]`` lists and are
written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (defining module, attribute, span name).  Methods are patched on the class.
SPANNED = (
    ("jets", "total_derivative", "jets.total_derivative"),
    ("system", "build_system", "system.build_system"),
    ("system", "restrict_to_manifold", "system.restrict"),
    ("expr", "substitute", "expr.substitute"),
    ("expr", "collect", "expr.collect"),
    ("generators", "prolong", "generators.prolong"),
    ("generators", "apply_with_trace", "generators.apply"),
    ("generators", "bracket", "generators.bracket"),
    ("determining", "determining_equations", "determining.deteq"),
    ("determining", "solve_unknowns", "determining.solve_unknowns"),
    ("determining", "finite_check", "determining.finite_check"),
    ("linsolve", "solve_linear", "linsolve.solve"),
    ("catalog", "build_catalog", "catalog.build"),
    ("catalog", "structure_constants", "catalog.structure_constants"),
    ("catalog", "decompose_in_span", "catalog.decompose"),
    ("flows", "exponentiate", "flows.exponentiate"),
    ("flows", "FiniteTransformation.transform", "flows.transform"),
    ("dsl", "parse_generator", "dsl.parse"),
    ("dsl", "parse_expr", "dsl.parse"),
    ("dsl", "print_generator", "dsl.print"),
    ("report", "render_json", "report.render"),
    ("report", "render_text", "report.render"),
    ("cli", "main", "cli"),
)

# Per-layer metrics in the order they are reported: name -> unit.
PER_LAYER = {
    "jets.total_derivative.calls": "count",
    "jets.total_derivative.self_s": "s",
    "system.build_system.s": "s",
    "system.restrict.calls": "count",
    "system.restrict.self_s": "s",
    "system.restrict.terms_in": "count",
    "system.restrict.terms_out": "count",
    "system.restrict.rho_power_max": "count",
    "expr.substitute.self_s": "s",
    "expr.collect.self_s": "s",
    "expr.collect.buckets": "count",
    "expr.add.calls": "count",
    "expr.mul.calls": "count",
    "generators.prolong.calls": "count",
    "generators.prolong.self_s": "s",
    "generators.apply.calls": "count",
    "generators.apply.self_s": "s",
    "generators.apply.terms_out": "count",
    "generators.bracket.calls": "count",
    "generators.bracket.self_s": "s",
    "determining.deteq.calls": "count",
    "determining.deteq.self_s": "s",
    "determining.split_coefficients": "count",
    "determining.solve_unknowns.self_s": "s",
    "determining.finite_check.self_s": "s",
    "linsolve.solve.calls": "count",
    "linsolve.solve.self_s": "s",
    "linsolve.rows": "count",
    "linsolve.unique_rows": "count",
    "linsolve.useful_row_ratio": "ratio",
    "linsolve.vars": "count",
    "linsolve.rank": "count",
    "linsolve.largest.rows": "count",
    "linsolve.largest.unique_rows": "count",
    "linsolve.largest.rank": "count",
    "catalog.build.s": "s",
    "catalog.structure_constants.calls": "count",
    "catalog.structure_constants.self_s": "s",
    "catalog.decompose.calls": "count",
    "catalog.decompose.self_s": "s",
    "flows.exponentiate.self_s": "s",
    "flows.transform.calls": "count",
    "flows.transform.self_s": "s",
    "dsl.parse.self_s": "s",
    "dsl.print.self_s": "s",
    "report.render.self_s": "s",
    "report.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _restrict_counts(counts, args, result):
    counts["system.restrict.terms_in"] += len(args[0].terms)
    counts["system.restrict.terms_out"] += len(result[0].terms)
    counts["system.restrict.rho_power_max"] = max(
        counts["system.restrict.rho_power_max"], result[1])


def _apply_counts(counts, args, result):
    counts["generators.apply.terms_out"] += len(result[0].terms)


def _collect_counts(counts, args, result):
    counts["expr.collect.buckets"] += len(result)


def _deteq_counts(counts, args, result):
    counts["determining.split_coefficients"] += sum(
        len(s.terms) for s in result.splits)


def _render_counts(counts, args, result):
    counts["report.bytes"] += len(result.encode("utf-8"))


_EXTRA = {
    "system.restrict": _restrict_counts,
    "generators.apply": _apply_counts,
    "expr.collect": _collect_counts,
    "determining.deteq": _deteq_counts,
    "report.render": _render_counts,
}


class Tracer:
    """Records spans and counts while installed; restores everything on
    ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.solves = []  # (equations, variables, free) per solve_linear call
        self.solve_stats = []
        self._patches = []
        self._add = itertools.count()
        self._mul = itertools.count()

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1][0] if self.stack else None,
               name, time.perf_counter(), None]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name):
        extra = _EXTRA.get(name)
        solves = self.solves if name == "linsolve.solve" else None
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if extra is not None:
                extra(tracer.counts, args, result)
            if solves is not None:
                solves.append((args[0], args[1], result[1]))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "liequiv" or n.startswith("liequiv.")]
        for mod_name, attr, span in SPANNED:
            owner = sys.modules[f"liequiv.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(cls.__dict__[meth], span))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, span)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapper)

        expr_cls = sys.modules["liequiv.expr"].Expr
        for meths, counter in ((("__add__", "__radd__"), self._add),
                               (("__mul__", "__rmul__"), self._mul)):
            for meth in meths:
                self._set(expr_cls, meth,
                          _counted(expr_cls.__dict__[meth], counter.__next__))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def span_stats(self) -> dict:
        """name -> (calls, total seconds, self seconds)."""
        child_time = defaultdict(float)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _, name, start, end in self.spans:
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - child_time[sid]
        return stats

    def covered(self, root_id: int) -> float:
        """Seconds of the span ``root_id`` spent inside wrapped layers: the
        summed self time of every span below it."""
        return sum(end - start for _, parent, _, start, end in self.spans
                   if parent == root_id)

    def per_layer(self, overhead_s: float) -> dict:
        stats = self.span_stats()
        counts = self.counts
        out = {}
        for name in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if field == "calls" and layer in stats:
                out[name] = stats[layer][0]
            elif field == "self_s":
                out[name] = stats[layer][2] if layer in stats else 0.0
            elif field == "s":
                out[name] = stats[layer][1] if layer in stats else 0.0
            else:
                out[name] = counts.get(name, 0)
        out["expr.add.calls"] = next(self._add)
        out["expr.mul.calls"] = next(self._mul)
        self.solve_stats = [solve_row_stats(*s) for s in self.solves]
        out.update(linsolve_stats(self.solve_stats))
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: str, header: dict, metrics: dict) -> None:
        payload = dict(header)
        payload["metrics"] = metrics
        payload["span_fields"] = ["id", "parent", "name", "start", "end"]
        payload["spans"] = self.spans
        payload["solves"] = self.solve_stats
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _counted(fn, tick):
    def wrapper(self, other):
        tick()
        return fn(self, other)
    wrapper.__wrapped__ = fn
    return wrapper


def distinct_rows(rows, order) -> list:
    """Rows (coefficients by variable, constant) that differ by more than a
    nonzero rational scale, in first-seen order; all-zero rows are dropped.
    ``order`` ranks the variables."""
    seen = {}
    for coeffs, const in rows:
        entries = sorted((order[v], Fraction(c)) for v, c in coeffs.items() if c)
        const = Fraction(const)
        if not entries and not const:
            continue
        lead = entries[0][1] if entries else const
        seen.setdefault((tuple((i, c / lead) for i, c in entries), const / lead),
                        (coeffs, const))
    return list(seen.values())


def solve_row_stats(equations, variables, free) -> dict:
    """Rows, distinct rows, variables and rank of one solve_linear call."""
    order = {v: i for i, v in enumerate(variables)}
    return {"rows": len(equations),
            "unique_rows": len(distinct_rows(equations, order)),
            "vars": len(variables), "rank": len(variables) - len(free)}


def linsolve_stats(rows) -> dict:
    total = {k: sum(r[k] for r in rows)
             for k in ("rows", "unique_rows", "vars", "rank")}
    largest = max(rows, key=lambda r: r["rows"], default=None)
    return {
        "linsolve.rows": total["rows"],
        "linsolve.unique_rows": total["unique_rows"],
        "linsolve.useful_row_ratio": (total["unique_rows"] / total["rows"]
                                      if total["rows"] else 0.0),
        "linsolve.vars": total["vars"],
        "linsolve.rank": total["rank"],
        "linsolve.largest.rows": largest["rows"] if largest else 0,
        "linsolve.largest.unique_rows": largest["unique_rows"] if largest else 0,
        "linsolve.largest.rank": largest["rank"] if largest else 0,
    }
