"""liequiv benchmark: one named workload, timed end to end, outputs checked.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {classify|catalog|brackets} --seed N \
        --seconds S --trace {0|1} [--dims 1,2,3]

The run imports liequiv from ``src/`` of the checkout, builds the
workload's operation list from the seed, and repeats whole passes over it
until ``--seconds`` have elapsed; at least one pass always runs.  Every
operation runs sequentially in this process; CLI commands go through
``liequiv.cli.main(argv)`` with stdout captured.  Outputs of the first pass
are checked (``checks.py``); later passes must reproduce them byte for byte.

Set-up (a fresh import of liequiv plus the registry, system and catalog
builds of every dimension) is timed a few times at the start and once
after every pass.  Every timing is calibrated against a fixed reference
loop timed just before and just after it, and each metric takes medians
of the calibrated timings (README.md explains why).

``--trace 1`` adds one traced set-up and pass with every layer wrapped
(``spans.py``), writes the spans to ``.bench_trace/`` and prints the
per-layer metrics instead of the end-to-end ones.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds per-command figures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import spans  # noqa: E402  (bench/ is first on sys.path)
import workloads  # noqa: E402

SETUP_ROUNDS_AT_START = 3

# The machine's speed changes from second to second, by 1.6x to 1.9x, because
# of load outside this process.  A timing t is therefore reported as
# t * REF_SECONDS / r, r being the mean time of reference() just before and
# just after it: the time t would take where reference() takes REF_SECONDS,
# which is about its time in the fast state of a 2-core Xeon at 2.0 GHz.
REF_SECONDS = 0.0015

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--dims", default="1,2,3",
                   help="comma-separated spatial dimensions (default 1,2,3)")
    args = p.parse_args(argv)
    try:
        args.dims = tuple(sorted({int(d) for d in args.dims.split(",")}))
    except ValueError:
        args.dims = ()
    if not args.dims or not set(args.dims) <= {1, 2, 3}:
        p.error("--dims takes a comma-separated list of 1, 2, 3")
    return args


def reference() -> float:
    """Seconds taken by a fixed pure-Python exact-arithmetic loop."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    return time.perf_counter() - start


def calibrate(seconds: float, before: float, after: float) -> float:
    return seconds * REF_SECONDS / ((before + after) / 2)


def _liequiv_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "liequiv" or n.startswith("liequiv.")}


def setup_round(dims):
    """Import liequiv afresh and build every dimension's registry, system
    and catalog.  Returns (calibrated seconds, context).  Modules imported
    by an earlier round are put back afterwards, so the operations and the
    tracer keep working on one set of module objects."""
    previous = _liequiv_modules()
    for name in previous:
        del sys.modules[name]
    before = reference()
    start = time.perf_counter()
    lq = importlib.import_module("liequiv")
    importlib.import_module("liequiv.cli")
    spaces = {}
    for dim in dims:
        reg = lq.build_registry(dim)
        spaces[dim] = (reg, lq.build_system(dim, reg), lq.build_catalog(dim, reg))
    seconds = calibrate(time.perf_counter() - start, before, reference())
    if previous:
        for name in _liequiv_modules():
            del sys.modules[name]
        sys.modules.update(previous)
    return seconds, workloads.Context(lq, spaces)


class Runner:
    """Runs operations, keeps the first outputs and records failures."""

    def __init__(self):
        self.results = {}        # op key -> first output
        self.prints = {}         # op key -> fingerprint of the first output
        self.errors = []         # operations that raised
        self.mismatches = []     # outputs that changed between passes

    def run(self, op, tracer=None):
        """Run ``op`` once, inside a span when ``tracer`` is given.  Returns
        (seconds, span), seconds None when the operation raised.  Only the
        call is timed; comparing its output with the first pass is not."""
        label = "traced " if tracer else ""
        rec = tracer.open(f"op.{op.family}") if tracer else None
        start = time.perf_counter()
        try:
            value = op.fn()
        except Exception:  # counted as a failed operation, never fatal
            value = None
            self.errors.append(f"{label}{op.key}: {traceback.format_exc(limit=4)}")
        elapsed = time.perf_counter() - start
        if rec:
            tracer.close(rec)
        if value is None:
            return None, rec
        fp = hashlib.sha256(repr(op.digest(value)).encode()).hexdigest()
        if op.key not in self.results:
            self.results[op.key] = value
            self.prints[op.key] = fp
        elif self.prints[op.key] != fp:
            self.mismatches.append(f"{label}{op.key}: output differs between passes")
        return elapsed, rec

    def timed_pass(self, ops, tracer=None):
        """Per op (seconds, calibrated seconds, span or None); None for an op
        that raised."""
        out = []
        before = reference()
        for op in ops:
            seconds, rec = self.run(op, tracer)
            after = reference()
            out.append(None if seconds is None
                       else (seconds, calibrate(seconds, before, after), rec))
            before = after
        return out

    def traced_pass(self, ctx, ops, tracer):
        """One set-up and one pass under the tracer.  Returns the pass's
        timings and, per op key, (traced seconds, seconds in layer spans)."""
        root = tracer.open("setup")
        for dim in ctx.spaces:
            reg = ctx.lq.jets.build_registry(dim)
            ctx.lq.system.build_system(dim, reg)
            ctx.lq.catalog.build_catalog(dim, reg)
        tracer.close(root)
        times = self.timed_pass(ops, tracer)
        covered = {op.key: (t[2][4] - t[2][3], tracer.covered(t[2][0]))
                   for op, t in zip(ops, times) if t is not None}
        return times, covered


def traced_run(ctx, runner, once, repeated, args, samples, wall_s):
    """One traced set-up and pass.  ``samples`` maps each op key to its
    untraced timings; ``wall_s`` is the untraced end-to-end wall_s."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        times, covered = runner.traced_pass(ctx, once + repeated, tracer)
    finally:
        tracer.uninstall()
    traced_wall = sum(t[1] for t in times[len(once):] if t is not None)
    layer = tracer.per_layer(traced_wall - wall_s)
    trace_dir = os.path.join(ROOT, ".bench_trace")
    os.makedirs(trace_dir, exist_ok=True)
    tracer.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"),
                 {"workload": args.workload, "seed": args.seed,
                  "traced_wall_s": traced_wall, "untraced_wall_s": wall_s},
                 layer)
    untraced_op_s = {key: statistics.median(t[0] for t in samples[key])
                     for key in covered if samples.get(key)}
    return {"metrics": layer, "ops": covered, "untraced_op_s": untraced_op_s}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "liequiv", "__init__.py")):
        print(f"error: no liequiv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setups = []
    ctx = None
    for _ in range(SETUP_ROUNDS_AT_START):
        seconds, fresh = setup_round(args.dims)
        setups.append(seconds)
        ctx = ctx or fresh
    if not os.path.abspath(ctx.lq.__file__).startswith(SRC + os.sep):
        print(f"error: liequiv was imported from {ctx.lq.__file__}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    work_dir = os.path.join(ROOT, ".bench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        ops = workload.build(ctx, args.seed, args.dims, work_dir)
        once = [op for op in ops if op.once]
        repeated = [op for op in ops if not op.once]
        if not repeated:
            once, repeated = [], once
        runner = Runner()
        once_times = runner.timed_pass(once)
        pass_times, walls = [], []
        while not walls or sum(walls) < args.seconds:
            start = time.perf_counter()
            pass_times.append(runner.timed_pass(repeated))
            walls.append(time.perf_counter() - start)
            setups.append(setup_round(args.dims)[0])
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = len(once) + len(repeated) * len(pass_times)
        # op key -> [(seconds, calibrated seconds, None), ...] over the passes
        samples = {op.key: [t for t in column if t is not None]
                   for op, column in zip(repeated, zip(*pass_times))}
        samples.update({op.key: [t] for op, t in zip(once, once_times) if t is not None})
        raw = {k: statistics.median(t[0] for t in v) for k, v in samples.items() if v}
        cal = {k: statistics.median(t[1] for t in v) for k, v in samples.items() if v}
        timed = [cal[op.key] for op in repeated if op.key in cal] or [0.0]

        trace = None
        if args.trace:
            trace = traced_run(ctx, runner, once, repeated, args, samples, sum(timed))
            attempted += len(ops)

        failures = list(runner.mismatches)
        try:
            failures += workload.check(ctx, runner.results, args.seed, args.dims, trace)
        except Exception:  # a check that cannot run is a failed check
            failures.append(traceback.format_exc(limit=4))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    for line in runner.errors:
        print(f"FAILED OPERATION: {line}", file=sys.stderr)
    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    deciles = (statistics.quantiles(timed, n=10, method="inclusive")
               if len(timed) > 1 else timed * 9)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": len(walls), "ops_per_pass": len(repeated),
                      "once": len(once), "pass_walls_s": walls,
                      "setup_samples_s": setups,
                      "per_command_ms": workloads.family_medians(ops, cal),
                      "per_command_raw_ms": workloads.family_medians(ops, raw)}))
    if args.trace:
        metrics = {k: {"value": trace["metrics"][k], "unit": unit}
                   for k, unit in spans.PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(timed),
            "op_p50_ms": 1000.0 * statistics.median(timed),
            "op_p90_ms": 1000.0 * deciles[-1],
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(runner.errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
