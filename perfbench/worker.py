"""Runs one workload in a fresh process: a warm-up at the golden seed, then
timed iterations of the workload's CLI calls until the time is up.

Every call goes through lqmfg.cli.run in this process and every call's
outputs are checked outside the timed region.  With --trace 1 untraced and
traced iterations alternate, so the traced-minus-untraced difference is the
tracing overhead.  The result is one JSON file for run.py; the process's peak
RSS is the workload's, because the oracle and scipy live in run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import spans
import workloads
from checks import Checker

_GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
# the wrapped layers' spans must cover at least this share of each CLI call;
# at the commit that introduced the benchmark the lowest share was 0.96
COVERAGE_LEAST = 0.9


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--oracle", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    src = os.path.abspath(workloads.SRC)
    sys.path.insert(0, src)
    import lqmfg.cli as cli
    import lqmfg.experiments as experiments
    import lqmfg.sim as sim
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"lqmfg was imported from {cli.__file__}, not {src}")

    wl = workloads.WORKLOADS[args.workload]
    M = wl["grid_steps"]
    with np.load(args.oracle) as npz:
        ref = {k: npz[k] for k in npz.files}
    with open(_GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    checker = Checker(ref, goldens, workloads.GOLDEN_SEED, M, float(ref["t"][-1]))
    tally = {"attempted": 0, "failed": 0, "problems": []}

    def run_calls(calls, seed, tracer=None) -> float:
        """Wall time of the calls, each timed alone; checks are untimed."""
        elapsed = 0.0
        for sub, extra in calls:
            out = os.path.join(args.work, sub)
            shutil.rmtree(out, ignore_errors=True)
            argv = workloads.argv(sub, extra, seed, M, out)
            start = time.perf_counter()
            code = tracer.call(cli.run, argv) if tracer else cli.run(argv)
            elapsed += time.perf_counter() - start
            problems = (checker.check(sub, extra, out, seed) if code == 0
                        else [f"{sub}: exit code {code}"])
            tally["attempted"] += 1
            if problems:
                tally["failed"] += 1
                tally["problems"] += problems
        return elapsed

    # warm-up: fills caches and lazy imports, checks the goldens and, for the
    # Monte Carlo workloads, the solver accuracy at their grid
    if args.workload != "riccati-cli":
        run_calls(workloads.ACCURACY_CALLS, workloads.GOLDEN_SEED)
    run_calls(wl["calls"], workloads.GOLDEN_SEED)

    walls, traced_walls, layer_rows, rep_ms, selfcheck = [], [], [], [], []
    costs = []
    min_iterations = 4 if args.trace else 3
    start = time.perf_counter()
    while len(costs) < min_iterations or (
            time.perf_counter() - start + statistics.median(costs) <= args.seconds):
        begin = time.perf_counter()
        if args.trace and len(costs) % 2 == 1:
            tracer = spans.Tracer()
            tracer.install(cli, experiments, sim)
            try:
                traced_walls.append(run_calls(wl["calls"], args.seed, tracer))
            finally:
                tracer.uninstall()
            selfcheck += spans.tree_problems(tracer.spans)
            selfcheck += spans.coverage_problems(tracer.spans, COVERAGE_LEAST)
            # the self times account for the traced wall time of the same
            # iteration; 1 ms per call allows for the clock reads around it
            self_sum = sum(spans.self_times(tracer.spans))
            if abs(self_sum - traced_walls[-1]) > 1e-3 * len(wl["calls"]):
                selfcheck.append(f"self times sum to {self_sum} s, the traced "
                                 f"iteration took {traced_walls[-1]} s")
            layer_rows.append(spans.layer_metrics(tracer.spans, tracer.counts))
            rep_ms += spans.largest_n_reps_ms(tracer.spans)
        else:
            walls.append(run_calls(wl["calls"], args.seed))
        costs.append(time.perf_counter() - begin)

    result = {
        "walls": walls,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "problems": tally["problems"][:20],
        "solution_err": checker.solution_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if args.trace:
        result["layers"], problems = summarize(layer_rows, rep_ms, walls, traced_walls)
        result["selfcheck"] = selfcheck[:20] + problems
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def summarize(rows, rep_ms, walls, traced_walls):
    """Medians of the traced iterations' layer numbers, the tracing overhead,
    and the problems of computed counters that differ between iterations."""
    problems = []
    layers = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    for name in spans.COUNTERS:
        layers[name] = rows[0][name]
        if len({r[name] for r in rows}) != 1:
            problems.append(f"counter {name} differs between iterations: "
                            f"{[r[name] for r in rows]}")
    layers.update(spans.rep_percentiles(rep_ms))
    layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return layers, problems

if __name__ == "__main__":
    sys.exit(main())
