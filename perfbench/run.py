"""lqmfg benchmark.

    python3 perfbench/run.py --workload riccati-cli|eps-sweep|nash-gap \
        --seed N --seconds S --trace 0|1

Run from the root of an lqmfg checkout.  The workload's CLI calls run in one
fresh worker process (perfbench/worker.py) for S seconds after a warm-up;
this process measures set-up time, computes the oracle, and prints one line
per metric and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from
alternating traced and untraced iterations.  Exits 2 when the directory is
not an lqmfg checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import oracle
import spans
import workloads

WORK_ROOT = ".perfbench_work"
SETUP_SPAWNS = 7
DEADLINE_S = 170.0
# error_rate is never reported as exactly 0: a run with no failure reads
# this floor, and a single failure in any run reads far above it
ERROR_RATE_FLOOR = 1e-6
# first numbers in ROADMAP.md, measured before this benchmark existed
ROADMAP_BASELINE = {"riccati.solve_limit.us_per_step": 6.5,
                    "sim.simulate_reps.ns_per_agent_step.N1024": 103.0}
_SETUP = ("import json, lqmfg.cli\n"
          "from lqmfg.model import load_config, parse_grid, parse_coefficients, "
          "parse_initial_law\n"
          "cfg = load_config({config!r})\n"
          "parse_coefficients(cfg, parse_grid(cfg)); parse_initial_law(cfg)\n")
_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath(workloads.SRC)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(dict.fromkeys(_THREADS, "1"))
    return env


def environment() -> dict:
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "cpu": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), None)
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, index, "level")) as lv, \
                    open(os.path.join(base, index, "size")) as sz:
                level, size = lv.read().strip(), sz.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            env[f"L{level}"] = size
    return env


def setup_seconds(env: dict) -> list:
    """Wall time for a fresh interpreter to import lqmfg.cli and parse the
    config; one unmeasured spawn first, so bytecode caches exist."""
    code = _SETUP.format(config=workloads.CONFIG)
    times = []
    for _ in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times[1:]


def run_worker(args, work: str, env: dict, deadline: float) -> dict:
    result = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                        "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--oracle", os.path.join(work, "oracle.npz"),
           "--result", result]
    subprocess.run(cmd, env=env, check=True, stdin=subprocess.DEVNULL,
                   stdout=sys.stderr.fileno(),
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values) -> str:
    text = f"{len(values)} samples [{', '.join(f'{v:.4g}' for v in values)}]"
    if len(values) < 2:
        return text
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{text}, quartiles {q1:.6g}..{q3:.6g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    needed = [os.path.join(workloads.SRC, "lqmfg", "cli.py"), workloads.CONFIG]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the root of an lqmfg checkout; missing {missing}",
              file=sys.stderr)
        return 2

    work = os.path.abspath(os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}"))
    os.makedirs(work)
    try:
        env = child_env()
        print("environment:", json.dumps(environment(), sort_keys=True))
        setup = [] if args.trace else setup_seconds(env)
        with open(workloads.CONFIG, encoding="utf-8") as fh:
            ref = oracle.reference(json.load(fh), workloads.WORKLOADS[args.workload]["grid_steps"])
        np.savez(os.path.join(work, "oracle.npz"),
                 **{k: ref[k] for k in ("t", "P", "K", "phi", "xbar")})
        res = run_worker(args, work, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    for problem in res["problems"] + res.get("selfcheck", []):
        print(f"check failed: {problem}")
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in spans.LAYER_METRICS}
        for name, value in ROADMAP_BASELINE.items():
            print(f"baseline: {name} = {res['layers'][name]:.6g} "
                  f"(ROADMAP.md: {value:g})")
    else:
        errs = res["solution_err"]
        solution = max([ref["resolution"], *errs.values()])
        metrics = {
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "error_rate": {"value": max(res["failed"] / res["attempted"],
                                        ERROR_RATE_FLOOR), "unit": "ratio"},
            "solution_err": {"value": solution, "unit": "ratio"},
        }
        print(f"wall_s: {quartiles(res['walls'])}")
        print(f"setup_s: {quartiles(setup)}")
        print(f"solution_err: {errs}, oracle resolution {ref['resolution']:.3g}")
    for name, m in metrics.items():
        label = " (computed)" if name in spans.COUNTERS else ""
        print(f"{name} = {m['value']!r} {m['unit']}{label}")
    correct = res["failed"] == 0 and not res.get("selfcheck")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
