"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json: two traced runs at one seed, then an
untraced run at a second seed.  Passes when every run reports correct (all
output checks, and for traced runs the span-tree, coverage and self-time
checks, pass), the computed
counters of the two traced runs are identical, and each run prints exactly
the metrics BENCHMARK.json declares.  Also prints the layer split of each
workload.
"""

import json
import subprocess
import sys

import spans

SEEDS = (7, 8)
# short runs: the worker still times three or four iterations of the workload
SECONDS = 1
SPLIT = {
    "riccati-cli": ("riccati.share", "cli.write_csv.share"),
    "eps-sweep": ("sim.simulate_reps.share", "sim.stream.share",
                  "sim.resimulate_agent.calls"),
    "nash-gap": ("sim.simulate_reps.share", "sim.resimulate_agent.share",
                 "sim.stream.share", "sim.cost.calls"),
}


def run(workload, seed, trace) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(SECONDS),
                          "--trace", str(trace)],
                         check=True, capture_output=True, text=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    failures = []
    for wl in [w["name"] for w in bench["workloads"]]:
        first, second = (run(wl, SEEDS[0], 1) for _ in range(2))
        other = run(wl, SEEDS[1], 0)
        for label, res, names in (("traced", first, per_layer),
                                  ("traced again", second, per_layer),
                                  ("second seed", other, end_to_end)):
            if not res["correct"] or res["failed"]:
                failures.append(f"{wl} {label}: not correct")
            if set(res["metrics"]) != names:
                failures.append(f"{wl} {label}: metrics {sorted(res['metrics'])}")
        for name in spans.COUNTERS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                failures.append(f"{wl}: counter {name} is {a} then {b}")
        split = ", ".join(f"{n} {first['metrics'][n]['value']:.4g}" for n in SPLIT[wl])
        print(f"{wl}: {split}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
