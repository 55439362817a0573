"""The benchmark's workloads: lqmfg CLI calls on the all-ones model.

riccati-cli is the only workload whose time goes to the backward solvers and
CSV output; eps-sweep is the forward Euler-Maruyama kernel at small and large
N with no deviation replays; nash-gap drives the same kernel but spends a
large share of its time in deviation replays.  A change to the backward
solver should move only riccati-cli, and a change to replays only nash-gap.
"""

CONFIG = "configs/allones.json"
SRC = "src"
# the config's own seed: Monte Carlo goldens were captured at it
GOLDEN_SEED = 2024

WORKLOADS = {
    "riccati-cli": {
        "grid_steps": 50000,
        "calls": (("solve-riccati", ("--population", "80")),
                  ("mean-field", ()),
                  ("riccati-convergence", ("--populations", "10,20,40,80,inf"))),
    },
    "eps-sweep": {
        "grid_steps": 1000,
        "calls": (("epsilon-sweep", ("--populations", "64,256,1024,4096",
                                     "--reps", "8")),),
    },
    "nash-gap": {
        "grid_steps": 1000,
        "calls": (("nash-gap", ("--population", "256", "--reps", "40")),),
    },
}

# Calls that produce the limit solution and the mean-field path, run once
# outside the timed region of the Monte Carlo workloads so that every
# workload reports solution_err at the grid it simulates on.
ACCURACY_CALLS = (("solve-riccati", ()), ("mean-field", ()))


def argv(subcommand: str, extra, seed: int, grid_steps: int, out_dir: str) -> list:
    return [subcommand, "--config", CONFIG, "--seed", str(seed),
            "--grid-steps", str(grid_steps), "--workers", "1",
            "--out-dir", out_dir, *extra]
