"""Output checks for one lqmfg CLI call.

Every call must leave a manifest.json with exit_code 0 that lists exactly the
files it wrote.  On top of that each subcommand has invariants that hold at
any seed, Monte Carlo tables at the golden seed must match the goldens
captured from the original implementation, and the limit solution and
mean-field path are compared with the independent oracle.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

GOLDEN_RTOL = 1e-9
# first-order convergence in N: each doubling of N halves the distance
RATE_RANGE = (1.5, 2.5)
_RICCATI_HEADER = ["t", "P", "K", "phi", "alpha", "beta", "gamma", "delta"]
_NASH_LABELS = sorted(["zero", "scaled(0.25)", "scaled(0.5)", "scaled(0.75)",
                       "scaled(1)", "scaled(1.25)", "scaled(1.5)",
                       "meanfield-informed", "centralized"])


def read_table(path: str):
    """(comment lines, header, data rows as lists of strings) of one CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, body[0].split(","), body[1:]


def numeric(rows) -> np.ndarray:
    return np.loadtxt(rows, delimiter=",", ndmin=2)


def rel_sup_err(value: np.ndarray, reference: np.ndarray) -> float:
    """sup |value - reference| / sup |reference|."""
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


def _flag(extra, name):
    return extra[extra.index(name) + 1] if name in extra else None


def _expected_outputs(subcommand, extra) -> list:
    if subcommand == "solve-riccati":
        return sorted(["riccati_limit.csv"]
                      + (["riccati_finite.csv"] if "--population" in extra else []))
    return [subcommand.replace("-", "_") + ".csv"]


class Checker:
    """Checks calls of one workload; remembers what later calls cross-check.

    `oracle` holds the reference P, K, phi and xbar at the workload's grid
    nodes.  `solution_err` collects the largest relative sup-error seen for
    each of them.
    """

    def __init__(self, oracle: dict, goldens: dict, golden_seed: int,
                 grid_steps: int, T: float):
        self.oracle = oracle
        self.goldens = goldens
        self.golden_seed = golden_seed
        self.M = grid_steps
        self.T = T
        # the limit solver is at least second order in dt with error
        # constants far below 1 on this model; a wrong solution misses this
        # tolerance by orders of magnitude
        self.solution_tol = (T / grid_steps) ** 2
        self.solution_err = {}
        self._finite_gap = {}

    def check(self, subcommand: str, extra, out_dir: str, seed: int) -> list:
        """Problems found with the call's outputs; empty when all is well."""
        try:
            outputs = self._manifest(subcommand, out_dir, seed)
            method = getattr(self, "_" + subcommand.replace("-", "_"))
            problems = method(extra, out_dir, seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{subcommand}: bad output: {exc!r}"]
        if outputs != _expected_outputs(subcommand, extra):
            problems.append(f"manifest lists {outputs}")
        return [f"{subcommand}: {p}" for p in problems]

    def _manifest(self, subcommand, out_dir, seed) -> list:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            man = json.load(fh)
        if man.get("exit_code") != 0 or "error" in man:
            raise ValueError(f"exit_code {man.get('exit_code')}: {man.get('error')}")
        if man["subcommand"] != subcommand or man["master_seed"] != seed:
            raise ValueError("manifest names another call")
        for name in man["outputs"]:
            if not os.path.isfile(os.path.join(out_dir, name)):
                raise ValueError(f"manifest lists missing file {name}")
        return man["outputs"]

    def _against_oracle(self, name, values) -> list:
        err = rel_sup_err(values, self.oracle[name])
        self.solution_err[name] = max(err, self.solution_err.get(name, 0.0))
        if not err <= self.solution_tol:
            return [f"{name} is {err:.3g} from the oracle (tolerance {self.solution_tol:.3g})"]
        return []

    def _grid_table(self, path, header) -> np.ndarray:
        _, got, rows = read_table(path)
        data = numeric(rows)
        if got != header or data.shape != (self.M + 1, len(header)):
            raise ValueError(f"{os.path.basename(path)} has header {got} "
                             f"and shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"{os.path.basename(path)} has non-finite values")
        if np.max(np.abs(data[:, 0] - self.oracle["t"])) > 1e-12 * self.T:
            raise ValueError(f"{os.path.basename(path)} is not on the grid")
        return data

    def _solve_riccati(self, extra, out_dir, seed) -> list:
        lim = self._grid_table(os.path.join(out_dir, "riccati_limit.csv"),
                               _RICCATI_HEADER)
        problems = []
        for j, name in enumerate(("P", "K", "phi"), start=1):
            problems += self._against_oracle(name, lim[:, j])
        population = _flag(extra, "--population")
        if population is not None:
            path = os.path.join(out_dir, "riccati_finite.csv")
            fin = self._grid_table(path, _RICCATI_HEADER)
            if f"N = {population}" not in read_table(path)[0]:
                problems.append("riccati_finite.csv does not name its N")
            self._finite_gap[int(population)] = np.max(
                np.abs(fin[:, 1:4] - lim[:, 1:4]), axis=0)
        return problems

    def _mean_field(self, extra, out_dir, seed) -> list:
        data = self._grid_table(os.path.join(out_dir, "mean_field.csv"),
                                ["t", "xbar"])
        problems = self._against_oracle("xbar", data[:, 1])
        if data[0, 1] != self.oracle["xbar"][0]:
            problems.append(f"xbar(0) = {data[0, 1]!r}, not the initial mean")
        return problems

    def _riccati_convergence(self, extra, out_dir, seed) -> list:
        _, header, rows = read_table(os.path.join(out_dir, "riccati_convergence.csv"))
        data = numeric(rows)
        wanted = [float(n) for n in _flag(extra, "--populations").split(",")]
        if header != ["N", "err_P", "err_K", "err_phi"] or list(data[:, 0]) != sorted(wanted):
            return [f"table has header {header} and N column {list(data[:, 0])}"]
        problems = []
        finite = data[np.isfinite(data[:, 0])]
        if not np.all(data[~np.isfinite(data[:, 0]), 1:] == 0.0):
            problems.append("the N = inf row is not exactly zero")
        if not (np.all(np.isfinite(finite[:, 1:])) and np.all(finite[:, 1:] > 0.0)):
            problems.append("a finite-N distance is not finite and positive")
        else:
            for a, b in zip(finite, finite[1:]):
                rate = a[1:] / b[1:]
                if b[0] == 2 * a[0] and not np.all((RATE_RANGE[0] <= rate)
                                                   & (rate <= RATE_RANGE[1])):
                    problems.append(f"distance ratio {rate} from N={a[0]:g} to N={b[0]:g}")
        for n, gap in self._finite_gap.items():
            row = finite[finite[:, 0] == n]
            if row.size and not np.allclose(row[0, 1:], gap, rtol=GOLDEN_RTOL, atol=0.0):
                problems.append(f"N={n} row {row[0, 1:]} disagrees with solve-riccati {gap}")
        return problems

    def _golden(self, subcommand, extra, seed, header, rows) -> list:
        gold = self.goldens.get(subcommand)
        if seed != self.golden_seed or gold is None:
            return []
        if list(extra) != gold["extra"] or self.M != gold["grid_steps"]:
            return [f"the golden is for {gold['extra']} at M={gold['grid_steps']}, "
                    f"not {list(extra)} at M={self.M}; recapture it"]
        if header != gold["header"] or len(rows) != len(gold["rows"]):
            return ["table shape differs from the golden"]
        problems = []
        for got, want in zip(rows, gold["rows"]):
            nums = [(float(g), w) for g, w in zip(got, want) if not isinstance(w, str)]
            labels_ok = all(g == w for g, w in zip(got, want) if isinstance(w, str))
            if not labels_ok or not all(math.isclose(g, w, rel_tol=GOLDEN_RTOL, abs_tol=0.0)
                                        for g, w in nums):
                problems.append(f"row {got} differs from golden {want}")
        return problems

    def _epsilon_sweep(self, extra, out_dir, seed) -> list:
        _, header, rows = read_table(os.path.join(out_dir, "epsilon_sweep.csv"))
        data = numeric(rows)
        wanted = [float(n) for n in _flag(extra, "--populations").split(",")]
        if header != ["N", "epsilon", "stderr"] or list(data[:, 0]) != wanted:
            return [f"table has header {header} and N column {list(data[:, 0])}"]
        problems = []
        if not (np.all(np.isfinite(data[:, 1])) and np.all(data[:, 1] > 0.0)):
            problems.append(f"an epsilon is not finite and positive: {data[:, 1]}")
        if not (np.all(np.isfinite(data[:, 2])) and np.all(data[:, 2] >= 0.0)):
            problems.append(f"a stderr is not finite and non-negative: {data[:, 2]}")
        return problems + self._golden("epsilon-sweep", extra, seed, header,
                                       [r.split(",") for r in rows])

    def _nash_gap(self, extra, out_dir, seed) -> list:
        _, header, rows = read_table(os.path.join(out_dir, "nash_gap.csv"))
        cells = [r.split(",") for r in rows]
        labels = [c[0] for c in cells]
        if header != ["deviation", "gap", "stderr"] or labels != _NASH_LABELS:
            return [f"table has header {header} and labels {labels}"]
        problems = []
        values = np.array([[float(c[1]), float(c[2])] for c in cells])
        if not np.all(np.isfinite(values)):
            problems.append("a gap or stderr is not finite")
        calib = values[labels.index("scaled(1)")]
        if calib[0] != 0.0 or calib[1] != 0.0:
            problems.append(f"scaled(1) row is {calib}, not exactly zero")
        return problems + self._golden("nash-gap", extra, seed, header, cells)
