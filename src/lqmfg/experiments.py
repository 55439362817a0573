"""Packaged studies: mean-field gap sweep, population-solver convergence,
deviation-gap (approximate equilibrium) study, and figure data emission.

Each study returns an ExperimentTable whose metadata records everything
needed to reproduce it bit for bit: master seed, grid, and a fingerprint of
the coefficient set.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import _pool
from .errors import ModelConfigError, SimulationDivergedError
from .model import (CoefficientSet, InitialLaw, TimeGrid, _number,
                    _population_size, canonical_fingerprint)
from .riccati import (convexity_margin, gains, solve_backward,
                      solve_finite_N, solve_limit)
from .sim import (PopulationConfig, _costs, _population_chunks, _replay_lanes,
                  quadrature)
from .synthesis import LAW_KINDS, _zero_law, make_law, solve_mean_field

DEFAULT_DEVIATIONS = ("zero", "scaled(0.25)", "scaled(0.5)", "scaled(0.75)",
                      "scaled(1.25)", "scaled(1.5)", "meanfield-informed",
                      "centralized")


@dataclass(frozen=True)
class ExperimentTable:
    """Rows of (parameter, metrics...) plus reproducibility metadata."""

    experiment: str
    columns: tuple
    rows: tuple
    metadata: dict


def _base_metadata(coeffs, grid, master_seed=None) -> dict:
    md = {"grid_T": grid.T, "grid_M": grid.M,
          "config_fingerprint": canonical_fingerprint(
              {"coefficients": coeffs.to_dict(),
               "grid": {"T": grid.T, "M": grid.M}})}
    if master_seed is not None:
        md["master_seed"] = master_seed
    return md


def _convexity(margin: float, t: float) -> dict:
    """A (margin, t) of riccati.convexity_margin as study results."""
    return {"convexity_margin": margin, "convexity_margin_t": t,
            "convex": margin > 0.0}


def loglog_slope(xs, ys):
    """OLS slope of log y against log x, with its standard error (None
    for two points or fewer, which leave no residual degree of freedom)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    n = lx.size
    xc = lx - lx.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    if n <= 2:
        return slope, None
    resid = ly - (slope * lx + intercept)
    s2 = float(np.dot(resid, resid)) / (n - 2)
    return slope, math.sqrt(s2 / sxx)


def _build_laws(specs, coeffs: CoefficientSet, grid: TimeGrid,
                initial: InitialLaw, N=None) -> list:
    """One StrategyLaw per (kind, theta) spec.

    The limit gains, the mean-field path and the N-player gains are each
    solved once, and only if some requested kind needs them; the zero law
    needs none.
    """
    kinds = {kind for kind, _ in specs}
    gl = mf = gn = None
    if kinds & {"decentralized", "scaled", "meanfield-informed"}:
        gl = gains(solve_limit(coeffs, grid), coeffs)
    if kinds & {"decentralized", "scaled"}:
        mf = solve_mean_field(coeffs, gl, initial.mean, grid)
    if "centralized" in kinds:
        gn = gains(solve_finite_N(coeffs, N, grid), coeffs)
    return [_zero_law(grid) if kind == "zero"
            else make_law(kind, gn if kind == "centralized" else gl, xbar=mf,
                          theta=theta) for kind, theta in specs]


def _parse_label(label: str):
    """A deviation label is a law kind or scaled(theta), theta a decimal
    number; returns its (kind, theta) spec."""
    m = re.fullmatch(r"scaled\((-?[0-9.]*)\)", label)
    if m:
        return "scaled", _number(m.group(1), "scaling factor theta")
    if label in LAW_KINDS:
        return label, None
    raise ModelConfigError(f"unknown deviation label {label!r}")


def epsilon_sweep(coeffs: CoefficientSet, Ns, reps: int, master_seed: int,
                  grid: TimeGrid, initial: InitialLaw) -> ExperimentTable:
    """Mean-field approximation error against population size.

    For each N, all agents play the decentralized law and the metric is
    eps(N) = sqrt(E int (x^(N) - xbar)^2 dt), with the expectation taken
    over `reps` replications.  Agent randomness depends only on the agent
    index and the mean is precomputed, so the N-agent population is the
    first N agents of the largest one (common random numbers): one
    population at max(Ns) is simulated, keeping only the sums of its first
    N states for every N.
    """
    Ns = [_population_size(N, "population sizes") for N in Ns]
    if not Ns:
        raise ModelConfigError("population sizes must be >= 1, got []")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ModelConfigError("population sizes must be strictly increasing")
    law, = _build_laws([("decentralized", None)], coeffs, grid, initial)
    # the prefix sums add the same rows in the same order as the mean of a
    # fresh N-agent run, so every N's bytes match a separate simulation
    cfg = PopulationConfig(N=Ns[-1], reps=reps, master_seed=master_seed,
                           initial=initial)
    chunks = _population_chunks(coeffs, law, cfg, grid, Ns)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.array([[quadrature(grid.dt, (total / N - law.xbar) ** 2)
                        for N, total in zip(Ns, sums)]
                       for call_sums in chunks for sums in call_sums])
    if not np.all(np.isfinite(sq)):
        rep = int(np.argmin(np.isfinite(sq).all(axis=1)))
        raise SimulationDivergedError(
            f"the mean-field gap overflowed in replication {rep}", rep=rep)

    def point(N, col):
        mean_sq = float(col.mean())
        eps = math.sqrt(mean_sq)
        # equal samples have no spread, however their mean rounds
        if reps > 1 and mean_sq > 0.0 and np.ptp(col) > 0.0:
            se = float(col.std(ddof=1)) / math.sqrt(reps) / (2.0 * eps)
        else:
            se = 0.0
        return (N, eps, se)

    rows = tuple(point(N, col) for N, col in zip(Ns, sq.T))
    md = _base_metadata(coeffs, grid, master_seed)
    md["reps"] = reps
    md["initial"] = {"kind": initial.kind, "a": initial.a, "b": initial.b}
    md.update(_convexity(*convexity_margin(coeffs, grid)))
    positive = [(n, e) for n, e, _ in rows if e > 0.0]
    if len(positive) >= 2:
        slope, slope_se = loglog_slope([n for n, _ in positive],
                                       [e for _, e in positive])
        md["slope"] = slope
        md["slope_stderr"] = slope_se
    return ExperimentTable(experiment="epsilon-sweep",
                           columns=("N", "epsilon", "stderr"),
                           rows=rows, metadata=md)


def riccati_convergence(coeffs: CoefficientSet, Ns,
                        grid: TimeGrid) -> ExperimentTable:
    """Sup-node distance between the population and limit backward solutions.

    Each population size is an integer >= 1 or math.inf, a sentinel whose
    row compares the limit solution with itself and is exactly zero.  The
    backward solves run through solve_backward, the distances in the caller.
    """
    Ns = sorted(N if N == math.inf else _population_size(N) for N in Ns)
    if not Ns:
        raise ModelConfigError("population sizes are empty")
    if len(set(Ns)) < len(Ns):
        raise ModelConfigError(f"population sizes repeat: {Ns!r}")
    finite = [N for N in Ns if N != math.inf]
    lim, *fins = solve_backward(coeffs, grid, [None, *finite])
    rows = [(N,
             float(np.max(np.abs(fin.P - lim.P))),
             float(np.max(np.abs(fin.K - lim.K))),
             float(np.max(np.abs(fin.phi - lim.phi))))
            for N, fin in zip(finite, fins)]
    md = _base_metadata(coeffs, grid)
    # through-origin fit err ~ C/N gives the leading constant per column
    inv = np.array([1.0 / N for N in finite])
    denom = float(np.dot(inv, inv))
    if denom > 0.0:
        for j, name in enumerate(("P", "K", "phi"), start=1):
            errs = np.array([r[j] for r in rows])
            md[f"rate_constant_{name}"] = float(np.dot(errs, inv) / denom)
    if len(finite) < len(Ns):
        rows.append((float("inf"), 0.0, 0.0, 0.0))
    return ExperimentTable(experiment="riccati-convergence",
                           columns=("N", "err_P", "err_K", "err_phi"),
                           rows=tuple(rows), metadata=md)


def nash_gap(coeffs: CoefficientSet, N: int, reps: int, master_seed: int,
             grid: TimeGrid, initial: InitialLaw,
             deviations=DEFAULT_DEVIATIONS) -> ExperimentTable:
    """Paired deviation study for the first agent.

    All agents play the decentralized law; for each deviation the first
    agent is replayed on the same noise and gap = J(base) - J(deviation) is
    averaged with its paired standard error.  Each call of replications, in
    its worker, runs its populations, replays them all under all laws in
    one kernel call, and costs each replay against the mean (x + others) /
    N, others the sum of its co-players.  scaled(1) replays the base law
    bit for bit and J(base) is its cost, so its row is exactly zero and
    calibrates the pairing; it is added unless the family already holds it
    (as scaled(theta) with theta = 1, or as decentralized).  Two labels for one deviation, such as
    scaled(.5) and scaled(0.5), are a ModelConfigError.
    """
    if not deviations:
        raise ModelConfigError("deviation family must be nonempty")
    labels = list(deviations)
    specs = [_parse_label(label) for label in labels]
    # a scaled law is its theta; decentralized is scaled(1)
    same = [1.0 if kind == "decentralized" else theta if kind == "scaled"
            else kind for kind, theta in specs]
    if len(set(same)) < len(same):
        raise ModelConfigError(f"deviation labels repeat a deviation: "
                               f"{labels!r}")
    if 1.0 not in same:
        labels.append("scaled(1)")
        specs.append(("scaled", 1.0))
        same.append(1.0)
    dec, *laws = _build_laws([("decentralized", None)] + specs,
                             coeffs, grid, initial, N)

    cfg = PopulationConfig(N=N, reps=reps, master_seed=master_seed,
                           initial=initial)

    def replay_costs(first, sums, x0, dW):
        # agent 0's replays read its initial state and increments, and the
        # sum of its co-players' states
        ids = first + np.arange(len(sums))
        others = sums[:, 1] - sums[:, 0]
        states, controls = _replay_lanes(0, ids, x0[:, 0], dW[:, 0], others,
                                         N, laws, coeffs, grid)
        return _costs(states, controls, (states + others[:, None]) / N,
                      ids[:, None], coeffs, grid)

    costs = np.concatenate(_population_chunks(coeffs, dec, cfg, grid, (1, N),
                                              replay_costs))
    # J(base) is the cost of the scaled(1) lane
    gaps = costs[:, same.index(1.0)] - costs.T
    rows = []
    for label in sorted(labels):
        d = gaps[labels.index(label)]
        se = float(d.std(ddof=1)) / math.sqrt(reps) if reps > 1 else 0.0
        rows.append((label, float(d.mean()), se))
    md = _base_metadata(coeffs, grid, master_seed)
    md["N"] = N
    md["reps"] = reps
    md.update(_convexity(*convexity_margin(coeffs, grid, N)))
    best = max(rows, key=lambda r: r[1])
    md["max_gap"] = max(0.0, best[1])
    md["max_gap_label"] = best[0]
    md["max_gap_stderr"] = best[2]
    return ExperimentTable(experiment="nash-gap",
                           columns=("deviation", "gap", "stderr"),
                           rows=tuple(rows), metadata=md)


# ---------------------------------------------------------------------------
# CSV and figure emission
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# a float64 cell's shortest repr, joined into its row, costs about 0.8 us,
# the other cells less (0.65-1.3 us measured on the M = 50 000 gain tables,
# on a 2-CPU x86-64 machine)
_SECONDS_PER_CELL = 0.8e-6


def _csv_text(header, columns, comments=()) -> str:
    """The text of a CSV with '#'-prefixed comment lines and one column per
    entry of columns; floats use the shortest round-trip representation so
    identical data gives identical bytes.  The rows are formatted in one
    block per CPU, on forked workers (_pool._pmap) when the table is large
    enough to pay for them."""
    columns = [col if isinstance(col, np.ndarray) else list(col)
               for col in columns]
    n = min(map(len, columns), default=0)
    k = _pool._cpus()
    bounds = [n * i // k for i in range(k + 1)]

    def block(lo, hi):
        cells = [map(repr, col[lo:hi].tolist())
                 if isinstance(col, np.ndarray) and col.dtype == np.float64
                 else map(_cell, col[lo:hi]) for col in columns]
        return "".join([",".join(row) + "\n" for row in zip(*cells)])

    blocks = _pool._pmap(block, list(zip(bounds, bounds[1:])),
                         n * len(columns) * _SECONDS_PER_CELL)
    return "".join([f"# {comment}\n" for comment in comments]
                   + [",".join(header) + "\n"] + blocks)


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_csv(path, header, columns, comments=()) -> None:
    """Write the CSV that _csv_text formats to path."""
    _write_text(path, _csv_text(header, columns, comments))


_FIG1_SCRIPT = """set datafile separator comma
set terminal pngcairo size 900,600
set output 'fig1.png'
set xlabel 't'
set key top right
plot 'fig1.csv' skip 1 using 1:2 with lines lw 2 title 'P', \\
     'fig1.csv' skip 1 using 1:3 with lines lw 2 title 'K'
"""

_FIG2_SCRIPT = """set datafile separator comma
set terminal pngcairo size 900,600
set output 'fig2.png'
set logscale xy
set xlabel 'N'
set ylabel 'epsilon(N)'
plot 'fig2.csv' skip 1 using 1:2:3 with yerrorlines lw 2 title 'epsilon(N)'
"""


def figure_data(coeffs: CoefficientSet, grid: TimeGrid, sweep,
                out_dir) -> list:
    """Write fig1.csv (t, P, K), fig2.csv (N, epsilon, stderr) and one
    gnuplot script per figure into out_dir; returns the written paths."""
    import os

    if sweep is None or not getattr(sweep, "rows", ()):
        raise ModelConfigError("figure emission needs a nonempty sweep table")
    lim = solve_limit(coeffs, grid)

    # the gnuplot scripts skip exactly one line, so these two files carry a
    # bare column header and no comment lines
    p1 = os.path.join(out_dir, "fig1.csv")
    write_csv(p1, ("t", "P", "K"), (grid.nodes, lim.P, lim.K))
    p2 = os.path.join(out_dir, "fig2.csv")
    write_csv(p2, sweep.columns, zip(*sweep.rows))
    written = [p1, p2]
    for name, script in (("fig1.gp", _FIG1_SCRIPT), ("fig2.gp", _FIG2_SCRIPT)):
        written.append(os.path.join(out_dir, name))
        _write_text(written[-1], script)
    return written
