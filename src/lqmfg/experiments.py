"""Packaged studies: mean-field gap sweep, population-solver convergence,
deviation-gap (approximate equilibrium) study, and figure data emission.

Each study returns an ExperimentTable whose metadata records everything
needed to reproduce it bit for bit: master seed, grid, and a fingerprint of
the coefficient set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelConfigError, SimulationDivergedError
from .model import (CoefficientSet, InitialLaw, TimeGrid, _population_size,
                    canonical_fingerprint)
from .riccati import (_least_weight, convexity_margin, gains, solve_backward,
                      solve_finite_N, solve_limit)
from .sim import (PopulationConfig, _costs, _population_chunks, _replay_lanes,
                  quadrature)
from .synthesis import (_READS, _parse_label, _spec, _zero_law, make_law,
                        solve_mean_field)

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
          "model_fingerprint": canonical_fingerprint(
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


def _mean_stderr(samples, reps: int, what: str):
    """The mean of samples along axis 0, one row per replication, and the
    standard error of that mean (0 for one replication).  A mean or an
    error that overflows, as finite samples near the largest float may,
    raises SimulationDivergedError naming `what`."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = samples.mean(axis=0)
        se = (samples.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1
              else np.zeros_like(mean))
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(se))):
        raise SimulationDivergedError(f"the mean or standard error of "
                                      f"{what} overflowed")
    return mean, se


def _build_laws(specs, coeffs: CoefficientSet, grid: TimeGrid,
                initial: InitialLaw, N=None) -> list:
    """One StrategyLaw per (kind, theta) spec.

    Every spec is checked before anything is solved.  The limit gains, the
    mean-field path and the N-player gains are each solved once, and only
    if some requested kind reads them; the zero law reads none.
    """
    specs = [_spec(kind, theta) for kind, theta in specs]
    reads = {need for kind, _ in specs for need in _READS[kind]}
    gl = mf = gn = None
    if "limit" in reads:
        gl = gains(solve_limit(coeffs, grid), coeffs)
    if "mean" in reads:
        mf = solve_mean_field(coeffs, gl, initial.mean, grid)
    if "finite" in reads:
        gn = gains(solve_finite_N(coeffs, N, grid), coeffs)
    return [make_law(kind, gn if "finite" in _READS[kind] else gl, xbar=mf,
                     theta=theta) if _READS[kind] else _zero_law(grid)
            for kind, theta in specs]


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
    return _epsilon_sweep(coeffs, Ns, reps, master_seed, grid, initial)[0]


def _epsilon_sweep(coeffs: CoefficientSet, Ns, reps: int, master_seed: int,
                   grid: TimeGrid, initial: InitialLaw) -> tuple:
    """epsilon_sweep's table and the limit solution its law is formed
    from."""
    Ns = [_population_size(N, "population sizes") for N in Ns]
    if not Ns:
        raise ModelConfigError("population sizes must be >= 1, got []")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ModelConfigError("population sizes must be strictly increasing")
    cfg = PopulationConfig(N=Ns[-1], reps=reps, master_seed=master_seed,
                           initial=initial)
    # the limit gains give the law and the limit's convexity margin
    lim = solve_limit(coeffs, grid)
    gl = gains(lim, coeffs)
    law = make_law("decentralized", gl,
                   solve_mean_field(coeffs, gl, initial.mean, grid))
    # sim's population-sum rule adds N agents by a tree of N alone, so each
    # N's prefix sums, and bytes, are those of a separate N-agent simulation
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
        mean_sq, se = map(float, _mean_stderr(col, reps, "the mean-field gap"))
        eps = math.sqrt(mean_sq)
        # equal samples have no spread, however their mean rounds
        if mean_sq > 0.0 and np.ptp(col) > 0.0:
            return (N, eps, se / (2.0 * eps))
        return (N, eps, 0.0)

    rows = tuple(point(N, col) for N, col in zip(Ns, sq.T))
    md = _base_metadata(coeffs, grid, master_seed)
    md["reps"] = reps
    md["initial"] = {"kind": initial.kind, "a": initial.a, "b": initial.b}
    md.update(_convexity(*_least_weight(gl.alpha, grid)))
    positive = [(n, e) for n, e, _ in rows if e > 0.0]
    if len(positive) >= 2:
        slope, slope_se = loglog_slope([n for n, _ in positive],
                                       [e for _, e in positive])
        md["slope"] = slope
        md["slope_stderr"] = slope_se
    return ExperimentTable(experiment="epsilon-sweep",
                           columns=("N", "epsilon", "stderr"),
                           rows=rows, metadata=md), lim


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
    # a least-squares fit err ~ c/N + d/N^2 gives each column's leading
    # constant c (err ~ c/N alone reads it low); one row gives c = N err.
    # The basis columns are scaled to unit norm, so lstsq keeps the 1/N^2 one
    if rows:
        inv = np.array([1.0 / N for N in finite])
        basis = np.column_stack([inv, inv * inv][:len(rows)])
        scale = np.linalg.norm(basis, axis=0)
        fit = np.linalg.lstsq(basis / scale, np.array(rows)[:, 1:],
                              rcond=None)[0]
        for name, c in zip(("P", "K", "phi"), fit[0] / scale[0]):
            md[f"rate_constant_{name}"] = float(c)
    if len(finite) < len(Ns):
        rows.append((float("inf"), 0.0, 0.0, 0.0))
    return ExperimentTable(experiment="riccati-convergence",
                           columns=("N", "err_P", "err_K", "err_phi"),
                           rows=tuple(rows), metadata=md)


def nash_gap(coeffs: CoefficientSet, N: int, reps: int, master_seed: int,
             grid: TimeGrid, initial: InitialLaw,
             deviations=DEFAULT_DEVIATIONS) -> ExperimentTable:
    """Paired deviation study for the first agent.

    All agents play the decentralized law, as the family's scaled(1) law
    (theta * x == x, so the two are one law bit for bit); for each deviation
    the first agent is replayed on the same noise and gap = J(base) -
    J(deviation) is averaged with its paired standard error.  Each call of
    replications, in its worker, runs its populations, replays them all
    under all laws in one kernel call, and costs each replay against the
    mean (x + others) / N, others the sum of its co-players.  J(base) is
    the cost of the scaled(1) replay, so its row is exactly zero and
    calibrates the pairing; scaled(1) is added unless the family already
    holds it (as scaled(theta) with theta = 1, or as decentralized).  Two
    labels for one deviation, such as scaled(.5) and scaled(0.5), are a
    ModelConfigError.
    """
    if not deviations:
        raise ModelConfigError("deviation family must be nonempty")
    labels = list(deviations)
    one = ("scaled", 1.0)
    specs = [one if spec[0] == "decentralized" else spec
             for spec in map(_parse_label, labels)]
    if len(set(specs)) < len(specs):
        raise ModelConfigError(f"deviation labels repeat a deviation: "
                               f"{labels!r}")
    if one not in specs:
        labels.append("scaled(1)")
        specs.append(one)
    cfg = PopulationConfig(N=N, reps=reps, master_seed=master_seed,
                           initial=initial)
    laws = _build_laws(specs, coeffs, grid, initial, N)
    base = specs.index(one)

    def replay_costs(first, sums, x0, dW):
        # agent 0's replays read its initial state and increments, and the
        # sum of its co-players' states
        ids = first + np.arange(len(sums))
        others = sums[:, 1] - sums[:, 0]
        states, controls = _replay_lanes(0, ids, x0[:, 0], dW[:, 0], others,
                                         N, laws, coeffs, grid)
        return _costs(states, controls, (states + others[:, None]) / N,
                      ids[:, None], coeffs, grid)

    costs = np.concatenate(_population_chunks(coeffs, laws[base], cfg, grid,
                                              (1, N), replay_costs))
    # J(base) is the cost of the scaled(1) lane; costs of both signs may
    # overflow their difference, which _mean_stderr then reports
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = costs[:, base] - costs.T
    rows = []
    for label in sorted(labels):
        gap, se = _mean_stderr(gaps[labels.index(label)], reps,
                               f"the {label} gap")
        rows.append((label, float(gap), float(se)))
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


# rows formatted and written at a time, about 0.6 MB of a gain table's text
_BLOCK_ROWS = 4096


def write_csv(path, header, columns, comments=()) -> None:
    """Write a CSV with '#'-prefixed comment lines and one column per entry
    of columns to path; floats use the shortest round-trip representation,
    so identical data gives identical bytes.  Each block of _BLOCK_ROWS rows
    is written before the next is formatted."""
    columns = [col if isinstance(col, np.ndarray) else list(col)
               for col in columns]
    n = min(map(len, columns), default=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join([f"# {comment}\n" for comment in comments]
                         + [",".join(header) + "\n"]))
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            cells = [map(repr, col[lo:hi].tolist())
                     if isinstance(col, np.ndarray) and col.dtype == np.float64
                     else map(_cell, col[lo:hi]) for col in columns]
            fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


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


def _figure_files(lim, sweep, out_dir) -> list:
    """Write fig1.csv (t, P, K) from the limit solution lim, fig2.csv (N,
    epsilon, stderr) from the sweep table and one gnuplot script per figure
    into out_dir; returns the written paths."""
    import os

    # the gnuplot scripts skip exactly one line, so these two files carry a
    # bare column header and no comment lines
    p1 = os.path.join(out_dir, "fig1.csv")
    write_csv(p1, ("t", "P", "K"), (lim.grid.nodes, lim.P, lim.K))
    p2 = os.path.join(out_dir, "fig2.csv")
    write_csv(p2, sweep.columns, zip(*sweep.rows))
    written = [p1, p2]
    for name, script in (("fig1.gp", _FIG1_SCRIPT), ("fig2.gp", _FIG2_SCRIPT)):
        written.append(os.path.join(out_dir, name))
        with open(written[-1], "w", encoding="utf-8", newline="") as fh:
            fh.write(script)
    return written
