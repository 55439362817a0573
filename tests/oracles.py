"""Independent oracles for the convexity margin and the paper's derivation.

For the margin (riccati.convexity_margin): convexity_probe is a Monte Carlo
lower-bound probe of the deviation form, and em_margin is the exact
backward Riccati recursion of the same form under the Euler-Maruyama scheme
the simulations use.  Neither shares the margin's RK4 solve.

For the derivation behind the epsilon-Nash proof: stationarity_residual
checks the first-order condition B p + D q + R u = 0 along centralized
paths, and cost_decomposition the expansion of a deviating agent's cost
into its base cost, a quadratic term and a cross term.  Each takes the
inputs a test builds for it and checks nothing else about them.

population_sum is the reference for lqmfg.sim's population-sum rule, and
draws redraws the initial states and increments a PathSet does not keep.
"""

import math
from dataclasses import dataclass

import numpy as np

from lqmfg.model import CoefficientSet, TimeGrid, _population_size
from lqmfg.riccati import RiccatiSolution
from lqmfg.sim import (PopulationConfig, _costs, _draw, _euler_maruyama,
                       _replay_lanes, quadrature, stream)
from lqmfg.synthesis import StrategyLaw

_PURPOSE_PROBE_CONTROL = 1
_PURPOSE_PROBE_NOISE = 2


def _pairwise(rows):
    """numpy's pairwise summation tree over the rows, one elementwise add
    at a time: under 8 rows a running total, up to 128 eight running
    totals combined as a balanced tree and the rest added after, and above
    that the two halves, split at a multiple of 8."""
    n = len(rows)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise(rows[:half]) + _pairwise(rows[half:])
    if n < 8:
        acc, rest = 0.0, rows
    else:
        r = list(rows[:8])
        for i in range(8, n - n % 8, 8):
            r = [r[j] + rows[i + j] for j in range(8)]
        acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = rows[n - n % 8:]
    for row in rest:
        acc = acc + row
    return acc


def population_sum(states: np.ndarray, n: int | None = None) -> np.ndarray:
    """The population-sum rule: at every node, the first n agents' states
    (all of them by default; states is (N, M+1)) added pairwise, in the
    tree numpy's add.reduce forms along a contiguous axis, and from an
    initial 0.0.  Its mean is this sum over n."""
    return 0.0 + _pairwise(states[:n])


def draws(cfg: PopulationConfig, rep: int, grid: TimeGrid) -> tuple:
    """Replication rep's initial states (N,) and increments (N, M), drawn
    by sim._draw on the streams simulate_reps keys."""
    x0, dW = np.empty(cfg.N), np.empty((cfg.N, grid.M))
    _draw(np.random.Generator(np.random.Philox()), cfg, rep,
          math.sqrt(grid.dt), x0, dW)
    return x0, dW


@dataclass(frozen=True)
class ProbeReport:
    """Minimum sampled value of the convexity form and its Monte Carlo error."""

    min_value: float
    min_stderr: float
    argmin: int
    values: np.ndarray
    stderrs: np.ndarray
    inner_reps: int


def convexity_probe(coeffs: CoefficientSet, N: int, grid: TimeGrid,
                    samples: int, seed: int,
                    inner_reps: int = 256) -> ProbeReport:
    """Monte Carlo lower-bound probe of the convexity form.

    Each sample draws one piecewise-constant control (standard normal per
    cell), runs the homogeneous perturbation dynamics from zero under
    inner_reps independent noise paths, and averages

        int [Q (1-Gamma/N)^2 x^2 + R u^2] dt + H (1-Gamma0/N)^2 x(T)^2.

    A negative minimum (beyond Monte Carlo error) certifies that the
    quadratic form fails to be convex for this model.
    """
    samples = _population_size(samples, "number of samples")
    what = "population size N and inner_reps each"
    N, inner_reps = _population_size(N, what), _population_size(inner_reps, what)
    nc = coeffs.node_values(grid)
    M, dt = grid.M, grid.dt
    sqdt = math.sqrt(dt)
    qeff = nc["Q"] * (1.0 - nc["Gamma"] / N) ** 2
    heff = coeffs.H * (1.0 - coeffs.Gamma0 / N) ** 2
    # the perturbation dynamics: no forcing, control u fed open loop
    zero = np.zeros(M + 1)
    homogeneous = dict(nc, f=zero, g=zero)

    vals = []
    for s in range(samples):
        u = stream(seed, _PURPOSE_PROBE_CONTROL, s, 0).standard_normal(M)
        dW = stream(seed, _PURPOSE_PROBE_NOISE, s, 0) \
            .standard_normal((inner_reps, M)) * sqdt
        x, _, _ = _euler_maruyama(homogeneous, dt, np.zeros(inner_reps), dW,
                                  lambda k0, w: (0.0, u[k0:k0 + w, None]), s)
        vals.append(quadrature(dt, qeff * x * x, nc["R"][:M] * u * u)
                    + heff * x[:, -1] * x[:, -1])
    vals = np.stack(vals)
    values = vals.mean(axis=1)
    stderrs = (vals.std(axis=1, ddof=1) / math.sqrt(inner_reps)
               if inner_reps > 1 else np.zeros(samples))
    j = int(np.argmin(values))
    return ProbeReport(min_value=float(values[j]), min_stderr=float(stderrs[j]),
                       argmin=j, values=values, stderrs=stderrs,
                       inner_reps=inner_reps)


def em_margin(coeffs: CoefficientSet, grid: TimeGrid, N=None) -> float:
    """The least per-step weight of the deviation form's cost, in units of
    dt, when the form is minimized over adapted controls by backward
    dynamic programming on the Euler-Maruyama scheme.  The recursion stops
    at the first weight that is not positive, which leaves the minimum
    unbounded below, and returns that weight.

    Step k maps x to (a x + b u) + (c x + d u) dW with a = 1 + A dt,
    b = B dt, c = C, d = D and E dW^2 = dt, and costs dt (Q_e x^2 + R u^2),
    Q_e = Q (1 - Gamma/N)^2; the value is V_k(x) = P_k x^2 with
    P_M = H_e + dt Q_e(T) / 2, H_e = H (1 - Gamma0/N)^2.  The weight of u^2
    in step k is w = dt (R_k + P_{k+1} (D_k^2 + B_k^2 dt)), and then
    P_k = dt Q_e + P_{k+1} (a^2 + dt c^2) - (P_{k+1} (a b + dt c d))^2 / w.
    """
    nc = coeffs.node_values(grid)
    keep = 1.0 if N is None else (1.0 - nc["Gamma"] / N) ** 2
    keep0 = 1.0 if N is None else (1.0 - coeffs.Gamma0 / N) ** 2
    A, B, C, D, R = (nc[name].tolist() for name in "ABCDR")
    Q = (nc["Q"] * keep).tolist()
    M, dt = grid.M, grid.dt
    P = coeffs.H * keep0 + 0.5 * dt * Q[M]
    least = math.inf
    for k in range(M - 1, -1, -1):
        a, b = 1.0 + A[k] * dt, B[k] * dt
        weight = R[k] + P * (D[k] ** 2 + B[k] ** 2 * dt)
        least = min(least, weight)
        if weight <= 0.0:
            return least
        cross = P * (a * b + dt * C[k] * D[k])
        P = dt * Q[k] + P * (a * a + dt * C[k] ** 2) - cross * cross / (dt * weight)
    return least


@dataclass(frozen=True)
class AdjointCheckReport:
    """Worst stationarity residual over agents and time, absolute and relative."""

    max_abs: float
    max_rel: float


def stationarity_residual(paths: list, finN: RiccatiSolution,
                          coeffs: CoefficientSet) -> AdjointCheckReport:
    """Residual of B p + D q + R u along recorded centralized paths of
    finN.N agents on finN's grid.

    p and q are rebuilt from the population Riccati solution at every node;
    for correctly derived gains the residual is a floating-point zero, and a
    perturbed gain shows up as a residual proportional to the perturbation.
    """
    M = finN.grid.M
    nc = coeffs.node_values(finN.grid)
    B, C, D, R, g = (nc[n][:M] for n in ("B", "C", "D", "R", "g"))
    P, K, phi = finN.P[:M], finN.K[:M], finN.phi[:M]
    S = P + K / finN.N

    max_abs = max_rel = 0.0
    for ps in paths:
        x = ps.states[:, :M]
        u = ps.controls
        p_adj = P * x + K * ps.mean[:M] + phi
        q_adj = S * (C * x + D * u + g)
        res = np.abs(B * p_adj + D * q_adj + R * u)
        scale = np.maximum(np.abs(R * u), 1.0)
        max_abs = max(max_abs, float(res.max()))
        max_rel = max(max_rel, float((res / scale).max()))
    return AdjointCheckReport(max_abs=max_abs, max_rel=max_rel)


@dataclass(frozen=True)
class DecompositionReport:
    """Per-replication pieces of the deviation cost identity.

    j_dev = j_base + j_quad + i_cross up to floating-point error: j_quad is
    the pure quadratic cost of the deviation increment and i_cross collects
    the cross terms against the undeviated optimum.
    """

    j_dev: np.ndarray
    j_base: np.ndarray
    j_quad: np.ndarray
    i_cross: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.abs(self.j_dev - self.j_base - self.j_quad
                            - self.i_cross).max())


def cost_decomposition(i: int, base_paths: list, cfg: PopulationConfig,
                       law: StrategyLaw, coeffs: CoefficientSet,
                       grid: TimeGrid) -> DecompositionReport:
    """Split agent i's cost under a deviation law against frozen co-players.

    Agent i of every base replication (of the population cfg, on grid) is
    replayed under `law` on the same noise, redrawn by draws, in one
    _replay_lanes call, and both of its costs are taken against the mean
    (x + others) / N, others the sum of its co-players' states, as nash_gap
    takes them.  The quadratic and cross pieces use the deviation
    increments x_tilde = x_dev - x_base, u_tilde = u_dev - u_base and the
    undeviated paths; the identity holds pathwise per replication.
    """
    N = cfg.N
    reps = np.array([ps.rep for ps in base_paths])
    xb, ub = (np.stack([getattr(ps, name)[i] for ps in base_paths])
              for name in ("states", "controls"))
    dW = np.stack([draws(cfg, ps.rep, grid)[1][i] for ps in base_paths])
    others = np.stack([population_sum(ps.states) for ps in base_paths]) - xb
    states, controls = _replay_lanes(i, reps, xb[:, 0], dW, others, N, [law],
                                     coeffs, grid)
    xd, ud = states[:, 0], controls[:, 0]
    mb = (xb + others) / N
    # the costs first: an overflowing one is a typed error, not a warning below
    j_dev = _costs(xd, ud, (xd + others) / N, reps, coeffs, grid)
    j_base = _costs(xb, ub, mb, reps, coeffs, grid)
    nc = coeffs.node_values(grid)
    M, dt = grid.M, grid.dt
    q, r, gam, eta = nc["Q"], nc["R"][:M], nc["Gamma"], nc["eta"]

    xt, ut = xd - xb, ud - ub
    hat_dev = xb - gam * mb - eta
    hat_end = xb[:, -1] - coeffs.Gamma0 * mb[:, -1] - coeffs.eta0
    keep = 1.0 - gam / N
    keep0 = 1.0 - coeffs.Gamma0 / N
    j_quad = 0.5 * (quadrature(dt, q * keep ** 2 * xt * xt, r * ut * ut)
                    + coeffs.H * keep0 ** 2 * xt[:, -1] * xt[:, -1])
    i_cross = (quadrature(dt, q * keep * xt * hat_dev, r * ut * ub)
               + coeffs.H * keep0 * xt[:, -1] * hat_end)
    return DecompositionReport(j_dev=j_dev, j_base=j_base, j_quad=j_quad,
                               i_cross=i_cross)
