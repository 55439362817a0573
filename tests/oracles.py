"""Independent oracles for the convexity margin (riccati.convexity_margin).

convexity_probe is a Monte Carlo lower-bound probe of the deviation form;
em_margin is the exact backward Riccati recursion of the same form under
the Euler-Maruyama scheme the simulations use.  Neither shares the margin's
RK4 solve.
"""

import math
from dataclasses import dataclass

import numpy as np

from lqmfg.model import CoefficientSet, TimeGrid, _population_size
from lqmfg.sim import _euler_maruyama, quadrature, stream

_PURPOSE_PROBE_CONTROL = 1
_PURPOSE_PROBE_NOISE = 2


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
        x, _ = _euler_maruyama(homogeneous, dt, np.zeros(inner_reps), dW,
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
