"""Backward solvers for the feedback Riccati system and its gain schedules.

Two systems are solved on the same uniform grid, both by classical
fixed-step fourth-order Runge-Kutta running backward from t = T:

* the limiting system (P, K, phi), integrated sequentially: P satisfies an
  autonomous rational equation, K a quadratic equation with coefficients
  built from P, and phi a linear equation built from P and K; the P
  stepper also sweeps the convexity margin's deviation form;
* the population system (P_N, K_N, phi_N) for N agents: P_N and K_N are
  stepped jointly, coupled through the shared effective weight, then phi_N.

Stages at half steps read the coefficients, and in the limit P and K,
interpolated linearly between nodes; phi_N reads the (P_N, K_N) of its own
RK4 stages, which the sweep does not keep: they are rebuilt from its nodes
for all steps at once, bit for bit.  The nonlinear sweeps step inline over
one row of coefficient floats per half-grid point; the linear equations
(phi, phi_N, the forward mean-field ODE) share one affine RK4 stepper.

The weight rule: every effective control weight alpha, R + D^2 P or
R + D^2 (P + K/N) for N agents, is finite, at least _ALPHA_MIN in size and
of the terminal weight's sign; the first that is not raises
SingularGainError.  _check_weight tests each sweep's terminal weight and
the weights that K, phi and phi_N divide by, and _node_weight forms and
tests the node weights of the gains and of the convexity margin; the
sweeps test each stage's weight inline.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from ._pool import _pmap
from .errors import NonSolvableError, SingularGainError
from .model import CoefficientSet, TimeGrid, _population_size, half_interp


# fixed guards: least |effective control weight|, largest |solution|
_ALPHA_MIN = 1e-10
_BLOW_UP_BOUND = 1e8


@dataclass(frozen=True)
class RiccatiSolution:
    """Node samples of (P, K, phi): the limit system when N is None, else
    the population system for N agents."""

    grid: TimeGrid
    P: np.ndarray
    K: np.ndarray
    phi: np.ndarray
    N: int | None = None


@dataclass(frozen=True)
class GainSchedule:
    """Node samples of the feedback gains alpha, beta, gamma, delta; N as
    in the RiccatiSolution they come from."""

    grid: TimeGrid
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    N: int | None = None


def _rows(*cols) -> list:
    """One tuple per half-grid point of the columns' values there, as
    floats.  A column constant in time, bit for bit, gives every tuple the
    same float, and when every column is, every point the same tuple."""
    n = cols[0].size
    const = [(x.view(np.int64) == x.view(np.int64)[0]).all() for x in cols]
    if all(const):
        return [tuple(float(x[0]) for x in cols)] * n
    return list(zip(*(itertools.repeat(float(x[0]), n) if c else x.tolist()
                      for x, c in zip(cols, const))))


def _blow_up(name: str, t: float, bound: float = _BLOW_UP_BOUND):
    """The error for `name` leaving (-bound, bound) near time t."""
    return NonSolvableError(
        f"{name} left [-{bound:g}, {bound:g}] near t={t:.6g}", t=t)


def _weight_error(alpha: float, t: float):
    """The error for an effective control weight alpha at time t that breaks
    the weight rule: not finite, too small, or else of the wrong sign."""
    what = ("is not finite at" if not math.isfinite(alpha) else
            f"|alpha| < {_ALPHA_MIN:g} at" if abs(alpha) < _ALPHA_MIN else
            "changes sign near")
    return SingularGainError(f"effective control weight {what} t={t:.6g}",
                             t=t, alpha=alpha)


def _stage_rows(x: np.ndarray, backward: bool = True) -> np.ndarray:
    """The half-grid samples x at RK4 stages 1-4 (rows) of each step
    (columns, in sweep order): the step's start node, its midpoint twice,
    and its end node."""
    x = x[::-1] if backward else x
    return np.stack((x[:-1:2], x[1::2], x[1::2], x[2::2]))


def _rk4_affine(v: np.ndarray, u: np.ndarray, y0: float, grid: TimeGrid,
                name: str, bound: float = _BLOW_UP_BOUND,
                backward: bool = True) -> np.ndarray:
    """Classical RK4 for the linear y' = v y + u from y0 at t=T (backward)
    or t=0, returning y at the nodes; v and u are laid out as _stage_rows
    lays them out.  With stage slopes k_i = c_i y + d_i a step is exactly
    y <- a y + b, and a and b are formed for all steps at once.  Raises
    NonSolvableError at the first node where y leaves (-bound, bound).
    """
    M, dt = grid.M, grid.dt
    h = -dt if backward else dt
    hh = 0.5 * h
    # an overflow here gives a non-finite y, which the bound check reports
    with np.errstate(over="ignore", invalid="ignore"):
        c2, d2 = v[1] * (1.0 + hh * v[0]), u[1] + v[1] * hh * u[0]
        c3, d3 = v[2] * (1.0 + hh * c2), u[2] + v[2] * hh * d2
        c4, d4 = v[3] * (1.0 + h * c3), u[3] + v[3] * h * d3
        a = 1.0 + h / 6.0 * (v[0] + 2.0 * (c2 + c3) + c4)
        b = h / 6.0 * (u[0] + 2.0 * (d2 + d3) + d4)
    y = float(y0)
    out = [y]
    for ak, bk in zip(a.tolist(), b.tolist()):
        y = ak * y + bk
        out.append(y)
    out = np.asarray(out)
    bad = np.flatnonzero(~(np.abs(out[1:]) < bound))
    if bad.size:
        k = M - 1 - int(bad[0]) if backward else int(bad[0]) + 1
        raise _blow_up(name, k * dt, bound)
    return out[::-1].copy() if backward else out


def _check_weight(alpha: np.ndarray, t: np.ndarray) -> None:
    """Raise the _weight_error of the first weight alpha, in sweep order
    from the terminal one, that breaks the weight rule; t holds its times."""
    sign = math.copysign(1.0, alpha[0])
    bad = ~(sign * alpha >= _ALPHA_MIN) | np.isinf(alpha)
    if bad.any():
        i = int(bad.argmax())
        raise _weight_error(float(alpha[i]), float(t[i]))


@np.errstate(over="ignore", invalid="ignore")
def _sweep_P(hc: dict, Q: np.ndarray, H: float, grid: TimeGrid) -> tuple:
    """The limit's P at the nodes, P interpolated to the half-grid points
    and the weight R + D^2 P there, which K and phi divide by, from the
    half-grid samples hc with state weight Q (half-grid) and terminal
    weight H.  Raises SingularGainError at the first weight that breaks the
    weight rule, NonSolvableError on blow-up, which is also what an
    overflow of P or of a coefficient product other than D^2 leads to."""
    M, dt, amin, bound = grid.M, grid.dt, _ALPHA_MIN, _BLOW_UP_BOUND
    h, hh, h6 = -dt, -0.5 * dt, -dt / 6.0

    # P' = -(2A + C^2) P - Q + (B + C D)^2 P^2 / (R + D^2 P)
    rows = _rows(2.0 * hc["A"] + hc["C"] ** 2, Q,
                 (hc["B"] + hc["C"] * hc["D"]) ** 2, hc["R"], hc["D"] ** 2)
    y = H
    P = [math.nan] * M + [y]
    row = rows[2 * M]
    # the terminal weight by the whole rule, then one compare per stage
    # tests size and sign; a NaN goes on to the bound check
    den = row[3] + row[4] * y
    _check_weight(np.array([den]), np.array([M * dt]))
    sign = math.copysign(1.0, den)
    for k in range(M - 1, -1, -1):
        j = 2 * k
        ((l0, q0, n0, r0, e0), (l1, q1, n1, r1, e1),
         (l2, q2, n2, r2, e2)) = row, rows[j + 1], rows[j]
        if sign * (den := r0 + e0 * y) < amin:
            raise _weight_error(den, (j + 2) * dt / 2)
        k1 = -l0 * y - q0 + n0 * y * y / den
        y2 = y + hh * k1
        if sign * (den := r1 + e1 * y2) < amin:
            raise _weight_error(den, (j + 1) * dt / 2)
        k2 = -l1 * y2 - q1 + n1 * y2 * y2 / den
        y3 = y + hh * k2
        if sign * (den := r1 + e1 * y3) < amin:
            raise _weight_error(den, (j + 1) * dt / 2)
        k3 = -l1 * y3 - q1 + n1 * y3 * y3 / den
        y4 = y + h * k3
        if sign * (den := r2 + e2 * y4) < amin:
            raise _weight_error(den, j * dt / 2)
        k4 = -l2 * y4 - q2 + n2 * y4 * y4 / den
        y = y + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        if not -bound < y < bound:
            raise _blow_up("P", k * dt)
        P[k], row = y, rows[j]
    del rows    # each sweep's rows are its peak memory
    Ph = half_interp(P)
    alpha_h = hc["R"] + hc["D"] ** 2 * Ph
    _check_weight(alpha_h[::-1], np.arange(2 * M, -1, -1) * dt / 2)
    return np.asarray(P), Ph, alpha_h


@np.errstate(over="ignore", invalid="ignore")
def solve_limit(coeffs: CoefficientSet, grid: TimeGrid) -> RiccatiSolution:
    """Solve the limiting backward system (P, K, phi) on the grid.

    P first (_sweep_P), then K (quadratic, coefficients from P), then phi
    (linear, coefficients from P and K); errors as in _sweep_P, and
    NonSolvableError on a blow-up of K or phi.
    """
    hc = coeffs.half_values(grid)
    M, dt, bound = grid.M, grid.dt, _BLOW_UP_BOUND
    h, hh, h6 = -dt, -0.5 * dt, -dt / 6.0
    P, Ph, alpha_h = _sweep_P(hc, hc["Q"], coeffs.H, grid)
    beta_h = hc["B"] * Ph + Ph * hc["C"] * hc["D"]

    # K' = Q Gamma + 2[B alpha^-1 beta - A] K + alpha^-1 B^2 K^2
    rows = _rows(hc["Q"] * hc["Gamma"],
                 2.0 * (hc["B"] * beta_h / alpha_h - hc["A"]),
                 hc["B"] ** 2 / alpha_h)
    y = -coeffs.H * coeffs.Gamma0
    K = [math.nan] * M + [y]
    row = rows[2 * M]
    for k in range(M - 1, -1, -1):
        j = 2 * k
        (u0, v0, w0), (u1, v1, w1), (u2, v2, w2) = row, rows[j + 1], rows[j]
        k1 = u0 + (v0 + w0 * y) * y
        y2 = y + hh * k1
        k2 = u1 + (v1 + w1 * y2) * y2
        y3 = y + hh * k2
        k3 = u1 + (v1 + w1 * y3) * y3
        y4 = y + h * k3
        k4 = u2 + (v2 + w2 * y4) * y4
        y = y + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        if not -bound < y < bound:
            raise _blow_up("K", k * dt)
        K[k], row = y, rows[j]
    del rows

    # phi' = [(KB + beta) alpha^-1 B - A] phi
    #        + (KB + beta) alpha^-1 P g D - f (P + K) - C P g + Q eta
    Kh = half_interp(K)
    w = (Kh * hc["B"] + beta_h) / alpha_h
    p0 = (w * Ph * hc["g"] * hc["D"] - hc["f"] * (Ph + Kh)
          - hc["C"] * Ph * hc["g"] + hc["Q"] * hc["eta"])
    p1 = w * hc["B"] - hc["A"]
    phi = _rk4_affine(_stage_rows(p1), _stage_rows(p0),
                      -coeffs.H * coeffs.eta0, grid, "phi")

    return RiccatiSolution(grid, P, np.asarray(K), phi)


def _stage_points(P: np.ndarray, K: np.ndarray, cols, inv_n: float,
                  dt: float) -> tuple:
    """The (P_N, K_N) of solve_finite_N's sweep at RK4 stages 1-4 (rows) of
    each step (columns, in sweep order), formed for all steps at once from
    the nodes P and K by the sweep's own expressions in its order, so they
    are its floats bit for bit; cols are the sweep's half-grid columns
    (R, D^2, B, CD, 2A, C^2, Q_e, Q_e Gamma)."""
    R, E, B, X, A2, C2, Q, G = (_stage_rows(x) for x in cols)
    p, k = P[:0:-1], K[:0:-1]
    Ps, Ks = [p], [k]
    for i, h in enumerate((-0.5 * dt, -0.5 * dt, -dt)):
        pi, ki = Ps[i], Ks[i]
        s = pi + ki * inv_n
        alpha = R[i] + E[i] * s
        beta, gamma = B[i] * pi + X[i] * s, B[i] * ki
        dp = beta * beta / alpha - A2[i] * pi - C2[i] * s - Q[i]
        dk = gamma * (2.0 * beta + gamma) / alpha - A2[i] * ki + G[i]
        Ps.append(p + h * dp)
        Ks.append(k + h * dk)
    return np.stack(Ps), np.stack(Ks)


@np.errstate(over="ignore", invalid="ignore")
def solve_finite_N(coeffs: CoefficientSet, N: int,
                   grid: TimeGrid) -> RiccatiSolution:
    """Solve the coupled population system (P_N, K_N, phi_N) for N agents,
    N an integer >= 1: (P_N, K_N) in completed-square form, then phi_N by
    _rk4_affine from their stage points, which the sweep does not keep:
    _stage_points forms them from its nodes; errors as in solve_limit."""
    N = _population_size(N)
    hc = coeffs.half_values(grid)
    M, dt, amin, bound = grid.M, grid.dt, _ALPHA_MIN, _BLOW_UP_BOUND
    h, hh, h6, inv_n = -dt, -0.5 * dt, -dt / 6.0, 1.0 / N

    # with s = P + K/N, alpha = R + D^2 s, beta = BP + CDs, gamma = BK:
    # P' = -2AP + beta^2/alpha - C^2 s - Q_e, Q_e = Q(1 - Gamma/N), and
    # K' = -2AK + gamma(2 beta + gamma)/alpha + Q_e Gamma; a row holds
    # (R, D^2, B, CD, 2A, C^2, Q_e, Q_e Gamma)
    qe = hc["Q"] * (1.0 - hc["Gamma"] * inv_n)
    cols = (hc["R"], hc["D"] ** 2, hc["B"], hc["C"] * hc["D"], 2.0 * hc["A"],
            hc["C"] ** 2, qe, qe * hc["Gamma"])
    rows = _rows(*cols)
    scale = coeffs.H * (1.0 - coeffs.Gamma0 * inv_n)
    p, k = scale, -scale * coeffs.Gamma0
    P = array("d", [math.nan] * M + [p])
    K = array("d", [math.nan] * M + [k])
    row = rows[2 * M]
    alpha = row[0] + row[1] * (p + k * inv_n)
    _check_weight(np.array([alpha]), np.array([M * dt]))
    sign = math.copysign(1.0, alpha)
    for step in range(M - 1, -1, -1):
        j = 2 * step
        ((r0, e0, b0, x0, a0, c0, q0, g0),
         (r1, e1, b1, x1, a1, c1, q1, g1),
         (r2, e2, b2, x2, a2, c2, q2, g2)) = row, rows[j + 1], rows[j]
        s = p + k * inv_n
        if sign * (alpha := r0 + e0 * s) < amin:
            raise _weight_error(alpha, (j + 2) * dt / 2)
        beta, gamma = b0 * p + x0 * s, b0 * k
        dp1 = beta * beta / alpha - a0 * p - c0 * s - q0
        dk1 = gamma * (2.0 * beta + gamma) / alpha - a0 * k + g0
        p2, k2 = p + hh * dp1, k + hh * dk1
        s = p2 + k2 * inv_n
        if sign * (alpha := r1 + e1 * s) < amin:
            raise _weight_error(alpha, (j + 1) * dt / 2)
        beta, gamma = b1 * p2 + x1 * s, b1 * k2
        dp2 = beta * beta / alpha - a1 * p2 - c1 * s - q1
        dk2 = gamma * (2.0 * beta + gamma) / alpha - a1 * k2 + g1
        p3, k3 = p + hh * dp2, k + hh * dk2
        s = p3 + k3 * inv_n
        if sign * (alpha := r1 + e1 * s) < amin:
            raise _weight_error(alpha, (j + 1) * dt / 2)
        beta, gamma = b1 * p3 + x1 * s, b1 * k3
        dp3 = beta * beta / alpha - a1 * p3 - c1 * s - q1
        dk3 = gamma * (2.0 * beta + gamma) / alpha - a1 * k3 + g1
        p4, k4 = p + h * dp3, k + h * dk3
        s = p4 + k4 * inv_n
        if sign * (alpha := r2 + e2 * s) < amin:
            raise _weight_error(alpha, j * dt / 2)
        beta, gamma = b2 * p4 + x2 * s, b2 * k4
        dp4 = beta * beta / alpha - a2 * p4 - c2 * s - q2
        dk4 = gamma * (2.0 * beta + gamma) / alpha - a2 * k4 + g2
        p = p + h6 * (dp1 + 2.0 * (dp2 + dp3) + dp4)
        k = k + h6 * (dk1 + 2.0 * (dk2 + dk3) + dk4)
        if not (-bound < p < bound and -bound < k < bound):
            raise _blow_up("(P_N, K_N)", step * dt)
        P[step], K[step], row = p, k, rows[j]
    del rows
    # phi_N divides by the stage weights
    Ps, Ks = _stage_points(np.frombuffer(P), np.frombuffer(K), cols, inv_n,
                           dt)
    S = Ps + Ks * inv_n
    A, B, C, D, R, f, g = (_stage_rows(hc[name]) for name in "ABCDRfg")
    alpha = R + D ** 2 * S
    _check_weight(alpha.T.ravel(),
                  _stage_rows(np.arange(2 * M + 1) * dt / 2).T.ravel())

    # phi' = v phi + u with w = (beta + gamma)/alpha, v = B w - A and
    # u = w g D s - f (P + K) - C g s + Q_e eta
    w = (B * (Ps + Ks) + C * D * S) / alpha
    phi = _rk4_affine(B * w - A,
                      w * g * D * S - f * (Ps + Ks) - C * g * S
                      + _stage_rows(qe * hc["eta"]), -scale * coeffs.eta0,
                      grid, "phi_N")
    return RiccatiSolution(grid, np.frombuffer(P), np.frombuffer(K), phi, N)


def solve_backward(coeffs: CoefficientSet, grid: TimeGrid, populations, *,
                   then=None, then_seconds: float = 0.0) -> list:
    """solve_limit for each None of `populations` and solve_finite_N for
    each population size N, in order; given then, then(solution) in place
    of each solution, run where that solve ran, and then_seconds its
    estimated time.  The solves are independent, so _pmap runs them on one
    forked worker per CPU when they take long enough to pay for it; the
    first that fails, in order, raises its error."""
    populations = list(populations)
    # an RK4 step of the limit costs about 2.5 us, one of N players 2.7 us
    # (2.3-3.4 and 2.6-3.5 us measured on a 2-CPU x86-64 machine)
    seconds = sum(grid.M * (2.5e-6 if N is None else 2.7e-6) + then_seconds
                  for N in populations)

    def solve(N):
        sol = (solve_limit(coeffs, grid) if N is None
               else solve_finite_N(coeffs, N, grid))
        return sol if then is None else then(sol)

    return _pmap(solve, [(N,) for N in populations], seconds)


@np.errstate(over="ignore", invalid="ignore")
def _node_weight(R, D, S, grid: TimeGrid) -> np.ndarray:
    """The weight R + S D^2 at the nodes, S = P or P + K/N, checked by the
    weight rule; an overflow gives the non-finite weight it reports."""
    alpha = R + S * D * D
    _check_weight(alpha[::-1], grid.nodes[::-1])
    return alpha


def gains(sol: RiccatiSolution, coeffs: CoefficientSet) -> GainSchedule:
    """Gain schedule at the grid nodes for either solution.

    The population system replaces the weight P by P + K/N inside the
    effective-weight, cross, and offset terms; the limit formulas are the
    N -> infinity case of the same expressions.
    """
    grid = sol.grid
    nv = coeffs.node_values(grid)
    B, D = nv["B"], nv["D"]
    S = sol.P if sol.N is None else sol.P + sol.K / sol.N
    alpha = _node_weight(nv["R"], D, S, grid)
    beta = B * sol.P + S * nv["C"] * D
    gamma = B * sol.K
    delta = B * sol.phi + S * nv["g"] * D
    return GainSchedule(grid=grid, alpha=alpha, beta=beta, gamma=gamma,
                        delta=delta, N=sol.N)


def _least_weight(alpha: np.ndarray, grid: TimeGrid) -> tuple:
    """The least effective control weight alpha over the nodes and the
    first node where it occurs."""
    k = int(np.argmin(alpha))
    return float(alpha[k]), float(grid.nodes[k])


def convexity_margin(coeffs: CoefficientSet, grid: TimeGrid,
                     N: int | None = None) -> tuple:
    """(margin, t): the least weight R + D^2 P over the nodes, and its
    node, of an agent's deviation form against N - 1 frozen co-players (the
    limit when N is None); its cost is uniformly convex in its own control
    exactly when the margin is positive.  The form's P is _sweep_P's with
    the state weight Q (1 - Gamma/N)^2, taken at the nodes, and the
    terminal weight H_e = H (1 - Gamma0/N)^2.  A failed sweep has no
    regular solution: the margin is then min(0, R(T) + D(T)^2 H_e), at the
    time its error names, unless the failure is a weight that is not
    finite, whose SingularGainError is raised.
    """
    hc = coeffs.half_values(grid)
    Q, H, R, D = hc["Q"], coeffs.H, hc["R"][::2], hc["D"][::2]
    if N is not None:
        inv_n = 1.0 / _population_size(N)
        Q = half_interp(hc["Q"][::2] * (1.0 - hc["Gamma"][::2] * inv_n) ** 2)
        H = H * (1.0 - coeffs.Gamma0 * inv_n) ** 2
    try:
        P = _sweep_P(hc, Q, H, grid)[0]
        return _least_weight(_node_weight(R, D, P, grid), grid)
    except (SingularGainError, NonSolvableError) as exc:
        if isinstance(exc, SingularGainError) and not math.isfinite(exc.alpha):
            raise
        R, D = float(R[-1]), float(D[-1])
        return min(0.0, R + D * D * H), float(exc.t)
