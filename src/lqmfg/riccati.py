"""Backward solvers for the feedback Riccati system and its gain schedules.

Two systems are solved on the same uniform grid, both by classical
fixed-step fourth-order Runge-Kutta running backward from t = T:

* the limiting system (P, K, phi), integrated sequentially: P satisfies an
  autonomous rational equation, K a quadratic equation with coefficients
  built from P, and phi a linear equation built from P and K;
* the population system (P_N, K_N, phi_N) for N agents: P_N and K_N are
  stepped jointly, coupled through the shared effective weight, then phi_N.

Stage evaluations at half steps use piecewise-linear interpolation of both
the model coefficients and the already-computed solution components, the
same rule the rest of the package uses for time profiles.  The linear
equations (phi, phi_N, and the forward mean-field ODE) share one affine
RK4 stepper.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from dataclasses import dataclass

import numpy as np

from ._pool import _pmap
from .errors import NonSolvableError, SingularGainError
from .model import (CoefficientSet, TimeGrid, TimeProfile, _population_size,
                    half_interp)


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


def _rk4_scalar(f, out: list, grid: TimeGrid, name: str) -> None:
    """Integrate y' = f(j, y) backward from out[M] at t=T, writing y(t_k)
    to out[k]; j indexes the half grid.  Raises NonSolvableError once y
    leaves (-_BLOW_UP_BOUND, _BLOW_UP_BOUND); out keeps the nodes reached."""
    M, dt = grid.M, grid.dt
    h, bound = -dt, _BLOW_UP_BOUND
    hh, h6, lo = 0.5 * h, h / 6.0, -bound
    y = out[M]
    for k in range(M - 1, -1, -1):
        j = 2 * k
        k1 = f(j + 2, y)
        k2 = f(j + 1, y + hh * k1)
        k3 = f(j + 1, y + hh * k2)
        k4 = f(j, y + h * k3)
        y = y + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        if not lo < y < bound:
            raise NonSolvableError(
                f"{name} left [-{bound:g}, {bound:g}] near t={k * dt:.6g}",
                t=k * dt)
        out[k] = y


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
        raise NonSolvableError(
            f"{name} left [-{bound:g}, {bound:g}] near t={k * dt:.6g}",
            t=k * dt)
    return out[::-1].copy() if backward else out


def _check_weight(alpha: np.ndarray, t: np.ndarray) -> None:
    """Raise SingularGainError at the first effective control weight alpha,
    in sweep order, below _ALPHA_MIN in magnitude or of the other sign than
    the one before it, which means it passed through zero; t holds the
    time of each weight."""
    small = np.abs(alpha) < _ALPHA_MIN
    bad = small | np.r_[False, np.sign(alpha[1:]) * np.sign(alpha[:-1]) < 0]
    if bad.any():
        i = int(bad.argmax())
        what = (f"|alpha| < {_ALPHA_MIN:g} at" if small[i]
                else "changes sign near")
        raise SingularGainError(f"effective control weight {what} "
                                f"t={t[i]:.6g}", t=float(t[i]))


def solve_limit(coeffs: CoefficientSet, grid: TimeGrid) -> RiccatiSolution:
    """Solve the limiting backward system (P, K, phi) on the grid.

    P first (rational autonomous form), then K (quadratic, coefficients from
    P), then phi (linear, coefficients from P and K).  Raises
    SingularGainError if the effective weight R + D^2 P falls below
    _ALPHA_MIN in magnitude or changes sign, NonSolvableError on blow-up.
    """
    hc = coeffs.half_values(grid)
    M, dt = grid.M, grid.dt
    amin = _ALPHA_MIN

    # P' = -(2A + C^2) P - Q + (B + C D)^2 P^2 / (R + D^2 P)
    lin = (2.0 * hc["A"] + hc["C"] ** 2).tolist()
    src = hc["Q"].tolist()
    num = ((hc["B"] + hc["C"] * hc["D"]) ** 2).tolist()
    rr = hc["R"].tolist()
    d2 = (hc["D"] ** 2).tolist()

    def f_p(j, y):
        den = rr[j] + d2[j] * y
        if -amin < den < amin:
            raise SingularGainError(
                f"effective control weight |R + D^2 P| < {amin:g} "
                f"at t={j * dt / 2:.6g}", t=j * dt / 2)
        return -lin[j] * y - src[j] + num[j] * y * y / den

    P = [math.nan] * M + [coeffs.H]
    try:
        _rk4_scalar(f_p, P, grid, "P")
    finally:
        # alpha on the half grid, from P interpolated at half steps; a sign
        # change the sweep passed before a failure is the failure's cause
        Ph = half_interp(P)
        alpha_h = hc["R"] + hc["D"] ** 2 * Ph
        _check_weight(alpha_h[::-1], np.arange(2 * M, -1, -1) * dt / 2)
    del lin, src, num, rr, d2    # each sweep's lists are its peak memory
    beta_h = hc["B"] * Ph + Ph * hc["C"] * hc["D"]

    # K' = Q Gamma + 2[B alpha^-1 beta - A] K + alpha^-1 B^2 K^2
    k0 = (hc["Q"] * hc["Gamma"]).tolist()
    k1c = (2.0 * (hc["B"] * beta_h / alpha_h - hc["A"])).tolist()
    k2c = (hc["B"] ** 2 / alpha_h).tolist()

    def f_k(j, y):
        return k0[j] + (k1c[j] + k2c[j] * y) * y

    K = [math.nan] * M + [-coeffs.H * coeffs.Gamma0]
    _rk4_scalar(f_k, K, grid, "K")
    del k0, k1c, k2c

    # phi' = [(KB + beta) alpha^-1 B - A] phi
    #        + (KB + beta) alpha^-1 P g D - f (P + K) - C P g + Q eta
    Kh = half_interp(K)
    w = (Kh * hc["B"] + beta_h) / alpha_h
    p0 = (w * Ph * hc["g"] * hc["D"] - hc["f"] * (Ph + Kh)
          - hc["C"] * Ph * hc["g"] + hc["Q"] * hc["eta"])
    p1 = w * hc["B"] - hc["A"]
    phi = _rk4_affine(_stage_rows(p1), _stage_rows(p0),
                      -coeffs.H * coeffs.eta0, grid, "phi")

    return RiccatiSolution(grid, np.asarray(P), np.asarray(K), phi)


def solve_finite_N(coeffs: CoefficientSet, N: int,
                   grid: TimeGrid) -> RiccatiSolution:
    """Solve the coupled population system (P_N, K_N, phi_N) for N agents,
    N an integer >= 1: (P_N, K_N) in completed-square form, then phi_N by
    _rk4_affine from their stage points."""
    N = _population_size(N)
    hc = coeffs.half_values(grid)
    M, dt = grid.M, grid.dt
    h = -dt
    hh, h6 = 0.5 * h, h / 6.0
    amin, bound, inv_n = _ALPHA_MIN, _BLOW_UP_BOUND, 1.0 / N

    qe = hc["Q"] * (1.0 - hc["Gamma"] * inv_n)
    rv, d2v, bv, cdv, a2v, c2v, qev, qgv = (x.tolist() for x in (
        hc["R"], hc["D"] ** 2, hc["B"], hc["C"] * hc["D"], 2.0 * hc["A"],
        hc["C"] ** 2, qe, qe * hc["Gamma"]))

    # with s = P + K/N, alpha = R + D^2 s, beta = BP + CDs, gamma = BK:
    # P' = -2AP + beta^2/alpha - C^2 s - Q_e, Q_e = Q(1 - Gamma/N), and
    # K' = -2AK + gamma(2 beta + gamma)/alpha + Q_e Gamma
    def rhs(j, p, k):
        s = p + k * inv_n
        alpha = rv[j] + d2v[j] * s
        if -amin < alpha < amin:
            raise SingularGainError(
                f"effective control weight |alpha_N| < {amin:g} "
                f"at t={j * dt / 2:.6g}", t=j * dt / 2)
        beta = bv[j] * p + cdv[j] * s
        gamma = bv[j] * k
        return (beta * beta / alpha - a2v[j] * p - c2v[j] * s - qev[j],
                gamma * (2.0 * beta + gamma) / alpha - a2v[j] * k + qgv[j])

    scale = coeffs.H * (1.0 - coeffs.Gamma0 * inv_n)
    p, k = scale, -scale * coeffs.Gamma0
    P = array("d", [math.nan] * M + [p])
    K = array("d", [math.nan] * M + [k])
    pts = array("d")    # (P, K) at the four stages of each step taken
    try:
        for step in range(M - 1, -1, -1):
            j = 2 * step
            a1, b1 = rhs(j + 2, p, k)
            p2, k2 = p + hh * a1, k + hh * b1
            a2, b2 = rhs(j + 1, p2, k2)
            p3, k3 = p + hh * a2, k + hh * b2
            a3, b3 = rhs(j + 1, p3, k3)
            p4, k4 = p + h * a3, k + h * b3
            a4, b4 = rhs(j, p4, k4)
            pts.extend((p, k, p2, k2, p3, k3, p4, k4))
            p = p + h6 * (a1 + 2.0 * (a2 + a3) + a4)
            k = k + h6 * (b1 + 2.0 * (b2 + b3) + b4)
            if not (-bound < p < bound and -bound < k < bound):
                raise NonSolvableError(
                    f"(P_N, K_N) left [-{bound:g}, {bound:g}] "
                    f"near t={step * dt:.6g}", t=step * dt)
            P[step], K[step] = p, k
    finally:
        # the four stage weights of every step taken, in sweep order; a sign
        # change the sweep passed before a failure is the failure's cause
        del rv, d2v, bv, cdv, a2v, c2v, qev, qgv
        Ps, Ks = np.frombuffer(pts).reshape(-1, 4, 2).T

        def rows(x):
            return _stage_rows(x)[:, :Ps.shape[1]]

        S = Ps + Ks * inv_n
        alpha = rows(hc["R"]) + rows(hc["D"]) ** 2 * S
        _check_weight(alpha.T.ravel(),
                      rows(np.arange(2 * M + 1) * dt / 2).T.ravel())

    # phi' = v phi + u with w = (beta + gamma)/alpha, v = B w - A and
    # u = w g D s - f (P + K) - C g s + Q_e eta
    B, C, D, g = (rows(hc[name]) for name in "BCDg")
    w = (B * (Ps + Ks) + C * D * S) / alpha
    phi = _rk4_affine(B * w - rows(hc["A"]),
                      w * g * D * S - rows(hc["f"]) * (Ps + Ks) - C * g * S
                      + rows(qe * hc["eta"]), -scale * coeffs.eta0, grid,
                      "phi_N")
    return RiccatiSolution(grid, np.frombuffer(P), np.frombuffer(K), phi, N)


def solve_backward(coeffs: CoefficientSet, grid: TimeGrid,
                   populations) -> list:
    """solve_limit for each None of `populations` and solve_finite_N for
    each population size N, in order.  The solves are independent, so
    _pmap runs them on one forked worker per CPU when they take long enough
    to pay for it; the first that fails, in order, raises its error."""
    populations = list(populations)
    # an RK4 step of the limit costs about 3 us, one of N players 5 us (2.9
    # and 4.7 us measured on a 2-CPU x86-64 machine)
    seconds = grid.M * sum(3e-6 if N is None else 5e-6 for N in populations)
    return _pmap(lambda N: solve_limit(coeffs, grid) if N is None
                 else solve_finite_N(coeffs, N, grid),
                 [(N,) for N in populations], seconds)


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
    alpha = nv["R"] + S * D * D
    beta = B * sol.P + S * nv["C"] * D
    gamma = B * sol.K
    delta = B * sol.phi + S * nv["g"] * D
    _check_weight(alpha[::-1], grid.nodes[::-1])
    return GainSchedule(grid=grid, alpha=alpha, beta=beta, gamma=gamma,
                        delta=delta, N=sol.N)


def _least_weight(sched: GainSchedule) -> tuple:
    """The least effective control weight alpha over the nodes and the
    first node where it occurs."""
    k = int(np.argmin(sched.alpha))
    return float(sched.alpha[k]), float(sched.grid.nodes[k])


def convexity_margin(coeffs: CoefficientSet, grid: TimeGrid,
                     N: int | None = None) -> tuple:
    """(margin, t): the least weight R + D^2 P over the nodes, and its
    node, of an agent's deviation form against N - 1 frozen co-players (the
    limit when N is None); its cost is uniformly convex in its own control
    exactly when the margin is positive.  The form weighs the state by
    Q (1 - Gamma/N)^2 and the terminal state by H_e = H (1 - Gamma0/N)^2
    (Q and H in the limit) and has no f, g, eta, Gamma, eta0 or Gamma0, so
    K = phi = 0 and solve_limit sweeps P only.  A failed sweep has no
    regular solution: the margin is then min(0, R(T) + D(T)^2 H_e), at the
    time its error names.
    """
    Q, H = coeffs.Q, coeffs.H
    if N is not None:
        inv_n = 1.0 / _population_size(N)
        nv = coeffs.node_values(grid)
        Q = TimeProfile.sampled(nv["Q"] * (1.0 - nv["Gamma"] * inv_n) ** 2,
                                grid)
        H = H * (1.0 - coeffs.Gamma0 * inv_n) ** 2
    zero = TimeProfile()
    form = dataclasses.replace(coeffs, Q=Q, H=H, f=zero, g=zero, eta=zero,
                               Gamma=zero, eta0=0.0, Gamma0=0.0)
    try:
        return _least_weight(gains(solve_limit(form, grid), form))
    except (SingularGainError, NonSolvableError) as exc:
        R, D = coeffs.R.at(grid.T), coeffs.D.at(grid.T)
        return min(0.0, R + D * D * H), float(exc.t)
