"""Backward solvers for the feedback Riccati system and its gain schedules.

Two systems are solved on the same uniform grid, both by classical
fixed-step fourth-order Runge-Kutta running backward from t = T:

* the limiting system (P, K, phi), integrated sequentially: P satisfies an
  autonomous rational equation, K a quadratic equation with coefficients
  built from P, and phi a linear equation built from P and K;
* the population system (P_N, K_N, phi_N) for N agents, integrated jointly
  because P_N and K_N are coupled through the shared effective weight.

Stage evaluations at half steps use piecewise-linear interpolation of both
the model coefficients and the already-computed solution components, the
same rule the rest of the package uses for time profiles.  The scalar
stepper also runs forward, for the mean-field ODE.
"""

from __future__ import annotations

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


def _rk4_scalar(f, y0: float, grid: TimeGrid, name: str,
                bound: float = _BLOW_UP_BOUND, backward: bool = True) -> np.ndarray:
    """Integrate y' = f(j, y) from y0 at t=T (backward) or t=0 (forward);
    j indexes the half grid.  Raises NonSolvableError once y leaves
    (-bound, bound), which with an infinite bound means non-finite."""
    M, dt = grid.M, grid.dt
    if backward:
        h, o, nodes = -dt, 1, range(M - 1, -1, -1)
    else:
        h, o, nodes = dt, -1, range(1, M + 1)
    o2, hh, h6, lo = 2 * o, 0.5 * h, h / 6.0, -bound
    out = [0.0] * (M + 1)
    y = float(y0)
    out[nodes[0] + o] = y
    for k in nodes:
        j = 2 * k
        jm = j + o
        k1 = f(j + o2, y)
        k2 = f(jm, y + hh * k1)
        k3 = f(jm, y + hh * k2)
        k4 = f(j, y + h * k3)
        y = y + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        if not lo < y < bound:
            raise NonSolvableError(
                f"{name} left [-{bound:g}, {bound:g}] near t={k * dt:.6g}",
                t=k * dt)
        out[k] = y
    return np.asarray(out)


def solve_limit(coeffs: CoefficientSet, grid: TimeGrid) -> RiccatiSolution:
    """Solve the limiting backward system (P, K, phi) on the grid.

    P first (rational autonomous form), then K (quadratic, coefficients from
    P), then phi (linear, coefficients from P and K).  Raises
    SingularGainError if the effective weight R + D^2 P falls below
    _ALPHA_MIN in magnitude, NonSolvableError on blow-up.
    """
    hc = coeffs.half_values(grid)
    dt = grid.dt
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

    P = _rk4_scalar(f_p, coeffs.H, grid, "P")

    # alpha and beta on the half grid, from P interpolated at half steps
    Ph = half_interp(P)
    alpha_h = hc["R"] + hc["D"] ** 2 * Ph
    if np.min(np.abs(alpha_h)) < amin:
        j = int(np.flatnonzero(np.abs(alpha_h) < amin)[-1])
        raise SingularGainError(
            f"effective control weight |alpha| < {amin:g} at t={j * dt / 2:.6g}",
            t=j * dt / 2)
    beta_h = hc["B"] * Ph + Ph * hc["C"] * hc["D"]

    # K' = Q Gamma + 2[B alpha^-1 beta - A] K + alpha^-1 B^2 K^2
    k0 = (hc["Q"] * hc["Gamma"]).tolist()
    k1c = (2.0 * (hc["B"] * beta_h / alpha_h - hc["A"])).tolist()
    k2c = (hc["B"] ** 2 / alpha_h).tolist()

    def f_k(j, y):
        return k0[j] + (k1c[j] + k2c[j] * y) * y

    K = _rk4_scalar(f_k, -coeffs.H * coeffs.Gamma0, grid, "K")

    # phi' = [(KB + beta) alpha^-1 B - A] phi
    #        + (KB + beta) alpha^-1 P g D - f (P + K) - C P g + Q eta
    Kh = half_interp(K)
    w = (Kh * hc["B"] + beta_h) / alpha_h
    p0 = (w * Ph * hc["g"] * hc["D"] - hc["f"] * (Ph + Kh)
          - hc["C"] * Ph * hc["g"] + hc["Q"] * hc["eta"]).tolist()
    p1 = (w * hc["B"] - hc["A"]).tolist()

    def f_phi(j, y):
        return p0[j] + p1[j] * y

    phi = _rk4_scalar(f_phi, -coeffs.H * coeffs.eta0, grid, "phi")

    return RiccatiSolution(grid=grid, P=P, K=K, phi=phi)


def solve_finite_N(coeffs: CoefficientSet, N: int,
                   grid: TimeGrid) -> RiccatiSolution:
    """Solve the coupled population system (P_N, K_N, phi_N) for N agents,
    N an integer >= 1."""
    N = _population_size(N)
    hc = coeffs.half_values(grid)
    M, dt = grid.M, grid.dt
    h = -dt
    amin = _ALPHA_MIN
    bound = _BLOW_UP_BOUND
    inv_n = 1.0 / N

    qe = (hc["Q"] * (1.0 - hc["Gamma"] * inv_n)).tolist()
    # each profile's array is dropped once its list, which the steps read,
    # is made: the solve's peak memory is the lists'
    av, bv, cv, dv, fv, gv, rv, gam, eta = (
        hc.pop(name).tolist()
        for name in ("A", "B", "C", "D", "f", "g", "R", "Gamma", "eta"))
    del hc

    def rhs(j, p, k, ph):
        s = p + k * inv_n
        alpha = rv[j] + s * dv[j] * dv[j]
        if -amin < alpha < amin:
            raise SingularGainError(
                f"effective control weight |alpha_N| < {amin:g} "
                f"at t={j * dt / 2:.6g}", t=j * dt / 2)
        beta = bv[j] * p + s * cv[j] * dv[j]
        gamma = bv[j] * k
        delta = bv[j] * ph + s * gv[j] * dv[j]
        dp = (-2.0 * av[j] * p + p * bv[j] * beta / alpha
              - cv[j] * s * (cv[j] - dv[j] * beta / alpha) - qe[j])
        dk = (-2.0 * av[j] * k + p * bv[j] * gamma / alpha
              + k * bv[j] * (beta + gamma) / alpha
              + cv[j] * dv[j] * s * gamma / alpha + qe[j] * gam[j])
        dph = (-fv[j] * (p + k) - av[j] * ph + (p + k) * bv[j] * delta / alpha
               - cv[j] * s * (gv[j] - dv[j] * delta / alpha) + qe[j] * eta[j])
        return dp, dk, dph

    scale = coeffs.H * (1.0 - coeffs.Gamma0 * inv_n)
    p = scale
    k = -scale * coeffs.Gamma0
    ph = -scale * coeffs.eta0
    P = [0.0] * (M + 1)
    K = [0.0] * (M + 1)
    PHI = [0.0] * (M + 1)
    P[M], K[M], PHI[M] = p, k, ph
    for step in range(M - 1, -1, -1):
        j = 2 * step
        a1, b1, c1 = rhs(j + 2, p, k, ph)
        a2, b2, c2 = rhs(j + 1, p + 0.5 * h * a1, k + 0.5 * h * b1, ph + 0.5 * h * c1)
        a3, b3, c3 = rhs(j + 1, p + 0.5 * h * a2, k + 0.5 * h * b2, ph + 0.5 * h * c2)
        a4, b4, c4 = rhs(j, p + h * a3, k + h * b3, ph + h * c3)
        p = p + (h / 6.0) * (a1 + 2.0 * (a2 + a3) + a4)
        k = k + (h / 6.0) * (b1 + 2.0 * (b2 + b3) + b4)
        ph = ph + (h / 6.0) * (c1 + 2.0 * (c2 + c3) + c4)
        if not (-bound < p < bound and -bound < k < bound and -bound < ph < bound):
            raise NonSolvableError(
                f"(P_N, K_N, phi_N) left [-{bound:g}, {bound:g}] "
                f"near t={step * dt:.6g}", t=step * dt)
        P[step], K[step], PHI[step] = p, k, ph
    return RiccatiSolution(grid=grid, P=np.asarray(P), K=np.asarray(K),
                           phi=np.asarray(PHI), N=N)


def solve_backward(coeffs: CoefficientSet, grid: TimeGrid,
                   populations) -> list:
    """solve_limit for each None of `populations` and solve_finite_N for
    each population size N, in order.  The solves are independent, so
    _pmap runs them on one forked worker per CPU when they take long enough
    to pay for it; the first that fails, in order, raises its error."""
    populations = list(populations)
    # an RK4 step of the limit costs about 5 us, one of N players 9 us (4.8
    # and 8.6 us measured on a 2-CPU x86-64 machine)
    seconds = grid.M * sum(5e-6 if N is None else 9e-6 for N in populations)
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
    small = np.abs(alpha) < _ALPHA_MIN
    if np.any(small):
        k = int(np.flatnonzero(small)[-1])
        t_k = grid.nodes[k]
        raise SingularGainError(
            f"effective control weight |alpha(t)| < {_ALPHA_MIN:g} "
            f"at t={t_k:.6g}", t=float(t_k))
    return GainSchedule(grid=grid, alpha=alpha, beta=beta, gamma=gamma,
                        delta=delta, N=sol.N)
