"""Independent reference for the limit backward system and the mean-field path.

The limit (P, K, phi) system is the population system with 1/N = 0, integrated
jointly and backward from T with scipy's DOP853 at tight tolerances; the
mean-field path is then integrated forward against the dense output of that
solution.  Nothing here calls lqmfg, and there is no half-step interpolation,
so agreement with lqmfg is evidence and not a tautology.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from checks import rel_sup_err

_PROFILE = ("A", "B", "C", "D", "f", "g", "Q", "R", "Gamma", "eta")
_TERMINAL = ("H", "Gamma0", "eta0")
TIGHT = 1e-13
LOOSE = 1e-12


def constants(config: dict) -> dict:
    """Constant coefficients of a config; sampled profiles are not supported."""
    section = config["coefficients"]
    out = {}
    for name in _PROFILE + _TERMINAL:
        value = section[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"oracle needs constant coefficients, {name} is {value!r}")
        out[name] = float(value)
    return out


def initial_mean(config: dict) -> float:
    law = config["initial"]
    if law["kind"] == "uniform":
        return 0.5 * (float(law["a"]) + float(law["b"]))
    return float(law["mean"] if law["kind"] == "gaussian" else law["value"])


def _solve(c: dict, T: float, m0: float, nodes: np.ndarray, tol: float) -> dict:
    A, B, C, D, f, g = (c[k] for k in ("A", "B", "C", "D", "f", "g"))
    Q, R, Gam, eta = c["Q"], c["R"], c["Gamma"], c["eta"]

    def gains(P, K, phi):
        alpha = R + P * D * D
        beta = B * P + P * C * D
        gamma = B * K
        delta = B * phi + P * g * D
        return alpha, beta, gamma, delta

    def backward(t, y):
        P, K, phi = y
        alpha, beta, gamma, delta = gains(P, K, phi)
        dP = -2 * A * P + P * B * beta / alpha - C * P * (C - D * beta / alpha) - Q
        dK = (-2 * A * K + P * B * gamma / alpha + K * B * (beta + gamma) / alpha
              + C * D * P * gamma / alpha + Q * Gam)
        dphi = (-f * (P + K) - A * phi + (P + K) * B * delta / alpha
                - C * P * (g - D * delta / alpha) + Q * eta)
        return [dP, dK, dphi]

    H = c["H"]
    yT = [H, -H * c["Gamma0"], -H * c["eta0"]]
    back = solve_ivp(backward, (T, 0.0), yT, method="DOP853", rtol=tol,
                     atol=tol, dense_output=True)
    if not back.success:
        raise RuntimeError(f"oracle backward solve failed: {back.message}")

    def forward(t, y):
        alpha, beta, gamma, delta = gains(*back.sol(t))
        return [(A - B * (beta + gamma) / alpha) * y[0] - B * delta / alpha + f]

    fwd = solve_ivp(forward, (0.0, T), [m0], method="DOP853", rtol=tol,
                    atol=tol, dense_output=True)
    if not fwd.success:
        raise RuntimeError(f"oracle mean-field solve failed: {fwd.message}")
    P, K, phi = back.sol(nodes)
    return {"P": P, "K": K, "phi": phi, "xbar": fwd.sol(nodes)[0]}


def reference(config: dict, grid_steps: int) -> dict:
    """Oracle P, K, phi and xbar at the M+1 grid nodes, plus `resolution`:
    the largest relative sup-distance between the solves at the two
    tolerances, which bounds how finely the oracle can judge an error."""
    c = constants(config)
    T = float(config["grid"]["T"])
    nodes = T * np.arange(grid_steps + 1) / grid_steps
    tight = _solve(c, T, initial_mean(config), nodes, TIGHT)
    loose = _solve(c, T, initial_mean(config), nodes, LOOSE)
    tight["resolution"] = max(rel_sup_err(loose[k], tight[k]) for k in loose)
    tight["t"] = nodes
    return tight
