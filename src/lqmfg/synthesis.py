"""Mean-field trajectory and feedback strategy laws.

A strategy law is a sampled feedback rule

    u_i(t_k) = k_self[k] x_i(t_k) + k_mean[k] m(t_k) + k_const[k],

where m is either a precomputed deterministic mean-field path or the
realized population average.  Laws are plain sampled arrays rather than
closures so they can be serialized, diffed, scaled, and replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelConfigError
from .model import CoefficientSet, TimeGrid, _number, half_interp
from .riccati import GainSchedule, _rk4_affine, _stage_rows

LAW_KINDS = ("decentralized", "centralized", "zero", "scaled",
             "meanfield-informed")


@dataclass(frozen=True)
class MeanFieldPath:
    """Deterministic population-average trajectory at the grid nodes."""

    grid: TimeGrid
    values: np.ndarray


@dataclass(frozen=True)
class StrategyLaw:
    """Sampled feedback law; m(t_k) is xbar[k], or the realized population
    average when xbar is None."""

    kind: str
    grid: TimeGrid
    k_self: np.ndarray
    k_mean: np.ndarray
    k_const: np.ndarray
    xbar: np.ndarray | None = None    # the precomputed mean-field path
    theta: float | None = None        # scaled kind only

    @property
    def mean_source(self) -> str:
        return "realized" if self.xbar is None else "precomputed"

    @property
    def label(self) -> str:
        if self.kind == "scaled":
            return f"scaled({self.theta:g})"
        return self.kind


def solve_mean_field(coeffs: CoefficientSet, gains: GainSchedule,
                     xi_bar: float, grid: TimeGrid) -> MeanFieldPath:
    """Forward RK4 for the deterministic mean-field ODE.

    dxbar/dt = [A - B(beta+gamma)/alpha] xbar - B delta/alpha + f,
    started from the analytic initial mean xi_bar.  Gains must be the limit
    gains on `grid`; half-step values are linear interpolants of the node
    schedules, consistent with the profile rule used everywhere else.  A
    path that stops being finite raises NonSolvableError at that node.
    """
    if gains.N is not None:
        raise ModelConfigError("mean-field ODE needs limit gains, "
                               f"got gains for N={gains.N}")
    if gains.grid != grid:
        raise ModelConfigError(f"gains on {gains.grid} do not match the "
                               f"mean-field grid {grid}")
    ah, bh, gh, dh = (half_interp(x) for x in (gains.alpha, gains.beta,
                                               gains.gamma, gains.delta))
    hc = coeffs.half_values(grid)
    lin = hc["A"] - hc["B"] * (bh + gh) / ah
    cst = -hc["B"] * dh / ah + hc["f"]
    values = _rk4_affine(_stage_rows(lin, False), _stage_rows(cst, False),
                         xi_bar, grid, "mean-field trajectory", math.inf,
                         backward=False)
    return MeanFieldPath(grid=grid, values=values)


def _zero_law(grid: TimeGrid) -> StrategyLaw:
    """The law u = 0 on the grid; it reads no gains."""
    z = np.zeros(grid.M + 1)
    return StrategyLaw("zero", grid, z, z.copy(), z.copy())


def make_law(kind: str, gains: GainSchedule,
             xbar: MeanFieldPath | None = None,
             theta: float | None = None) -> StrategyLaw:
    """Build a strategy law from a gain schedule.

    decentralized / scaled(theta) need limit gains plus a mean-field path on
    the gains' grid, and scaled a finite theta; centralized needs population
    gains; zero and meanfield-informed need no mean-field path.  Mismatches
    raise ModelConfigError.
    """
    if kind not in LAW_KINDS:
        raise ModelConfigError(f"unknown strategy kind {kind!r}")
    grid = gains.grid
    if kind == "zero":
        return _zero_law(grid)
    if (kind == "centralized") != (gains.N is not None):
        need = "limit" if gains.N is not None else "finite-population"
        raise ModelConfigError(f"{kind} law needs {need} gains")
    k_self = -gains.beta / gains.alpha
    k_mean = -gains.gamma / gains.alpha
    k_const = -gains.delta / gains.alpha
    if kind in ("centralized", "meanfield-informed"):
        return StrategyLaw(kind=kind, grid=grid, k_self=k_self, k_mean=k_mean,
                           k_const=k_const)

    # decentralized and scaled both track the precomputed mean-field path
    if xbar is None:
        raise ModelConfigError(f"{kind} law needs a mean-field path")
    if xbar.grid != grid:
        raise ModelConfigError(f"mean-field path on {xbar.grid} does not "
                               f"match the gains' grid {grid}")
    if kind == "scaled":
        th = _number(theta, "scaling factor theta")
        return StrategyLaw(kind=kind, grid=grid, k_self=th * k_self,
                           k_mean=th * k_mean, k_const=th * k_const,
                           xbar=xbar.values, theta=th)
    return StrategyLaw(kind="decentralized", grid=grid, k_self=k_self,
                       k_mean=k_mean, k_const=k_const, xbar=xbar.values)
