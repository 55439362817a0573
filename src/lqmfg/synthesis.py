"""Mean-field trajectory and feedback strategy laws.

A strategy law is a sampled feedback rule

    u_i(t_k) = k_self[k] x_i(t_k) + k_mean[k] m(t_k) + k_const[k],

where m is either a precomputed deterministic mean-field path or the
realized population average.  Laws are plain sampled arrays rather than
closures so they can be serialized, diffed, scaled, and replayed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ModelConfigError
from .model import CoefficientSet, TimeGrid, _number, half_interp
from .riccati import GainSchedule, _rk4_affine, _stage_rows

# what each law kind reads: limit gains, their mean-field path, N-player gains
_READS = {"decentralized": ("limit", "mean"), "centralized": ("finite",),
          "zero": (), "scaled": ("limit", "mean"),
          "meanfield-informed": ("limit",)}
LAW_KINDS = tuple(_READS)


def _spec(kind, theta) -> tuple:
    """(kind, theta) checked: a known kind, with theta a finite number for
    scaled (returned as a float) and None for every other kind."""
    if kind not in _READS:
        raise ModelConfigError(f"unknown strategy kind {kind!r}")
    if kind != "scaled":
        if theta is not None:
            raise ModelConfigError(f"only a scaled law takes a scaling factor "
                                   f"theta; the {kind} law got {theta!r}")
        return kind, None
    if theta is None:
        raise ModelConfigError("a scaled law needs a scaling factor theta")
    return kind, _number(theta, "scaling factor theta")


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
        """The kind, or scaled(theta) with theta in :g form if that reads
        back exactly, else in full; _parse_label reads it back."""
        if self.kind != "scaled":
            return self.kind
        short = f"{self.theta:g}"
        return f"scaled({short if float(short) == self.theta else self.theta})"


def _parse_label(label: str) -> tuple:
    """The (kind, theta) spec a label names: a law kind, or scaled(theta)
    with theta a float literal; _spec checks the spec itself."""
    if m := re.fullmatch(r"scaled\(([-+.0-9eE]*)\)", label):
        return "scaled", _number(m.group(1), "scaling factor theta")
    if label in _READS:
        return label, None
    raise ModelConfigError(f"unknown deviation label {label!r}")


def solve_mean_field(coeffs: CoefficientSet, gains: GainSchedule,
                     xi_bar: float, grid: TimeGrid) -> MeanFieldPath:
    """Forward RK4 for the deterministic mean-field ODE.

    dxbar/dt = [A - B(beta+gamma)/alpha] xbar - B delta/alpha + f,
    started from the analytic initial mean xi_bar.  Gains must be the limit
    gains on `grid`; half-step values are linear interpolants of the node
    schedules, as for the profiles.  An initial mean that is not a finite
    number is a ModelConfigError; a path that stops being finite raises
    NonSolvableError at that node.
    """
    if gains.N is not None:
        raise ModelConfigError("mean-field ODE needs limit gains, "
                               f"got gains for N={gains.N}")
    if gains.grid != grid:
        raise ModelConfigError(f"gains on {gains.grid} do not match the "
                               f"mean-field grid {grid}")
    xi_bar = _number(xi_bar, "initial mean")
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

    _spec checks (kind, theta); the kind's _READS entry says whether gains
    must be limit or population gains and whether xbar, on the gains' grid,
    is read.  A bad spec or a mismatch raises ModelConfigError before the
    gains are read.
    """
    kind, theta = _spec(kind, theta)
    reads, grid = _READS[kind], gains.grid
    if not reads:
        return _zero_law(grid)
    if ("finite" in reads) != (gains.N is not None):
        need = "limit" if gains.N is not None else "finite-population"
        raise ModelConfigError(f"{kind} law needs {need} gains")
    if "mean" in reads and xbar is None:
        raise ModelConfigError(f"{kind} law needs a mean-field path")
    if "mean" in reads and xbar.grid != grid:
        raise ModelConfigError(f"mean-field path on {xbar.grid} does not "
                               f"match the gains' grid {grid}")
    ks = [-x / gains.alpha for x in (gains.beta, gains.gamma, gains.delta)]
    if kind == "scaled":
        ks = [theta * k for k in ks]
    return StrategyLaw(kind, grid, *ks, theta=theta,
                       xbar=xbar.values if "mean" in reads else None)
