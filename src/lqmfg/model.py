"""Game data: uniform time grid, scalar coefficient profiles, initial laws.

The model is scalar throughout: one state, one control, one Brownian motion
per agent.  Dynamics and running cost are

    dx_i = [A x_i + B u_i + f] dt + [C x_i + D u_i + g] dW_i,
    J_i  = 1/2 E{ int_0^T [ Q (x_i - Gamma x^(N) - eta)^2 + R u_i^2 ] dt
                  + H (x_i(T) - Gamma0 x^(N)(T) - eta0)^2 },

with A..eta deterministic functions of time and H, Gamma0, eta0 constants.
Coefficients are either constant or sampled on the grid nodes with
piecewise-linear evaluation in between.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelConfigError


def _number(value, what: str) -> float:
    """value as a finite float: numbers and numeric strings pass.  A bool or
    numpy bool (JSON true and false are not 1 and 0), anything else float()
    rejects, an integer too large for a float and a nan or infinity are each
    a ModelConfigError naming `what`."""
    if isinstance(value, (bool, np.bool_)):
        raise ModelConfigError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ModelConfigError(f"{what} is not numeric: {value!r}") from None
    except OverflowError:
        raise ModelConfigError(f"{what} is too large for a float") from None
    if not math.isfinite(x):
        raise ModelConfigError(f"{what} must be finite, got {x!r}")
    return x


def _as_int(value, what: str) -> int:
    """value as an int: integral numbers and integer strings pass; a bool or
    numpy bool, a fraction or anything else is a ModelConfigError."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or isinstance(value, (bool, np.bool_)) or (
            not isinstance(value, str) and n != value):
        raise ModelConfigError(f"{what} must be an integer, got {value!r}")
    return n


def _population_size(N, what: str = "population size", least: int = 1) -> int:
    """N as an int if it is an integer >= least, not a bool; otherwise a
    ModelConfigError that names it as `what`."""
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
        raise ModelConfigError(f"{what} must be an integer, got {N!r}")
    if N < least:
        raise ModelConfigError(f"{what} must be >= {least}, got {N!r}")
    return int(N)


def _seed(seed) -> int:
    """seed as an int if it keys a 64-bit Philox stream: an integer in
    [0, 2^64), not a bool; otherwise a ModelConfigError."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= int(seed) < 2 ** 64):
        raise ModelConfigError(f"seed must be an integer in [0, 2^64), "
                               f"got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*dt on [0, T] with dt = T/M."""

    T: float
    M: int

    def __post_init__(self):
        object.__setattr__(self, "T", _number(self.T, "horizon T"))
        if not self.T > 0.0:
            raise ModelConfigError(f"horizon T must be finite and positive, got {self.T}")
        object.__setattr__(self, "M",
                           _population_size(self.M, "step count M", 2))

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def nodes(self) -> np.ndarray:
        # linspace pins t_M = T exactly
        return np.linspace(0.0, self.T, self.M + 1)


@dataclass(frozen=True, eq=False)
class TimeProfile:
    """A scalar function of time: TimeProfile(value) is constant, and
    TimeProfile(values=..., grid=grid) holds its M+1 node samples as one
    read-only float64 array, linear in between.  An integer or floating
    array is checked whole, other samples one by one as _number reads them.
    Profiles compare by identity."""

    value: float = 0.0               # constant profile
    values: np.ndarray = ()          # sampled profile, length M+1
    grid: TimeGrid | None = None     # sampled profile; None when constant

    def __post_init__(self):
        if self.grid is None:
            if np.size(self.values):
                raise ModelConfigError("sampled profile values need a grid")
            object.__setattr__(self, "value",
                               _number(self.value, "constant coefficient"))
            return
        values = self.values
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
            items = np.asarray(values, dtype=object)
            values = np.reshape([_number(v, "sampled profile value")
                                 for v in items.flat], items.shape)
        arr = np.array(values, dtype=float)  # a copy no caller holds
        if arr.ndim != 1 or arr.size != self.grid.M + 1:
            raise ModelConfigError(
                f"sampled profile needs M+1={self.grid.M + 1} values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ModelConfigError("sampled profile contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def is_constant(self) -> bool:
        return self.grid is None

    def node_values(self, grid: TimeGrid) -> np.ndarray:
        """Values at the M+1 nodes of `grid` (must match the sampling grid),
        read-only: a sampled profile's own array, a constant's a view of its
        one value."""
        if self.is_constant:
            return np.broadcast_to(self.value, grid.M + 1)
        if self.grid != grid:
            raise ModelConfigError("sampled profile is not aligned to the requested grid")
        return self.values

    def half_values(self, grid: TimeGrid) -> np.ndarray:
        """Values at the 2M+1 half-grid points t_j = j*dt/2, a read-only
        view for a constant profile as at the nodes.

        Odd indices are cell midpoints, the mean of their two nodes; this is
        what the RK4 stages consume.
        """
        if self.is_constant:
            return np.broadcast_to(self.value, 2 * grid.M + 1)
        return half_interp(self.node_values(grid))


def half_interp(node_vals) -> np.ndarray:
    """Interleave node values with their cell midpoints (length 2M+1).

    Matches TimeProfile.half_values, so solver outputs sampled at nodes can be
    fed back into half-step stage evaluations consistently.
    """
    v = np.asarray(node_vals, dtype=float)
    out = np.empty(2 * v.size - 1)
    out[0::2] = v
    out[1::2] = 0.5 * (v[:-1] + v[1:])
    return out


@dataclass(frozen=True)
class InitialLaw:
    """Distribution of the i.i.d. initial states; `mean` is its analytic mean."""

    kind: str                 # "uniform" | "gaussian" | "point"
    a: float = 0.0            # uniform: lower; gaussian: mean; point: value
    b: float = 0.0            # uniform: upper; gaussian: variance

    def __post_init__(self):
        kind = self.kind
        if not isinstance(kind, str) or kind not in _INITIAL_KEYS:
            raise ModelConfigError(f"unknown initial law kind {kind!r}")
        what = dict(uniform="uniform support bound", point="point mass",
                    gaussian="gaussian parameter")[kind]
        a, b = (_number(v, what) for v in (self.a, self.b))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        # b - a and the mean must be finite too: the sampler draws
        # a + (b - a) u, and the mean-field path starts at the mean
        if kind == "uniform" and not (
                math.isfinite(b - a) and a <= b and math.isfinite(self.mean)):
            raise ModelConfigError(f"bad uniform support [{a}, {b}]")
        if kind == "gaussian" and b < 0.0:
            raise ModelConfigError(f"bad gaussian parameters mean={a}, var={b}")

    @staticmethod
    def uniform(a: float, b: float) -> "InitialLaw":
        return InitialLaw(kind="uniform", a=a, b=b)

    @staticmethod
    def gaussian(mean: float, var: float) -> "InitialLaw":
        return InitialLaw(kind="gaussian", a=mean, b=var)

    @staticmethod
    def point(c: float) -> "InitialLaw":
        return InitialLaw(kind="point", a=c)

    @property
    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.a + self.b)
        return self.a  # gaussian mean / point value

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "uniform":
            # the bits of rng.uniform(a, b), at half its call cost
            return self.a + (self.b - self.a) * rng.random()
        if self.kind == "gaussian":
            return self.a + math.sqrt(self.b) * rng.standard_normal()
        return self.a


_PROFILE_NAMES = ("A", "B", "C", "D", "f", "g", "Q", "R", "Gamma", "eta")
_TERMINAL_NAMES = ("H", "Gamma0", "eta0")


@dataclass(frozen=True)
class CoefficientSet:
    """All model coefficients: ten time profiles plus three terminal scalars."""

    A: TimeProfile
    B: TimeProfile
    C: TimeProfile
    D: TimeProfile
    f: TimeProfile
    g: TimeProfile
    Q: TimeProfile
    R: TimeProfile
    Gamma: TimeProfile
    eta: TimeProfile
    H: float
    Gamma0: float
    eta0: float

    def __post_init__(self):
        for name in _TERMINAL_NAMES:
            object.__setattr__(self, name, _number(getattr(self, name),
                                                   f"terminal scalar {name}"))

    @staticmethod
    def from_constants(*, A=0.0, B=0.0, C=0.0, D=0.0, f=0.0, g=0.0,
                       Q=0.0, R=0.0, Gamma=0.0, eta=0.0,
                       H=0.0, Gamma0=0.0, eta0=0.0) -> "CoefficientSet":
        c = TimeProfile
        return CoefficientSet(A=c(A), B=c(B), C=c(C), D=c(D), f=c(f), g=c(g),
                              Q=c(Q), R=c(R), Gamma=c(Gamma), eta=c(eta),
                              H=H, Gamma0=Gamma0, eta0=eta0)

    def to_dict(self) -> dict:
        """JSON-compatible representation, used for fingerprinting."""
        out = {name: getattr(self, name) for name in _TERMINAL_NAMES}
        for name in _PROFILE_NAMES:
            p: TimeProfile = getattr(self, name)
            out[name] = p.value if p.is_constant else p.values.tolist()
        return out

    def node_values(self, grid: TimeGrid) -> dict:
        """{name: values at the M+1 nodes} for the ten time profiles."""
        return {name: getattr(self, name).node_values(grid)
                for name in _PROFILE_NAMES}

    def half_values(self, grid: TimeGrid) -> dict:
        """{name: values at the 2M+1 half-grid points} for the ten profiles."""
        return {name: getattr(self, name).half_values(grid)
                for name in _PROFILE_NAMES}


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption checks; indefinite R is a flag, not an error."""

    q_nonnegative: bool
    h_nonnegative: bool
    r_indefinite: bool
    messages: tuple

    @property
    def a3_holds(self) -> bool:
        return self.q_nonnegative and self.h_nonnegative


def validate(coeffs: CoefficientSet, grid: TimeGrid) -> ValidationReport:
    """Check state-weight nonnegativity, flag indefinite control weight (a
    negative R is permitted).  Every coefficient is finite by construction.
    """
    messages = []
    nv = coeffs.node_values(grid)
    q_ok = bool(np.all(nv["Q"] >= 0.0))
    h_ok = coeffs.H >= 0.0
    r_indef = bool(np.any(nv["R"] < 0.0))
    if not q_ok:
        messages.append("state weight Q is negative at some node")
    if not h_ok:
        messages.append(f"terminal weight H={coeffs.H} is negative")
    if r_indef:
        messages.append("indefinite control weight: R < 0 at some node (allowed)")
    return ValidationReport(q_nonnegative=q_ok, h_nonnegative=h_ok,
                            r_indefinite=r_indef, messages=tuple(messages))


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

def canonical_fingerprint(data) -> str:
    """sha256 of the canonical JSON encoding; invariant under key reordering."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# The model sections' keys: the grid's with their readers, and initial's per
# kind in the order its InitialLaw constructor takes them
_GRID_KEYS = {"T": (_number, "horizon T"), "M": (_as_int, "grid M")}
_COEFFICIENT_NAMES = _PROFILE_NAMES + _TERMINAL_NAMES
_INITIAL_KEYS = {"uniform": ("a", "b"), "gaussian": ("mean", "var"),
                 "point": ("value",)}


def parse_grid(cfg: dict) -> TimeGrid:
    try:
        g = cfg["grid"]
        return TimeGrid(**{key: read(g[key], what)
                           for key, (read, what) in _GRID_KEYS.items()})
    except (KeyError, TypeError) as exc:
        raise ModelConfigError(f"bad or missing grid section: {exc}") from exc


def parse_coefficients(cfg: dict, grid: TimeGrid) -> CoefficientSet:
    section = cfg.get("coefficients")
    if not isinstance(section, dict):
        raise ModelConfigError("missing or malformed 'coefficients' section")
    kwargs = {}
    for name in _COEFFICIENT_NAMES:
        if name not in section:
            raise ModelConfigError(f"missing coefficient {name!r}")
        raw, what = section[name], f"coefficient {name!r}"
        if name not in _PROFILE_NAMES:
            kwargs[name] = _number(raw, what)
        elif isinstance(raw, (list, tuple)):
            # an array, so that the profile reads each value once
            kwargs[name] = TimeProfile(
                values=np.array([_number(v, what) for v in raw]), grid=grid)
        else:
            kwargs[name] = TimeProfile(value=_number(raw, what))
    return CoefficientSet(**kwargs)


def parse_initial_law(cfg: dict) -> InitialLaw:
    try:
        section = cfg["initial"]
        kind = section["kind"]
        keys = _INITIAL_KEYS.get(kind, ()) if isinstance(kind, str) else ()
        return InitialLaw(kind, *(section[k] for k in keys))
    except (KeyError, TypeError) as exc:
        raise ModelConfigError(f"bad or missing initial-law section: {exc}") from exc


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice is a ModelConfigError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ModelConfigError(f"config key {key!r} is given twice")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    """Read a JSON config file; raises ModelConfigError on a file that is no
    UTF-8 JSON, or that gives a key twice in one object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError as exc:
        raise ModelConfigError(f"config file not found: {path}") from exc
    except (ValueError, RecursionError) as exc:  # UTF-8 errors are ValueErrors
        raise ModelConfigError(f"config file is not valid JSON: {exc}") from exc
