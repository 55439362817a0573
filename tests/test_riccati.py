"""Backward solver behaviour: oracles, orders, degeneracies, errors."""

import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lqmfg.errors import ModelConfigError, NonSolvableError, SingularGainError
from lqmfg.model import (CoefficientSet, TimeGrid, TimeProfile, half_interp,
                         parse_coefficients)
from lqmfg.riccati import (
    GainSchedule,
    RiccatiSolution,
    _least_weight,
    _rk4_affine,
    _stage_rows,
    convexity_margin,
    gains,
    solve_finite_N,
    solve_limit,
)
from lqmfg.synthesis import solve_mean_field
from oracles import convexity_probe, em_margin

ALL_ONES = CoefficientSet.from_constants(A=1, B=1, C=1, D=1, f=1, g=1,
                                         Q=1, R=1, Gamma=1, eta=1,
                                         H=1, Gamma0=1, eta0=1)

MIXED = CoefficientSet.from_constants(A=0.5, B=1.0, C=0.3, D=0.4, f=0.1,
                                      g=0.2, Q=2.0, R=1.0, Gamma=0.0,
                                      eta=0.5, H=1.5, Gamma0=0.0, eta0=0.7)


def test_tanh_closed_form():
    # A=C=D=0, B=Q=R=1, H=0: P' = P^2 - 1 backward from 0, so P(t)=tanh(T-t)
    grid = TimeGrid(T=1.0, M=1000)
    coeffs = CoefficientSet.from_constants(B=1.0, Q=1.0, R=1.0, H=0.0)
    sol = solve_limit(coeffs, grid)
    err = np.max(np.abs(sol.P - np.tanh(1.0 - grid.nodes)))
    assert err <= 1e-8


def test_zero_terminal_and_source_data_gives_zero_solution():
    grid = TimeGrid(T=1.0, M=200)
    coeffs = CoefficientSet.from_constants(A=0.3, B=1.0, C=0.2, D=0.5,
                                           Q=0.0, R=1.0, Gamma=0.7,
                                           H=0.0, Gamma0=0.3)
    sol = solve_limit(coeffs, grid)
    assert np.all(sol.P == 0.0)
    assert np.all(sol.K == 0.0)
    assert np.all(sol.phi == 0.0)


def test_all_ones_steady_state_and_terminal_rows():
    grid = TimeGrid(T=10.0, M=1000)
    sol = solve_limit(ALL_ONES, grid)
    # stationary point of P' = 0: P^2 - 4P - 1 = 0, stable root 2 + sqrt(5)
    assert abs(sol.P[0] - (2.0 + math.sqrt(5.0))) <= 1e-3
    assert sol.P[-1] == 1.0
    assert sol.K[-1] == -1.0
    assert sol.phi[-1] == -1.0
    # backward flow settles on the negative root of the K equation
    assert -1.0 < sol.K[0] < -0.9
    # comparison property: Q, H >= 0 and R > 0 keep P nonnegative
    assert np.all(sol.P >= 0.0)


def test_gamma_zero_forces_K_identically_zero():
    grid = TimeGrid(T=2.0, M=500)
    sol = solve_limit(MIXED, grid)
    assert np.all(sol.K == 0.0)


def test_terminal_conditions_bitwise():
    grid = TimeGrid(T=3.0, M=300)
    coeffs = CoefficientSet.from_constants(A=0.2, B=0.7, C=0.1, D=0.3,
                                           f=0.4, g=0.6, Q=1.2, R=0.9,
                                           Gamma=0.5, eta=0.8,
                                           H=1.7, Gamma0=0.6, eta0=0.4)
    sol = solve_limit(coeffs, grid)
    assert sol.P[-1] == coeffs.H
    assert sol.K[-1] == -coeffs.H * coeffs.Gamma0
    assert sol.phi[-1] == -coeffs.H * coeffs.eta0

    N = 7
    fin = solve_finite_N(coeffs, N, grid)
    scale = coeffs.H * (1.0 - coeffs.Gamma0 / N)
    assert fin.P[-1] == scale
    assert fin.K[-1] == -scale * coeffs.Gamma0
    assert fin.phi[-1] == -scale * coeffs.eta0


def test_grid_refinement_orders():
    # P converges at 4th order; K and phi are capped at 2nd order by the
    # linear half-step interpolation feeding their stage coefficients.
    ref = solve_limit(ALL_ONES, TimeGrid(T=10.0, M=32000))

    def errs(M):
        s = solve_limit(ALL_ONES, TimeGrid(T=10.0, M=M))
        stride = 32000 // M
        return (np.max(np.abs(s.P - ref.P[::stride])),
                np.max(np.abs(s.K - ref.K[::stride])),
                np.max(np.abs(s.phi - ref.phi[::stride])))

    eP1, eK1, eF1 = errs(125)
    eP2, eK2, eF2 = errs(250)
    assert 8.0 <= eP1 / eP2 <= 32.0
    assert 3.0 <= eK1 / eK2 <= 6.0
    assert 3.0 <= eF1 / eF2 <= 6.0


def test_finite_N_degenerates_to_limit_without_mean_coupling():
    grid = TimeGrid(T=2.0, M=20000)
    lim = solve_limit(MIXED, grid)
    for N in (1, 10, 1000):
        fin = solve_finite_N(MIXED, N, grid)
        assert np.all(fin.K == 0.0)
        assert np.max(np.abs(fin.P - lim.P)) <= 1e-9
        assert np.max(np.abs(fin.phi - lim.phi)) <= 1e-9


def test_finite_N_error_halves_when_N_doubles():
    grid = TimeGrid(T=10.0, M=1000)
    lim = solve_limit(ALL_ONES, grid)
    errors = []
    for N in (10, 20, 40, 80):
        fin = solve_finite_N(ALL_ONES, N, grid)
        errors.append(np.max(np.abs(fin.P - lim.P)))
    for e1, e2 in zip(errors, errors[1:]):
        assert 0.3 <= e2 / e1 <= 0.7


def test_finite_N_huge_population_matches_limit():
    grid = TimeGrid(T=10.0, M=1000)
    lim = solve_limit(ALL_ONES, grid)
    fin = solve_finite_N(ALL_ONES, 10**6, grid)
    assert np.max(np.abs(fin.P - lim.P)) <= 1e-5


def test_finite_N_rejects_sizes_that_are_not_integers():
    # 10.5 once solved a 10.5-player system and True returned N = True; a
    # numpy integer is still a size
    grid = TimeGrid(T=1.0, M=20)
    for N in (10.5, True):
        with pytest.raises(ModelConfigError, match=re.escape(f"got {N!r}")):
            solve_finite_N(ALL_ONES, N, grid)
    fin = solve_finite_N(ALL_ONES, np.int64(10), grid)
    assert fin.N == 10 and type(fin.N) is int
    np.testing.assert_array_equal(fin.P, solve_finite_N(ALL_ONES, 10, grid).P)


def test_identically_singular_weight_raises():
    grid = TimeGrid(T=1.0, M=100)
    coeffs = CoefficientSet.from_constants(A=1.0, B=1.0, Q=1.0, R=0.0, H=1.0)
    with pytest.raises(SingularGainError) as exc:
        solve_limit(coeffs, grid)
    assert exc.value.t is not None
    with pytest.raises(SingularGainError):
        solve_finite_N(coeffs, 10, grid)


def test_blow_up_is_reported_with_time():
    # R < 0 flips the quadratic term: backward flow hits a pole before t=0
    grid = TimeGrid(T=2.0, M=2000)
    coeffs = CoefficientSet.from_constants(B=1.0, Q=1.0, R=-1.0, H=1.0)
    with pytest.raises(NonSolvableError) as exc:
        solve_limit(coeffs, grid)
    assert exc.value.t is not None
    assert 0.0 <= exc.value.t < 2.0


def test_gain_formulas_match_direct_evaluation():
    grid = TimeGrid(T=3.0, M=300)
    coeffs = CoefficientSet.from_constants(A=0.2, B=0.7, C=0.1, D=0.3,
                                           f=0.4, g=0.6, Q=1.2, R=0.9,
                                           Gamma=0.5, eta=0.8,
                                           H=1.7, Gamma0=0.6, eta0=0.4)
    sol = solve_limit(coeffs, grid)
    gs = gains(sol, coeffs)
    assert isinstance(gs, GainSchedule) and gs.N is None
    tight = dict(rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(gs.alpha, 0.9 + sol.P * 0.3**2, **tight)
    np.testing.assert_allclose(gs.beta, 0.7 * sol.P + sol.P * 0.1 * 0.3, **tight)
    np.testing.assert_allclose(gs.gamma, 0.7 * sol.K, **tight)
    np.testing.assert_allclose(gs.delta, 0.7 * sol.phi + sol.P * 0.6 * 0.3, **tight)

    N = 1
    fin = solve_finite_N(coeffs, N, grid)
    gf = gains(fin, coeffs)
    assert gf.N == 1
    np.testing.assert_allclose(gf.alpha, 0.9 + (fin.P + fin.K) * 0.3**2, **tight)


def test_gains_collapse_without_control_channels():
    grid = TimeGrid(T=1.0, M=100)
    coeffs = CoefficientSet.from_constants(A=0.5, C=0.2, Q=1.0, R=2.0,
                                           g=0.3, H=1.0)
    sol = solve_limit(coeffs, grid)
    gs = gains(sol, coeffs)
    np.testing.assert_array_equal(gs.alpha, np.full(101, 2.0))
    assert np.all(gs.beta == 0.0)
    assert np.all(gs.gamma == 0.0)
    assert np.all(gs.delta == 0.0)


def test_gains_reject_small_alpha():
    grid = TimeGrid(T=1.0, M=10)
    coeffs = CoefficientSet.from_constants(B=1.0, D=1.0, R=0.0, Q=0.0, H=0.0)
    z = np.zeros(11)
    sol = RiccatiSolution(grid=grid, P=z, K=z, phi=z)
    with pytest.raises(SingularGainError) as exc:
        gains(sol, coeffs)
    assert "t=" in str(exc.value)


# Reference steppers: the backward sweeps as they were written before the
# linear equations were stepped as affine maps and (P_N, K_N) in
# completed-square form.  Every stage calls its right-hand side, the limit
# solves P, K and phi one after another, and the population system steps
# (P_N, K_N, phi_N) jointly.

def reference_rk4(f, y0, grid, name, bound=1e8, backward=True):
    """y' = f(j, y) from y0 at t=T (backward) or t=0; j indexes the half
    grid.  NonSolvableError once y leaves (-bound, bound)."""
    M, dt = grid.M, grid.dt
    if backward:
        h, o, nodes = -dt, 1, range(M - 1, -1, -1)
    else:
        h, o, nodes = dt, -1, range(1, M + 1)
    out = [0.0] * (M + 1)
    y = float(y0)
    out[nodes[0] + o] = y
    for k in nodes:
        j = 2 * k
        k1 = f(j + 2 * o, y)
        k2 = f(j + o, y + 0.5 * h * k1)
        k3 = f(j + o, y + 0.5 * h * k2)
        k4 = f(j, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        if not -bound < y < bound:
            raise NonSolvableError(f"{name} left the bound", t=k * dt)
        out[k] = y
    return np.asarray(out)


def reference_limit(coeffs, grid, weights=None):
    """(P, K, phi): P, then K from P, then phi from P and K.  The weights
    R + D^2 P of P's RK4 stages, then of the half grid, are appended to
    `weights` when it is a list."""
    hc = coeffs.half_values(grid)
    dt = grid.dt
    lin = (2.0 * hc["A"] + hc["C"] ** 2).tolist()
    src = hc["Q"].tolist()
    num = ((hc["B"] + hc["C"] * hc["D"]) ** 2).tolist()
    rr = hc["R"].tolist()
    d2 = (hc["D"] ** 2).tolist()

    def f_p(j, y):
        den = rr[j] + d2[j] * y
        if weights is not None:
            weights.append(den)
        if abs(den) < 1e-10:
            raise SingularGainError("small weight", t=j * dt / 2)
        return -lin[j] * y - src[j] + num[j] * y * y / den

    P = reference_rk4(f_p, coeffs.H, grid, "P")
    Ph = half_interp(P)
    alpha_h = hc["R"] + hc["D"] ** 2 * Ph
    if weights is not None:
        weights.extend(alpha_h)
    beta_h = hc["B"] * Ph + Ph * hc["C"] * hc["D"]
    k0 = (hc["Q"] * hc["Gamma"]).tolist()
    k1c = (2.0 * (hc["B"] * beta_h / alpha_h - hc["A"])).tolist()
    k2c = (hc["B"] ** 2 / alpha_h).tolist()
    K = reference_rk4(lambda j, y: k0[j] + (k1c[j] + k2c[j] * y) * y,
                      -coeffs.H * coeffs.Gamma0, grid, "K")
    Kh = half_interp(K)
    w = (Kh * hc["B"] + beta_h) / alpha_h
    p0 = (w * Ph * hc["g"] * hc["D"] - hc["f"] * (Ph + Kh)
          - hc["C"] * Ph * hc["g"] + hc["Q"] * hc["eta"])
    p1 = w * hc["B"] - hc["A"]
    phi = reference_rk4(lambda j, y: p0[j] + p1[j] * y,
                        -coeffs.H * coeffs.eta0, grid, "phi")
    return P, K, phi


def reference_finite_N(coeffs, N, grid, weights=None):
    """(P_N, K_N, phi_N) stepped jointly, each stage the full right-hand
    side of all three.  Every stage's weight is appended to `weights` when
    it is a list."""
    hc = coeffs.half_values(grid)
    M, dt = grid.M, grid.dt
    h = -dt
    a, b, c, d, f, g, r, gam, eta = (hc[name] for name in (
        "A", "B", "C", "D", "f", "g", "R", "Gamma", "eta"))
    qe = hc["Q"] * (1.0 - gam / N)

    def rhs(j, p, k, ph):
        s = p + k / N
        alpha = r[j] + s * d[j] * d[j]
        if weights is not None:
            weights.append(alpha)
        if abs(alpha) < 1e-10:
            raise SingularGainError("small weight", t=j * dt / 2)
        beta = b[j] * p + s * c[j] * d[j]
        gamma = b[j] * k
        delta = b[j] * ph + s * g[j] * d[j]
        dp = (-2.0 * a[j] * p + p * b[j] * beta / alpha
              - c[j] * s * (c[j] - d[j] * beta / alpha) - qe[j])
        dk = (-2.0 * a[j] * k + p * b[j] * gamma / alpha
              + k * b[j] * (beta + gamma) / alpha
              + c[j] * d[j] * s * gamma / alpha + qe[j] * gam[j])
        dph = (-f[j] * (p + k) - a[j] * ph + (p + k) * b[j] * delta / alpha
               - c[j] * s * (g[j] - d[j] * delta / alpha) + qe[j] * eta[j])
        return np.array([dp, dk, dph])

    scale = coeffs.H * (1.0 - coeffs.Gamma0 / N)
    y = np.array([scale, -scale * coeffs.Gamma0, -scale * coeffs.eta0])
    out = np.empty((M + 1, 3))
    out[M] = y
    for step in range(M - 1, -1, -1):
        j = 2 * step
        k1 = rhs(j + 2, *y)
        k2 = rhs(j + 1, *(y + 0.5 * h * k1))
        k3 = rhs(j + 1, *(y + 0.5 * h * k2))
        k4 = rhs(j, *(y + h * k3))
        y = y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.all(np.abs(y) < 1e8):
            raise NonSolvableError("(P_N, K_N, phi_N) left the bound",
                                   t=step * dt)
        out[step] = y
    return out.T


def reference_sweep_stages(coeffs, N, grid):
    """(P_N, K_N) at the nodes and at each step's four RK4 stages, formed
    one step at a time in Python floats by the sweep's expressions in its
    order, as solve_finite_N's sweep forms them: nodes (M+1,) each, stages
    (4, M) each, steps in sweep order."""
    hc = coeffs.half_values(grid)
    M, dt, inv_n = grid.M, grid.dt, 1.0 / N
    h, hh, h6 = -dt, -0.5 * dt, -dt / 6.0
    qe = hc["Q"] * (1.0 - hc["Gamma"] * inv_n)
    cols = [x.tolist() for x in (hc["R"], hc["D"] ** 2, hc["B"],
                                 hc["C"] * hc["D"], 2.0 * hc["A"],
                                 hc["C"] ** 2, qe, qe * hc["Gamma"])]

    def slopes(j, p, k):
        r, e, b, x, a, c, q, g = (col[j] for col in cols)
        s = p + k * inv_n
        alpha = r + e * s
        beta, gamma = b * p + x * s, b * k
        return (beta * beta / alpha - a * p - c * s - q,
                gamma * (2.0 * beta + gamma) / alpha - a * k + g)

    scale = coeffs.H * (1.0 - coeffs.Gamma0 * inv_n)
    p, k = scale, -scale * coeffs.Gamma0
    P, K, Ps, Ks = [p], [k], [], []
    for step in range(M - 1, -1, -1):
        j = 2 * step
        dp1, dk1 = slopes(j + 2, p, k)
        p2, k2 = p + hh * dp1, k + hh * dk1
        dp2, dk2 = slopes(j + 1, p2, k2)
        p3, k3 = p + hh * dp2, k + hh * dk2
        dp3, dk3 = slopes(j + 1, p3, k3)
        p4, k4 = p + h * dp3, k + h * dk3
        dp4, dk4 = slopes(j, p4, k4)
        Ps.append((p, p2, p3, p4))
        Ks.append((k, k2, k3, k4))
        p = p + h6 * (dp1 + 2.0 * (dp2 + dp3) + dp4)
        k = k + h6 * (dk1 + 2.0 * (dk2 + dk3) + dk4)
        P.append(p)
        K.append(k)
    return (np.array(P[::-1]), np.array(K[::-1]), np.array(Ps).T,
            np.array(Ks).T)


SAMPLED_GRID = TimeGrid(T=1.0, M=300)
# sampled A and g, indefinite R
SAMPLED = dataclasses.replace(
    CoefficientSet.from_constants(B=1.2, C=0.3, D=2.0, f=0.2, Q=1.0, R=-0.2,
                                  Gamma=0.8, eta=1.0, H=1.0, Gamma0=0.6,
                                  eta0=0.5),
    A=TimeProfile.sampled(np.sin(np.arange(301) / 7.0), SAMPLED_GRID),
    g=TimeProfile.sampled(np.cos(np.arange(301) / 5.0), SAMPLED_GRID))


@pytest.mark.parametrize("coeffs, N, grid", [
    (ALL_ONES, 10, TimeGrid(T=10.0, M=1000)),
    (MIXED, 3, TimeGrid(T=2.0, M=500)),
    (SAMPLED, 6, SAMPLED_GRID)], ids=["allones", "mixed", "sampled"])
def test_stage_points_are_the_sweeps_own_floats(coeffs, N, grid,
                                                monkeypatch):
    # phi_N reads the (P_N, K_N) stage points, which _stage_points forms for
    # all steps at once after the sweep: they must be, bit for bit, the
    # floats a step-by-step sweep forms
    from lqmfg import riccati
    got = []

    def record(*args):
        got.append(stage_points(*args))
        return got[-1]

    stage_points = riccati._stage_points
    monkeypatch.setattr(riccati, "_stage_points", record)
    sol = solve_finite_N(coeffs, N, grid)
    want = reference_sweep_stages(coeffs, N, grid)
    for got_x, want_x in zip((sol.P, sol.K, *got[0]), want):
        assert got_x.shape == want_x.shape
        assert got_x.tobytes() == want_x.tobytes()


def reference_mean_field(coeffs, gs, xi_bar, grid):
    """The forward mean-field ODE, each stage calling its right-hand side."""
    hc = coeffs.half_values(grid)
    ah, bh, gh, dh = (half_interp(x) for x in (gs.alpha, gs.beta, gs.gamma,
                                                gs.delta))
    lin = hc["A"] - hc["B"] * (bh + gh) / ah
    cst = -hc["B"] * dh / ah + hc["f"]
    return reference_rk4(lambda j, y: lin[j] * y + cst[j], xi_bar, grid,
                         "mean-field trajectory", math.inf, backward=False)


def sup_rel(new, ref):
    return np.max(np.abs(new - ref)) / max(np.max(np.abs(ref)), 1e-300)


@st.composite
def coefficient_cases(draw):
    """(coeffs, grid): in about half the draws every profile is constant,
    so each sweep reads one row shared by all points; in the others A and
    about half the other profiles are sampled on the grid as
    c + a sin(w t + p).  R is indefinite in about a quarter of the draws,
    with D large enough that the weight may keep its sign."""
    grid = TimeGrid(T=draw(st.floats(0.2, 3.0)), M=draw(st.integers(30, 120)))
    small = (-1.0, 1.0)
    ranges = dict(A=small, B=(-1.5, 1.5), C=small, D=small, f=small, g=small,
                  Q=(0.0, 2.0), R=(0.3, 2.0), Gamma=small, eta=small)
    if draw(st.booleans()) and draw(st.booleans()):
        ranges.update(R=(-0.4, -0.1), D=(1.0, 2.0))
    profiles, varying = {}, draw(st.booleans())
    for name, (lo, hi) in ranges.items():
        c = draw(st.floats(lo, hi))
        if varying and (name == "A" or draw(st.booleans())):
            a = draw(st.floats(0.0, 1.0)) * min(c - lo, hi - c)
            w, p = draw(st.floats(0.5, 20.0)), draw(st.floats(0.0, 6.3))
            profiles[name] = TimeProfile.sampled(
                c + a * np.sin(w * grid.nodes + p), grid)
        else:
            profiles[name] = TimeProfile.constant(c)
    coeffs = CoefficientSet(**profiles, H=draw(st.floats(0.2, 2.0)),
                            Gamma0=draw(st.floats(*small)),
                            eta0=draw(st.floats(*small)))
    return coeffs, grid


# P + K/N nearly cancels on this draw: max|P| / min|P + K/N| is 2.0e4, and
# the reference's P_N is 1.48e-12 off a 50-digit RK4 of the same scheme,
# against 2.4e-13 for the solver
CANCELLING = (CoefficientSet.from_constants(
    A=0.28125, B=1.125, D=1.4375, R=-0.119140625, H=0.46875,
    Gamma0=0.79296875), TimeGrid(T=0.46875, M=30))

# the limit's weight R + D^2 P changes sign at an RK4 stage near t = 1.87
# while every half-grid and node weight keeps its sign; the draw is one the
# solver refuses, so it must be filtered out
STAGE_SIGN_CHANGE = (CoefficientSet.from_constants(
    B=1.0, D=1.0, R=-0.4, H=0.25, Gamma0=1.0), TimeGrid(T=2.0, M=38))


@settings(max_examples=160, deadline=None)
@given(case=coefficient_cases(), N=st.integers(1, 50))
@example(case=CANCELLING, N=1)
@example(case=STAGE_SIGN_CHANGE, N=1)
def test_solvers_match_the_reference_steppers(case, N):
    # the limit's P and K take the same steps as the reference, bit for bit,
    # over rows that share constant coefficients or a whole constant row;
    # phi, the population system and the mean-field path are the same RK4
    # with the arithmetic reordered, so they agree to roundoff.  For N
    # players that roundoff is amplified where P + K/N cancels, so the
    # bound grows with the cancellation past 1e-12
    coeffs, grid = case
    try:
        limit_weights, finite_weights = [], []
        P, K, phi = reference_limit(coeffs, grid, limit_weights)
        fin = reference_finite_N(coeffs, N, grid, finite_weights)
        # the weight keeps one sign at every evaluation the solvers check:
        # stages, half grid and nodes of the limit, stages and nodes of N
        # players
        R, D = coeffs.R.node_values(grid), coeffs.D.node_values(grid)
        for w in (limit_weights, finite_weights, R + D ** 2 * P,
                  R + D ** 2 * (fin[0] + fin[1] / N)):
            w = np.asarray(w)
            assume(np.all(w > 1e-6) or np.all(w < -1e-6))
        ref_xbar = reference_mean_field(
            coeffs, gains(RiccatiSolution(grid, P, K, phi), coeffs), 1.5, grid)
    except (NonSolvableError, SingularGainError):
        assume(False)
    lim = solve_limit(coeffs, grid)
    np.testing.assert_array_equal(lim.P, P)
    np.testing.assert_array_equal(lim.K, K)
    assert sup_rel(lim.phi, phi) <= 1e-12
    new = solve_finite_N(coeffs, N, grid)
    cancel = np.max(np.abs(fin[0])) / max(
        np.min(np.abs(fin[0] + fin[1] / N)), 1e-300)
    for got, want in zip((new.P, new.K, new.phi), fin):
        assert sup_rel(got, want) <= max(1e-12, np.finfo(float).eps * cancel)
    xbar = solve_mean_field(coeffs, gains(lim, coeffs), 1.5, grid).values
    assert sup_rel(xbar, ref_xbar) <= 1e-12


@pytest.mark.parametrize("backward", [True, False])
def test_affine_stepper_matches_the_closed_form(backward):
    # y' = v y + u with constant v, u: k RK4 steps of size h give
    # y_k = R(hv)^k (y0 + u/v) - u/v, R the stability polynomial
    grid = TimeGrid(T=2.0, M=400)
    v, u, y0 = -1.3, 0.7, 2.0
    h = -grid.dt if backward else grid.dt
    z = h * v
    growth = 1.0 + z + z * z / 2 + z ** 3 / 6 + z ** 4 / 24
    k = np.arange(grid.M + 1)
    exact = growth ** k * (y0 + u / v) - u / v
    y = _rk4_affine(np.full((4, grid.M), v), np.full((4, grid.M), u), y0,
                    grid, "y", backward=backward)
    np.testing.assert_allclose(y[::-1] if backward else y, exact,
                               rtol=1e-13, atol=0.0)


def test_affine_stepper_matches_the_reference_on_a_time_varying_equation():
    # a stage fed the wrong half-grid index shows only when the coefficients
    # vary in time
    grid = TimeGrid(T=1.5, M=60)
    j = np.arange(2 * grid.M + 1)
    v, u = np.sin(0.37 * j) - 0.5, np.cos(0.11 * j * j)
    for backward in (True, False):
        got = _rk4_affine(_stage_rows(v, backward), _stage_rows(u, backward),
                          0.8, grid, "y", backward=backward)
        want = reference_rk4(lambda j, y: v[j] * y + u[j], 0.8, grid, "y",
                             backward=backward)
        assert sup_rel(got, want) <= 1e-13


SAMPLED_A = np.linspace(-0.5, 0.5, 201).tolist()


@pytest.mark.parametrize("R, kind", [(0.0, SingularGainError),
                                     (-1.0, NonSolvableError)])
def test_errors_match_the_reference_steppers(R, kind):
    # the identically singular weight and the backward blow-up of R < 0
    # raise the same error, at most one step apart, with A constant (one
    # row shared by every point) and with A sampled
    grid = TimeGrid(T=2.0, M=200)
    constant = CoefficientSet.from_constants(B=1.0, Q=1.0, R=R, H=1.0)
    for coeffs in (constant, dataclasses.replace(
            constant, A=TimeProfile.sampled(SAMPLED_A, grid))):
        for solve, ref in ((lambda: solve_limit(coeffs, grid),
                            lambda: reference_limit(coeffs, grid)),
                           (lambda: solve_finite_N(coeffs, 5, grid),
                            lambda: reference_finite_N(coeffs, 5, grid))):
            with pytest.raises(kind) as want:
                ref()
            with pytest.raises(kind) as got:
                solve()
            assert abs(got.value.t - want.value.t) <= grid.dt


@pytest.mark.parametrize("name", ["B", "C"])
def test_a_coefficient_whose_square_overflows_is_a_solver_error(name):
    # 1.34e154 squares past the largest float; the overflow once escaped
    # the solvers as a RuntimeWarning, which fails a run that treats
    # warnings as errors, instead of ending in the blow-up it leads to
    grid = TimeGrid(T=1.0, M=2)
    coeffs = CoefficientSet.from_constants(Q=1.0, R=1.0, H=1.0,
                                           **{name: 1.3407807929942597e154})
    with pytest.raises(NonSolvableError, match="P left"):
        solve_limit(coeffs, grid)
    with pytest.raises(NonSolvableError, match=re.escape("(P_N, K_N) left")):
        solve_finite_N(coeffs, 4, grid)


def test_a_weight_whose_square_overflows_is_not_finite():
    # D^2 overflows, so R + D^2 P is inf everywhere; P was once solved as
    # if there were no control, and gains gave alpha = inf and zero gains.
    # With H = 0 the terminal weight R + inf 0 is NaN, which both sweeps
    # once passed on to report a blow-up of P at t=0.5.  convexity_margin
    # once read either failed sweep as the margin min(0, R + D^2 H) = 0
    grid = TimeGrid(T=1.0, M=2)
    z = np.zeros(3)
    sol = RiccatiSolution(grid, np.array([2.0, 1.5, 1.0]), z, z)
    for H in (1.0, 0.0):
        coeffs = CoefficientSet.from_constants(B=1.0, D=1e200, Q=1.0, R=1.0,
                                               H=H)
        for solve in (lambda: solve_limit(coeffs, grid),
                      lambda: solve_finite_N(coeffs, 4, grid),
                      lambda: gains(sol, coeffs),
                      lambda: convexity_margin(coeffs, grid),
                      lambda: convexity_margin(coeffs, grid, 4)):
            with pytest.raises(SingularGainError,
                               match="weight is not finite at t=1$") as exc:
                solve()
            assert exc.value.t == 1.0


# B = 0 and A = 0.5 give P' = -P - 1, so P = 2 e^(T - t) - 1 and the weight
# P - 1.5 changes sign at t = T - ln 1.25; with Gamma = 0, P_N = P
STAGED = CoefficientSet.from_constants(A=0.5, D=1.0, Q=1.0, R=-1.5, H=1.0)


@pytest.mark.parametrize("T, stage", [(0.52, 2), (0.8925, 3), (0.6, 4)])
def test_a_weight_failure_is_reported_at_its_stage(T, stage):
    # on ten steps each horizon puts the first weight of the wrong sign at
    # that RK4 stage of a step: stages 2 and 3 at its midpoint, 4 at its
    # end node
    grid = TimeGrid(T=T, M=10)
    for solve in (lambda: solve_limit(STAGED, grid),
                  lambda: solve_finite_N(STAGED, 3, grid)):
        with pytest.raises(SingularGainError, match="changes sign") as exc:
            solve()
        half = 2.0 * exc.value.t / grid.dt
        assert half == pytest.approx(round(half), abs=1e-9)
        assert round(half) % 2 == (stage < 4)
        assert abs(exc.value.t - (T - math.log(1.25))) <= grid.dt


def test_K_blow_up_is_reported_while_P_stays_bounded():
    # Q = 0 and B = R = H = 1 give P = 1/(1 + T - t), within [0.5, 1]; then
    # 1/K solves a linear equation from 1/K(T) = -1/Gamma0 = -0.1, and K
    # runs off to -inf at t = T - 1/9
    grid = TimeGrid(T=1.0, M=100)
    coeffs = CoefficientSet.from_constants(B=1.0, R=1.0, H=1.0, Gamma0=10.0)
    with pytest.raises(NonSolvableError, match="K left") as exc:
        solve_limit(coeffs, grid)
    assert abs(exc.value.t - (1.0 - 1.0 / 9.0)) <= grid.dt
    P = solve_limit(dataclasses.replace(coeffs, Gamma0=0.0), grid).P
    assert np.all((0.5 <= P) & (P <= 1.0))


SIGN_CHANGE = dict(D=1.0, Q=1.0, R=-1.5, H=1.0)


def test_sign_change_of_the_weight_is_reported_where_it_happens():
    # B = 0 leaves P' = -1, so P = 1 + T - t and R + D^2 P = T - t - 0.5
    # changes sign at t = T - 0.5, which is no stage's time
    grid = TimeGrid(T=1.0037, M=100)
    coeffs = CoefficientSet.from_constants(**SIGN_CHANGE)
    for solve in (lambda: solve_limit(coeffs, grid),
                  lambda: solve_finite_N(coeffs, 10, grid)):
        with pytest.raises(SingularGainError, match="changes sign") as exc:
            solve()
        assert abs(exc.value.t - (grid.T - 0.5)) <= grid.dt


@pytest.mark.parametrize("M", [25, 44, 200, 400, 800, 1600])
def test_sign_change_is_reported_where_the_limit_passed_a_pole(M):
    # with B = 1 the weight R + D^2 P reaches zero at a pole of P' that the
    # steps jump over; without the sign check P(0) read -1.80, 3.27, -0.12
    # and -3.01 at the last four M, with no error.  At M = 25 and 44 only a
    # stage's weight crossed, the nodes' kept their sign, and P(0) read
    # 0.21 and -2.02 until the stages were checked for sign
    grid = TimeGrid(T=1.0037, M=M)
    coeffs = CoefficientSet.from_constants(B=1.0, **SIGN_CHANGE)
    with pytest.raises(SingularGainError):
        solve_limit(coeffs, grid)


def test_gains_report_a_sign_change_between_nodes():
    grid = TimeGrid(T=1.0, M=10)
    coeffs = CoefficientSet.from_constants(B=1.0, D=1.0, R=-1.5)
    # the weight P - 1.5 is -0.24 at t = 0.6 and 0.05 at t = 0.5
    P = np.linspace(3.0, 0.1, 11)
    z = np.zeros(11)
    with pytest.raises(SingularGainError, match="changes sign") as exc:
        gains(RiccatiSolution(grid=grid, P=P, K=z, phi=z), coeffs)
    assert exc.value.t == pytest.approx(0.5)



def test_margin_of_a_failed_sweep_agrees_with_the_probe():
    # the weight R + D^2 P = T - t - 0.5 changes sign at t = 0.5, so the
    # sweep fails and the margin is the terminal weight R + D^2 H = -0.5;
    # the Monte Carlo probe of the same form finds a negative value.
    # Criterion 10 compares the two on all-ones and on its model (b)
    grid = TimeGrid(T=1.0, M=200)
    coeffs = CoefficientSet.from_constants(**SIGN_CHANGE)
    margin, t = convexity_margin(coeffs, grid, 50)
    assert margin == -0.5
    assert abs(t - 0.5) <= grid.dt
    assert convexity_probe(coeffs, 50, grid, samples=64, seed=7).min_value < 0


def test_margin_of_a_blown_up_sweep_is_the_terminal_weight():
    # R < 0 with D = 0: the weight stays -1 while P blows up backward
    grid = TimeGrid(T=2.0, M=200)
    coeffs = CoefficientSet.from_constants(B=1.0, Q=1.0, R=-1.0, H=1.0)
    with pytest.raises(NonSolvableError) as exc:
        solve_limit(coeffs, grid)
    assert convexity_margin(coeffs, grid) == (-1.0, exc.value.t)


def time_varying(grid):
    # R dips to 0.2 at t = 0.4; Q and Gamma are sampled too
    t = grid.nodes
    base = CoefficientSet.from_constants(A=0.3, B=1.0, C=0.4, D=0.8, f=1.0,
                                         g=1.0, eta=1.0, H=0.5, Gamma0=0.5,
                                         eta0=1.0)
    return dataclasses.replace(
        base, R=TimeProfile.sampled(0.2 + 0.5 * (t - 0.4) ** 2, grid),
        Q=TimeProfile.sampled(1.0 + 0.5 * np.sin(4.0 * t), grid),
        Gamma=TimeProfile.sampled(0.5 + 0.3 * np.cos(2.0 * t), grid))


@pytest.mark.parametrize("N", [None, 5])
def test_margin_converges_to_the_euler_maruyama_recursion(N):
    # the scheme's own backward Riccati recursion is first order in dt, so
    # its least weight closes on the margin about 2x per halving of dt
    gaps = []
    for M in (200, 400, 800):
        grid = TimeGrid(T=1.0, M=M)
        coeffs = time_varying(grid)
        margin, _ = convexity_margin(coeffs, grid, N)
        assert margin > 0.0
        gaps.append(abs(margin - em_margin(coeffs, grid, N)))
    assert gaps[0] < 5e-3
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.8 <= coarse / fine <= 2.2


def deviation_form_margin(coeffs, grid, N=None):
    """The margin by its definition: the least node weight of the limit
    solve of agent i's deviation form, a model with no forcing whose state
    weight is Q (1 - Gamma/N)^2 sampled at the nodes and terminal weight
    H (1 - Gamma0/N)^2, or min(0, R(T) + D(T)^2 H_e) if that solve fails"""
    Q, H = coeffs.Q, coeffs.H
    if N is not None:
        inv_n = 1.0 / N
        nv = coeffs.node_values(grid)
        Q = TimeProfile.sampled(nv["Q"] * (1.0 - nv["Gamma"] * inv_n) ** 2,
                                grid)
        H = H * (1.0 - coeffs.Gamma0 * inv_n) ** 2
    zero = TimeProfile.constant(0.0)
    form = dataclasses.replace(coeffs, Q=Q, H=H, f=zero, g=zero, eta=zero,
                               Gamma=zero, eta0=0.0, Gamma0=0.0)
    try:
        return _least_weight(gains(solve_limit(form, grid), form).alpha, grid)
    except (SingularGainError, NonSolvableError) as exc:
        if isinstance(exc, SingularGainError) and not math.isfinite(exc.alpha):
            raise
        R = float(coeffs.R.node_values(grid)[-1])
        D = float(coeffs.D.node_values(grid)[-1])
        return min(0.0, R + D * D * H), float(exc.t)


def outcome(f):
    try:
        return f()
    except (SingularGainError, NonSolvableError) as exc:
        return type(exc).__name__, str(exc), exc.t


def test_margin_is_the_deviation_form_margin_bit_for_bit():
    # the margin sweeps only P, with the form's weights; its value, node
    # and error are those of the whole form's limit solve.  SIGN_CHANGE
    # and the blow-up fail their sweeps, D = 1e200 fails on an infinite
    # weight
    grid = TimeGrid(T=2.0, M=200)
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "indefinite.json")
    with open(path) as fh:
        indefinite = parse_coefficients(json.load(fh), grid)
    c = CoefficientSet.from_constants
    models = (ALL_ONES, indefinite, time_varying(grid), c(**SIGN_CHANGE),
              c(B=1.0, Q=1.0, R=-1.0, H=1.0),
              c(B=1.0, D=1e200, Q=1.0, R=1.0, H=1.0))
    for coeffs in models:
        for N in (None, 1, 2, 5, 256):
            got = outcome(lambda: convexity_margin(coeffs, grid, N))
            want = outcome(lambda: deviation_form_margin(coeffs, grid, N))
            assert repr(got) == repr(want), N
            assert [type(x) for x in got] == [type(x) for x in want]
    coeffs = time_varying(grid)
    assert convexity_margin(coeffs, grid, 5) != convexity_margin(coeffs, grid)
