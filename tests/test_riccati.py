"""Backward solver behaviour: oracles, orders, degeneracies, errors."""

import math
import re

import numpy as np
import pytest

from lqmfg.errors import ModelConfigError, NonSolvableError, SingularGainError
from lqmfg.model import CoefficientSet, TimeGrid
from lqmfg.riccati import (
    GainSchedule,
    RiccatiSolution,
    gains,
    solve_finite_N,
    solve_limit,
)

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
