"""Mean-field ODE and strategy-law construction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lqmfg.errors import ModelConfigError, NonSolvableError
from lqmfg.model import CoefficientSet, TimeGrid
from lqmfg.riccati import gains, solve_finite_N, solve_limit
from lqmfg.synthesis import (LAW_KINDS, MeanFieldPath, StrategyLaw,
                             _parse_label, make_law, solve_mean_field)

ALL_ONES = CoefficientSet.from_constants(A=1, B=1, C=1, D=1, f=1, g=1,
                                         Q=1, R=1, Gamma=1, eta=1,
                                         H=1, Gamma0=1, eta0=1)


def limit_gains(coeffs, grid):
    return gains(solve_limit(coeffs, grid), coeffs)


def test_zero_forcing_keeps_mean_field_at_zero():
    grid = TimeGrid(T=1.0, M=100)
    coeffs = CoefficientSet.from_constants(A=0.5, B=1.0, Q=1.0, R=1.0, H=1.0)
    # f = g = eta0 = 0 makes delta vanish, so zero start stays at zero
    mf = solve_mean_field(coeffs, limit_gains(coeffs, grid), 0.0, grid)
    assert np.all(mf.values == 0.0)


def test_exponential_growth_oracle():
    grid = TimeGrid(T=1.0, M=1000)
    # B = 0 removes every gain term from the drift, leaving dxbar = A xbar dt
    coeffs = CoefficientSet.from_constants(A=1.0, C=0.5, D=0.5, Q=1.0,
                                           R=1.0, H=1.0)
    mf = solve_mean_field(coeffs, limit_gains(coeffs, grid), 1.0, grid)
    assert np.max(np.abs(mf.values - np.exp(grid.nodes))) <= 1e-8


def test_initial_value_is_exact():
    grid = TimeGrid(T=10.0, M=500)
    mf = solve_mean_field(ALL_ONES, limit_gains(ALL_ONES, grid), 10.0, grid)
    assert mf.values[0] == 10.0
    assert np.all(np.isfinite(mf.values))


def test_mean_field_refinement():
    # coefficient interpolation at half steps limits the scheme to second
    # order, so the defect should shrink by at least ~4x per doubling
    def run(M):
        grid = TimeGrid(T=10.0, M=M)
        return solve_mean_field(ALL_ONES, limit_gains(ALL_ONES, grid),
                                10.0, grid).values

    x1, x2, x4 = run(250), run(500), run(1000)
    d1 = np.max(np.abs(x1 - x2[::2]))
    d2 = np.max(np.abs(x2 - x4[::2]))
    assert 3.2 <= d1 / d2 <= 20.0


@pytest.mark.parametrize("xi_bar", [np.nan, np.inf, -np.inf, True, "abc"])
def test_mean_field_reads_its_initial_mean_as_a_finite_number(xi_bar):
    # the initial mean is read as a config number is: not as a blow-up of
    # the ODE near t = 0, not as 1.0, not as a bare ValueError
    grid = TimeGrid(T=1.0, M=10)
    with pytest.raises(ModelConfigError, match="initial mean"):
        solve_mean_field(ALL_ONES, limit_gains(ALL_ONES, grid), xi_bar, grid)


def test_mean_field_keeps_a_finite_initial_mean_bit_for_bit():
    grid = TimeGrid(T=1.0, M=10)
    gs = limit_gains(ALL_ONES, grid)
    for xi_bar in (0.1 + 0.2, -5e-324, np.float64(1.0) / 3.0, 7):
        mf = solve_mean_field(ALL_ONES, gs, xi_bar, grid)
        assert mf.values[0].tobytes() == np.float64(xi_bar).tobytes()


def test_mean_field_blow_up_is_reported_with_time():
    # xbar' = 100 xbar + 1 from 1: at z = h v = 1 each RK4 step multiplies
    # xbar by 1 + 1 + 1/2 + 1/6 + 1/24 = 2.7083, so the RK4 solution itself
    # overflows after ln(1.8e308) / ln(2.7083) = 712.4 steps, at t = 7.13
    grid = TimeGrid(T=10.0, M=1000)
    coeffs = CoefficientSet.from_constants(A=100, R=1, f=1)
    with pytest.raises(NonSolvableError) as exc:
        solve_mean_field(coeffs, limit_gains(coeffs, grid), 1.0, grid)
    assert exc.value.t == 7.13
    assert "mean-field trajectory" in str(exc.value)


def test_mean_field_requires_limit_gains():
    grid = TimeGrid(T=1.0, M=50)
    fin = solve_finite_N(ALL_ONES, 5, grid)
    gn = gains(fin, ALL_ONES)
    with pytest.raises(ModelConfigError):
        solve_mean_field(ALL_ONES, gn, 1.0, grid)


def test_decentralized_law_formulas():
    grid = TimeGrid(T=10.0, M=200)
    gs = limit_gains(ALL_ONES, grid)
    mf = solve_mean_field(ALL_ONES, gs, 10.0, grid)
    law = make_law("decentralized", gs, xbar=mf)
    assert law.kind == "decentralized"
    assert law.mean_source == "precomputed"
    np.testing.assert_array_equal(law.k_self, -gs.beta / gs.alpha)
    np.testing.assert_array_equal(law.k_mean, -gs.gamma / gs.alpha)
    np.testing.assert_array_equal(law.k_const, -gs.delta / gs.alpha)
    np.testing.assert_array_equal(law.xbar, mf.values)


def test_centralized_law_uses_population_gains():
    grid = TimeGrid(T=10.0, M=200)
    fin = solve_finite_N(ALL_ONES, 50, grid)
    gn = gains(fin, ALL_ONES)
    law = make_law("centralized", gn)
    assert law.mean_source == "realized"
    np.testing.assert_array_equal(law.k_self, -gn.beta / gn.alpha)
    with pytest.raises(ModelConfigError):
        make_law("centralized", limit_gains(ALL_ONES, grid))


def test_scaled_family_endpoints():
    grid = TimeGrid(T=10.0, M=100)
    gs = limit_gains(ALL_ONES, grid)
    mf = solve_mean_field(ALL_ONES, gs, 10.0, grid)
    dec = make_law("decentralized", gs, xbar=mf)
    zero = make_law("zero", gs)
    one = make_law("scaled", gs, xbar=mf, theta=1.0)
    null = make_law("scaled", gs, xbar=mf, theta=0.0)
    assert one.label == "scaled(1)"
    # theta = 1 reproduces the decentralized arrays bit for bit
    assert np.array_equal(one.k_self, dec.k_self)
    assert np.array_equal(one.k_mean, dec.k_mean)
    assert np.array_equal(one.k_const, dec.k_const)
    # theta = 0 is the zero law up to signed zeros
    np.testing.assert_array_equal(null.k_self, zero.k_self)
    np.testing.assert_array_equal(null.k_mean, zero.k_mean)
    np.testing.assert_array_equal(null.k_const, zero.k_const)


def test_meanfield_informed_law():
    grid = TimeGrid(T=10.0, M=100)
    gs = limit_gains(ALL_ONES, grid)
    law = make_law("meanfield-informed", gs)
    assert law.mean_source == "realized"
    assert law.xbar is None
    np.testing.assert_array_equal(law.k_self, -gs.beta / gs.alpha)


def test_law_construction_errors():
    grid = TimeGrid(T=10.0, M=100)
    gs = limit_gains(ALL_ONES, grid)
    mf = solve_mean_field(ALL_ONES, gs, 10.0, grid)
    with pytest.raises(ModelConfigError):
        make_law("bangbang", gs)
    with pytest.raises(ModelConfigError):
        make_law("decentralized", gs)  # no mean-field path
    with pytest.raises(ModelConfigError, match="needs a scaling factor"):
        make_law("scaled", gs, xbar=mf)  # no theta
    for theta in (float("nan"), float("inf")):
        with pytest.raises(ModelConfigError, match="must be finite"):
            make_law("scaled", gs, xbar=mf, theta=theta)
    fin_gains = gains(solve_finite_N(ALL_ONES, 5, grid), ALL_ONES)
    with pytest.raises(ModelConfigError):
        make_law("decentralized", fin_gains, xbar=mf)
    # only the scaled law takes a theta
    for kind, g in (("decentralized", gs), ("zero", gs),
                    ("meanfield-informed", gs), ("centralized", fin_gains)):
        with pytest.raises(ModelConfigError, match=f"the {kind} law got 0.5"):
            make_law(kind, g, xbar=mf, theta=0.5)
    other = solve_mean_field(ALL_ONES, limit_gains(ALL_ONES, TimeGrid(T=10.0, M=50)),
                             10.0, TimeGrid(T=10.0, M=50))
    with pytest.raises(ModelConfigError):
        make_law("decentralized", gs, xbar=other)


def test_laws_agree_when_mean_coupling_vanishes():
    # with Gamma = 0 and Gamma0 = 0 the population gains match the limit
    # gains, so both law kinds produce the same arrays
    coeffs = CoefficientSet.from_constants(A=0.5, B=1.0, C=0.3, D=0.4,
                                           f=0.1, g=0.2, Q=2.0, R=1.0,
                                           eta=0.5, H=1.5, eta0=0.7)
    grid = TimeGrid(T=2.0, M=20000)
    gs = limit_gains(coeffs, grid)
    mf = solve_mean_field(coeffs, gs, 1.0, grid)
    dec = make_law("decentralized", gs, xbar=mf)
    cen = make_law("centralized", gains(solve_finite_N(coeffs, 10, grid), coeffs))
    assert np.max(np.abs(dec.k_self - cen.k_self)) <= 1e-9
    assert np.max(np.abs(dec.k_mean - cen.k_mean)) <= 1e-9
    assert np.max(np.abs(dec.k_const - cen.k_const)) <= 1e-9


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_label_parses_back_to_its_spec(theta):
    # the short :g form where it reads back exactly, the full repr elsewhere
    grid = TimeGrid(T=1.0, M=2)
    z = np.zeros(3)
    law = StrategyLaw("scaled", grid, z, z, z, xbar=z, theta=theta)
    assert _parse_label(law.label) == ("scaled", theta)
    for kind in LAW_KINDS:
        assert _parse_label(kind) == (kind, None)


def test_labels_keep_short_forms_and_every_digit():
    grid = TimeGrid(T=1.0, M=2)
    z = np.zeros(3)
    labels = {theta: StrategyLaw("scaled", grid, z, z, z, theta=theta).label
              for theta in (0.5, 1.0, 1e-05, -2.0, 0.1234567, 1 / 3)}
    assert labels == {0.5: "scaled(0.5)", 1.0: "scaled(1)",
                      1e-05: "scaled(1e-05)", -2.0: "scaled(-2)",
                      0.1234567: "scaled(0.1234567)",
                      1 / 3: "scaled(0.3333333333333333)"}


def test_make_law_referentially_transparent():
    grid = TimeGrid(T=10.0, M=100)
    gs = limit_gains(ALL_ONES, grid)
    mf = solve_mean_field(ALL_ONES, gs, 10.0, grid)
    a = make_law("scaled", gs, xbar=mf, theta=0.7)
    b = make_law("scaled", gs, xbar=mf, theta=0.7)
    assert np.array_equal(a.k_self, b.k_self)
    assert np.array_equal(a.k_mean, b.k_mean)
    assert np.array_equal(a.k_const, b.k_const)


def test_all_ones_mean_starts_at_population_mean():
    from lqmfg.model import InitialLaw
    grid = TimeGrid(T=10.0, M=1000)
    law = InitialLaw.uniform(0.0, 20.0)
    gs = limit_gains(ALL_ONES, grid)
    mf = solve_mean_field(ALL_ONES, gs, law.mean, grid)
    assert mf.values[0] == 10.0


def test_make_law_compares_grids_not_lengths():
    # same M, another horizon: the node counts agree but the grids do not
    gs = limit_gains(ALL_ONES, TimeGrid(T=10.0, M=100))
    short = TimeGrid(T=1.0, M=100)
    mf = solve_mean_field(ALL_ONES, limit_gains(ALL_ONES, short), 10.0, short)
    with pytest.raises(ModelConfigError, match="does not match"):
        make_law("decentralized", gs, xbar=mf)


def test_mean_field_compares_gain_grid_with_its_own():
    gs = limit_gains(ALL_ONES, TimeGrid(T=10.0, M=100))
    for grid in (TimeGrid(T=1.0, M=100), TimeGrid(T=10.0, M=50)):
        with pytest.raises(ModelConfigError, match="do not match"):
            solve_mean_field(ALL_ONES, gs, 10.0, grid)
