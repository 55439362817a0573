"""Grid, profile, initial-law, and config-parsing behaviour."""

import dataclasses
import json
import re

import numpy as np
import pytest

from lqmfg.errors import ModelConfigError
from lqmfg.model import (
    CoefficientSet,
    _as_int,
    InitialLaw,
    TimeGrid,
    TimeProfile,
    ValidationReport,
    canonical_fingerprint,
    parse_coefficients,
    parse_grid,
    parse_initial_law,
    validate,
)
from lqmfg.riccati import solve_limit


def test_grid_nodes_hit_endpoints_exactly():
    grid = TimeGrid(T=10.0, M=7)
    nodes = grid.nodes
    assert nodes[0] == 0.0
    assert nodes[-1] == 10.0
    assert len(nodes) == 8
    np.testing.assert_allclose(np.diff(nodes), grid.dt, rtol=1e-15)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ModelConfigError):
        TimeGrid(T=-1.0, M=10)
    with pytest.raises(ModelConfigError):
        TimeGrid(T=1.0, M=1)
    with pytest.raises(ModelConfigError):
        TimeGrid(T=float("nan"), M=10)
    # M is an integer, not a bool or a float; T is a finite number, stored
    # as a float as CoefficientSet stores its scalars
    for T, M, message in ((1.0, 10.5, "step count M must be an integer, "
                           "got 10.5"),
                          (1.0, 10.0, "step count M must be an integer, "
                           "got 10.0"),
                          (1.0, "10", "step count M must be an integer, "
                           "got '10'"),
                          (1.0, True, "step count M must be an integer, "
                           "got True"),
                          (1.0, 0, "step count M must be >= 2, got 0"),
                          ("x", 10, "horizon T is not numeric: 'x'"),
                          (True, 10, "horizon T must be a number, got True"),
                          (float("inf"), 10, "horizon T must be finite")):
        with pytest.raises(ModelConfigError, match=message):
            TimeGrid(T=T, M=M)
    grid = TimeGrid(T=np.float32(2.0), M=np.int64(10))
    assert (type(grid.T), type(grid.M)) == (float, int)
    assert grid == TimeGrid(T=2, M=10)
    assert TimeGrid(T="1", M=4).T == 1.0


def test_constant_profile_everywhere():
    grid = TimeGrid(T=1.0, M=3)
    p = TimeProfile(3.5)
    np.testing.assert_array_equal(p.node_values(grid), np.full(4, 3.5))
    np.testing.assert_array_equal(p.half_values(grid), np.full(7, 3.5))


def test_sampled_profile_exact_at_nodes_linear_between():
    grid = TimeGrid(T=1.0, M=4)
    vals = [0.0, 1.0, 4.0, 9.0, 16.0]
    p = TimeProfile(values=vals, grid=grid)
    np.testing.assert_array_equal(p.node_values(grid), vals)
    # midpoint of [0.25, 0.5] is the average of the endpoints
    assert p.half_values(grid)[3] == pytest.approx(2.5, rel=1e-15)


def test_sampled_profile_wrong_length():
    grid = TimeGrid(T=1.0, M=4)
    with pytest.raises(ModelConfigError):
        TimeProfile(values=[1.0, 2.0], grid=grid)


def test_sampled_profile_rejects_bools():
    # a bool array, once stored as 1, 0, 1, is read as its list is
    grid = TimeGrid(T=1.0, M=2)
    for values, got in (([1.0, True, 1.0], "True"),
                        (np.array([True, False, True]), "True"),
                        ([1.0, np.True_, 1.0], "np.True_")):
        with pytest.raises(ModelConfigError,
                           match=f"must be a number, got {re.escape(got)}"):
            TimeProfile(values=values, grid=grid)


def test_library_constructors_read_numbers_as_the_config_does():
    # a bool is not a number here either, and numeric strings still pass
    with pytest.raises(ModelConfigError,
                       match="constant coefficient must be a number, got True"):
        TimeProfile(True)
    with pytest.raises(ModelConfigError, match="must be a number, got True"):
        CoefficientSet.from_constants(A=True)
    with pytest.raises(ModelConfigError,
                       match="terminal scalar H must be a number, got False"):
        CoefficientSet.from_constants(H=False)
    with pytest.raises(ModelConfigError, match="must be finite, got nan"):
        InitialLaw.point(float("nan"))
    assert TimeProfile("2.5").value == 2.5


def test_number_readers_reject_numpy_bools():
    # np.True_ once read as 1.0: A = 1, T = 1, the support [0, 1] and M = 1
    for call, message in (
            (lambda: CoefficientSet.from_constants(A=np.True_),
             "constant coefficient must be a number, got np.True_"),
            (lambda: TimeGrid(T=np.True_, M=2),
             "horizon T must be a number, got np.True_"),
            (lambda: InitialLaw.uniform(np.False_, np.True_),
             "uniform support bound must be a number, got np.False_"),
            (lambda: _as_int(np.True_, "grid M"),
             "grid M must be an integer, got np.True_")):
        with pytest.raises(ModelConfigError, match=re.escape(message)):
            call()
    # numpy numbers still pass
    assert CoefficientSet.from_constants(A=np.float64(0.5)).A.value == 0.5
    assert TimeGrid(T=np.int64(3), M=2).T == 3.0
    assert InitialLaw.uniform(np.int64(0), np.float64(1.5)).b == 1.5
    assert _as_int(np.int64(7), "grid M") == 7


def test_sampled_profile_holds_one_read_only_array():
    grid = TimeGrid(T=1.0, M=4)
    given = np.arange(5.0)
    p = TimeProfile(values=given, grid=grid)
    given[0] = 99.0  # the profile holds its own copy
    assert p.values.dtype == np.float64 and not p.values.flags.writeable
    assert p.node_values(grid) is p.values
    np.testing.assert_array_equal(p.values, np.arange(5.0))
    with pytest.raises(ValueError):
        p.values[0] = 1.0
    # integer arrays, lists and numeric strings read as the same floats
    for values in (np.arange(5), list(range(5)), ("0", "1", "2", "3", "4"),
                   np.array(["0", "1", "2", "3", "4"])):
        np.testing.assert_array_equal(
            TimeProfile(values=values, grid=grid).values, np.arange(5.0))
    # profiles compare by identity
    assert p != TimeProfile(values=np.arange(5.0), grid=grid) and p == p


def test_sampled_profile_reads_other_arrays_as_their_lists():
    # a complex, object or string array is read value by value, and a
    # sample array of another shape is refused whatever its values
    grid = TimeGrid(T=1.0, M=2)
    for values, message in (
            (np.array([1.0, 2.0, 3.0 + 0j]), "is not numeric: (1+0j)"),
            (np.array([1.0, None, 1.0]), "is not numeric: None"),
            (np.array(["1", "x", "1"]), "is not numeric: 'x'")):
        with pytest.raises(ModelConfigError, match=re.escape(
                "sampled profile value " + message)):
            TimeProfile(values=values, grid=grid)
    for values in (np.ones((3, 1)), [[1.0], [1.0], [1.0]], 1.0, "111"):
        with pytest.raises(ModelConfigError):
            TimeProfile(values=values, grid=grid)


def solve_with_A(profile):
    """P(0) of the limit system with A set to profile, at M = 10."""
    grid = TimeGrid(T=1.0, M=10)
    coeffs = dataclasses.replace(
        CoefficientSet.from_constants(B=1.0, Q=1.0, R=1.0, H=1.0), A=profile)
    return solve_limit(coeffs, grid).P[0]


def test_profile_constructor_rejects_a_bool():
    # True once solved silently as A = 1
    with pytest.raises(ModelConfigError,
                       match="constant coefficient must be a number, "
                             "got True"):
        solve_with_A(TimeProfile(value=True))


def test_profile_constructor_reads_a_numeric_string():
    # "3" once raised a raw numpy UFuncTypeError in the solver
    profile = TimeProfile(value="3")
    assert profile.value == 3.0
    assert solve_with_A(profile) == solve_with_A(TimeProfile(3.0))


def test_profile_constructor_rejects_none():
    # None once raised a raw TypeError in the solver
    with pytest.raises(ModelConfigError,
                       match="constant coefficient is not numeric: None"):
        solve_with_A(TimeProfile(value=None))


def test_profile_constructor_rejects_nan():
    # nan once raised a misleading NonSolvableError, P left [-1e8, 1e8]
    with pytest.raises(ModelConfigError,
                       match="constant coefficient must be finite, got nan"):
        solve_with_A(TimeProfile(value=float("nan")))
    # an array of samples is checked whole, not value by value
    with pytest.raises(ModelConfigError,
                       match="sampled profile contains non-finite values"):
        TimeProfile(values=np.array([1.0, np.inf, 1.0]),
                    grid=TimeGrid(1.0, 2))


def test_profile_constructor_checks_the_sample_count():
    # two values on a ten-step grid were once accepted
    with pytest.raises(ModelConfigError,
                       match="sampled profile needs M\\+1=11 values"):
        TimeProfile(values=(1.0, 2.0), grid=TimeGrid(1.0, 10))
    # and without a grid they were read as the constant 0
    with pytest.raises(ModelConfigError, match="values need a grid"):
        TimeProfile(values=(1.0, 2.0))


def test_coefficient_set_stores_terminal_scalars_as_floats():
    # a numeric string given to the constructor, directly or through
    # dataclasses.replace, is stored as the float it reads as
    base = CoefficientSet.from_constants(Q=1.0, R=1.0, H=1.0)
    coeffs = dataclasses.replace(base, H="2.5", Gamma0="-1", eta0=3)
    assert (coeffs.H, coeffs.Gamma0, coeffs.eta0) == (2.5, -1.0, 3.0)
    assert all(type(getattr(coeffs, name)) is float
               for name in ("H", "Gamma0", "eta0"))
    assert validate(coeffs, TimeGrid(T=1.0, M=10)).h_nonnegative
    assert not validate(dataclasses.replace(base, H="-2"),
                        TimeGrid(T=1.0, M=10)).h_nonnegative
    with pytest.raises(ModelConfigError,
                       match="terminal scalar H is not numeric: 'x'"):
        dataclasses.replace(base, H="x")


def test_half_values_interleave_nodes_and_midpoints():
    grid = TimeGrid(T=2.0, M=4)
    vals = np.array([1.0, 3.0, -1.0, 0.0, 5.0])
    p = TimeProfile(values=vals, grid=grid)
    hv = p.half_values(grid)
    assert hv.shape == (9,)
    np.testing.assert_array_equal(hv[0::2], vals)
    np.testing.assert_allclose(hv[1::2], 0.5 * (vals[:-1] + vals[1:]))

    c = TimeProfile(2.0)
    np.testing.assert_array_equal(c.half_values(grid), np.full(9, 2.0))


def test_profile_grid_alignment_enforced():
    grid = TimeGrid(T=1.0, M=4)
    other = TimeGrid(T=1.0, M=8)
    p = TimeProfile(values=np.ones(5), grid=grid)
    with pytest.raises(ModelConfigError):
        p.node_values(other)


def test_initial_law_rejects_a_nan_bound():
    # nan once raised a misleading NonSolvableError in epsilon_sweep: the
    # mean-field trajectory left [-inf, inf]
    with pytest.raises(ModelConfigError,
                       match="uniform support bound must be finite, got nan"):
        InitialLaw(kind="uniform", a=float("nan"), b=1.0)


def test_initial_law_rejects_a_negative_variance():
    # var = -1 once raised a raw ValueError (math domain error) in the
    # sampler
    with pytest.raises(ModelConfigError,
                       match="bad gaussian parameters mean=0.0, var=-1.0"):
        InitialLaw(kind="gaussian", a=0.0, b=-1.0)


def test_initial_law_rejects_a_bool():
    # True once ran silently as a point mass at 1; a numeric string passes
    with pytest.raises(ModelConfigError,
                       match="point mass must be a number, got True"):
        InitialLaw(kind="point", a=True)
    assert InitialLaw(kind="point", a="2.5").a == 2.5


def test_initial_law_rejects_an_unknown_kind():
    # "bogus" once ran silently as a point mass at a
    with pytest.raises(ModelConfigError,
                       match="unknown initial law kind 'bogus'"):
        InitialLaw(kind="bogus", a=1.0)


def test_initial_law_means():
    assert InitialLaw.uniform(0.0, 20.0).mean == 10.0
    assert InitialLaw.gaussian(1.5, 4.0).mean == 1.5
    assert InitialLaw.point(-2.0).mean == -2.0


def test_initial_law_sampling_matches_mean():
    rng = np.random.default_rng(7)
    law = InitialLaw.uniform(0.0, 20.0)
    xs = np.array([law.sample(rng) for _ in range(200_000)])
    assert xs.min() >= 0.0 and xs.max() <= 20.0
    assert abs(xs.mean() - 10.0) < 0.05

    law = InitialLaw.gaussian(2.0, 9.0)
    xs = np.array([law.sample(rng) for _ in range(200_000)])
    assert abs(xs.mean() - 2.0) < 0.05
    assert abs(xs.std() - 3.0) < 0.05

    law = InitialLaw.point(4.0)
    assert [law.sample(rng) for _ in range(5)] == [4.0] * 5


def test_point_law_consumes_no_randomness():
    rng1 = np.random.default_rng(123)
    rng2 = np.random.default_rng(123)
    assert InitialLaw.point(1.0).sample(rng1) == 1.0
    assert rng1.standard_normal() == rng2.standard_normal()


def test_validate_flags_and_errors():
    grid = TimeGrid(T=1.0, M=10)
    good = CoefficientSet.from_constants(Q=1.0, R=1.0, H=1.0)
    rep = validate(good, grid)
    assert isinstance(rep, ValidationReport)
    assert rep.a3_holds and not rep.r_indefinite

    indef = CoefficientSet.from_constants(Q=1.0, R=-0.5, H=1.0)
    rep = validate(indef, grid)
    assert rep.r_indefinite and rep.a3_holds
    assert any("allowed" in m for m in rep.messages)

    bad_q = CoefficientSet.from_constants(Q=-1.0, R=1.0, H=1.0)
    rep = validate(bad_q, grid)
    assert not rep.q_nonnegative and not rep.a3_holds

    with pytest.raises(ModelConfigError):
        CoefficientSet.from_constants(Q=float("inf"))


def test_config_roundtrip(tmp_path):
    cfg = {
        "grid": {"T": 2.0, "M": 8},
        "coefficients": {
            "A": 1.0, "B": 1.0, "C": 0.5, "D": 0.25,
            "f": 0.0, "g": 0.0, "Q": 2.0, "R": 1.0,
            "Gamma": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            "eta": 0.0,
            "H": 1.0, "Gamma0": 0.5, "eta0": 0.1,
        },
        "initial": {"kind": "uniform", "a": 0.0, "b": 20.0},
    }
    grid = parse_grid(cfg)
    assert grid.T == 2.0 and grid.M == 8
    coeffs = parse_coefficients(cfg, grid)
    assert not coeffs.Gamma.is_constant
    assert coeffs.Gamma.node_values(grid)[-1] == 0.8
    law = parse_initial_law(cfg)
    assert law.mean == 10.0


def test_config_missing_pieces():
    with pytest.raises(ModelConfigError):
        parse_grid({})
    with pytest.raises(ModelConfigError):
        parse_coefficients({"coefficients": {"A": 1.0}}, TimeGrid(T=1.0, M=2))
    with pytest.raises(ModelConfigError,
                       match="missing or malformed 'coefficients' section"):
        parse_coefficients({}, TimeGrid(T=1.0, M=2))
    with pytest.raises(ModelConfigError):
        parse_initial_law({"initial": {"kind": "binomial"}})
    with pytest.raises(ModelConfigError,
                       match="bad or missing initial-law section"):
        parse_initial_law({})


def test_fingerprint_invariant_under_key_order():
    a = {"x": 1, "y": [1, 2, 3], "z": {"p": 0.5, "q": -1}}
    b = {"z": {"q": -1, "p": 0.5}, "y": [1, 2, 3], "x": 1}
    assert canonical_fingerprint(a) == canonical_fingerprint(b)
    assert canonical_fingerprint(a) != canonical_fingerprint({"x": 2})
    digest = canonical_fingerprint({"k": 1})
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_coefficient_dict_roundtrips_through_json():
    grid = TimeGrid(T=1.0, M=2)
    coeffs = CoefficientSet.from_constants(A=1.0, Q=2.0, H=3.0)
    d = coeffs.to_dict()
    blob = json.dumps(d)
    assert json.loads(blob) == d
