"""Simulation, cost, stationarity, probe, and decomposition behaviour."""

import dataclasses
import math

import numpy as np
import pytest

from lqmfg.errors import ModelConfigError, SimulationDivergedError
from lqmfg.model import CoefficientSet, InitialLaw, TimeGrid, TimeProfile
from lqmfg.riccati import gains, solve_finite_N, solve_limit
from lqmfg.synthesis import make_law, solve_mean_field
from lqmfg.sim import (
    _PURPOSE_AGENT,
    _TILE,
    PathSet,
    PopulationConfig,
    costs_all_agents,
    simulate,
    simulate_reps,
    stream,
    _costs,
    _euler_maruyama,
    _fresh_philox,
    _key,
    _replay_lanes,
)
from oracles import (AdjointCheckReport, convexity_probe,
                     cost_decomposition, stationarity_residual)

ALL_ONES = CoefficientSet.from_constants(A=1, B=1, C=1, D=1, f=1, g=1,
                                         Q=1, R=1, Gamma=1, eta=1,
                                         H=1, Gamma0=1, eta0=1)


def decentralized_setup(grid, coeffs=ALL_ONES, xi=10.0):
    gl = gains(solve_limit(coeffs, grid), coeffs)
    mf = solve_mean_field(coeffs, gl, xi, grid)
    return gl, mf, make_law("decentralized", gl, xbar=mf)


def reference_paths(nc, dt, x0, dW, e, kappa):
    """Euler-Maruyama as the affine recursion x' = alpha x + beta, one path
    and one step at a time in Python floats: the oracle for the kernel.

    Under the control u = e x + kappa,
        alpha = 1 + (A + B e) dt + (C + D e) dW,
        beta  = (B kappa + f) dt + (D kappa + g) dW.
    e(k) is step k's gain on the own state and kappa(k, x) its offset, given
    the states x (an array) at node k."""
    a, b, c, d, f, g = (nc[name].tolist() for name in ("A", "B", "C", "D",
                                                       "f", "g"))
    M = dW.shape[-1]
    increments = dW.reshape(-1, M).tolist()
    x = np.ravel(x0).tolist()
    states, controls = [x], []
    for k in range(M):
        ek, kk = float(e(k)), float(kappa(k, np.array(x)))
        p = 1.0 + (a[k] + b[k] * ek) * dt
        q = c[k] + d[k] * ek
        r = (b[k] * kk + f[k]) * dt
        s = d[k] * kk + g[k]
        controls.append([ek * xj + kk for xj in x])
        x = [(p + q * w[k]) * xj + (r + s * w[k])
             for xj, w in zip(x, increments)]
        states.append(x)
    return (np.ascontiguousarray(np.transpose(states)),
            np.ascontiguousarray(np.transpose(controls)))


def law_feedback(law):
    """(e, kappa) of a population under one law: a precomputed mean folds
    into kappa = k_mean xbar + k_const, a realized one is np.mean(x)."""
    if law.xbar is None:
        return (lambda k: law.k_self[k],
                lambda k, x: law.k_mean[k] * np.mean(x) + law.k_const[k])
    return (lambda k: law.k_self[k],
            lambda k, x: law.k_mean[k] * law.xbar[k] + law.k_const[k])


def replay(ps, i, laws, coeffs, grid):
    """Agent i of one replication replayed under every law by _replay_lanes:
    states (L, M+1), controls (L, M), and the sum of its co-players'
    states."""
    others = ps.states.sum(axis=0) - ps.states[i]
    (states,), (controls,) = _replay_lanes(
        i, [ps.rep], ps.states[i, :1], ps.increments[i, None], others[None],
        ps.states.shape[0], laws, coeffs, grid)
    return states, controls, others


def replay_feedback(law, others, N):
    """(e, kappa) of one replayed agent whose co-players' states sum to
    others: a realized mean (x + others) / N splits into the gain
    k_self + k_mean / N and the offset k_mean (others / N) + k_const."""
    if law.xbar is not None:
        return law_feedback(law)
    return (lambda k: law.k_self[k] + law.k_mean[k] / N,
            lambda k, x: law.k_mean[k] * (others[k] / N) + law.k_const[k])


def left_endpoint_paths(nc, dt, x0, dW, ks, km, kc, mean):
    """Euler-Maruyama as written, with the feedback at the left end of each
    step: u = ks x + km m + kc, x' = x + (a x + b u + f) dt + (c x + d u +
    g) dW, m = mean(k, x).  The second oracle, equal to the affine form up
    to roundoff."""
    a, b, c, d, f, g = (nc[name] for name in ("A", "B", "C", "D", "f", "g"))
    M = dW.shape[-1]
    states = np.empty((x0.size, M + 1))
    controls = np.empty((x0.size, M))
    states[:, 0] = x0
    x = x0
    for k in range(M):
        u = ks[..., k] * x + km[..., k] * mean(k, x) + kc[..., k]
        x = x + (a[k] * x + b[k] * u + f[k]) * dt \
              + (c[k] * x + d[k] * u + g[k]) * dW[..., k]
        controls[:, k] = u
        states[:, k + 1] = x
    return states, controls


def law_mean(law):
    """The m(t_k) a population under this law feeds back."""
    if law.mean_source == "precomputed":
        return lambda k, x: law.xbar[k]
    return lambda k, x: np.mean(x)


INITIAL_LAWS = (InitialLaw.uniform(0, 20), InitialLaw.gaussian(5.0, 2.0),
                InitialLaw.point(3.0))


@pytest.mark.parametrize("M", [2, _TILE - 1, _TILE, _TILE + 1, 200])
@pytest.mark.parametrize("kind", ["decentralized", "meanfield-informed"])
def test_simulate_matches_reference_loop_bit_for_bit(M, kind):
    # decentralized feeds back the precomputed mean, meanfield-informed the
    # realized one; the draws come from freshly built streams
    grid = TimeGrid(T=1.0, M=M)
    gl, mf, law = decentralized_setup(grid)
    if kind != "decentralized":
        law = make_law(kind, gl)
    nc = ALL_ONES.node_values(grid)
    for N in (1, 5, 129, 300):
        for initial in INITIAL_LAWS:
            cfg = PopulationConfig(N=N, reps=2, master_seed=2**64 - 1,
                                   initial=initial)
            for ps in simulate_reps(ALL_ONES, law, cfg, grid):
                rngs = [stream(cfg.master_seed, _PURPOSE_AGENT, ps.rep, j)
                        for j in range(N)]
                x0 = np.array([initial.sample(rng) for rng in rngs])
                dW = np.stack([rng.standard_normal(M) * math.sqrt(grid.dt)
                               for rng in rngs])
                states, controls = reference_paths(nc, grid.dt, x0, dW,
                                                   *law_feedback(law))
                np.testing.assert_array_equal(ps.increments, dW)
                np.testing.assert_array_equal(ps.states, states)
                np.testing.assert_array_equal(ps.controls, controls)
                np.testing.assert_array_equal(ps.mean, states.mean(axis=0))


@pytest.mark.parametrize("M", [1, _TILE - 1, _TILE + 1, 3 * _TILE])
def test_kernel_matches_reference_loop_on_probe_shapes(M):
    # one step, and the convexity probe's use: zero feedback gains, an open
    # loop control in k_const, no forcing and a zero mean
    grid = TimeGrid(T=1.0, M=max(M, 2))
    rng = np.random.default_rng(M)
    nc = {name: rng.standard_normal(grid.M + 1)
          for name in ("A", "B", "C", "D", "f", "g")}
    x0 = rng.standard_normal(129)
    dW = rng.standard_normal((129, M)) * 0.1
    ks, km, kc = (rng.standard_normal(grid.M + 1) for _ in range(3))
    xbar = rng.standard_normal(grid.M + 1)
    zero = np.zeros(grid.M + 1)
    u = rng.standard_normal(M)
    homogeneous = dict(nc, f=zero, g=zero)

    def tiles(e, kappa):
        # the kernel's feedback: time-major tiles of gains known ahead
        return lambda k0, w: (e[k0:k0 + w, None], kappa[k0:k0 + w, None])

    for coeffs, feedback, k_mean, e, kappa in (
            (nc, tiles(ks, km * xbar + kc), None, lambda k: ks[k],
             lambda k, x: km[k] * xbar[k] + kc[k]),
            (nc, tiles(ks, kc), km, lambda k: ks[k],
             lambda k, x: km[k] * np.mean(x) + kc[k]),
            (homogeneous, tiles(zero, u), None, lambda k: 0.0,
             lambda k, x: u[k])):
        got = _euler_maruyama(coeffs, grid.dt, x0, dW, feedback, 0,
                              k_mean=k_mean)
        want = reference_paths(coeffs, grid.dt, x0, dW, e, kappa)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("M", [_TILE - 1, _TILE, _TILE + 1, 200])
def test_replay_rows_match_reference_loop_bit_for_bit(M):
    grid = TimeGrid(T=1.0, M=M)
    gl, mf, law = decentralized_setup(grid)
    laws = [law, make_law("meanfield-informed", gl),
            make_law("scaled", gl, xbar=mf, theta=0.5), make_law("zero", gl)]
    nc = ALL_ONES.node_values(grid)
    for N in (5, 129):
        cfg = PopulationConfig(N=N, reps=1, master_seed=17,
                               initial=InitialLaw.gaussian(5.0, 2.0))
        ps = simulate(ALL_ONES, law, cfg, grid)[0]
        for i in (0, N - 1):
            batch_states, batch_controls, others = replay(ps, i, laws,
                                                          ALL_ONES, grid)
            for row, one_law in enumerate(laws):
                states, controls = reference_paths(
                    nc, grid.dt, ps.states[i, :1], ps.increments[i],
                    *replay_feedback(one_law, others, N))
                np.testing.assert_array_equal(batch_states[row], states[0])
                np.testing.assert_array_equal(batch_controls[row],
                                              controls[0])


def mixed_coefficients(grid):
    # the criterion-11 mixed config: sampled A, indefinite R
    return dataclasses.replace(
        CoefficientSet.from_constants(B=1, C=0.3, D=2, f=0.2, g=0.5, Q=1,
                                      R=-0.2, Gamma=0.8, eta=1, H=1,
                                      Gamma0=0.6, eta0=0.5),
        A=TimeProfile.sampled([(k % 7 - 3) / 4 for k in range(grid.M + 1)],
                              grid))


@pytest.mark.parametrize("coefficients", ["allones", "mixed"])
def test_kernel_matches_left_endpoint_loop_to_roundoff(coefficients):
    # the affine step regroups the left-endpoint Euler-Maruyama step, so
    # populations and replays agree with the step as written to roundoff
    grid = TimeGrid(T=1.0, M=200)
    coeffs = ALL_ONES if coefficients == "allones" else mixed_coefficients(grid)
    nc = coeffs.node_values(grid)
    N = 40
    gl = gains(solve_limit(coeffs, grid), coeffs)
    mf = solve_mean_field(coeffs, gl, 2.0, grid)
    laws = [make_law("decentralized", gl, xbar=mf),
            make_law("meanfield-informed", gl),
            make_law("centralized",
                     gains(solve_finite_N(coeffs, N, grid), coeffs)),
            make_law("zero", gl)]
    cfg = PopulationConfig(N=N, reps=2, master_seed=3,
                           initial=InitialLaw.gaussian(2.0, 3.0))

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for law in laws:
        for ps in simulate(coeffs, law, cfg, grid):
            states, controls = left_endpoint_paths(
                nc, grid.dt, ps.states[:, 0], ps.increments, law.k_self,
                law.k_mean, law.k_const, law_mean(law))
            close(ps.states, states)
            close(ps.controls, controls)
            batch_states, batch_controls, others = replay(ps, 1, laws,
                                                          coeffs, grid)
            for row, one_law in enumerate(laws):
                mean = law_mean(one_law)
                if one_law.xbar is None:
                    mean = lambda k, x: (others[k] + x) / N  # noqa: E731
                states, controls = left_endpoint_paths(
                    nc, grid.dt, ps.states[1, :1], ps.increments[1],
                    one_law.k_self, one_law.k_mean, one_law.k_const, mean)
                close(batch_states[row], states[0])
                close(batch_controls[row], controls[0])


def test_rekeyed_generator_draws_equal_fresh_streams():
    bit_gen = np.random.Philox()
    rng = np.random.Generator(bit_gen)
    for seed in (0, 2**63, 2**64 - 1):
        for purpose, rep, agent in ((0, 0, 0), (0, 3, 7),
                                    (2, (1 << 24) - 1, (1 << 24) - 1)):
            # leave the last stream mid-block: words of Philox's four-word
            # buffer spent, and half of one held back for a 32-bit draw
            rng.random()
            if not bit_gen.state["has_uint32"]:
                rng.integers(0, 2**32, dtype=np.uint32)
            assert bit_gen.state["has_uint32"] == 1
            key = _key(seed, purpose, rep, agent)
            bit_gen.state = _fresh_philox(key)
            fresh = stream(seed, purpose, rep, agent)
            state, want = bit_gen.state, fresh.bit_generator.state
            np.testing.assert_array_equal(state["state"]["key"],
                                          want["state"]["key"])
            np.testing.assert_array_equal(state["state"]["counter"],
                                          want["state"]["counter"])
            assert (state["buffer_pos"], state["has_uint32"]) == \
                (want["buffer_pos"], want["has_uint32"])
            assert rng.integers(0, 2**32, dtype=np.uint32) == \
                fresh.integers(0, 2**32, dtype=np.uint32)
            np.testing.assert_array_equal(rng.standard_normal(9),
                                          fresh.standard_normal(9))
            np.testing.assert_array_equal(rng.random(5), fresh.random(5))


def test_streams_reproducible_and_distinct():
    a1 = stream(99, 0, 2, 5).standard_normal(4)
    a2 = stream(99, 0, 2, 5).standard_normal(4)
    b = stream(99, 0, 2, 6).standard_normal(4)
    c = stream(99, 1, 2, 5).standard_normal(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
    with pytest.raises(ModelConfigError):
        stream(99, 0, 1 << 24, 0)
    # seeds above 2^63 keep all 64 bits
    top = [stream(s, 0, 0, 0).standard_normal(4) for s in (2**63, 2**63 + 1)]
    assert not np.array_equal(*top)


def test_population_config_validation():
    law = InitialLaw.point(0.0)
    with pytest.raises(ModelConfigError):
        PopulationConfig(N=0, reps=1, master_seed=1, initial=law)
    with pytest.raises(ModelConfigError):
        PopulationConfig(N=1, reps=0, master_seed=1, initial=law)


def test_population_config_rejects_sizes_that_are_not_integers():
    law = InitialLaw.point(0.0)
    for N, reps, message in ((2.5, 1, "population size must be an integer, "
                              "got 2.5"),
                             (True, 1, "population size must be an integer, "
                              "got True"),
                             (math.inf, 1, "population size must be an "
                              "integer, got inf"),
                             (3, 2.0, "replication count must be an integer, "
                              "got 2.0"),
                             (3, -1, "replication count must be >= 1, "
                              "got -1")):
        with pytest.raises(ModelConfigError, match=message):
            PopulationConfig(N=N, reps=reps, master_seed=1, initial=law)
    PopulationConfig(N=np.int64(3), reps=np.int64(2), master_seed=1,
                     initial=law)


def test_library_seeds_are_checked():
    # a seed keys a 64-bit Philox stream: an integer in [0, 2^64), not a
    # bool, a fraction or a string
    law = InitialLaw.point(0.0)
    for seed in (-1, 2**64, 1.5, True, "3", None):
        message = f"seed must be an integer in \\[0, 2\\^64\\), got {seed!r}"
        for check in (
                lambda: PopulationConfig(N=2, reps=1, master_seed=seed,
                                         initial=law),
                lambda: stream(seed, 0, 0, 0)):
            with pytest.raises(ModelConfigError, match=message):
                check()
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        PopulationConfig(N=2, reps=1, master_seed=seed, initial=law)
        assert stream(seed, 0, 0, 0).bit_generator.state["state"]["key"][0] \
            == int(seed)


def test_key_builder_bounds_and_rows():
    top = (1 << 24) - 1
    for rep, agent in ((1 << 24, 0), (0, 1 << 24), (-1, 0), (0, -1),
                       (0, np.array([0, 1 << 24])), (0, np.array([-1, 3]))):
        with pytest.raises(ModelConfigError, match="< 2\\^24"):
            _key(7, 0, rep, agent)
    keys = _key(2**64 - 1, 2, top, np.arange(top - 3, top + 1))
    assert keys.shape == (4, 2) and keys.dtype == np.uint64
    for j, agent in enumerate(range(top - 3, top + 1)):
        np.testing.assert_array_equal(keys[j], _key(2**64 - 1, 2, top, agent))
    assert _key(2**64 - 1, 2, top, top).tolist() == \
        [2**64 - 1, (2 << 48) | (top << 24) | top]


@pytest.mark.parametrize("a, b", [(0.0, 20.0), (-3.7, 1e300), (5.0, 5.0),
                                  (-1e-300, 2.5)])
def test_uniform_initial_law_draws_what_generator_uniform_draws(a, b):
    law = InitialLaw.uniform(a, b)
    mine, ref = stream(11, 0, 2, 3), stream(11, 0, 2, 3)
    for _ in range(200):
        x, want = law.sample(mine), ref.uniform(a, b)
        assert type(x) is float and x == want
    np.testing.assert_array_equal(law.sample(mine, 1000),
                                  ref.uniform(a, b, size=1000))
    np.testing.assert_array_equal(law.sample(mine, (3, 4)),
                                  ref.uniform(a, b, size=(3, 4)))


def test_simulate_and_replay_compare_grids_not_lengths():
    # the law's grid has the simulation grid's M but another horizon
    law = decentralized_setup(TimeGrid(T=10.0, M=100))[2]
    grid = TimeGrid(T=1.0, M=100)
    cfg = PopulationConfig(N=2, reps=1, master_seed=1,
                           initial=InitialLaw.point(1.0))
    with pytest.raises(ModelConfigError, match="does not match"):
        simulate(ALL_ONES, law, cfg, grid)


@pytest.mark.parametrize("other", [TimeGrid(T=1.0, M=100),
                                   TimeGrid(T=10.0, M=50)], ids=["T", "M"])
def test_path_sets_are_checked_against_their_grid(other):
    # a population on one grid, costed on another: another horizon with
    # the same M, or another M, is a typed configuration error
    grid = TimeGrid(T=10.0, M=100)
    cfg = PopulationConfig(N=3, reps=1, master_seed=1,
                           initial=InitialLaw.point(1.0))
    own = decentralized_setup(grid)[2]
    ps = simulate(ALL_ONES, own, cfg, grid)[0]
    assert ps.grid == grid
    with pytest.raises(ModelConfigError, match="path set on"):
        costs_all_agents(ps, ALL_ONES, other)


def test_noise_free_single_agent_is_euler():
    # C=D=g=0 removes all noise; the zero law leaves dx = x dt
    grid = TimeGrid(T=1.0, M=100)
    coeffs = CoefficientSet.from_constants(A=1.0, Q=1.0, R=1.0)
    law = make_law("zero", gains(solve_limit(coeffs, grid), coeffs))
    cfg = PopulationConfig(N=1, reps=1, master_seed=1, initial=InitialLaw.point(1.0))
    ps = simulate(coeffs, law, cfg, grid)[0]
    assert ps.increments.shape == (1, 100)  # draws are recorded even if unused
    err = np.max(np.abs(ps.states[0] - np.exp(grid.nodes)))
    assert 1e-3 <= err <= 3e-2  # genuinely first order, not better or worse


def test_zero_weights_give_zero_cost():
    grid = TimeGrid(T=1.0, M=50)
    coeffs = CoefficientSet.from_constants(A=0.5, B=1.0, C=0.2, D=0.1,
                                           g=0.3, Q=0.0, R=0.0, H=0.0)
    helper = CoefficientSet.from_constants(A=0.5, B=1.0, Q=1.0, R=1.0)
    law = make_law("zero", gains(solve_limit(helper, grid), helper))
    cfg = PopulationConfig(N=4, reps=3, master_seed=5, initial=InitialLaw.uniform(0, 1))
    paths = simulate(coeffs, law, cfg, grid)
    assert all(np.all(costs_all_agents(ps, coeffs, grid) == 0.0)
               for ps in paths)


def test_pathset_invariants():
    grid = TimeGrid(T=10.0, M=200)
    _, _, law = decentralized_setup(grid)
    cfg = PopulationConfig(N=16, reps=2, master_seed=8,
                           initial=InitialLaw.uniform(0, 20))
    for ps in simulate_reps(ALL_ONES, law, cfg, grid):
        np.testing.assert_array_equal(ps.mean, ps.states.mean(axis=0))
        assert ps.states[:, 0].min() >= 0.0 and ps.states[:, 0].max() <= 20.0
        assert ps.states.shape == (16, 201)
        assert ps.controls.shape == (16, 200)
        assert ps.increments.shape == (16, 200)


def test_common_random_numbers_across_population_sizes():
    # under a precomputed mean a population is the prefix of any larger
    # one, bit for bit: past a 64-step tile (M = 130) and a 128-path
    # transpose block (N = 300), and in its population average
    grid = TimeGrid(T=1.0, M=130)
    _, _, law = decentralized_setup(grid)
    for initial in (InitialLaw.uniform(0, 20), InitialLaw.gaussian(2.0, 3.0)):
        small = PopulationConfig(N=5, reps=2, master_seed=77, initial=initial)
        large = PopulationConfig(N=300, reps=2, master_seed=77,
                                 initial=initial)
        ps_small = simulate(ALL_ONES, law, small, grid)
        ps_large = simulate(ALL_ONES, law, large, grid)
        for s, l in zip(ps_small, ps_large):
            np.testing.assert_array_equal(s.increments, l.increments[:5])
            np.testing.assert_array_equal(s.states, l.states[:5])
            np.testing.assert_array_equal(s.controls, l.controls[:5])
            np.testing.assert_array_equal(s.mean,
                                          l.states[:5].mean(axis=0))


def test_simulation_is_bit_deterministic():
    grid = TimeGrid(T=10.0, M=100)
    _, _, law = decentralized_setup(grid)
    cfg = PopulationConfig(N=10, reps=3, master_seed=123,
                           initial=InitialLaw.gaussian(5.0, 2.0))
    a = simulate(ALL_ONES, law, cfg, grid)
    b = simulate(ALL_ONES, law, cfg, grid)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.states, pb.states)
        np.testing.assert_array_equal(pa.controls, pb.controls)


def test_population_average_tracks_mean_field():
    grid = TimeGrid(T=10.0, M=1000)
    _, mf, law = decentralized_setup(grid)
    cfg = PopulationConfig(N=1000, reps=20, master_seed=7,
                           initial=InitialLaw.uniform(0, 20))
    means = np.stack([ps.mean for ps in simulate_reps(ALL_ONES, law, cfg, grid)])
    avg = means.mean(axis=0)
    se = means.std(axis=0, ddof=1) / math.sqrt(20)
    assert np.all(np.abs(avg - mf.values) <= 3.0 * se)


def test_increment_sample_means_are_martingale_small():
    grid = TimeGrid(T=1.0, M=50)
    coeffs = CoefficientSet.from_constants(g=1.0)
    helper = CoefficientSet.from_constants(Q=1.0, R=1.0)
    law = make_law("zero", gains(solve_limit(helper, grid), helper))
    cfg = PopulationConfig(N=8, reps=40, master_seed=3,
                           initial=InitialLaw.point(0.0))
    incs = np.stack([ps.increments
                     for ps in simulate_reps(coeffs, law, cfg, grid)])
    bound = 4.0 * math.sqrt(grid.dt) / math.sqrt(40)
    assert np.abs(incs.mean(axis=0)).max() <= bound


def test_divergence_reports_location():
    # the first non-finite state is named by its step and agent.  With A = 6
    # the states grow about 1.5-fold a step from starts spread over many
    # decades, so agents overflow at different steps under a law that does
    # not read the realized mean; 104 lies past the kernel's first tile of
    # time steps.  The zero law's k_mean is 0, so it reads no realized mean
    # either: the sum of the states overflows before any one agent does, and
    # 0 inf = nan must not reach every agent.  It names the agents scaled(0),
    # whose mean is precomputed, names
    grid = TimeGrid(T=10.0, M=120)
    helper = CoefficientSet.from_constants(Q=1.0, R=1.0)
    gl = gains(solve_limit(helper, grid), helper)
    zero = make_law("zero", gl)
    still = make_law("scaled", gl, theta=0.0,
                     xbar=solve_mean_field(helper, gl, 0.0, grid))
    fast = CoefficientSet.from_constants(A=1e4, Q=1.0, R=1.0)
    slow = CoefficientSet.from_constants(A=6.0, C=1.0, Q=1.0, R=1.0)
    cases = ((fast, zero, 2, 1, InitialLaw.point(1e6), 0, 104),
             (slow, zero, 5, 3, InitialLaw.uniform(0.0, 1e300), 3, 45),
             (slow, zero, 5, 3, InitialLaw.uniform(0.0, 1e290), 1, 104),
             (slow, still, 5, 3, InitialLaw.uniform(0.0, 1e300), 3, 45),
             (slow, still, 5, 3, InitialLaw.uniform(0.0, 1e290), 1, 104))
    for blow, law, N, seed, initial, agent, step in cases:
        cfg = PopulationConfig(N=N, reps=2, master_seed=seed, initial=initial)
        with pytest.raises(SimulationDivergedError) as exc:
            simulate(blow, law, cfg, grid)
        assert (exc.value.rep, exc.value.agent, exc.value.step) == \
            (0, agent, step)
        assert str(exc.value) == \
            f"agent {agent} diverged at step {step} of replication 0"


def test_cost_quadrature_oracle():
    # hand-built exponential path: J = (1/2) int_0^1 e^{2t} dt = (e^2-1)/4
    grid = TimeGrid(T=1.0, M=1000)
    coeffs = CoefficientSet.from_constants(Q=1.0)
    x = np.exp(grid.nodes)[None, :]
    ps = PathSet(rep=0, states=x, controls=np.zeros((1, 1000)),
                 increments=np.zeros((1, 1000)), mean=x[0])
    assert abs(costs_all_agents(ps, coeffs, grid)[0]
               - (math.e**2 - 1.0) / 4.0) <= 1e-5


def test_stationarity_identity_and_negative_control():
    grid = TimeGrid(T=10.0, M=500)
    N = 20
    fin = solve_finite_N(ALL_ONES, N, grid)
    gn = gains(fin, ALL_ONES)
    law = make_law("centralized", gn)
    cfg = PopulationConfig(N=N, reps=3, master_seed=2026,
                           initial=InitialLaw.uniform(0, 20))
    paths = simulate(ALL_ONES, law, cfg, grid)
    report = stationarity_residual(paths, fin, ALL_ONES)
    assert isinstance(report, AdjointCheckReport)
    assert report.max_rel <= 1e-9

    perturbed = dataclasses.replace(law, k_self=law.k_self + 1e-3)
    paths_bad = simulate(ALL_ONES, perturbed, cfg, grid)
    report_bad = stationarity_residual(paths_bad, fin, ALL_ONES)
    assert report_bad.max_rel >= 1e-4


def test_stationarity_residual_zero_without_control_channels():
    grid = TimeGrid(T=1.0, M=100)
    coeffs = CoefficientSet.from_constants(A=0.5, C=0.2, g=0.1,
                                           Q=1.0, R=2.0, H=1.0,
                                           Gamma=0.5, Gamma0=0.5)
    N = 5
    fin = solve_finite_N(coeffs, N, grid)
    gn = gains(fin, coeffs)
    law = make_law("centralized", gn)
    cfg = PopulationConfig(N=N, reps=2, master_seed=9,
                           initial=InitialLaw.uniform(0, 1))
    paths = simulate(coeffs, law, cfg, grid)
    report = stationarity_residual(paths, fin, coeffs)
    assert report.max_abs == 0.0


def test_resimulate_same_law_is_bit_identical():
    grid = TimeGrid(T=10.0, M=300)
    gl, mf, law = decentralized_setup(grid)
    cfg = PopulationConfig(N=8, reps=2, master_seed=55,
                           initial=InitialLaw.uniform(0, 20))
    paths = simulate(ALL_ONES, law, cfg, grid)
    replay_law = make_law("scaled", gl, xbar=mf, theta=1.0)
    for ps in paths:
        states, controls, _ = replay(ps, 3, [replay_law], ALL_ONES, grid)
        np.testing.assert_array_equal(states[0], ps.states[3])
        np.testing.assert_array_equal(controls[0], ps.controls[3])


def test_resimulate_realized_mean_consistency():
    # replaying the centralized law recomputes the mean without agent i's
    # new path feeding back into the others; against centralized base paths
    # the replay must reproduce the recorded trajectory to roundoff
    grid = TimeGrid(T=10.0, M=300)
    N = 8
    fin = solve_finite_N(ALL_ONES, N, grid)
    law = make_law("centralized", gains(fin, ALL_ONES))
    cfg = PopulationConfig(N=N, reps=1, master_seed=4,
                           initial=InitialLaw.uniform(0, 20))
    ps = simulate(ALL_ONES, law, cfg, grid)[0]
    states, _, _ = replay(ps, 0, [law], ALL_ONES, grid)
    np.testing.assert_allclose(states[0], ps.states[0], rtol=1e-9, atol=1e-9)


def test_batched_replay_rows_match_single_law_replays():
    # each row of one batched replay equals replaying that law alone, bit
    # for bit, for precomputed-mean and realized-mean laws mixed together
    grid = TimeGrid(T=10.0, M=300)
    N = 8
    gl, mf, law = decentralized_setup(grid)
    gn = gains(solve_finite_N(ALL_ONES, N, grid), ALL_ONES)
    laws = [make_law("scaled", gl, xbar=mf, theta=0.5),
            make_law("centralized", gn),
            make_law("meanfield-informed", gl),
            law,
            make_law("zero", gl)]
    cfg = PopulationConfig(N=N, reps=2, master_seed=55,
                           initial=InitialLaw.uniform(0, 20))
    for ps in simulate(ALL_ONES, law, cfg, grid):
        for i in (0, 5):
            states, controls, others = replay(ps, i, laws, ALL_ONES, grid)
            costs = _costs(states, controls, (states + others) / N, ps.rep,
                           ALL_ONES, grid)
            for row, one_law in enumerate(laws):
                alone, alone_u, _ = replay(ps, i, [one_law], ALL_ONES, grid)
                np.testing.assert_array_equal(states[row], alone[0])
                np.testing.assert_array_equal(controls[row], alone_u[0])
                assert costs[row] == _costs(alone, alone_u,
                                            (alone + others) / N, ps.rep,
                                            ALL_ONES, grid)[0]


def test_cost_decomposition_identity():
    grid = TimeGrid(T=10.0, M=500)
    gl, mf, law = decentralized_setup(grid)
    cfg = PopulationConfig(N=32, reps=3, master_seed=14,
                           initial=InitialLaw.uniform(0, 20))
    base = simulate(ALL_ONES, law, cfg, grid)
    for theta in (0.5, 1.3):
        dev_law = make_law("scaled", gl, xbar=mf, theta=theta)
        report = cost_decomposition(0, base, dev_law, ALL_ONES, grid)
        assert report.max_residual <= 1e-8
        assert np.all(report.j_quad >= 0.0)  # here Q,R,H >= 0

    same = make_law("scaled", gl, xbar=mf, theta=1.0)
    report = cost_decomposition(0, base, same, ALL_ONES, grid)
    assert report.max_residual == 0.0
    assert np.all(report.j_quad == 0.0)
    assert np.all(report.i_cross == 0.0)


def test_decentralized_and_centralized_costs_close():
    grid = TimeGrid(T=10.0, M=500)
    N = 100
    _, _, dec = decentralized_setup(grid)
    fin = solve_finite_N(ALL_ONES, N, grid)
    cen = make_law("centralized", gains(fin, ALL_ONES))
    cfg = PopulationConfig(N=N, reps=10, master_seed=11,
                           initial=InitialLaw.uniform(0, 20))
    cd, cc = (np.mean([costs_all_agents(ps, ALL_ONES, grid)[0]
                       for ps in simulate(ALL_ONES, law, cfg, grid)])
              for law in (dec, cen))
    # common random numbers pair the two runs, so the gap is O(1/sqrt(N))
    # rather than Monte Carlo noise sized
    assert abs(cd - cc) <= 2.0


def test_probe_nonnegative_for_convex_data():
    grid = TimeGrid(T=10.0, M=200)
    report = convexity_probe(ALL_ONES, 32, grid, samples=8, seed=5,
                             inner_reps=64)
    assert report.min_value >= -3.0 * report.min_stderr
    again = convexity_probe(ALL_ONES, 32, grid, samples=8, seed=5,
                            inner_reps=64)
    np.testing.assert_array_equal(report.values, again.values)


def test_probe_detects_indefinite_form():
    grid = TimeGrid(T=10.0, M=200)
    coeffs = CoefficientSet.from_constants(A=1.0, B=1.0, R=-1.0)
    report = convexity_probe(coeffs, 32, grid, samples=8, seed=5,
                             inner_reps=16)
    assert report.min_value < 0.0
