import math
import os
import signal
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqmfg import _pool, sim
from lqmfg.errors import ModelConfigError, SimulationDivergedError
from lqmfg.experiments import (_BLOCK_ROWS, DEFAULT_DEVIATIONS, _build_laws,
                               _figure_files, epsilon_sweep, loglog_slope,
                               nash_gap, riccati_convergence, write_csv)
from lqmfg.model import (CoefficientSet, InitialLaw, TimeGrid,
                         parse_coefficients, parse_grid, parse_initial_law)
from lqmfg.riccati import gains, solve_backward, solve_limit
from lqmfg.sim import (_TILE, PopulationConfig, quadrature, simulate,
                       simulate_reps)
from lqmfg.synthesis import _parse_label, make_law, solve_mean_field
from oracles import cost_decomposition, draws, population_sum
from test_acceptance import CLI_CONFIG, MIXED_CONFIG

ALL_ONES = CoefficientSet.from_constants(A=1, B=1, C=1, D=1, f=1, g=1, Q=1,
                                         R=1, Gamma=1, eta=1, H=1, Gamma0=1,
                                         eta0=1)
UNIFORM = InitialLaw.uniform(0.0, 20.0)


def test_loglog_slope_recovers_exact_power_law():
    xs = [10, 20, 40, 80]
    ys = [3.0 * x ** -0.5 for x in xs]
    slope, se = loglog_slope(xs, ys)
    assert abs(slope + 0.5) < 1e-12
    assert se < 1e-12


def test_epsilon_sweep_rows_and_metadata():
    grid = TimeGrid(T=1.0, M=200)
    tab = epsilon_sweep(ALL_ONES, [8, 16, 32], reps=5, master_seed=99,
                        grid=grid, initial=UNIFORM)
    assert tab.columns == ("N", "epsilon", "stderr")
    assert [r[0] for r in tab.rows] == [8, 16, 32]
    assert all(e > 0 and s > 0 for _, e, s in tab.rows)
    assert tab.metadata["master_seed"] == 99
    assert tab.metadata["grid_M"] == 200
    assert len(tab.metadata["model_fingerprint"]) == 64
    assert "slope" in tab.metadata


def test_epsilon_sweep_rows_match_separate_populations():
    # every N read from the prefix of one largest population gives the
    # rows that a separate N-agent simulation per N gives, bit for bit
    coeffs = CoefficientSet.from_constants(A=0.4, B=1, C=0.3, D=0.5, f=0.2,
                                           g=0.5, Q=1, R=0.7, Gamma=0.8, eta=1,
                                           H=1, Gamma0=0.6, eta0=0.5)
    grid = TimeGrid(T=1.0, M=130)
    initial = InitialLaw.gaussian(2.0, 3.0)
    Ns, reps = [1, 5, 64, 300], 9
    tab = epsilon_sweep(coeffs, Ns, reps=reps, master_seed=31, grid=grid,
                        initial=initial)
    gl = gains(solve_limit(coeffs, grid), coeffs)
    mf = solve_mean_field(coeffs, gl, initial.mean, grid)
    law = make_law("decentralized", gl, xbar=mf)
    expected = []
    for N in Ns:
        cfg = PopulationConfig(N=N, reps=reps, master_seed=31,
                               initial=initial)
        sq = np.array([quadrature(grid.dt, (ps.mean - mf.values) ** 2)
                       for ps in simulate_reps(coeffs, law, cfg, grid)])
        eps = math.sqrt(float(sq.mean()))
        se = float(sq.std(ddof=1)) / math.sqrt(reps) / (2.0 * eps)
        expected.append((N, eps, se))
    assert tab.rows == tuple(expected)


def test_epsilon_sweep_requires_increasing_population_sizes():
    grid = TimeGrid(T=1.0, M=50)
    with pytest.raises(ModelConfigError):
        epsilon_sweep(ALL_ONES, [8, 8, 16], reps=2, master_seed=0,
                      grid=grid, initial=UNIFORM)


def test_epsilon_sweep_rejects_empty_and_nonpositive_population_sizes():
    # only the largest N is simulated, so the smaller ones are checked here
    grid = TimeGrid(T=1.0, M=50)
    for Ns in ([], [0, 8], [-2, 8]):
        with pytest.raises(ModelConfigError, match=">= 1"):
            epsilon_sweep(ALL_ONES, Ns, reps=2, master_seed=0, grid=grid,
                          initial=UNIFORM)


def test_epsilon_sweep_deterministic_population_tracks_mean_field():
    # zero noise and point initials: every agent follows the same Euler
    # path, so eps is the pure scheme gap, identical across N, and halves
    # under grid refinement
    det = CoefficientSet.from_constants(A=1, B=1, C=0, D=0, f=0.5, g=0, Q=1,
                                        R=1, Gamma=0.5, eta=1, H=1,
                                        Gamma0=0.5, eta0=1)
    point = InitialLaw.point(3.0)
    eps = {}
    for M in (200, 400):
        grid = TimeGrid(T=1.0, M=M)
        tab = epsilon_sweep(det, [2, 8, 32], reps=3, master_seed=1,
                            grid=grid, initial=point)
        vals = [e for _, e, _ in tab.rows]
        # averaging N identical paths rounds differently per N, so the
        # agreement is to roundoff rather than bitwise
        assert all(math.isclose(v, vals[0], rel_tol=1e-12) for v in vals)
        assert all(s == 0.0 for _, _, s in tab.rows)
        assert vals[0] <= 2.0 * grid.dt
        eps[M] = vals[0]
    assert 1.8 < eps[200] / eps[400] < 2.2


def test_epsilon_sweep_slope_near_minus_half():
    grid = TimeGrid(T=1.0, M=2000)
    tab = epsilon_sweep(ALL_ONES, [8, 16, 32, 64, 128], reps=10,
                        master_seed=99, grid=grid, initial=UNIFORM)
    assert -0.65 < tab.metadata["slope"] < -0.35


def test_epsilon_sweep_doubling_reps_is_consistent():
    grid = TimeGrid(T=1.0, M=400)
    a = epsilon_sweep(ALL_ONES, [16], reps=8, master_seed=21, grid=grid,
                      initial=UNIFORM)
    b = epsilon_sweep(ALL_ONES, [16], reps=16, master_seed=21, grid=grid,
                      initial=UNIFORM)
    (_, ea, sa), (_, eb, sb) = a.rows[0], b.rows[0]
    assert abs(ea - eb) <= 3.0 * math.hypot(sa, sb)


def test_riccati_convergence_rows_shrink_like_one_over_N():
    grid = TimeGrid(T=1.0, M=500)
    tab = riccati_convergence(ALL_ONES, [10, 40, 160, math.inf], grid)
    assert [r[0] for r in tab.rows] == [10, 40, 160, math.inf]
    assert tab.rows[-1][1:] == (0.0, 0.0, 0.0)
    for j in (1, 2, 3):
        assert tab.rows[0][j] > tab.rows[1][j] > tab.rows[2][j] > 0
        # quadrupling N should cut the error by roughly four
        assert 2.0 < tab.rows[0][j] / tab.rows[1][j] < 8.0
    assert tab.metadata["rate_constant_P"] > 0


def test_riccati_convergence_rate_constants_read_the_settled_N_err():
    # a fit of err = c/N alone read 1.7740, 1.4917 and 3.0942 on all-ones
    # through N = 10..80, 2-3 % below N err at N = 640; the c of a fit
    # c/N + d/N^2 lies within 0.05 % of it for P and 0.5 % for K and phi
    grid = TimeGrid(T=10.0, M=1000)
    fit = riccati_convergence(ALL_ONES, [10, 20, 40, 80], grid).metadata
    far = riccati_convergence(ALL_ONES, [640], grid)
    for j, (name, rtol) in enumerate((("P", 5e-4), ("K", 5e-3),
                                      ("phi", 5e-3)), start=1):
        settled = 640 * far.rows[0][j]
        assert abs(fit[f"rate_constant_{name}"] - settled) <= rtol * settled
        # one row gives c = N err
        assert far.metadata[f"rate_constant_{name}"] == pytest.approx(
            settled, rel=1e-15)


def test_riccati_convergence_rejects_repeated_population_sizes():
    grid = TimeGrid(T=1.0, M=50)
    for Ns in ([10, 10, 20], [10, math.inf, math.inf]):
        with pytest.raises(ModelConfigError, match="repeat"):
            riccati_convergence(ALL_ONES, Ns, grid)


def test_riccati_convergence_rejects_an_empty_population_list():
    with pytest.raises(ModelConfigError, match="population sizes are empty"):
        riccati_convergence(ALL_ONES, [], TimeGrid(T=1.0, M=50))


def test_riccati_convergence_rejects_sizes_that_are_not_integers_or_inf():
    # -inf once gave an inf row of zeros and 10.5 silently ran N = 10
    grid = TimeGrid(T=1.0, M=50)
    for Ns, bad in (([-math.inf, 10], "got -inf"), ([10.5, 20], "got 10.5"),
                    ([20, True], "got True"), ([10, "20"], "got '20'")):
        with pytest.raises(ModelConfigError, match=bad):
            riccati_convergence(ALL_ONES, Ns, grid)


def test_nash_gap_calibration_row_is_exactly_zero():
    grid = TimeGrid(T=1.0, M=200)
    tab = nash_gap(ALL_ONES, N=20, reps=4, master_seed=4, grid=grid,
                   initial=UNIFORM)
    row = {r[0]: r for r in tab.rows}["scaled(1)"]
    assert row[1] == 0.0
    assert row[2] == 0.0


def test_nash_gap_default_family_and_ordering():
    grid = TimeGrid(T=1.0, M=100)
    tab = nash_gap(ALL_ONES, N=10, reps=3, master_seed=8, grid=grid,
                   initial=UNIFORM)
    labels = [r[0] for r in tab.rows]
    assert labels == sorted(labels)
    assert set(labels) == set(DEFAULT_DEVIATIONS) | {"scaled(1)"}
    assert tab.metadata["max_gap"] >= 0.0
    assert tab.metadata["max_gap"] == max(0.0, max(r[1] for r in tab.rows))


def test_nash_gap_zero_state_weights_give_zero_gaps():
    # Q = H = 0 makes the backward solutions vanish, so every law in the
    # family is the zero control and all costs (hence gaps) are exactly 0
    flat = CoefficientSet.from_constants(A=0.5, B=1, C=0.2, D=0.1, f=0, g=0.3,
                                         Q=0, R=1, Gamma=0.7, eta=1, H=0,
                                         Gamma0=0.7, eta0=1)
    grid = TimeGrid(T=1.0, M=100)
    tab = nash_gap(flat, N=8, reps=3, master_seed=2, grid=grid,
                   initial=UNIFORM)
    assert all(r[1] == 0.0 for r in tab.rows)
    assert tab.metadata["max_gap"] == 0.0


def test_nash_gap_rejects_bad_family():
    grid = TimeGrid(T=1.0, M=50)
    with pytest.raises(ModelConfigError):
        nash_gap(ALL_ONES, N=4, reps=2, master_seed=1, grid=grid,
                 initial=UNIFORM, deviations=())
    with pytest.raises(ModelConfigError):
        nash_gap(ALL_ONES, N=4, reps=2, master_seed=1, grid=grid,
                 initial=UNIFORM, deviations=("hedged",))
    for bad in ("scaled(1.2.3)", "scaled(.)", "scaled()", "scaled"):
        with pytest.raises(ModelConfigError, match="scaling factor"):
            nash_gap(ALL_ONES, N=4, reps=2, master_seed=1, grid=grid,
                     initial=UNIFORM, deviations=("zero", bad))
    # repeats are compared by deviation, not by label text
    for family in (("zero", "scaled(0.5)", "zero"),
                   ("scaled(.5)", "scaled(0.5)"),
                   ("scaled(1)", "scaled(1.0)"),
                   ("decentralized", "scaled(1.)")):
        with pytest.raises(ModelConfigError, match="repeat"):
            nash_gap(ALL_ONES, N=4, reps=2, master_seed=1, grid=grid,
                     initial=UNIFORM, deviations=family)


def test_nash_gap_adds_no_second_calibration_row():
    grid = TimeGrid(T=1.0, M=50)
    for cal in ("scaled(1.0)", "decentralized"):
        tab = nash_gap(ALL_ONES, N=4, reps=3, master_seed=1, grid=grid,
                       initial=UNIFORM, deviations=("zero", cal))
        assert [r[0] for r in tab.rows] == sorted(["zero", cal])
        assert {r[0]: r for r in tab.rows}[cal][1:] == (0.0, 0.0)


def reference_nash_gap(coeffs, N, reps, master_seed, grid, initial):
    """The study from full populations: agent 0's gap J(base) - J(dev)
    under each law from cost_decomposition over simulate's replications,
    with its mean and paired standard error."""
    labels = list(DEFAULT_DEVIATIONS) + ["scaled(1)"]
    dec, *laws = _build_laws([("decentralized", None)]
                             + [_parse_label(label) for label in labels],
                             coeffs, grid, initial, N)
    cfg = PopulationConfig(N=N, reps=reps, master_seed=master_seed,
                           initial=initial)
    base = simulate(coeffs, dec, cfg, grid)
    out = {}
    for label, law in zip(labels, laws):
        report = cost_decomposition(0, base, cfg, law, coeffs, grid)
        d = report.j_base - report.j_dev
        out[label] = (float(d.mean()), float(d.std(ddof=1)) / math.sqrt(reps))
    return out


@pytest.mark.parametrize("cfg, N, reps", [
    ({"grid": {"T": 10.0, "M": 1000}, "coefficients": CLI_CONFIG["coefficients"],
      "initial": CLI_CONFIG["initial"]}, 16, 6),
    (CLI_CONFIG, 8, 5),
    (MIXED_CONFIG, 6, 4)], ids=["allones", "criterion-11", "mixed"])
def test_nash_gap_matches_per_replication_replays(cfg, N, reps):
    # the mean-only populations and one batched replay of every law give
    # the gaps and standard errors of full populations and one
    # decomposition per law, bit for bit: both cost against (x + others) / N
    grid = parse_grid(cfg)
    coeffs = parse_coefficients(cfg, grid)
    initial = parse_initial_law(cfg)
    tab = nash_gap(coeffs, N, reps, 2024, grid, initial)
    want = reference_nash_gap(coeffs, N, reps, 2024, grid, initial)
    assert sorted(want) == [row[0] for row in tab.rows]
    for label, gap, se in tab.rows:
        assert (gap, se) == want[label], label
    assert {r[0]: r for r in tab.rows}["scaled(1)"][1:] == (0.0, 0.0)


def test_nash_gap_names_the_replication_that_fails():
    # under the zero law the first agent roughly doubles each step
    # (A dt = 1) and replication 1 grows fastest at seed 9.  At M = 511
    # only its cost overflows.  At M = 1022 only its path overflows, and the
    # other costs overflow: every replay runs before any cost, so the path
    # is named.  At seed 7 and M = 1026, replication 3 overflows three steps
    # before replications 1 and 2, and the replays still name replication
    # 1, the first in order, as one decomposition per replication does
    coeffs = CoefficientSet.from_constants(A=100.0, B=1.0, C=1.0, Q=1.0,
                                           R=1.0)
    initial = InitialLaw.uniform(1.0, 2.0)
    for seed, reps, M, step, failures in (
            (9, 3, 511, None, [(1, None)]),
            (9, 3, 1022, 1020, [(0, None), (1, 1020), (2, None)]),
            (7, 4, 1026, 1026, [(0, None), (1, 1026), (2, 1026), (3, 1023)])):
        cfg = PopulationConfig(N=2, reps=reps, master_seed=seed,
                               initial=initial)
        grid = TimeGrid(T=M / 100, M=M)
        dec, zero = _build_laws([("decentralized", None), ("zero", None)],
                                coeffs, grid, initial, 2)
        seen = []
        for ps in simulate(coeffs, dec, cfg, grid):
            try:
                cost_decomposition(0, [ps], cfg, zero, coeffs, grid)
            except SimulationDivergedError as exc:
                seen.append((exc.rep, exc.step))
        assert seen == failures
        with pytest.raises(SimulationDivergedError) as exc:
            nash_gap(coeffs, 2, reps, seed, grid, initial,
                     deviations=["zero"])
        assert (exc.value.rep, exc.value.step) == (1, step)
        assert exc.value.agent == (None if step is None else 0)


def sampled_config(M):
    # the mixed config with its sampled A laid on an M-step grid
    cfg = dict(MIXED_CONFIG, grid={"T": 1.0, "M": M})
    cfg["coefficients"] = dict(MIXED_CONFIG["coefficients"],
                               A=[(k % 7 - 3) / 4 for k in range(M + 1)])
    return cfg


@pytest.mark.parametrize("fixture", [
    lambda M: {"grid": {"T": M / 100, "M": M},
               "coefficients": CLI_CONFIG["coefficients"],
               "initial": CLI_CONFIG["initial"]},
    lambda M: dict(CLI_CONFIG, grid={"T": 1.0, "M": M}),
    sampled_config], ids=["allones", "criterion-11", "sampled"])
def test_population_sums_match_full_paths(fixture, monkeypatch):
    # the mean-only path draws what simulate draws and adds agents by the
    # population-sum rule, for every tile layout (one step, a full tile, a
    # one-step tail tile, many tiles) and lane batching: 5 replications are
    # one call, or at 8 lanes as few calls of at most 8 // N as hold them,
    # the larger first and their sizes differing by at most one.  One CPU
    # keeps the call plan free of the workers' rounding
    monkeypatch.setattr(_pool, "_cpus", lambda: 1)
    for M in (2, _TILE, _TILE + 1, 1000):
        cfg = fixture(M)
        grid = parse_grid(cfg)
        coeffs = parse_coefficients(cfg, grid)
        initial = parse_initial_law(cfg)
        law, = _build_laws([("decentralized", None)], coeffs, grid, initial)
        for N in (1, 3, 130):
            pop = PopulationConfig(N=N, reps=5, master_seed=2024,
                                   initial=initial)
            sizes = (1, (N + 1) // 2, N)
            want = simulate(coeffs, law, pop, grid)
            for lanes in (sim._LANES, 8):
                with monkeypatch.context() as patch:
                    patch.setattr(sim, "_LANES", lanes)
                    chunks = sim._population_chunks(
                        coeffs, law, pop, grid, sizes,
                        lambda first, *arrays: arrays)
                calls = -(-5 // max(1, lanes // N))
                assert [len(sums) for sums, _, _ in chunks] == [
                    5 // calls + (i < 5 % calls) for i in range(calls)]
                got = list(zip(*(np.concatenate(part)
                                 for part in zip(*chunks))))
                assert len(got) == 5
                for ps, (sums, x0, dW) in zip(want, got):
                    assert np.array_equal(x0, ps.states[:, 0])
                    assert np.array_equal(dW, draws(pop, ps.rep, grid)[1])
                    for n, total in zip(sizes, sums):
                        assert np.array_equal(total,
                                              population_sum(ps.states, n))
                    assert np.array_equal(sums[-1] / N, ps.mean)


@st.composite
def population_cases(draw):
    N = draw(st.integers(1, 40))
    sizes = sorted(draw(st.lists(st.integers(1, N), min_size=1, max_size=5)))
    return (N, sizes, draw(st.integers(1, 4)), draw(st.integers(2, 130)),
            draw(st.integers(1, 3 * N)), draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=60, deadline=None)
@given(case=population_cases())
@example(case=(10_000, [9_000, 10_000], 2, 2, sim._LANES, 2024))
def test_population_sums_equal_full_path_sums(case):
    # each size's sum, repeated sizes included, is the population-sum rule
    # over the first n agents bit for bit, for every tile layout and every
    # split of the replications into calls, and the first size's is a
    # separate population's sum, at 9,000 of 10,000 agents too
    N, sizes, reps, M, lanes, seed = case
    grid = TimeGrid(T=M / 100, M=M)
    law, = _build_laws([("decentralized", None)], ALL_ONES, grid, UNIFORM)
    pop = PopulationConfig(N=N, reps=reps, master_seed=seed, initial=UNIFORM)
    with mock.patch.object(sim, "_LANES", lanes):
        chunks = sim._population_chunks(ALL_ONES, law, pop, grid, sizes)
    got = np.concatenate(chunks)
    want = [[population_sum(ps.states, n) for n in sizes]
            for ps in simulate(ALL_ONES, law, pop, grid)]
    assert np.array_equal(got, want)
    alone = PopulationConfig(N=sizes[0], reps=reps, master_seed=seed,
                             initial=UNIFORM)
    assert np.array_equal(got[:, 0] / sizes[0], [
        ps.mean for ps in simulate(ALL_ONES, law, alone, grid)])


def test_epsilon_sweep_rejects_sizes_that_are_not_integers():
    grid = TimeGrid(T=1.0, M=50)
    for Ns, bad in (([4.5, 8], "4.5"), ([True, 8], "True"),
                    ([2, "8"], "'8'")):
        with pytest.raises(ModelConfigError,
                           match=f"population sizes must be an integer, "
                                 f"got {bad}"):
            epsilon_sweep(ALL_ONES, Ns, reps=2, master_seed=0, grid=grid,
                          initial=UNIFORM)
    tab = epsilon_sweep(ALL_ONES, [np.int64(2), 4], reps=np.int64(2),
                        master_seed=0, grid=grid, initial=UNIFORM)
    assert [row[0] for row in tab.rows] == [2, 4]


def test_population_sums_refuse_a_realized_mean_law():
    grid = TimeGrid(T=1.0, M=50)
    gl = gains(solve_limit(ALL_ONES, grid), ALL_ONES)
    cfg = PopulationConfig(N=4, reps=2, master_seed=1, initial=UNIFORM)
    with pytest.raises(ModelConfigError, match="precomputed mean"):
        sim._population_chunks(ALL_ONES, make_law("meanfield-informed", gl),
                               cfg, grid, (4,))


def use_scheduler(patch, scheduler):
    """Make _pmap run in process, or on a pool of two forked workers
    whatever the CPU count."""
    if scheduler == "in-process":
        patch.setattr(_pool, "_cpus", lambda: 1)
    else:
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork on this platform")
        patch.setattr(_pool, "_cpus", lambda: 2)


SCHEDULERS = ("in-process", "pool")


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_pmap_runs_where_the_scheduler_says(scheduler, monkeypatch):
    use_scheduler(monkeypatch, scheduler)
    pids = _pool._pmap(os.getpid, [()] * 3)
    assert (set(pids) == {os.getpid()}) == (scheduler == "in-process")
    assert _pool._pmap(divmod, [(7, 2), (9, 4), (1, 1)]) \
        == [(3, 1), (2, 1), (1, 0)]


def fail_or_sleep(task, marks):
    """Raise for a negative task, after sleeping when it is below -1;
    else mark the task as started, sleep and return it."""
    if task < 0:
        time.sleep(0.2 if task < -1 else 0.0)
        raise SimulationDivergedError(f"task {task} failed", rep=-task)
    open(os.path.join(marks, str(task)), "w").close()
    time.sleep(0.1)
    return task


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_pmap_raises_the_first_failure_in_task_order(scheduler, monkeypatch,
                                                      tmp_path):
    # task 1 fails after task 2 does, and its error is the one raised, with
    # the fields of the typed error.  The 20 tasks queued behind take 0.1 s
    # each: on the pool a few start while task 1 sleeps, the rest are
    # cancelled
    use_scheduler(monkeypatch, scheduler)
    tasks = [(0, tmp_path), (-2, tmp_path), (-1, tmp_path)] + [
        (k, tmp_path) for k in range(3, 23)]
    with pytest.raises(SimulationDivergedError, match="task -2 failed") as exc:
        _pool._pmap(fail_or_sleep, tasks)
    assert exc.value.rep == 2
    assert len(os.listdir(tmp_path)) < (2 if scheduler == "in-process" else 12)


def mark_and_kill(task, marks):
    """Leave this worker's pid under marks; task 1 then SIGKILLs its own
    worker, which must not be the test process."""
    open(os.path.join(marks, str(os.getpid())), "w").close()
    if task == 1:
        assert _pool._in_worker
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_pmap_names_a_dead_worker(monkeypatch, tmp_path):
    # worker 1 dies at task 1, after task 0 ran on worker 0
    use_scheduler(monkeypatch, "pool")
    with pytest.raises(ChildProcessError, match="exited with status -9"):
        _pool._pmap(mark_and_kill, [(k, tmp_path) for k in range(4)])
    pids = [int(name) for name in os.listdir(tmp_path)]
    assert len(pids) == 2 and os.getpid() not in pids
    assert_reaped(pids)


def test_interrupted_pmap_kills_and_reaps_its_workers(monkeypatch, tmp_path):
    # the parent is interrupted while both workers sleep for a minute
    use_scheduler(monkeypatch, "pool")

    def interrupt(fd):
        for _ in range(3000):
            if len(os.listdir(tmp_path)) == 2:
                break
            time.sleep(0.01)
        raise KeyboardInterrupt

    monkeypatch.setattr(_pool, "_load", interrupt)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _pool._pmap(lambda marks: mark_and_kill(0, marks) + time.sleep(60),
                    [(tmp_path,)] * 2)
    assert time.monotonic() - start < 30
    pids = [int(name) for name in os.listdir(tmp_path)]
    assert len(pids) == 2
    assert_reaped(pids)


def test_backward_solves_match_in_process_and_on_a_pool(monkeypatch):
    grid = TimeGrid(T=1.0, M=300)
    got = {}
    for scheduler in SCHEDULERS:
        with monkeypatch.context() as patch:
            use_scheduler(patch, scheduler)
            sols = solve_backward(ALL_ONES, grid, [None, 3, None, 40])
            got[scheduler] = (
                [(s.N, s.P.tobytes(), s.K.tobytes(), s.phi.tobytes())
                 for s in sols],
                riccati_convergence(ALL_ONES, [40, math.inf, 3, 10], grid))
    assert got["in-process"] == got["pool"]
    sols, tab = got["pool"]
    assert [s[0] for s in sols] == [None, 3, None, 40]
    assert sols[0][1] == solve_limit(ALL_ONES, grid).P.tobytes()
    assert [r[0] for r in tab.rows] == [3, 10, 40, math.inf]


def test_tiny_studies_fork_on_two_cpus_and_match_one(monkeypatch):
    # the pool reads no estimate of the work: on two CPUs a riccati-
    # convergence at M = 10 (three solves) and an epsilon-sweep of 2
    # replications (two calls) each fork two workers, and give the bits of
    # the in-process run
    grid = TimeGrid(T=1.0, M=10)
    fork, forks, got = os.fork, [], {}

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    for scheduler in SCHEDULERS:
        with monkeypatch.context() as patch:
            use_scheduler(patch, scheduler)
            got[scheduler] = (
                riccati_convergence(ALL_ONES, [2, 5], grid),
                epsilon_sweep(ALL_ONES, [2, 4], 2, 7, grid, UNIFORM),
                len(forks))
    assert got["in-process"][:2] == got["pool"][:2]
    assert (got["in-process"][2], got["pool"][2]) == (0, 4)


def test_write_csv_matches_one_piece_at_block_edges(tmp_path):
    # mixed columns of 0, 1, one block - 1, one block and one block + 1
    # rows, each against the whole table formatted here in one piece
    block = _BLOCK_ROWS
    rng = np.random.default_rng(3)
    header = ("f", "i", "b", "s", "n", "h")
    for n in (0, 1, block - 1, block, block + 1):
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[:3] = (math.inf, -0.0, 0.1 + 0.2)[:n]
        flags = [k % 3 == 0 for k in range(n)]
        halves = np.linspace(0.0, 1.0, n, dtype=np.float32)
        path = tmp_path / f"{n}.csv"
        write_csv(path, header,
                  (floats, range(n), tuple(flags),
                   (f"s{k}" for k in range(n)), np.arange(n, dtype=np.int64),
                   halves), ("first", "N = 7"))
        want = "".join(
            ["# first\n# N = 7\n", ",".join(header) + "\n"]
            + [f"{float(floats[k])!r},{k},{str(flags[k]).lower()},s{k},{k},"
               f"{float(halves[k])!r}\n" for k in range(n)])
        assert path.read_bytes() == want.encode(), n


def test_studies_match_in_process_and_on_a_pool(monkeypatch):
    # at N = 24 a call holds at most 2 of the 7 replications: 4 calls in
    # process and on two CPUs, 6 on three, whose workers get 2, 2 and 3
    # replications; both tables and their metadata match bit for bit
    grid = TimeGrid(T=1.0, M=100)
    monkeypatch.setattr(sim, "_LANES", 48)
    tables, plans = {}, {}
    pmap = _pool._pmap

    def record(fn, tasks):
        if fn is sim._population_sums:
            plans[cpus].append([task[6] for task in tasks])
        return pmap(fn, tasks)

    for scheduler, cpus in (("in-process", 1), ("pool", 2), ("pool", 3)):
        plans[cpus] = []
        with monkeypatch.context() as patch:
            use_scheduler(patch, scheduler)
            patch.setattr(_pool, "_cpus", lambda: cpus)
            patch.setattr(_pool, "_pmap", record)
            tables[cpus] = (
                epsilon_sweep(ALL_ONES, [3, 8, 24], 7, 11, grid, UNIFORM),
                nash_gap(ALL_ONES, 24, 7, 11, grid, UNIFORM))
    assert tables[1] == tables[2] == tables[3]
    assert [len(t.rows) for t in tables[3]] == [3, 9]
    assert plans == {1: [[2, 2, 2, 1]] * 2, 2: [[2, 2, 2, 1]] * 2,
                     3: [[2, 1, 1, 1, 1, 1]] * 2}


def divergence_steps(coeffs, law, cfg, grid):
    """Each replication's first non-finite step (None if it stays finite),
    one replication at a time through the full-path kernel."""
    rng = np.random.Generator(np.random.Philox())
    nc = coeffs.node_values(grid)
    steps = []
    for rep in range(cfg.reps):
        x0, dW = np.empty(cfg.N), np.empty((cfg.N, grid.M))
        sim._draw(rng, cfg, rep, math.sqrt(grid.dt), x0, dW)
        try:
            sim._euler_maruyama(nc, grid.dt, x0, dW,
                                sim._feedback([law], 1)[0], rep)
            steps.append(None)
        except SimulationDivergedError as exc:
            steps.append(exc.step)
    return steps


@pytest.mark.parametrize("scheduler, lanes", [("in-process", sim._LANES),
                                              ("pool", 8)], ids=SCHEDULERS)
def test_mean_only_studies_report_divergence_as_simulate_does(
        scheduler, lanes, monkeypatch):
    # states start near the largest float and multiplicative noise pushes
    # some over it.  Replication 0 diverges later than replications 1 and
    # 2, which share its kernel call (all 8 replications in process, the
    # first 4 of two calls on the pool), so the earliest failing step in
    # the call is not the one simulate names
    coeffs = CoefficientSet.from_constants(B=0.01, C=1.0, Q=1.0, R=1.0, H=1.0)
    grid = TimeGrid(T=1.0, M=100)
    initial = InitialLaw.point(1e308)
    N, reps, seed = 2, 8, 1
    use_scheduler(monkeypatch, scheduler)
    monkeypatch.setattr(sim, "_LANES", lanes)
    dec, = _build_laws([("decentralized", None)], coeffs, grid, initial)
    cfg = PopulationConfig(N=N, reps=reps, master_seed=seed, initial=initial)
    assert min(reps, lanes // N) >= 3
    steps = divergence_steps(coeffs, dec, cfg, grid)
    assert steps[0] is not None
    assert min(s for s in steps[1:3] if s is not None) < steps[0]
    with pytest.raises(SimulationDivergedError) as want:
        simulate(coeffs, dec, cfg, grid)
    for study in (
            lambda: epsilon_sweep(coeffs, [1, N], reps, seed, grid, initial),
            lambda: nash_gap(coeffs, N, reps, seed, grid, initial,
                             deviations=["zero"])):
        with pytest.raises(SimulationDivergedError) as got:
            study()
        assert (got.value.rep, got.value.agent, got.value.step) \
            == (want.value.rep, want.value.agent, want.value.step) \
            == (0, want.value.agent, steps[0])
        assert str(got.value) == str(want.value)


def test_epsilon_sweep_builds_no_path_array(monkeypatch):
    # one state or control array at N = 4096 and M = 1000 is 32.8 MB; the
    # sweep keeps prefix sums, so its peak stays below two of them.  In
    # process, so that tracemalloc sees the kernel's buffers
    use_scheduler(monkeypatch, "in-process")
    grid = TimeGrid(T=10.0, M=1000)
    tracemalloc.start()
    try:
        epsilon_sweep(ALL_ONES, [64, 4096], reps=2, master_seed=5, grid=grid,
                      initial=UNIFORM)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 4096 * 1000 * 8


def test_write_csv_round_trips_floats(tmp_path):
    path = tmp_path / "vals.csv"
    values = np.array([0.1 + 0.2, 1.0 / 3.0, math.inf])
    # a float64 array, a tuple of Python floats, ints, bools and labels
    write_csv(path, ("k", "v", "w", "b", "s"),
              ([1, 2, math.inf], values, tuple(values.tolist()),
               (True, False, True), ("a", "b", "c")), comments=("hello",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# hello"
    assert lines[1] == "k,v,w,b,s"
    assert [line.split(",")[0] for line in lines[2:]] == ["1", "2", "inf"]
    assert [line.split(",")[3:] for line in lines[2:]] == [
        ["true", "a"], ["false", "b"], ["true", "c"]]
    for line, v in zip(lines[2:], values):
        assert float(line.split(",")[1]) == v
        assert line.split(",")[1] == line.split(",")[2]


def test_figure_data_writes_expected_files(tmp_path):
    grid = TimeGrid(T=10.0, M=400)
    sweep = epsilon_sweep(ALL_ONES, [4, 8], reps=2, master_seed=3,
                          grid=TimeGrid(T=1.0, M=100), initial=UNIFORM)
    paths = _figure_files(solve_limit(ALL_ONES, grid), sweep, tmp_path)
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["fig1.csv", "fig1.gp", "fig2.csv", "fig2.gp"]
    last = open(os.path.join(tmp_path, "fig1.csv")).read().splitlines()[-1]
    t, p, k = (float(v) for v in last.split(","))
    assert t == 10.0
    assert p == 1.0
    assert k == -1.0


def test_figure_data_is_byte_identical_across_runs(tmp_path):
    grid = TimeGrid(T=2.0, M=200)
    sweep = epsilon_sweep(ALL_ONES, [4, 8], reps=2, master_seed=3,
                          grid=TimeGrid(T=1.0, M=100), initial=UNIFORM)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    _figure_files(solve_limit(ALL_ONES, grid), sweep, d1)
    _figure_files(solve_limit(ALL_ONES, grid), sweep, d2)
    for name in ("fig1.csv", "fig2.csv", "fig1.gp", "fig2.gp"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
