"""Acceptance criteria, one test per numbered criterion.

Each test pins its fixture (model, grid, seeds) and its tolerance; the
budgets in the comments are generous upper bounds on a single core.
"""

import hashlib
import json
import math

import numpy as np

from lqmfg.cli import run
from lqmfg.experiments import epsilon_sweep, nash_gap
from lqmfg.model import (CoefficientSet, InitialLaw, TimeGrid,
                         canonical_fingerprint)
from lqmfg.riccati import gains, solve_finite_N, solve_limit
from lqmfg.sim import (PopulationConfig, convexity_probe, cost_decomposition,
                       simulate, stationarity_residual)
from lqmfg.synthesis import StrategyLaw, make_law, solve_mean_field

ALL_ONES = CoefficientSet.from_constants(A=1, B=1, C=1, D=1, f=1, g=1, Q=1,
                                         R=1, Gamma=1, eta=1, H=1, Gamma0=1,
                                         eta0=1)
UNIFORM = InitialLaw.uniform(0.0, 20.0)


def test_criterion_01_riccati_closed_form_oracle():
    # A=C=D=0, B=Q=R=1, H=0, T=1: P(t) = tanh(T-t); M=1000; < 1 s
    coeffs = CoefficientSet.from_constants(A=0, B=1, C=0, D=0, f=0, g=0, Q=1,
                                           R=1, Gamma=0, eta=0, H=0, Gamma0=0,
                                           eta0=0)
    grid = TimeGrid(T=1.0, M=1000)
    sol = solve_limit(coeffs, grid)
    exact = np.tanh(grid.T - grid.nodes)
    assert np.max(np.abs(sol.P - exact)) <= 1e-8


def test_criterion_02_rk4_fourth_order_on_P():
    # halving dt cuts the max P-error vs an M=1e6 reference by [8, 32]; < 10 s
    grid_ref = TimeGrid(T=10.0, M=1_000_000)
    ref = solve_limit(ALL_ONES, grid_ref)
    errs = {}
    for M in (500, 1000):
        sol = solve_limit(ALL_ONES, TimeGrid(T=10.0, M=M))
        step = grid_ref.M // M
        errs[M] = float(np.max(np.abs(sol.P - ref.P[::step])))
    ratio = errs[500] / errs[1000]
    assert 8.0 <= ratio <= 32.0


def test_criterion_03_all_ones_steady_state():
    # T=10 all-ones: P(0) near 2+sqrt(5); terminal rows exact; < 1 s
    grid = TimeGrid(T=10.0, M=1000)
    sol = solve_limit(ALL_ONES, grid)
    assert abs(sol.P[0] - (2.0 + math.sqrt(5.0))) <= 1e-3
    assert sol.P[-1] == 1.0
    assert sol.K[-1] == -1.0


def test_criterion_04_finite_N_degeneracy():
    # Gamma = 0, Gamma0 = 0: population system collapses onto the limit
    # for N in {1, 10, 1000}; < 5 s
    coeffs = CoefficientSet.from_constants(A=0.5, B=1, C=0.3, D=0.4, f=0.1,
                                           g=0.2, Q=2, R=1, Gamma=0, eta=0.5,
                                           H=1.5, Gamma0=0, eta0=0.7)
    grid = TimeGrid(T=1.0, M=20000)
    lim = solve_limit(coeffs, grid)
    for N in (1, 10, 1000):
        fin = solve_finite_N(coeffs, N, grid)
        assert np.max(np.abs(fin.P - lim.P)) <= 1e-9
        assert np.max(np.abs(fin.K - lim.K)) <= 1e-9
        assert np.max(np.abs(fin.phi - lim.phi)) <= 1e-9


def test_criterion_05_finite_N_first_order_rate():
    # all-ones, Ns = {10,20,40,80}: consecutive sup-error ratios per column
    # in [0.3, 0.7]; < 5 s
    grid = TimeGrid(T=10.0, M=1000)
    lim = solve_limit(ALL_ONES, grid)
    sups = []
    for N in (10, 20, 40, 80):
        fin = solve_finite_N(ALL_ONES, N, grid)
        sups.append((np.max(np.abs(fin.P - lim.P)),
                     np.max(np.abs(fin.K - lim.K)),
                     np.max(np.abs(fin.phi - lim.phi))))
    for j in range(3):
        for a, b in zip(sups, sups[1:]):
            assert 0.3 <= b[j] / a[j] <= 0.7


def test_criterion_06_stationarity_identity():
    # centralized population, N=50, reps=5: relative residual of the
    # optimality equation at roundoff; perturbed gains are detected; < 10 s
    grid = TimeGrid(T=10.0, M=1000)
    fin = solve_finite_N(ALL_ONES, 50, grid)
    gn = gains(fin, ALL_ONES)
    law = make_law("centralized", gn)
    cfg = PopulationConfig(N=50, reps=5, master_seed=2026, initial=UNIFORM)
    paths = simulate(ALL_ONES, law, cfg, grid)
    assert stationarity_residual(paths, fin, gn, ALL_ONES).max_rel <= 1e-9

    perturbed = StrategyLaw(kind=law.kind, grid=grid,
                            k_self=law.k_self + 1e-3, k_mean=law.k_mean,
                            k_const=law.k_const)
    paths_p = simulate(ALL_ONES, perturbed, cfg, grid)
    assert stationarity_residual(paths_p, fin, gn,
                                 ALL_ONES).max_rel >= 1e-4


def test_criterion_07_cost_decomposition_identity():
    # N=32, 10 seeded random deviations: per-replication decomposition
    # residual <= C*dt with C = 1e-7 for this fixture, at M and 2M; the
    # verified bound therefore halves when M doubles; < 30 s
    C = 1e-7
    thetas = np.random.default_rng(77).uniform(0.25, 1.75, size=10)
    for M in (500, 1000):
        grid = TimeGrid(T=1.0, M=M)
        lim = solve_limit(ALL_ONES, grid)
        gl = gains(lim, ALL_ONES)
        mf = solve_mean_field(ALL_ONES, gl, UNIFORM.mean, grid)
        dec = make_law("decentralized", gl, xbar=mf)
        cfg = PopulationConfig(N=32, reps=3, master_seed=77, initial=UNIFORM)
        base = simulate(ALL_ONES, dec, cfg, grid)
        for theta in thetas:
            law = make_law("scaled", gl, xbar=mf, theta=float(theta))
            report = cost_decomposition(0, base, law, ALL_ONES, grid)
            assert report.max_residual <= C * grid.dt


def test_criterion_08_mean_field_estimate_rate():
    # all-ones, Ns = {64,...,1024}, reps=50: N*eps^2 consecutive ratios in
    # [0.5, 2] and log-log slope in [-0.65, -0.35]; < 3 min
    grid = TimeGrid(T=10.0, M=1000)
    tab = epsilon_sweep(ALL_ONES, [64, 128, 256, 512, 1024], reps=50,
                        master_seed=2024, grid=grid, initial=UNIFORM)
    n_eps_sq = [n * e * e for n, e, _ in tab.rows]
    for a, b in zip(n_eps_sq, n_eps_sq[1:]):
        assert 0.5 <= b / a <= 2.0
    assert -0.65 <= tab.metadata["slope"] <= -0.35


def test_criterion_09_nash_gap_trend():
    # Ns = {64,256,1024}, reps=100, default deviation family: calibration
    # row exactly zero; max-gap nonincreasing within 3 paired standard
    # errors; < 5 min
    grid = TimeGrid(T=10.0, M=1000)
    gaps = []
    for N in (64, 256, 1024):
        tab = nash_gap(ALL_ONES, N=N, reps=100, master_seed=2024, grid=grid,
                       initial=UNIFORM)
        calibration = {r[0]: r for r in tab.rows}["scaled(1)"]
        assert calibration[1] == 0.0
        assert calibration[2] == 0.0
        gaps.append((tab.metadata["max_gap"],
                     tab.metadata["max_gap_stderr"]))
    for (g_a, se_a), (g_b, se_b) in zip(gaps, gaps[1:]):
        assert g_b <= g_a + 3.0 * math.hypot(se_a, se_b)


def test_criterion_10_convexity_probe():
    # (a) all-ones: sampled minimum not significantly negative;
    # (b) Q=H=0, R=-1: a negative value is found; < 1 min
    grid = TimeGrid(T=1.0, M=200)
    report = convexity_probe(ALL_ONES, N=50, grid=grid, samples=64, seed=7)
    assert report.min_value >= -3.0 * report.min_stderr

    concave = CoefficientSet.from_constants(A=0.3, B=1, C=0.2, D=0.5, f=0,
                                            g=0, Q=0, R=-1, Gamma=0.5, eta=0,
                                            H=0, Gamma0=0.5, eta0=0)
    report = convexity_probe(concave, N=50, grid=grid, samples=64, seed=7)
    assert report.min_value < 0.0


CLI_CONFIG = {
    "grid": {"T": 1.0, "M": 200},
    "coefficients": {k: 1 for k in ("A", "B", "C", "D", "f", "g", "Q", "R",
                                    "Gamma", "eta", "H", "Gamma0", "eta0")},
    "initial": {"kind": "uniform", "a": 0.0, "b": 20.0},
    "seed": 2024,
    "experiments": {
        "simulate": {"N": 8, "reps": 3, "law": "decentralized"},
        "epsilon_sweep": {"Ns": [8, 16, 32], "reps": 5},
        "riccati_convergence": {"Ns": [5, 10, "inf"]},
        "nash_gap": {"N": 8, "reps": 5},
    },
}


def test_criterion_11_cli_byte_determinism(tmp_path):
    # same config + seed twice (and more workers) gives byte-identical
    # CSVs for every subcommand that writes tables; < 1 min
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CLI_CONFIG))
    jobs = (("solve-riccati", ["--population", "8"], "riccati_limit.csv"),
            ("mean-field", [], "mean_field.csv"),
            ("simulate", [], "summary.csv"),
            ("epsilon-sweep", [], "epsilon_sweep.csv"),
            ("epsilon-sweep", ["--workers", "4"], "epsilon_sweep.csv"),
            ("riccati-convergence", [], "riccati_convergence.csv"),
            ("nash-gap", [], "nash_gap.csv"),
            ("figures", [], "fig2.csv"))
    seen = {}
    for k, (sub, extra, table) in enumerate(jobs):
        out = tmp_path / f"run{k}"
        assert run([sub, "--config", str(cfg_path),
                    "--out-dir", str(out)] + extra) == 0
        data = (out / table).read_bytes()
        if (sub, table) in seen:
            assert data == seen[(sub, table)]
        else:
            rerun = tmp_path / f"run{k}_again"
            assert run([sub, "--config", str(cfg_path),
                        "--out-dir", str(rerun)] + extra) == 0
            assert (rerun / table).read_bytes() == data
        seen[(sub, table)] = data


def test_criterion_11_monte_carlo_csv_bytes_are_pinned(tmp_path):
    # SHA-256 of the Monte Carlo tables on the criterion-11 config, captured
    # before the simulation and cost code shared one Euler-Maruyama kernel
    # and one quadrature; a change here is an output change, not roundoff.
    # nash-gap was re-pinned when its replays became one batched call whose
    # mean sums (x + others) / N: every gap moved by under 1e-14 relative.
    # All three were re-pinned when the Euler-Maruyama step became the
    # affine x' = alpha x + beta: every value moved by under 4e-14 relative
    pinned = {
        "simulate": ("summary.csv", "40165fc4e4b6e445a2f2459e8a1b6194"
                                    "7ff5b6a756d5da90fd34dd1986ada576"),
        "epsilon-sweep": ("epsilon_sweep.csv",
                          "8109427278db163670118978feab7c8b"
                          "f9206e392336792025f58aa31ab7a874"),
        "nash-gap": ("nash_gap.csv", "7766a01e391d91b8275cb03a767996ff"
                                     "dd7c8c6a514dde7d823619ea5edb4927"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CLI_CONFIG))
    for sub, (table, digest) in pinned.items():
        out = tmp_path / sub
        assert run([sub, "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        assert hashlib.sha256((out / table).read_bytes()).hexdigest() == digest


MIXED_CONFIG = {
    "grid": {"T": 1.0, "M": 40},
    # sampled A, indefinite R, gaussian initial law
    "coefficients": {"A": [(k % 7 - 3) / 4 for k in range(41)], "B": 1,
                     "C": 0.3, "D": 2, "f": 0.2, "g": 0.5, "Q": 1, "R": -0.2,
                     "Gamma": 0.8, "eta": 1, "H": 1, "Gamma0": 0.6,
                     "eta0": 0.5},
    "initial": {"kind": "gaussian", "mean": 2.0, "var": 3.0},
    "seed": 2024,
    "experiments": {"simulate": {"N": 6, "reps": 2},
                    "epsilon_sweep": {"Ns": [4, 8, 16], "reps": 3},
                    "riccati_convergence": {"Ns": [5, 10, "inf"]}},
}


def test_criterion_11_table_writer_bytes_are_pinned(tmp_path):
    # SHA-256 of every gain, path, law and figure table on a mixed config,
    # captured before the CSV writer took columns instead of rows; the
    # simulate paths and summaries and fig2.csv were re-pinned when the
    # Euler-Maruyama step became affine (under 5e-14 relative)
    jobs = (
        ("solve-riccati", ["--population", "6"], {
            "riccati_limit.csv": "f936353784e3700a446e6caae4b549b3"
                                 "3f275f362d3a926de5b301c68c2b46ff",
            "riccati_finite.csv": "6ea6e81a9671c0b1d5bdd3d0b2528fee"
                                  "c8a9f681dd25dc69a828a6efb5189437"}),
        ("mean-field", [], {
            "mean_field.csv": "a410a04ee79732cd4da715d6fc9b6785"
                              "6e91a2b4897a788d95c414be4bf7e8e5"}),
        ("simulate", ["--law", "scaled", "--theta", "0.3", "--paths"], {
            "law.csv": "ff33f997107dd2ebb292959bfac6f194"
                       "426e3836b4ee8a512ebe8ec49d07e919",
            "summary.csv": "dfdfa19c0c11b3b33eec6294a91a550c"
                           "1f74392ac4ff5fcae7ac8c0d3fe03f8a",
            "paths_rep000.csv": "499d19ce42614b41ee1e4cd841ac9e4b"
                                "c68b21dfc413d615616b193658ff11fa",
            "paths_rep001.csv": "d0da60268249d830582f5d9837decea1"
                                "f054325603a3b4898a24225e19a6d0f3"}),
        ("simulate", ["--law", "centralized", "--paths"], {
            "law.csv": "b13aec5d5cbb5b231252720fa5577d54"
                       "5e0541b6ccab54e7f0dace932468ae8b",
            "summary.csv": "91c987d9823a8ea859601320d8f06268"
                           "dfd051a0e26faafc588ef907d31c5e01",
            "paths_rep000.csv": "2884ff0c2fbaf9dfc864fa4bddfebbc5"
                                "f85d744171441331cd5865deef60eda4",
            "paths_rep001.csv": "6295cc92bbdba85bd5150458a489c154"
                                "00e4455a49dd6fb484f22063686c83ce"}),
        ("riccati-convergence", [], {
            "riccati_convergence.csv": "c01f54761e8102b3dda22e7e6af1228c"
                                       "35915ac7cf260203c30eb78d8c9dca4d"}),
        ("figures", [], {
            "fig1.csv": "1312e25a6c437f2bdaeafd63d1b209401"
                        "dd935c57c3c345ec7a374b13e91d999",
            "fig2.csv": "707b2e47659bea1f4525b3791b4fd57a"
                        "e780845e805cf4a3b93cb0727651fa46"}),
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MIXED_CONFIG))
    for k, (sub, extra, pinned) in enumerate(jobs):
        out = tmp_path / f"run{k}"
        assert run([sub, "--config", str(cfg_path),
                    "--out-dir", str(out)] + extra) == 0
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(pinned)
        for table, digest in pinned.items():
            data = (out / table).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, table
    # the convergence table carries the inf sentinel row
    conv = (tmp_path / "run4" / "riccati_convergence.csv").read_text()
    assert conv.splitlines()[-1] == "inf,0.0,0.0,0.0"


def test_criterion_11_manifests_are_pinned(tmp_path):
    # SHA-256 of the canonical JSON of each manifest the two pin tests above
    # write, less duration_seconds, plus validate on both configs: the
    # results, study metadata, config fingerprints and assumption flags
    jobs = (
        (CLI_CONFIG, "validate", [], "71207bb98491fbc28a841cf20d833d6e"
                                     "a82a4d2026043d1bf880a491fc75625e"),
        (CLI_CONFIG, "simulate", [], "9b8e5fd9d88b456315e7290edcdc9a06"
                                     "fff836815eed70200ad828f0a138a657"),
        (CLI_CONFIG, "epsilon-sweep", [], "47a700c1658a22a090989a6153aee218"
                                          "eaad9bb06f8f45d075677ebd2d02a99e"),
        (CLI_CONFIG, "nash-gap", [], "bae910e4fb0b63ffcf0cc8026a5b7713"
                                     "10f58a422d2cef4c79e2419488d5841a"),
        (MIXED_CONFIG, "validate", [], "636f961932f12b47dbd3381cabdd41ab"
                                       "601dac7760693a8d70596c27f56d4736"),
        (MIXED_CONFIG, "solve-riccati", ["--population", "6"],
         "59774d93b24e8d2aeb15b54b3de82243e421f194b0d4ead11fb79715aae0e01d"),
        (MIXED_CONFIG, "mean-field", [], "f29a8486f42828837fe5176e601e2b57"
                                         "2d7907b3328ebf7966da0677269375b5"),
        (MIXED_CONFIG, "simulate",
         ["--law", "scaled", "--theta", "0.3", "--paths"],
         "ebc04ef805e5218b0d80dbe8af921bff50feea91fcc6489239b69ee91158d05e"),
        (MIXED_CONFIG, "simulate", ["--law", "centralized", "--paths"],
         "a5883d173555bc29b0cd7d63d8f288d0b6d729956c8549f0efb111b20252b3aa"),
        (MIXED_CONFIG, "riccati-convergence", [],
         "c8d501c49e682fb67522623f8e7f7e854abccd7ba5d0107b2970f74824b121d7"),
        (MIXED_CONFIG, "figures", [], "841f7a6c713a82861679b4b480ac2bbb"
                                      "74258c552c399fecf891fd8d0b658903"),
    )
    for k, (cfg, sub, extra, digest) in enumerate(jobs):
        cfg_path = tmp_path / f"cfg{k}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"run{k}"
        assert run([sub, "--config", str(cfg_path),
                    "--out-dir", str(out)] + extra) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest.pop("duration_seconds")
        assert canonical_fingerprint(manifest) == digest, (sub, extra)
