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
from lqmfg.riccati import convexity_margin, gains, solve_finite_N, solve_limit
from lqmfg.sim import PopulationConfig, simulate
from lqmfg.synthesis import StrategyLaw, make_law, solve_mean_field
from oracles import (convexity_probe, cost_decomposition,
                     stationarity_residual)

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
    assert stationarity_residual(paths, fin, ALL_ONES).max_rel <= 1e-9

    perturbed = StrategyLaw(kind=law.kind, grid=grid,
                            k_self=law.k_self + 1e-3, k_mean=law.k_mean,
                            k_const=law.k_const)
    paths_p = simulate(ALL_ONES, perturbed, cfg, grid)
    assert stationarity_residual(paths_p, fin, ALL_ONES).max_rel >= 1e-4


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
            report = cost_decomposition(0, base, cfg, law, ALL_ONES, grid)
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
    # (a) all-ones: sampled minimum not significantly negative, and the
    # exact margin positive, R + D^2 H (1 - 1/N)^2 at T; (b) Q=H=0, R=-1: a
    # negative value is found, and the margin is R; < 1 min.  The Monte
    # Carlo probe lives in the tests as the margin's independent oracle
    grid = TimeGrid(T=1.0, M=200)
    report = convexity_probe(ALL_ONES, N=50, grid=grid, samples=64, seed=7)
    assert report.min_value >= -3.0 * report.min_stderr
    margin, t = convexity_margin(ALL_ONES, grid, 50)
    assert (margin, t) == (1.0 + (1.0 - 1.0 / 50) ** 2, 1.0)

    concave = CoefficientSet.from_constants(A=0.3, B=1, C=0.2, D=0.5, f=0,
                                            g=0, Q=0, R=-1, Gamma=0.5, eta=0,
                                            H=0, Gamma0=0.5, eta0=0)
    report = convexity_probe(concave, N=50, grid=grid, samples=64, seed=7)
    assert report.min_value < 0.0
    assert convexity_margin(concave, grid, 50) == (-1.0, 0.0)


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
    # affine x' = alpha x + beta: every value moved by under 4e-14 relative.
    # They were re-pinned again when phi, phi_N and the mean-field path
    # became affine RK4 maps and (P_N, K_N) took completed-square form: the
    # gains under them moved at roundoff, and every value by under 3.5e-14
    # relative (at most 7.6e-15 of its column's largest magnitude).  All
    # three were re-pinned when every population sum became one pairwise
    # add along the agent axis: every value moved by under 1.4e-15 relative
    pinned = {
        "simulate": ("summary.csv", "e9e0d55409c724e533104aecbbc44581"
                                    "966148a778d1186ec091de14261e0fe3"),
        "epsilon-sweep": ("epsilon_sweep.csv",
                          "82f4775b19dbcee8817d81b38471e486"
                          "412fa784eb7d9997d9e3b6360a8ac5e8"),
        "nash-gap": ("nash_gap.csv", "fea4ebddcca27b2afac54ebadb3a099a"
                                     "dfbab68fa6dbfba97ce476f2665dcfd5"),
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
    # Euler-Maruyama step became affine (under 5e-14 relative).  All but
    # fig1.csv were re-pinned when phi, phi_N and the mean-field path became
    # affine RK4 maps and (P_N, K_N) took completed-square form: every value
    # moved by at most 1.3e-15 of its column's largest magnitude, and by
    # 3.2e-13 relative at most, on entries of delta and k_const near zero.
    # fig2.csv was re-pinned when every population sum became one pairwise
    # add along the agent axis (under 5.6e-16 relative); the simulate
    # tables, at N = 6, add their agents in the same order as before
    jobs = (
        ("solve-riccati", ["--population", "6"], {
            "riccati_limit.csv": "8408a807c7028c4a15571f700e36376e"
                                 "1e923551febca368958d3dfdc8753167",
            "riccati_finite.csv": "9d887bcd977ea10461533775ef6c95b8"
                                  "386264eb39e36938b0619cd77af3677e"}),
        ("mean-field", [], {
            "mean_field.csv": "8bd6da4066fd1a589aae8b7f8d6468ac"
                              "37f0d5038c0ad96c072bd39be1185975"}),
        ("simulate", ["--law", "scaled", "--theta", "0.3", "--paths"], {
            "law.csv": "a48cabef64bc765b8335f6bbdd80280a"
                       "d0c22faa1286ada401e7d7e76e76ae00",
            "summary.csv": "d1edf8464b2dd5cc6113bb85283749bf"
                           "5cf80fcc0d6c79442aaa70b4f1fcafc4",
            "paths_rep000.csv": "0ba097659c51145f6255199915980fa2"
                                "806224b483312cf689eda6a2450956a8",
            "paths_rep001.csv": "b81b7eb55a31dc39102f96791a36df52"
                                "0e13f9bae0a0bac92e0c4a58e285219b"}),
        ("simulate", ["--law", "centralized", "--paths"], {
            "law.csv": "a335c6de3e9d1ce01959dddeec2394d8"
                       "2fa3b9ec2991ed6ae1e38eebded5d8a2",
            "summary.csv": "e575a9fc7412a3ec91e6b339443eb36e"
                           "53dbbfeb9ec2e138b37b240138820e37",
            "paths_rep000.csv": "2ba97e748248a24d19124a5047c5e21f"
                                "defcb966bf0363e33ccc66211460d6eb",
            "paths_rep001.csv": "93e40f2ec71a26fcd7519990b69f0cdf"
                                "9c77cb160c702ef69875c1996e33c771"}),
        ("riccati-convergence", [], {
            "riccati_convergence.csv": "731d8d13b8df310a0e5db961b0a24ce5"
                                       "25a4370075f25af995e9eab62c11daba"}),
        ("figures", [], {
            "fig1.csv": "1312e25a6c437f2bdaeafd63d1b209401"
                        "dd935c57c3c345ec7a374b13e91d999",
            "fig2.csv": "8ce75f01df93e1d8ff1f49df275c17db"
                        "986a23ff0b38ad766ae3c5b9d853e5ab"}),
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
    # results, study metadata, config fingerprints and assumption flags.
    # The seven whose results carry a moved solver or Monte Carlo value were
    # re-pinned with the tables above when the RK4 steps were reordered.
    # validate, solve-riccati, epsilon-sweep, nash-gap and figures were
    # re-pinned when their results gained convexity_margin,
    # convexity_margin_t and convex, and validate again when it lost
    # all_finite, which could not be False; no table byte moved.
    # epsilon-sweep and nash-gap were re-pinned when every population sum
    # became one pairwise add along the agent axis: their slope and max_gap
    # fields moved by under 1.4e-15 relative.  epsilon-sweep, nash-gap,
    # riccati-convergence and figures were re-pinned when the study key
    # config_fingerprint, a hash of the coefficients and grid alone, became
    # model_fingerprint; no other field moved.  riccati-convergence was
    # re-pinned when its rate_constant_* became the c of a least-squares
    # fit c/N + d/N^2 in place of c/N alone; no other field moved
    jobs = (
        (CLI_CONFIG, "validate", [], "6b825b127a329c16eee353e077361226"
                                     "67748c076933abb6c6ea78f6f2f32708"),
        (CLI_CONFIG, "simulate", [], "759f042e3d6235d25c23de07bd900a4e"
                                     "dee060a46357309acf3e78d2d38fa104"),
        (CLI_CONFIG, "epsilon-sweep", [], "5d238189a7c38238537808a0cd4a2ddd"
                                          "7b76a72b587e484770c705501fcfef37"),
        (CLI_CONFIG, "nash-gap", [], "15c3788d6dada753193e27099b7594ae"
                                     "842bd3dab76ad4203d71ca7c9192696c"),
        (MIXED_CONFIG, "validate", [], "5b01b51c8ea9ecf4e200381970458940"
                                       "51776b794cf5009829bc07e02cb869ac"),
        (MIXED_CONFIG, "solve-riccati", ["--population", "6"],
         "11025ab626d95127f0caafb0fcbf2add582b39ec13d08686647911f10175d419"),
        (MIXED_CONFIG, "mean-field", [], "22a12d0af1758ddf9fe028846f652e95"
                                         "28ba12a731eb44062e9b2656def99593"),
        (MIXED_CONFIG, "simulate",
         ["--law", "scaled", "--theta", "0.3", "--paths"],
         "ebc04ef805e5218b0d80dbe8af921bff50feea91fcc6489239b69ee91158d05e"),
        (MIXED_CONFIG, "simulate", ["--law", "centralized", "--paths"],
         "af0bf2ec6c8795329f0b0c8b4e071127d50322cbb7fb3091f573622fc668b90e"),
        (MIXED_CONFIG, "riccati-convergence", [],
         "2097b20e9bd8836796fbd89878742856cba6f581e36ccc74d6defdbbc59e6d02"),
        (MIXED_CONFIG, "figures", [], "f3a2a46f241794a66406ee38255648b5"
                                      "a2028b9a7f680d8c573927ae982eb45c"),
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
