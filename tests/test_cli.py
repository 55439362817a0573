import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import lqmfg.cli as cli
import lqmfg.experiments as experiments
from lqmfg import _pool, riccati, sim
from lqmfg.cli import _CONFIG, _KEYS, _SECTIONS, run
from lqmfg.model import (_INITIAL_KEYS, parse_coefficients, parse_grid,
                         parse_initial_law)

ALL_ONES = {name: 1 for name in
            ("A", "B", "C", "D", "f", "g", "Q", "R", "Gamma", "eta", "H",
             "Gamma0", "eta0")}


ALLONES_PATH = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "allones.json")


def make_config(tmp_path, name="cfg.json", coefficients=None, grid=None,
                initial=None, seed=11, experiments=None):
    cfg = {
        "grid": grid or {"T": 1.0, "M": 100},
        "coefficients": coefficients or dict(ALL_ONES),
        "initial": initial or {"kind": "uniform", "a": 0.0, "b": 20.0},
        "seed": seed,
        "experiments": experiments or {},
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def test_validate_reports_and_exits_zero(tmp_path, capsys):
    cfg = make_config(tmp_path)
    out = tmp_path / "out"
    assert run(["validate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert "standing_assumptions_hold: True" in capsys.readouterr().out
    manifest = read_manifest(out)
    assert manifest["exit_code"] == 0
    assert manifest["subcommand"] == "validate"
    assert manifest["master_seed"] == 11


def test_solve_riccati_writes_both_variants(tmp_path):
    cfg = make_config(tmp_path)
    out = tmp_path / "out"
    code = run(["solve-riccati", "--config", cfg, "--out-dir", str(out),
                "--population", "10"])
    assert code == 0
    limit_lines = (out / "riccati_limit.csv").read_text().splitlines()
    assert limit_lines[0] == "t,P,K,phi,alpha,beta,gamma,delta"
    assert len(limit_lines) == 102
    finite_lines = (out / "riccati_finite.csv").read_text().splitlines()
    assert finite_lines[0] == "# N = 10"
    last = [float(v) for v in finite_lines[-1].split(",")]
    # terminal data scale by (1 - 1/N) in the population system
    assert last[1] == 0.9
    assert last[2] == -0.9
    assert sorted(read_manifest(out)["outputs"]) == [
        "riccati_finite.csv", "riccati_limit.csv"]


def test_mean_field_starts_at_analytic_mean(tmp_path):
    cfg = make_config(tmp_path)
    out = tmp_path / "out"
    assert run(["mean-field", "--config", cfg, "--out-dir", str(out)]) == 0
    first = (out / "mean_field.csv").read_text().splitlines()[1]
    t0, x0 = (float(v) for v in first.split(","))
    assert t0 == 0.0
    assert x0 == 10.0


def test_simulate_writes_summary_law_and_paths(tmp_path):
    cfg = make_config(tmp_path,
                      experiments={"simulate": {"N": 6, "reps": 3,
                                                "law": "decentralized"}})
    out = tmp_path / "out"
    code = run(["simulate", "--config", cfg, "--out-dir", str(out),
                "--paths"])
    assert code == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "agent,mean_cost,stderr"
    assert len(summary) == 7
    law = (out / "law.csv").read_text().splitlines()
    assert law[0] == "# kind = decentralized"
    assert law[1] == "# mean_source = precomputed"
    assert law[2] == "t,k_self,k_mean,k_const"
    path_files = sorted(p.name for p in out.glob("paths_rep*.csv"))
    assert path_files == ["paths_rep000.csv", "paths_rep001.csv",
                          "paths_rep002.csv"]
    header = (out / "paths_rep000.csv").read_text().splitlines()[0]
    assert header == "t," + ",".join(f"agent{i}" for i in range(6))


def test_simulate_flags_override_config(tmp_path):
    cfg = make_config(tmp_path,
                      experiments={"simulate": {"N": 6, "reps": 3}})
    out = tmp_path / "out"
    code = run(["simulate", "--config", cfg, "--out-dir", str(out),
                "--population", "4", "--reps", "2", "--law", "scaled",
                "--theta", "0.5"])
    assert code == 0
    manifest = read_manifest(out)
    assert manifest["results"]["N"] == 4
    assert manifest["results"]["reps"] == 2
    assert manifest["results"]["law"] == "scaled(0.5)"


def test_simulate_reports_every_digit_of_theta(tmp_path):
    cfg = make_config(tmp_path, experiments={"simulate": {
        "N": 2, "reps": 1, "law": "scaled", "theta": 0.1234567}})
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    law = (out / "law.csv").read_text().splitlines()
    assert law[0] == "# kind = scaled(0.1234567)"
    assert read_manifest(out)["results"]["law"] == "scaled(0.1234567)"


def test_nash_gap_reads_the_labels_the_library_writes(tmp_path):
    # an exponent label, as StrategyLaw.label writes theta = 1e-5
    cfg = make_config(tmp_path, experiments={"nash_gap": {
        "N": 3, "reps": 2, "deviations": ["scaled(1e-05)", "scaled(+2.5E-1)"]}})
    out = tmp_path / "out"
    assert run(["nash-gap", "--config", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "nash_gap.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [
        "scaled(+2.5E-1)", "scaled(1)", "scaled(1e-05)"]


def test_abbreviated_flags_exit_2(tmp_path, capsys, monkeypatch):
    # each flag has one spelling: a unique prefix of it is not a second one
    cfg = make_config(tmp_path, experiments={"simulate": {"N": 3, "reps": 1}})
    monkeypatch.chdir(tmp_path)
    for flags in (["--out", "x"], ["--pop", "3"], ["--grid", "20"]):
        assert run(["simulate", "--config", cfg] + flags) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    # --out is not --out-dir, so x is never written to
    assert not (tmp_path / "x").exists()
    # a full name with an equals sign is still the one spelling
    assert run(["simulate", "--config", cfg, "--out-dir=y",
                "--population=2"]) == 0
    assert read_manifest(tmp_path / "y")["results"]["N"] == 2


def test_missing_config_exits_2_with_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["solve-riccati", "--config", str(tmp_path / "nope.json"),
                "--out-dir", str(out)])
    assert code == 2
    assert "not found" in capsys.readouterr().err
    manifest = read_manifest(out)
    assert manifest["exit_code"] == 2
    assert "error" in manifest


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate", "--config", "x.json"]) == 2
    capsys.readouterr()


def test_singular_gain_exits_3_and_names_time(tmp_path, capsys):
    coeffs = dict(ALL_ONES)
    coeffs["R"] = 0
    coeffs["D"] = 0
    cfg = make_config(tmp_path, coefficients=coeffs)
    out = tmp_path / "out"
    code = run(["solve-riccati", "--config", cfg, "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "t=" in err
    assert read_manifest(out)["exit_code"] == 3


def test_sign_change_of_the_weight_exits_3_with_manifest(tmp_path, capsys):
    # R + D^2 P passes through zero where P' has a pole; the steps jump over
    # it, and solve-riccati once exited 0 with a meaningless P
    coeffs = dict(A=0, B=1, C=0, D=1, f=0, g=0, Q=1, R=-1.5, Gamma=0,
                  eta=0, H=1, Gamma0=0, eta0=0)
    cfg = make_config(tmp_path, coefficients=coeffs,
                      grid={"T": 1.0037, "M": 200})
    out = tmp_path / "out"
    assert run(["solve-riccati", "--config", cfg, "--out-dir", str(out)]) == 3
    assert "changes sign" in capsys.readouterr().err
    manifest = read_manifest(out)
    assert manifest["exit_code"] == 3
    assert "changes sign" in manifest["error"]


def test_an_infinite_weight_exits_3_with_manifest(tmp_path, capsys):
    # D^2 overflows, so R + D^2 P is inf; solve-riccati once exited 0 with
    # alpha = inf in its CSV and every gain 0
    coeffs = dict(ALL_ONES, A=0, C=0, D=1e200, f=0, g=0, Gamma=0, eta=0,
                  Gamma0=0, eta0=0)
    cfg = make_config(tmp_path, coefficients=coeffs,
                      grid={"T": 1.0, "M": 2})
    out = tmp_path / "out"
    assert run(["solve-riccati", "--config", cfg, "--out-dir", str(out)]) == 3
    assert "weight is not finite at t=1" in capsys.readouterr().err
    manifest = read_manifest(out)
    assert manifest["exit_code"] == 3
    assert "is not finite" in manifest["error"]
    assert manifest["outputs"] == []


@pytest.mark.parametrize("H, D, M, t", [(0, 1e200, 2, 1), (1, 1e200, 2, 1),
                                        (1, [1, 1, 1e200, 1, 1], 4, 0.625)],
                         ids=["H0", "H1", "interior"])
def test_validate_and_solve_riccati_agree_on_a_weight_that_is_not_finite(
        tmp_path, capsys, H, D, M, t):
    # D^2 overflows: with H = 0 the terminal weight R + inf 0 is NaN, with
    # H = 1 it is inf, and a D sampled large at t = 0.5 makes the half-step
    # weight at t = 0.625 inf.  validate once exited 0 with a "not convex"
    # note, reading the failed sweep as non-convexity
    coeffs = dict(ALL_ONES, A=0, C=0, D=D, f=0, g=0, Gamma=0, eta=0, H=H,
                  Gamma0=0, eta0=0)
    cfg = make_config(tmp_path, coefficients=coeffs,
                      grid={"T": 1.0, "M": M})
    message = f"effective control weight is not finite at t={t:g}"
    for command in ("validate", "solve-riccati"):
        out = tmp_path / command
        assert run([command, "--config", cfg, "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        manifest = read_manifest(out)
        assert (manifest["exit_code"], manifest["error"]) == (3, message)
        assert manifest["outputs"] == []


@pytest.mark.parametrize("H", [1e9, 1e100, 1e155, 1e200])
def test_validate_reads_a_terminal_value_past_the_bound_at_T(tmp_path, H):
    # P(T) = H is past the solvers' bound, so the sweep has no regular
    # solution: the margin is min(0, R + D^2 H) = 0 at t = T.  Past
    # H = 1e154 validate once exited 3 on a weight it called not finite
    cfg = make_config(tmp_path, coefficients=dict(ALL_ONES, H=H),
                      grid={"T": 10.0, "M": 1000})
    out = tmp_path / "out"
    assert run(["validate", "--config", cfg, "--out-dir", str(out)]) == 0
    results = read_manifest(out)["results"]
    assert (results["convexity_margin"], results["convexity_margin_t"],
            results["convex"]) == (0.0, 10.0, False)


def test_simulate_keeps_one_replication_of_paths(tmp_path):
    # 16 replications of 256 agents on 100 steps hold 9.8 MB of states,
    # controls and increments; simulate costs each replication as it
    # arrives, so its peak stays below half of that
    cfg = make_config(tmp_path, experiments={"simulate": {"N": 256,
                                                          "reps": 16}})
    tracemalloc.start()
    try:
        assert run(["simulate", "--config", cfg,
                    "--out-dir", str(tmp_path / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 3 * 256 * 100 * 8


def test_divergence_exits_4(tmp_path, capsys):
    coeffs = dict(ALL_ONES)
    coeffs.update(A=6000, C=0, D=0, f=0, Q=0, H=0, Gamma=0, Gamma0=0,
                  eta=0, eta0=0)
    cfg = make_config(tmp_path, coefficients=coeffs,
                      grid={"T": 10.0, "M": 120},
                      initial={"kind": "point", "value": 1.0},
                      experiments={"simulate": {"N": 4, "reps": 1,
                                                "law": "zero"}})
    out = tmp_path / "out"
    code = run(["simulate", "--config", cfg, "--out-dir", str(out)])
    assert code == 4
    assert "diverged" in capsys.readouterr().err
    assert read_manifest(out)["exit_code"] == 4
    # replication 0's cost overflows and replication 1's path diverges:
    # the path is named, as when every path ran before any cost
    coeffs = dict({name: 0 for name in ALL_ONES}, A=100, B=1, C=1, Q=1, R=1)
    cfg = make_config(tmp_path, name="late.json", coefficients=coeffs,
                      grid={"T": 10.22, "M": 1022}, seed=9,
                      initial={"kind": "uniform", "a": 1.0, "b": 2.0},
                      experiments={"simulate": {"N": 2, "reps": 3,
                                                "law": "zero"}})
    out = tmp_path / "late"
    assert run(["simulate", "--config", cfg, "--out-dir", str(out)]) == 4
    assert "agent 0 diverged at step 1020 of replication 1" \
        in capsys.readouterr().err


def test_unwritable_out_dir_exits_5(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = make_config(tmp_path)
    code = run(["validate", "--config", cfg,
                "--out-dir", str(blocker / "sub")])
    assert code == 5
    capsys.readouterr()


def test_epsilon_sweep_reruns_are_byte_identical(tmp_path):
    cfg = make_config(tmp_path,
                      experiments={"epsilon_sweep": {"Ns": [4, 8],
                                                     "reps": 3}})
    outs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--workers", "4"])):
        out = tmp_path / name
        assert run(["epsilon-sweep", "--config", cfg, "--out-dir", str(out)]
                   + extra) == 0
        outs.append(out)
    ref = (outs[0] / "epsilon_sweep.csv").read_bytes()
    assert (outs[1] / "epsilon_sweep.csv").read_bytes() == ref
    assert (outs[2] / "epsilon_sweep.csv").read_bytes() == ref
    m0, m1 = read_manifest(outs[0]), read_manifest(outs[1])
    m0.pop("duration_seconds")
    m1.pop("duration_seconds")
    assert m0 == m1


def test_fingerprint_ignores_key_order(tmp_path):
    cfg_path = make_config(tmp_path, name="ordered.json")
    cfg = json.loads(open(cfg_path).read())
    shuffled = {k: cfg[k] for k in reversed(list(cfg))}
    shuffled["coefficients"] = {k: cfg["coefficients"][k]
                                for k in reversed(list(cfg["coefficients"]))}
    other = tmp_path / "shuffled.json"
    other.write_text(json.dumps(shuffled))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["validate", "--config", cfg_path,
                "--out-dir", str(out1)]) == 0
    assert run(["validate", "--config", str(other),
                "--out-dir", str(out2)]) == 0
    assert (read_manifest(out1)["config_fingerprint"]
            == read_manifest(out2)["config_fingerprint"])


def test_seed_and_grid_flags_override_config(tmp_path):
    cfg = make_config(tmp_path, seed=5)
    out = tmp_path / "out"
    assert run(["mean-field", "--config", cfg, "--out-dir", str(out),
                "--seed", "99", "--grid-steps", "64"]) == 0
    manifest = read_manifest(out)
    assert manifest["master_seed"] == 99
    assert manifest["grid"]["M"] == 64
    assert len((out / "mean_field.csv").read_text().splitlines()) == 66


def test_riccati_convergence_accepts_inf_sentinel(tmp_path):
    cfg = make_config(
        tmp_path,
        experiments={"riccati_convergence": {"Ns": [5, 10, "inf"]}})
    out = tmp_path / "out"
    assert run(["riccati-convergence", "--config", cfg,
                "--out-dir", str(out)]) == 0
    last = (out / "riccati_convergence.csv").read_text().splitlines()[-1]
    vals = last.split(",")
    assert math.isinf(float(vals[0]))
    assert [float(v) for v in vals[1:]] == [0.0, 0.0, 0.0]


def test_nash_gap_csv_contains_exact_calibration_row(tmp_path):
    cfg = make_config(tmp_path,
                      experiments={"nash_gap": {"N": 8, "reps": 3}})
    out = tmp_path / "out"
    assert run(["nash-gap", "--config", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "nash_gap.csv").read_text().splitlines()[1:]
    cal = [r for r in rows if r.startswith("scaled(1),")]
    assert cal == ["scaled(1),0.0,0.0"]
    assert read_manifest(out)["results"]["max_gap"] >= 0.0


def test_figures_writes_plots_and_data(tmp_path):
    cfg = make_config(tmp_path,
                      experiments={"epsilon_sweep": {"Ns": [4, 8],
                                                     "reps": 2}})
    out = tmp_path / "out"
    assert run(["figures", "--config", cfg, "--out-dir", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["outputs"] == ["fig1.csv", "fig1.gp", "fig2.csv",
                                   "fig2.gp"]
    fig2 = (out / "fig2.csv").read_text().splitlines()
    assert fig2[0] == "N,epsilon,stderr"
    assert len(fig2) == 3
    assert "plot" in (out / "fig1.gp").read_text()


def test_missing_experiment_section_exits_2(tmp_path, capsys):
    cfg = make_config(tmp_path)
    out = tmp_path / "out"
    assert run(["epsilon-sweep", "--config", cfg,
                "--out-dir", str(out)]) == 2
    capsys.readouterr()


def test_population_below_one_exits_2_with_manifest(tmp_path, capsys):
    cfg = make_config(tmp_path)
    out = tmp_path / "out"
    assert run(["riccati-convergence", "--config", cfg, "--out-dir", str(out),
                "--populations", "0,10"]) == 2
    assert "population size must be >= 1" in capsys.readouterr().err
    assert read_manifest(out)["exit_code"] == 2


def test_deviation_family_must_be_a_list(tmp_path, capsys):
    cfg = make_config(tmp_path, experiments={
        "nash_gap": {"N": 4, "reps": 2, "deviations": "zero"}})
    out = tmp_path / "out"
    assert run(["nash-gap", "--config", cfg, "--out-dir", str(out)]) == 2
    assert "experiments.nash_gap.deviations" in capsys.readouterr().err
    assert read_manifest(out)["exit_code"] == 2


def test_non_numeric_coefficient_exits_2_with_manifest(tmp_path, capsys):
    for name, raw in (("A", "x"), ("H", None), ("Gamma", [1, "x", 1])):
        coeffs = dict(ALL_ONES)
        coeffs[name] = raw
        cfg = make_config(tmp_path, coefficients=coeffs,
                          grid={"T": 1.0, "M": 2})
        out = tmp_path / f"out_{name}"
        assert run(["validate", "--config", cfg, "--out-dir", str(out)]) == 2
        assert f"coefficient {name!r} is not numeric" in capsys.readouterr().err
        assert read_manifest(out)["exit_code"] == 2


def test_bad_seed_exits_2_with_manifest(tmp_path, capsys):
    # a seed must key a 64-bit Philox stream: no bools, no wrap-around
    cases = [(seed, []) for seed in (True, -1, 2**64)]
    cases += [(11, ["--seed=-1"]), (11, ["--seed", str(2**64)])]
    for k, (seed, flags) in enumerate(cases):
        cfg = make_config(tmp_path, name=f"cfg{k}.json", seed=seed)
        out = tmp_path / f"out{k}"
        assert run(["solve-riccati", "--config", cfg, "--out-dir", str(out)]
                   + flags) == 2
        assert "seed must be an integer in [0, 2^64)" in capsys.readouterr().err
        assert read_manifest(out)["exit_code"] == 2
    out = tmp_path / "largest"
    assert run(["solve-riccati", "--config", make_config(tmp_path),
                "--out-dir", str(out), "--seed", str(2**64 - 1)]) == 0
    assert read_manifest(out)["master_seed"] == 2**64 - 1


def test_malformed_values_exit_2_with_manifest(tmp_path, capsys):
    simulate = {"N": 3, "reps": 2}
    cases = (
        ("riccati-convergence", {"experiments": {
            "riccati_convergence": {"Ns": [2.5, 10]}}}, "integer"),
        ("riccati-convergence", {"experiments": {
            "riccati_convergence": {"Ns": 10}}}, "must be a list"),
        ("mean-field", {"grid": {"T": 1.0, "M": 50.7}}, "integer"),
        ("mean-field", {"grid": {"T": True, "M": 50}}, "T must be a number"),
        ("simulate", {"experiments": {"simulate": dict(simulate, N=2.5)}},
         "integer"),
        ("simulate", {"experiments": {"simulate": dict(simulate, reps=1.5)}},
         "integer"),
        ("simulate", {"experiments": {"simulate": dict(
            simulate, law="scaled", theta="x")}}, "scaling factor"),
        ("simulate", {"experiments": {"simulate": simulate},
                      "initial": {"kind": "uniform", "a": -1e308, "b": 1e308}},
         "uniform support"),
        # each bound is finite, but the mean (a + b) / 2 overflows
        ("mean-field", {"initial": {"kind": "uniform", "a": 1e308,
                                    "b": 1.7e308}}, "uniform support"),
        # JSON true and false are not the numbers 1 and 0
        ("validate", {"coefficients": dict(ALL_ONES, A=True)},
         "coefficient 'A' must be a number, got True"),
        ("validate", {"coefficients": dict(ALL_ONES, Gamma=[1, True, 1]),
                      "grid": {"T": 1.0, "M": 2}},
         "coefficient 'Gamma' must be a number, got True"),
        ("validate", {"coefficients": dict(ALL_ONES, H=True)},
         "coefficient 'H' must be a number"),
        ("validate", {"coefficients": dict(ALL_ONES, Gamma0=False)},
         "coefficient 'Gamma0' must be a number, got False"),
        ("validate", {"coefficients": dict(ALL_ONES, eta0=True)},
         "coefficient 'eta0' must be a number"),
        ("validate", {"initial": {"kind": "uniform", "a": False, "b": 20}},
         "uniform support bound must be a number"),
        ("validate", {"initial": {"kind": "gaussian", "mean": 1.0,
                                  "var": True}},
         "gaussian parameter must be a number"),
        ("validate", {"initial": {"kind": "point", "value": True}},
         "point mass must be a number"),
        ("simulate", {"experiments": {"simulate": dict(
            simulate, law="scaled", theta=True)}},
         "scaling factor theta must be a number"),
        # a string that is not a number, in each initial law
        ("mean-field", {"initial": {"kind": "uniform", "a": "x", "b": 20}},
         "uniform support bound is not numeric: 'x'"),
        ("mean-field", {"initial": {"kind": "gaussian", "mean": "x",
                                    "var": 1.0}},
         "gaussian parameter is not numeric: 'x'"),
        ("mean-field", {"initial": {"kind": "point", "value": "abc"}},
         "point mass is not numeric: 'abc'"),
        # deviation labels: a theta that does not parse, a repeated label
        *(("nash-gap", {"experiments": {"nash_gap": dict(
            simulate, deviations=[label])}}, "scaling factor")
          for label in ("scaled(1.2.3)", "scaled(.)", "scaled()")),
        ("nash-gap", {"experiments": {"nash_gap": dict(
            simulate, deviations=["zero", "scaled(0.5)", "zero"])}},
         "deviation labels repeat"),
        ("riccati-convergence", {"experiments": {"riccati_convergence": {
            "Ns": [10, 10, "inf", "inf"]}}}, "population sizes repeat"),
        *(("epsilon-sweep", {"experiments": {"epsilon_sweep": {
            "Ns": Ns, "reps": 2}}}, "population sizes must be >= 1")
          for Ns in ([-2, 8], [0, 8])),
        ("nash-gap", {"experiments": {"nash_gap": dict(
            simulate, deviations=["scaled(.5)", "scaled(0.5)"])}},
         "deviation labels repeat"),
        *(("simulate", {"experiments": {"simulate": dict(simulate, law=law)}},
           "experiments.simulate.law must be a law kind")
          for law in (["decentralized"], {"k": 1})),
        # JSON integers written out in digits, too large for a float
        ("validate", {"coefficients": dict(ALL_ONES, A=10 ** 400)},
         "coefficient 'A' is too large for a float"),
        ("validate", {"grid": {"T": 10 ** 400, "M": 50}},
         "horizon T is too large for a float"),
        ("mean-field", {"initial": {"kind": "uniform", "a": 0,
                                    "b": 10 ** 400}},
         "uniform support bound is too large for a float"),
        ("simulate", {"experiments": {"simulate": dict(
            simulate, law="scaled", theta=10 ** 400)}},
         "scaling factor theta is too large for a float"),
        # a key nothing reads, in each section, whichever subcommand runs
        ("validate", {"grid": {"T": 1.0, "m": 100}},
         "unknown config key grid.m; did you mean 'M'?"),
        ("validate", {"coefficients": dict(ALL_ONES, Etaa=5)},
         "unknown config key coefficients.Etaa; did you mean 'eta'?"),
        ("validate", {"initial": {"kind": "uniform", "a": 0, "bb": 20}},
         "unknown config key initial.bb; did you mean 'b'?"),
        ("validate", {"initial": {"kind": "gaussian", "mean": 1, "vars": 2}},
         "unknown config key initial.vars; did you mean 'var'?"),
        ("validate", {"initial": {"kind": "point", "val": 3}},
         "unknown config key initial.val; did you mean 'value'?"),
        ("validate", {"experiments": {"nash-gap": {"N": 3, "reps": 2}}},
         "unknown config key experiments.nash-gap; did you mean 'nash_gap'?"),
        ("validate", {"experiments": {"solve_riccati": {"n": 10}}},
         "unknown config key experiments.solve_riccati.n; did you mean 'N'?"),
        ("simulate", {"experiments": {"simulate": dict(simulate, thetaa=2)}},
         "unknown config key experiments.simulate.thetaa; "
         "did you mean 'theta'?"),
        ("validate", {"experiments": {"epsilon_sweep": {"NS": [2, 4],
                                                        "reps": 2}}},
         "unknown config key experiments.epsilon_sweep.NS; "
         "did you mean 'Ns'?"),
        ("validate", {"experiments": {"riccati_convergence": {"N": [2, 4]}}},
         "unknown config key experiments.riccati_convergence.N; "
         "did you mean 'Ns'?"),
        ("nash-gap", {"experiments": {"nash_gap": dict(
            simulate, deviation=["zero"])}},
         "unknown config key experiments.nash_gap.deviation; "
         "did you mean 'deviations'?"),
        # a section must be an object
        ("validate", {"experiments": [1]}, "experiments must be an object"),
        ("validate", {"experiments": {"nash_gap": 5}},
         "experiments.nash_gap must be an object"),
    )
    for k, (sub, override, message) in enumerate(cases):
        cfg = make_config(tmp_path, name=f"cfg{k}.json", **override)
        out = tmp_path / f"out{k}"
        assert run([sub, "--config", cfg, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert read_manifest(out)["exit_code"] == 2


def test_config_file_faults_exit_2_with_manifest(tmp_path, capsys):
    with open(make_config(tmp_path), encoding="utf-8") as fh:
        valid = fh.read()
    cases = (
        (b"\xff\xfe{}", "config file is not valid JSON: 'utf-8' codec"),
        (b"[" * 200_000, "config file is not valid JSON: maximum recursion"),
        # JSON would keep the last of two values
        (valid.replace('"M": 100', '"M": 1000, "M": 20').encode(),
         "config key 'M' is given twice"),
        (valid.replace('"seed"', '"sed"').encode(),
         "unknown config key sed; did you mean 'seed'?"),
        (b"[1, 2]", "config root must be a JSON object"),
    )
    for k, (data, message) in enumerate(cases):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_bytes(data)
        out = tmp_path / f"out{k}"
        assert run(["validate", "--config", str(cfg),
                    "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert read_manifest(out)["exit_code"] == 2
    # a flag's string is read by its key's reader
    out = tmp_path / "flag"
    cfg = make_config(tmp_path, experiments={"simulate": {"N": 3, "reps": 2}})
    assert run(["simulate", "--config", cfg, "--out-dir", str(out),
                "--population", "abc"]) == 2
    assert "--population must be an integer, got 'abc'" \
        in capsys.readouterr().err
    assert read_manifest(out)["exit_code"] == 2


def test_readme_lists_every_config_key():
    # README's "Config format" list states each section's keys, and each
    # experiments key's flag, exactly as the tables the program reads
    expected = {"top level": [(key, "") for key in _CONFIG]}
    for name, keys in _CONFIG.items():
        if keys:
            expected[f"`{name}`"] = [(key, "") for key in keys]
    for kind, keys in _INITIAL_KEYS.items():
        expected[f"`initial` of kind `{kind}`"] = [
            (key, "") for key in ("kind",) + keys]
    for name, keys in _SECTIONS.items():
        expected[f"`experiments.{name}`"] = [(key, _KEYS[key][1] or "")
                                              for key in keys]
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("### Config format")[1].split("\n## ")[0]
    listed = {}
    for item in re.findall(r"^- (.+?)(?=^\S|^- )", section + "\n.",
                           re.M | re.S):
        label, keys = " ".join(item.split()).split(": ", 1)
        listed[label] = re.findall(r"`([^`]+)`(?: \(`(--[a-z]+)`\))?", keys)
    assert listed == expected


def test_non_finite_theta_exits_2_with_manifest(tmp_path, capsys):
    # from the flag, and from the config, whose JSON reader accepts NaN
    cases = [({}, [f"--theta={text}"]) for text in ("nan", "inf", "-inf")]
    cases += [({"theta": value}, []) for value in (math.nan, math.inf)]
    for k, (extra, flags) in enumerate(cases):
        cfg = make_config(tmp_path, name=f"cfg{k}.json", experiments={
            "simulate": dict({"N": 3, "reps": 2, "law": "scaled"}, **extra)})
        out = tmp_path / f"out{k}"
        assert run(["simulate", "--config", cfg, "--out-dir", str(out)]
                   + flags) == 2
        assert "scaling factor theta must be finite" in capsys.readouterr().err
        assert read_manifest(out)["exit_code"] == 2
        assert not list(out.glob("*.csv"))


def test_theta_whose_gains_overflow_exits_2_before_any_path(tmp_path,
                                                          monkeypatch, capsys):
    # theta k once overflowed with a RuntimeWarning, a traceback under the
    # suite's warning filter, and else ran infinite gains into the kernel
    def ran(*args, **kwargs):
        raise AssertionError("stepped a path under an overflowing law")

    monkeypatch.setattr(sim, "_step_tiles", ran)
    with open(ALLONES_PATH, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["experiments"]["nash_gap"]["deviations"] = ["scaled(1.7e308)"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    message = "scaling factor theta=1.7e+308 makes the law's gains overflow"
    for k, argv in enumerate((["simulate", "--law", "scaled",
                               "--theta", "1.7e308"], ["nash-gap"])):
        out = tmp_path / f"out{k}"
        assert run(argv + ["--config", str(path), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert read_manifest(out)["error"] == message
        assert os.listdir(out) == ["manifest.json"]


def test_scaled_law_whose_offsets_overflow_exits_4(tmp_path, capsys):
    # finite gains whose offset k_mean xbar + k_const overflows: the
    # kernel forms it under its overflow guard and names the divergence
    out = tmp_path / "out"
    assert run(["simulate", "--law", "scaled", "--theta", "1e308",
                "--grid-steps", "20", "--config", ALLONES_PATH,
                "--out-dir", str(out)]) == 4
    message = "agent 0 diverged at step 1 of replication 0"
    assert message in capsys.readouterr().err
    assert (read_manifest(out)["exit_code"], read_manifest(out)["error"]) \
        == (4, message)


def test_finite_costs_whose_statistics_overflow_exit_4(tmp_path, capsys):
    # a tiny B gives tiny gains, which theta = 1e307 scales to controls
    # near 1e132: the costs are finite, but their squared spread is not
    coefficients = dict.fromkeys(ALL_ONES, 0.0)
    coefficients.update(B=5.7e-175, R=1.0, H=1.0)
    cfg = make_config(tmp_path, coefficients=coefficients, grid={
        "T": 1.0, "M": 2}, experiments={
            "simulate": {"N": 3, "reps": 2, "law": "scaled", "theta": 1e307},
            "nash_gap": {"N": 3, "reps": 2, "deviations": ["scaled(1e307)"]}})
    for sub, what in (("simulate", "the costs"),
                      ("nash-gap", "the scaled(1e307) gap")):
        out = tmp_path / sub
        assert run([sub, "--config", cfg, "--out-dir", str(out)]) == 4
        message = f"the mean or standard error of {what} overflowed"
        assert message in capsys.readouterr().err
        assert read_manifest(out)["error"] == message


def _no_constants(name):
    raise ValueError(f"manifest holds {name}, which is not JSON")


def test_manifest_is_strict_json_with_two_population_sizes(tmp_path):
    cfg = make_config(tmp_path, experiments={"epsilon_sweep": {"reps": 3}})
    out = tmp_path / "out"
    assert run(["epsilon-sweep", "--config", cfg, "--out-dir", str(out),
                "--populations", "2,4"]) == 0
    text = (out / "manifest.json").read_text()
    results = json.loads(text, parse_constant=_no_constants)["results"]
    assert math.isfinite(results["slope"])
    assert results["slope_stderr"] is None


def test_cost_overflow_exits_4_with_manifest(tmp_path, capsys):
    # finite states near 1e200 whose squared deviations overflow
    cfg = make_config(tmp_path, initial={"kind": "point", "value": 1e200},
                      experiments={
                          "simulate": {"N": 3, "reps": 2, "law": "zero"},
                          "nash_gap": {"N": 3, "reps": 2},
                          "epsilon_sweep": {"Ns": [2, 4], "reps": 2}})
    for sub in ("simulate", "nash-gap", "epsilon-sweep"):
        out = tmp_path / sub
        assert run([sub, "--config", cfg, "--out-dir", str(out)]) == 4
        assert "overflowed in replication 0" in capsys.readouterr().err
        text = (out / "manifest.json").read_text()
        assert json.loads(text, parse_constant=_no_constants)["exit_code"] == 4


def test_laws_solve_only_the_systems_they_need(tmp_path, monkeypatch):
    def unneeded(*args, **kwargs):
        raise AssertionError("solved a system that no requested law needs")

    cfg = make_config(tmp_path, experiments={
        "simulate": {"N": 3, "reps": 1},
        "nash_gap": {"N": 3, "reps": 2, "deviations": ["zero", "scaled(.5)"]}})
    cases = (
        ("solve_limit", ["simulate", "--law", "zero"]),
        ("solve_mean_field", ["simulate", "--law", "zero"]),
        ("solve_mean_field", ["simulate", "--law", "meanfield-informed"]),
        ("solve_limit", ["simulate", "--law", "centralized"]),
        ("solve_finite_N", ["simulate", "--law", "scaled", "--theta", "2"]),
        ("solve_finite_N", ["nash-gap"]),
    )
    for k, (name, argv) in enumerate(cases):
        with monkeypatch.context() as patch:
            patch.setattr(experiments, name, unneeded)
            assert run(argv + ["--config", cfg,
                               "--out-dir", str(tmp_path / f"out{k}")]) == 0
    # a spec no law takes solves nothing: it exits 2 before any solve
    bad = ((["--law", "decentralized", "--theta", "0.5"], "law got 0.5"),
           (["--law", "centralized", "--theta", "2"], "law got 2"),
           (["--law", "scaled"], "a scaled law needs a scaling factor theta"))
    for name in ("solve_limit", "solve_mean_field", "solve_finite_N"):
        monkeypatch.setattr(experiments, name, unneeded)
    for k, (flags, message) in enumerate(bad):
        out = tmp_path / f"bad{k}"
        assert run(["simulate", "--config", cfg, "--out-dir", str(out)]
                   + flags) == 2
        manifest = read_manifest(out)
        assert (manifest["exit_code"], manifest["outputs"]) == (2, [])
        assert message in manifest["error"]
        assert os.listdir(out) == ["manifest.json"]


def test_zero_law_runs_where_the_riccati_equation_blows_up(tmp_path, capsys):
    # R < 0 with D = 0: P blows up backward near t = 1.2, so every law that
    # reads gains exits 3; the zero law reads none, and once exited 3 too
    coeffs = dict({name: 0 for name in ALL_ONES}, B=1, Q=1, H=1, R=-1, g=1)
    cfg = make_config(tmp_path, coefficients=coeffs, grid={"T": 2.0, "M": 200},
                      initial={"kind": "point", "value": 1.0},
                      experiments={"simulate": {"N": 3, "reps": 2}})
    out = tmp_path / "out"
    assert run(["simulate", "--law", "decentralized", "--config", cfg,
                "--out-dir", str(out)]) == 3
    assert "P left" in capsys.readouterr().err
    assert run(["simulate", "--law", "zero", "--config", cfg,
                "--out-dir", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["exit_code"] == 0
    assert manifest["results"]["law"] == "zero"
    rows = (out / "law.csv").read_text().splitlines()[3:]
    assert len(rows) == 201
    assert all(row.endswith(",0.0,0.0,0.0") for row in rows)


def test_validate_and_solve_riccati_report_one_limit_margin(tmp_path):
    # validate sweeps the deviation form's P, solve-riccati reads the least
    # of the limit's alpha column and epsilon-sweep that of its law's limit
    # gains: on every committed config they agree
    configs = os.path.join(os.path.dirname(__file__), "..", "configs")
    names = sorted(n for n in os.listdir(configs) if n.endswith(".json"))
    assert names
    for name in names:
        cfg = os.path.join(configs, name)
        margins = []
        for sub in ("validate", "solve-riccati", "epsilon-sweep"):
            out = tmp_path / name / sub
            assert run([sub, "--config", cfg, "--out-dir", str(out)]) == 0
            results = read_manifest(out)["results"]
            margins.append((results["convexity_margin"],
                            results["convexity_margin_t"]))
        assert margins[0] == margins[1] == margins[2], name


def test_epsilon_sweep_sweeps_the_limit_P_once(tmp_path, monkeypatch):
    # the law's limit gains give the convexity margin too
    calls, sweep_P = [], riccati._sweep_P

    def count(*args):
        calls.append(args)
        return sweep_P(*args)

    monkeypatch.setattr(riccati, "_sweep_P", count)
    cfg = make_config(tmp_path, experiments={
        "epsilon_sweep": {"Ns": [2, 4], "reps": 2}})
    assert run(["epsilon-sweep", "--config", cfg,
                "--out-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_figures_sweeps_the_limit_P_once(tmp_path, monkeypatch):
    # the sweep's limit solution gives fig1 too; the figures match those
    # written from a limit solve of their own
    calls, sweep_P = [], riccati._sweep_P

    def count(*args):
        calls.append(args)
        return sweep_P(*args)

    monkeypatch.setattr(riccati, "_sweep_P", count)
    sections = {"epsilon_sweep": {"Ns": [2, 4], "reps": 2}}
    cfg = make_config(tmp_path, experiments=sections)
    out = tmp_path / "out"
    assert run(["figures", "--config", cfg, "--out-dir", str(out)]) == 0
    assert len(calls) == 1
    with open(cfg) as fh:
        conf = json.load(fh)
    grid = parse_grid(conf)
    coeffs = parse_coefficients(conf, grid)
    sweep = experiments.epsilon_sweep(coeffs, [2, 4], 2, 11, grid,
                                      parse_initial_law(conf))
    want = tmp_path / "want"
    want.mkdir()
    experiments._figure_files(riccati.solve_limit(coeffs, grid), sweep, want)
    for name in ("fig1.csv", "fig2.csv"):
        assert (out / name).read_bytes() == (want / name).read_bytes()


def test_population_below_one_exits_2_before_any_solve(tmp_path,
                                                       monkeypatch, capsys):
    # from the flag and from the key: no system is solved, no part written
    def ran(*args):
        raise AssertionError("solved before the population was checked")

    monkeypatch.setattr(riccati, "solve_limit", ran)
    cases = [({}, ["--population", "0"]),
             ({"solve_riccati": {"N": 0}}, [])]
    for k, (sections, flags) in enumerate(cases):
        cfg = make_config(tmp_path, name=f"cfg{k}.json",
                          experiments=sections)
        out = tmp_path / f"out{k}"
        assert run(["solve-riccati", "--config", cfg, "--out-dir", str(out),
                    "--grid-steps", "400000"] + flags) == 2
        assert "population size must be >= 1, got 0" in capsys.readouterr().err
        manifest = read_manifest(out)
        assert (manifest["exit_code"], manifest["outputs"]) == (2, [])
        assert os.listdir(out) == ["manifest.json"]


def test_theta_for_a_law_but_scaled_exits_2(tmp_path, capsys):
    # from the flag, and from the config key, whose zero law reads no gains
    cases = [({"law": "decentralized"}, ["--theta", "0.5"]),
             ({"law": "zero", "theta": 0.5}, [])]
    for k, (extra, flags) in enumerate(cases):
        cfg = make_config(tmp_path, name=f"cfg{k}.json", experiments={
            "simulate": dict({"N": 3, "reps": 2}, **extra)})
        out = tmp_path / f"out{k}"
        assert run(["simulate", "--config", cfg, "--out-dir", str(out)]
                   + flags) == 2
        assert (f"the {extra['law']} law got 0.5"
                in capsys.readouterr().err)
        assert read_manifest(out)["exit_code"] == 2
        assert not list(out.glob("*.csv"))


def test_sizes_past_the_stream_key_exit_2_before_any_solve(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # an agent's and a replication's index are 24 bits of its stream's key:
    # a larger population or replication count exits 2, with a manifest,
    # before any system is solved or any path stepped.  A step count takes
    # the same bound: past it, a grid ended in numpy's "Maximum allowed
    # dimension exceeded" or "array is too big", with no manifest
    def ran(*args, **kwargs):
        raise AssertionError("ran before the sizes were checked")

    for name in ("solve_limit", "solve_finite_N", "solve_mean_field"):
        monkeypatch.setattr(experiments, name, ran)
    for name in ("solve_backward", "convexity_margin", "validate"):
        monkeypatch.setattr(cli, name, ran)
    monkeypatch.setattr(sim, "_step_tiles", ran)
    cfg = make_config(tmp_path, grid={"T": 0.01, "M": 2})
    big = str(2**24 + 1)
    cases = []
    for sub, size in (("epsilon-sweep", "--populations"),
                      ("nash-gap", "--population"),
                      ("simulate", "--population")):
        cases += [(sub, [size, big, "--reps", "1"], "population size", big),
                  (sub, [size, "4", "--reps", big], "replication count", big)]
    for sub in ("validate", "solve-riccati", "mean-field"):
        cases += [(sub, ["--grid-steps", M], "step count M", M)
                  for M in (big, str(10**20))]
    for k, (sub, flags, what, size) in enumerate(cases):
        out = tmp_path / f"out{k}"
        assert run([sub, "--config", cfg, "--out-dir", str(out)] + flags) == 2
        message = f"{what} must be <= 2^24, got {size}"
        assert message in capsys.readouterr().err
        manifest = read_manifest(out)
        assert (manifest["exit_code"], manifest["error"]) == (2, message)
        assert os.listdir(out) == ["manifest.json"]


def test_empty_population_list_exits_2_with_manifest(tmp_path, capsys):
    sections = {"epsilon_sweep": {"Ns": [], "reps": 2},
                "riccati_convergence": {"Ns": []}}
    cfg = make_config(tmp_path, experiments=sections)
    cases = [(sub, []) for sub in ("epsilon-sweep", "riccati-convergence",
                                   "figures")]
    cases += [("epsilon-sweep", ["--populations", ","]),
              ("riccati-convergence", ["--populations", " , "])]
    for k, (sub, flags) in enumerate(cases):
        out = tmp_path / f"out{k}"
        assert run([sub, "--config", cfg, "--out-dir", str(out)] + flags) == 2
        assert "are empty" in capsys.readouterr().err
        manifest = read_manifest(out)
        assert manifest["exit_code"] == 2
        assert manifest["outputs"] == []
        assert not list(out.glob("*.csv"))


def test_usage_error_writes_manifest_when_out_dir_is_given(tmp_path, capsys,
                                                          monkeypatch):
    cfg = make_config(tmp_path)
    cases = (
        (["simulate", "--config", cfg, "--seed", "abc", "--out-dir", "a"],
         "a", "simulate", "invalid int value: 'abc'"),
        (["frobnicate", "--out-dir=b"], "b", None, "invalid choice"),
        (["mean-field", "--config", cfg, "--out-dir", "c", "--bogus"], "c",
         "mean-field", "unrecognized arguments: --bogus"),
        (["solve-riccati", "--out-dir", "d/e"], "d/e", "solve-riccati",
         "the following arguments are required: --config"),
    )
    monkeypatch.chdir(tmp_path)
    for argv, out, sub, message in cases:
        assert run(argv) == 2
        assert message in capsys.readouterr().err
        manifest = read_manifest(tmp_path / out)
        assert manifest["exit_code"] == 2
        assert manifest["subcommand"] == sub
        assert message in manifest["error"]
    # with no --out-dir there is nowhere to write; the exit code stays 2
    assert run(["simulate", "--config", cfg, "--seed", "abc"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_importing_the_cli_loads_no_multiprocessing():
    # the pool is os.fork and pickle: neither importing the CLI nor running
    # a pool loads multiprocessing or concurrent.futures
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    code = ("import os, sys, lqmfg.cli\n"
            "from lqmfg import _pool\n"
            "_pool._cpus = lambda: 2\n"
            "assert len(set(_pool._pmap(os.getpid, [()] * 2))) == 2\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def solve_riccati_tables(cfg, out):
    """Run a successful solve-riccati --population 10 into out; returns its
    tables' bytes by name."""
    assert run(["solve-riccati", "--config", cfg, "--out-dir", str(out),
                "--population", "10"]) == 0
    return {path.name: path.read_bytes() for path in out.glob("*.csv")}


def assert_tables_kept(out, tables):
    """out holds the tables of an earlier run, byte for byte, its failed
    run's manifest, and no .part file."""
    assert sorted(os.listdir(out)) == sorted(["manifest.json", *tables])
    assert {name: (out / name).read_bytes() for name in tables} == tables


def test_a_dead_pool_worker_exits_5_with_manifest(tmp_path, monkeypatch,
                                                  capsys):
    # the finite-N solve SIGKILLs its worker: the run names the dead worker,
    # exits 5 and removes the limit's part, though the limit solve
    # succeeded; an earlier run's tables stay as they were
    from test_experiments import use_scheduler
    use_scheduler(monkeypatch, "pool")
    cfg = make_config(tmp_path)
    out = tmp_path / "out"
    tables = solve_riccati_tables(cfg, out)
    assert len(tables) == 2

    def die(*args):
        assert _pool._in_worker
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(riccati, "solve_finite_N", die)
    assert run(["solve-riccati", "--config", cfg, "--out-dir", str(out),
                "--population", "10"]) == 5
    assert "exited with status -9" in capsys.readouterr().err
    manifest = read_manifest(out)
    assert manifest["exit_code"] == 5
    assert "pool worker" in manifest["error"]
    assert manifest["outputs"] == []
    assert_tables_kept(out, tables)


@pytest.mark.parametrize("scheduler", ("in-process", "pool"))
def test_a_memory_error_exits_5_with_manifest(tmp_path, monkeypatch, capsys,
                                              scheduler):
    # numpy refuses an array larger than the machine can hold with a
    # MemoryError, which a pool worker returns pickled; a bare MemoryError
    # is reported as "out of memory"
    from test_experiments import use_scheduler
    use_scheduler(monkeypatch, scheduler)
    cfg = make_config(tmp_path)

    def refuse(*args):
        assert _pool._in_worker == (scheduler == "pool")
        return np.empty(1 << 58)    # 2 EiB: no address space holds it

    def bare(*args):
        raise MemoryError

    for k, (fail, message) in enumerate(((refuse, "Unable to allocate 2.00 "
                                                   "EiB for an array"),
                                         (bare, "out of memory"))):
        out = tmp_path / f"out{k}"
        monkeypatch.setattr(riccati, "solve_finite_N", fail)
        assert run(["solve-riccati", "--config", cfg, "--out-dir", str(out),
                    "--population", "10"]) == 5
        assert message in capsys.readouterr().err
        manifest = read_manifest(out)
        assert (manifest["exit_code"], manifest["outputs"]) == (5, [])
        assert message in manifest["error"]
        assert os.listdir(out) == ["manifest.json"]


@pytest.mark.parametrize("scheduler", ("in-process", "pool"))
def test_a_failed_population_solve_leaves_no_table(tmp_path, monkeypatch,
                                                   capsys, scheduler):
    # the limit solves and its part is written, but the N = 2 weight
    # changes sign: the run exits 3, writes neither table and leaves the
    # tables of an earlier N = 10 run as they were
    from test_experiments import use_scheduler
    use_scheduler(monkeypatch, scheduler)
    cfg = make_config(tmp_path, coefficients=dict(ALL_ONES, R=0.1,
                                                  Gamma0=1.5),
                      grid={"T": 1.0, "M": 50})
    limit, out = tmp_path / "limit", tmp_path / "out"
    assert run(["solve-riccati", "--config", cfg, "--out-dir", str(limit)]) == 0
    assert run(["solve-riccati", "--config", cfg, "--out-dir", str(out),
                "--population", "2"]) == 3
    assert "changes sign near t=0.5" in capsys.readouterr().err
    manifest = read_manifest(out)
    assert (manifest["exit_code"], manifest["outputs"]) == (3, [])
    assert os.listdir(out) == ["manifest.json"]
    tables = solve_riccati_tables(cfg, out)
    assert run(["solve-riccati", "--config", cfg, "--out-dir", str(out),
                "--population", "2"]) == 3
    assert_tables_kept(out, tables)


def test_nash_gap_runs_where_the_deviation_weight_square_overflows(tmp_path):
    # H = 0 with Gamma0 / N = 5e199: the convexity margin used to end in an
    # OverflowError traceback after the limit solve, with no manifest
    cfg = make_config(tmp_path, coefficients=dict(ALL_ONES, H=0,
                                                  Gamma0=1e200))
    out = tmp_path / "out"
    assert run(["nash-gap", "--config", cfg, "--out-dir", str(out),
                "--population", "2", "--reps", "2", "--grid-steps",
                "50"]) == 0
    manifest = read_manifest(out)
    assert manifest["exit_code"] == 0
    assert manifest["results"]["convex"] is True


def test_solve_riccati_writes_the_same_bytes_in_process_and_on_a_pool(
        tmp_path, monkeypatch):
    # in process; on the pool, each table solved and written in its own
    # worker; and the limit alone on the pool, which runs in process.  Every
    # table is write_csv's over the solve_backward solutions and their
    # gains
    from test_acceptance import MIXED_CONFIG
    from test_experiments import use_scheduler
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MIXED_CONFIG))
    names = ("riccati_limit.csv", "riccati_finite.csv")
    got = {}
    for scheduler, population in (("in-process", "7"), ("pool", "7"),
                                  ("pool", None)):
        out = tmp_path / f"{scheduler}-{population}"
        with monkeypatch.context() as patch:
            use_scheduler(patch, scheduler)
            assert run(["solve-riccati", "--config", str(cfg), "--out-dir",
                        str(out)] + (["--population", population]
                                     if population else [])) == 0
        got[scheduler, population] = {
            name: (out / name).read_bytes() for name in names
            if (out / name).exists()}
    grid = parse_grid(MIXED_CONFIG)
    coeffs = parse_coefficients(MIXED_CONFIG, grid)
    want = {}
    for sol, name, comments in zip(
            riccati.solve_backward(coeffs, grid, [None, 7]), names,
            ((), ("N = 7",))):
        sched = riccati.gains(sol, coeffs)
        experiments.write_csv(
            tmp_path / name, ("t", "P", "K", "phi", "alpha", "beta", "gamma",
                              "delta"),
            (grid.nodes, sol.P, sol.K, sol.phi, sched.alpha, sched.beta,
             sched.gamma, sched.delta), comments)
        want[name] = (tmp_path / name).read_bytes()
    assert got["in-process", "7"] == got["pool", "7"] == want
    assert got["pool", None] == {"riccati_limit.csv": want[names[0]]}


def test_manifests_report_the_convexity_margin(tmp_path, capsys):
    # criterion 10(b)'s model (Q = H = 0, R = -1) has a cost unbounded below
    # in the agent's own control: every command still exits 0, and reports
    # convex false with one note on stderr; all-ones is convex, without one
    concave = dict(A=0.3, B=1, C=0.2, D=0.5, f=0, g=0, Q=0, R=-1, Gamma=0.5,
                   eta=0, H=0, Gamma0=0.5, eta0=0)
    sections = {"epsilon_sweep": {"Ns": [2, 4], "reps": 2},
                "nash_gap": {"N": 4, "reps": 2}}
    for coefficients, convex in ((concave, False), (ALL_ONES, True)):
        cfg = make_config(tmp_path, coefficients=coefficients,
                          experiments=sections)
        for sub in ("validate", "solve-riccati", "epsilon-sweep",
                    "nash-gap"):
            out = tmp_path / f"{sub}-{convex}"
            assert run([sub, "--config", cfg, "--out-dir", str(out)]) == 0
            results = read_manifest(out)["results"]
            assert results["convex"] is convex
            assert (results["convexity_margin"] > 0.0) is convex
            notes = [line for line in capsys.readouterr().err.splitlines()
                     if line.startswith("note:")]
            assert len(notes) == (0 if convex else 1), sub
        if not convex:
            assert results["convexity_margin"] == -1.0
    # the limit margin of solve-riccati is its alpha column's least value,
    # and the terminal weight R + D^2 H of all-ones is 2
    assert read_manifest(tmp_path / "solve-riccati-True")["results"][
        "convexity_margin"] == 2.0
