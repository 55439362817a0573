"""Command-line entry point.

Every subcommand reads one JSON config (model, grid, seed, experiment
parameters), honors the shared --seed/--grid-steps/--out-dir/--config flags,
writes CSV tables plus a manifest.json into the output directory, and maps
failures onto stable exit codes:

    0  success
    2  configuration problem (bad flags, missing or malformed config)
    3  solver failure (singular gain denominator, backward blow-up)
    4  simulation divergence
    5  I/O failure

The manifest is written even when the run fails, with an "error" field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (ModelConfigError, NonSolvableError,
                     SimulationDivergedError, SingularGainError)
from .experiments import (_build_laws, epsilon_sweep, figure_data, nash_gap,
                          riccati_convergence, write_csv)
from .model import (_as_int, canonical_fingerprint, load_config,
                    parse_coefficients, parse_grid, parse_initial_law,
                    validate)
from .riccati import gains, solve_finite_N, solve_limit
from .sim import PopulationConfig, costs_all_agents, simulate_reps
from .synthesis import solve_mean_field

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DIVERGED = 4
EXIT_IO = 5

_RICCATI_COLUMNS = ("t", "P", "K", "phi", "alpha", "beta", "gamma", "delta")


class _UsageError(Exception):
    """argparse rejected the command line; the message is argparse's."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and subparsers) that raises _UsageError instead of
    exiting, so that a rejected command line still gets a manifest."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lqmfg",
        description="Solvers, simulators, and experiments for scalar "
                    "linear-quadratic mean field games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **extra_flags):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True,
                        help="path to the JSON model/experiment config")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config master seed")
        sp.add_argument("--grid-steps", type=int, default=None,
                        help="override the number of grid steps M")
        sp.add_argument("--out-dir", default=".",
                        help="directory for CSVs and manifest.json")
        sp.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility and ignored")
        for flag, kwargs in extra_flags.items():
            sp.add_argument(flag, **kwargs)
        return sp

    add("validate", "check the model config and print a report")
    add("solve-riccati", "solve the backward systems and write gain tables",
        **{"--population": dict(type=int, default=None,
                                help="also solve the N-player system")})
    add("mean-field", "integrate the decentralized mean path")
    add("simulate", "run the population Monte Carlo and report costs",
        **{"--population": dict(type=int, default=None),
           "--reps": dict(type=int, default=None),
           "--law": dict(default=None,
                         help="decentralized | centralized | zero | scaled "
                              "| meanfield-informed"),
           "--theta": dict(type=float, default=None,
                           help="scale factor for the scaled law"),
           "--paths": dict(action="store_true",
                           help="also write per-replication path CSVs")})
    add("epsilon-sweep", "mean-field approximation error against N",
        **{"--populations": dict(default=None,
                                 help="comma-separated population sizes"),
           "--reps": dict(type=int, default=None)})
    add("riccati-convergence", "population-vs-limit solver distance",
        **{"--populations": dict(default=None,
                                 help="comma-separated sizes; 'inf' allowed")})
    add("nash-gap", "paired deviation study for the first agent",
        **{"--population": dict(type=int, default=None),
           "--reps": dict(type=int, default=None)})
    add("figures", "emit fig1/fig2 CSVs and gnuplot scripts")
    return parser


def _load_context(args):
    cfg = load_config(args.config)
    if not isinstance(cfg, dict):
        raise ModelConfigError("config root must be a JSON object")
    if args.grid_steps is not None:
        if not isinstance(cfg.get("grid"), dict):
            raise ModelConfigError("config has no grid section to override")
        cfg["grid"]["M"] = args.grid_steps
    if args.seed is not None:
        cfg["seed"] = args.seed
    grid = parse_grid(cfg)
    coeffs = parse_coefficients(cfg, grid)
    initial = parse_initial_law(cfg)
    seed = cfg.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) \
            or not 0 <= seed < 2 ** 64:
        raise ModelConfigError(f"seed must be an integer in [0, 2^64), "
                               f"got {seed!r}")
    return cfg, coeffs, grid, initial, seed


def _section(cfg: dict, name: str) -> dict:
    exp = cfg.get("experiments", {})
    sec = exp.get(name, {}) if isinstance(exp, dict) else {}
    if not isinstance(sec, dict):
        raise ModelConfigError(f"experiments.{name} must be an object")
    return sec


def _populations(flag_value, config_value, what, allow_inf=False):
    raw = flag_value if flag_value is not None else config_value
    if raw is None:
        raise ModelConfigError(f"no population sizes given for {what}; set "
                               f"--populations or experiments.{what}.Ns")
    if isinstance(raw, str):
        raw = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not isinstance(raw, list):
        raise ModelConfigError(f"population sizes for {what} must be a list, "
                               f"got {raw!r}")
    if not raw:
        raise ModelConfigError(f"population sizes for {what} are empty")
    out = []
    for v in raw:
        if isinstance(v, str) and v.lower() in ("inf", "infinity"):
            out.append(math.inf)
            continue
        out.append(_as_int(v, "population size"))
    if not allow_inf and any(math.isinf(v) for v in out):
        raise ModelConfigError(f"{what} needs finite population sizes")
    return out


def _required_int(flag_value, sec, key, what):
    if flag_value is not None:
        return flag_value
    if key in sec:
        return _as_int(sec[key], f"{what} {key}")
    raise ModelConfigError(f"{what} needs {key!r}: pass the flag or set it "
                           f"in the config experiments section")


# --------------------------------------------------------------------------
# subcommand handlers: each returns (written file paths, results metadata)
# --------------------------------------------------------------------------

def _cmd_validate(args, cfg, coeffs, grid, initial, seed):
    report = validate(coeffs, grid)
    results = {
        "q_nonnegative": report.q_nonnegative,
        "h_nonnegative": report.h_nonnegative,
        "r_indefinite": report.r_indefinite,
        "all_finite": report.all_finite,
        "standing_assumptions_hold": report.a3_holds,
    }
    for key, value in results.items():
        print(f"{key}: {value}")
    for msg in report.messages:
        print(f"note: {msg}")
    return [], results


def _cmd_solve_riccati(args, cfg, coeffs, grid, initial, seed):
    outputs = []

    def write(name, sol, comments=()):
        sched = gains(sol, coeffs)
        path = os.path.join(args.out_dir, name)
        write_csv(path, _RICCATI_COLUMNS,
                  (grid.nodes, sol.P, sol.K, sol.phi, sched.alpha,
                   sched.beta, sched.gamma, sched.delta), comments)
        outputs.append(path)

    write("riccati_limit.csv", solve_limit(coeffs, grid))
    population = args.population
    if population is None:
        population = _section(cfg, "solve_riccati").get("N")
    if population is not None:
        population = _as_int(population, "solve_riccati N")
        write("riccati_finite.csv", solve_finite_N(coeffs, population, grid),
              (f"N = {population}",))
    return outputs, {"population": population}


def _cmd_mean_field(args, cfg, coeffs, grid, initial, seed):
    lim = solve_limit(coeffs, grid)
    gl = gains(lim, coeffs)
    mf = solve_mean_field(coeffs, gl, initial.mean, grid)
    path = os.path.join(args.out_dir, "mean_field.csv")
    write_csv(path, ("t", "xbar"), (grid.nodes, mf.values))
    return [path], {"initial_mean": initial.mean,
                    "terminal_mean": float(mf.values[-1])}


def _write_law(path, law, grid):
    write_csv(path, ("t", "k_self", "k_mean", "k_const"),
              (grid.nodes, law.k_self, law.k_mean, law.k_const),
              comments=(f"kind = {law.label}",
                        f"mean_source = {law.mean_source}"))


def _cmd_simulate(args, cfg, coeffs, grid, initial, seed):
    sec = _section(cfg, "simulate")
    N = _required_int(args.population, sec, "N", "simulate")
    reps = _required_int(args.reps, sec, "reps", "simulate")
    kind = args.law if args.law is not None else sec.get("law",
                                                         "decentralized")
    if not isinstance(kind, str):
        raise ModelConfigError("experiments.simulate.law must be a law kind, "
                               f"got {kind!r}")
    theta = args.theta if args.theta is not None else sec.get("theta")
    law, = _build_laws([(kind, theta)], coeffs, grid, initial, N)

    outputs = []
    law_path = os.path.join(args.out_dir, "law.csv")
    _write_law(law_path, law, grid)
    outputs.append(law_path)

    pop = PopulationConfig(N=N, reps=reps, master_seed=seed, initial=initial)
    width = max(3, len(str(reps - 1)))
    columns = ("t",) + tuple(f"agent{i}" for i in range(N))
    costs, overflow = [], None
    for ps in simulate_reps(coeffs, law, pop, grid):
        try:
            costs.append(costs_all_agents(ps, coeffs, grid))
        except SimulationDivergedError as exc:
            # as when every path ran before any cost: a path that
            # diverges in a later replication is named first
            overflow = overflow or exc
        if args.paths:
            path = os.path.join(args.out_dir,
                                f"paths_rep{ps.rep:0{width}d}.csv")
            write_csv(path, columns, (grid.nodes, *ps.states))
            outputs.append(path)
    if overflow is not None:
        raise overflow
    per_agent = np.stack(costs)
    means = per_agent.mean(axis=0)
    if reps > 1:
        ses = per_agent.std(axis=0, ddof=1) / math.sqrt(reps)
    else:
        ses = np.zeros(N)
    summary = os.path.join(args.out_dir, "summary.csv")
    write_csv(summary, ("agent", "mean_cost", "stderr"),
              (range(N), means, ses))
    outputs.append(summary)
    return outputs, {"N": N, "reps": reps, "law": law.label,
                     "population_mean_cost": float(per_agent.mean())}


def _cmd_epsilon_sweep(args, cfg, coeffs, grid, initial, seed):
    sec = _section(cfg, "epsilon_sweep")
    Ns = _populations(args.populations, sec.get("Ns"), "epsilon_sweep")
    reps = _required_int(args.reps, sec, "reps", "epsilon-sweep")
    tab = epsilon_sweep(coeffs, Ns, reps, seed, grid, initial)
    path = os.path.join(args.out_dir, "epsilon_sweep.csv")
    write_csv(path, tab.columns, zip(*tab.rows))
    return [path], dict(tab.metadata)


def _cmd_riccati_convergence(args, cfg, coeffs, grid, initial, seed):
    sec = _section(cfg, "riccati_convergence")
    Ns = _populations(args.populations, sec.get("Ns"),
                      "riccati_convergence", allow_inf=True)
    tab = riccati_convergence(coeffs, Ns, grid)
    path = os.path.join(args.out_dir, "riccati_convergence.csv")
    write_csv(path, tab.columns, zip(*tab.rows))
    return [path], dict(tab.metadata)


def _cmd_nash_gap(args, cfg, coeffs, grid, initial, seed):
    sec = _section(cfg, "nash_gap")
    N = _required_int(args.population, sec, "N", "nash-gap")
    reps = _required_int(args.reps, sec, "reps", "nash-gap")
    deviations = sec.get("deviations")
    if deviations is not None and not (
            isinstance(deviations, list)
            and all(isinstance(label, str) for label in deviations)):
        raise ModelConfigError("experiments.nash_gap.deviations must be a "
                               f"list of deviation labels, got {deviations!r}")
    kwargs = {} if deviations is None else {"deviations": tuple(deviations)}
    tab = nash_gap(coeffs, N, reps, seed, grid, initial, **kwargs)
    path = os.path.join(args.out_dir, "nash_gap.csv")
    write_csv(path, tab.columns, zip(*tab.rows))
    return [path], dict(tab.metadata)


def _cmd_figures(args, cfg, coeffs, grid, initial, seed):
    sec = _section(cfg, "epsilon_sweep")
    Ns = _populations(None, sec.get("Ns"), "epsilon_sweep")
    reps = _required_int(None, sec, "reps", "figures")
    sweep = epsilon_sweep(coeffs, Ns, reps, seed, grid, initial)
    files = figure_data(coeffs, grid, sweep, args.out_dir)
    return files, dict(sweep.metadata)


_DISPATCH = {
    "validate": _cmd_validate,
    "solve-riccati": _cmd_solve_riccati,
    "mean-field": _cmd_mean_field,
    "simulate": _cmd_simulate,
    "epsilon-sweep": _cmd_epsilon_sweep,
    "riccati-convergence": _cmd_riccati_convergence,
    "nash-gap": _cmd_nash_gap,
    "figures": _cmd_figures,
}


def _argv_out_dir(argv):
    """The value of the last --out-dir X or --out-dir=X in argv, or None."""
    out_dir = None
    for flag, value in zip(argv, argv[1:] + [None]):
        if flag == "--out-dir" and value is not None:
            out_dir = value
        elif flag.startswith("--out-dir="):
            out_dir = flag[len("--out-dir="):]
    return out_dir


def _execute(args, manifest) -> int:
    """Run the parsed subcommand, filling in the manifest; returns the exit
    code."""
    code = EXIT_OK
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        cfg, coeffs, grid, initial, seed = _load_context(args)
        manifest["config_fingerprint"] = canonical_fingerprint(cfg)
        manifest["master_seed"] = seed
        manifest["grid"] = {"T": grid.T, "M": grid.M}
        outputs, results = _DISPATCH[args.command](args, cfg, coeffs, grid,
                                                   initial, seed)
        manifest["outputs"] = sorted(os.path.basename(p) for p in outputs)
        manifest["results"] = results
    except ModelConfigError as exc:
        code, manifest["error"] = EXIT_CONFIG, str(exc)
    except (SingularGainError, NonSolvableError) as exc:
        code, manifest["error"] = EXIT_SOLVER, str(exc)
    except SimulationDivergedError as exc:
        code, manifest["error"] = EXIT_DIVERGED, str(exc)
    except OSError as exc:
        code, manifest["error"] = EXIT_IO, str(exc)
    return code


def run(argv=None) -> int:
    """Execute one subcommand; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    started = time.monotonic()
    manifest = {
        "tool_version": __version__,
        "subcommand": argv[0] if argv and argv[0] in _DISPATCH else None,
        "config_fingerprint": None,
        "master_seed": None,
        "grid": None,
        "outputs": [],
        "results": {},
    }
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        # without an output directory in argv there is nowhere to write
        out_dir = _argv_out_dir(argv)
        code, manifest["error"] = EXIT_CONFIG, str(exc)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    else:
        out_dir = args.out_dir
        code = _execute(args, manifest)
    manifest["exit_code"] = code
    manifest["duration_seconds"] = time.monotonic() - started
    if out_dir is not None:
        try:
            if out_dir:  # a usage error comes before _execute makes it
                os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "manifest.json"), "w",
                      encoding="utf-8", newline="") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"error: could not write manifest: {exc}", file=sys.stderr)
            return EXIT_IO
    if code != EXIT_OK:
        print(f"error: {manifest['error']}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
