"""Command-line entry point.

Every subcommand reads one JSON config (model, grid, seed, experiment
parameters), honors the shared --seed/--grid-steps/--out-dir/--config flags,
writes CSV tables plus a manifest.json into the output directory, and maps
failures onto stable exit codes:

    0  success
    2  configuration problem (bad flags, missing or malformed config)
    3  solver failure (singular gain denominator, backward blow-up)
    4  simulation divergence
    5  I/O failure, or a worker process that died (ChildProcessError)

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
from .experiments import (_SECONDS_PER_CELL, DEFAULT_DEVIATIONS, _build_laws,
                          _convexity, _csv_text, _write_text, epsilon_sweep,
                          figure_data, nash_gap, riccati_convergence,
                          write_csv)
from .model import (_COEFFICIENT_NAMES, _GRID_KEYS, _INITIAL_KEYS, _as_int,
                    _number, _seed, canonical_fingerprint, load_config,
                    parse_coefficients, parse_grid, parse_initial_law,
                    validate)
from .riccati import _least_weight, convexity_margin, gains, solve_backward
from .sim import PopulationConfig, costs_all_agents, simulate_reps

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DIVERGED = 4
EXIT_IO = 5

class _UsageError(Exception):
    """argparse rejected the command line; the message is argparse's."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and subparsers) that raises _UsageError instead of
    exiting, so that a rejected command line still gets a manifest."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: {message}")


def _population_list(value, what):
    """A list, or a comma-separated string, of integers and "inf"."""
    if isinstance(value, str):
        value = [tok.strip() for tok in value.split(",") if tok.strip()]
    if not isinstance(value, list):
        raise ModelConfigError(f"{what} must be a list, got {value!r}")
    if not value:
        raise ModelConfigError(f"population sizes in {what} are empty")
    return [math.inf if isinstance(v, str) and v.lower() in ("inf", "infinity")
            else _as_int(v, "population size") for v in value]


def _law_kind(value, what):
    if not isinstance(value, str):
        raise ModelConfigError(f"{what} must be a law kind, got {value!r}")
    return value


def _labels(value, what):
    if not isinstance(value, list) or not all(isinstance(v, str)
                                              for v in value):
        raise ModelConfigError(f"{what} must be a list of deviation labels, "
                               f"got {value!r}")
    return tuple(value)


# Each experiments key: its reader, called with the value and the flag or
# config path it came from, and the flag that takes the key's place.  Each
# section: its keys with their defaults, where ... marks a key that must be
# given.  A subcommand takes the flags of the section named after it.
_KEYS = {
    "N": (_as_int, "--population"),
    "reps": (_as_int, "--reps"),
    "Ns": (_population_list, "--populations"),
    "law": (_law_kind, "--law"),
    "theta": (lambda value, what: _number(value, "scaling factor theta"),
              "--theta"),
    "deviations": (_labels, None),
}
_SECTIONS = {
    "solve_riccati": {"N": None},
    "simulate": {"N": ..., "reps": ..., "law": "decentralized", "theta": None},
    "epsilon_sweep": {"Ns": ..., "reps": ...},
    "riccati_convergence": {"Ns": ...},
    "nash_gap": {"N": ..., "reps": ..., "deviations": DEFAULT_DEVIATIONS},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lqmfg",
        description="Solvers, simulators, and experiments for scalar "
                    "linear-quadratic mean field games.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
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
                        help="accepted for compatibility and ignored: "
                             "studies use every CPU of the affinity mask")
        section = name.replace("-", "_")
        for key in _SECTIONS.get(section, ()):
            if _KEYS[key][1]:
                sp.add_argument(_KEYS[key][1], dest=key, help=f"in place of "
                                f"experiments.{section}.{key}")
        if name == "simulate":
            sp.add_argument("--paths", action="store_true",
                            help="also write per-replication path CSVs")
    return parser


# The config's sections, each with its keys; initial's depend on its kind
_CONFIG = {"grid": _GRID_KEYS,
           "coefficients": dict.fromkeys(_COEFFICIENT_NAMES),
           "initial": {}, "seed": None, "experiments": _SECTIONS}


def _check_keys(cfg: dict) -> None:
    """Reject a key the program does not read, and a section that is no
    object: the ModelConfigError names the key's path."""
    initial = cfg.get("initial")
    kind = str(initial.get("kind")) if isinstance(initial, dict) else None
    # an unknown kind lets every law's keys pass: parse_initial_law names it
    law_keys = _INITIAL_KEYS.get(kind) or sum(_INITIAL_KEYS.values(), ())

    def walk(node, known, path):
        for key, value in node.items():
            if key not in known:
                import difflib  # only on this error path: loading stays lean
                lower = {name.lower(): name for name in known}
                near = difflib.get_close_matches(key.lower(), lower, 1)
                hint = f"; did you mean {lower[near[0]]!r}?" if near else ""
                raise ModelConfigError(f"unknown config key {path}{key}{hint}")
            if isinstance(known[key], dict):  # a section
                if not isinstance(value, dict):
                    raise ModelConfigError(f"{path}{key} must be an object")
                walk(value, known[key], f"{path}{key}.")

    walk(cfg, dict(_CONFIG, initial=dict.fromkeys(("kind",) + law_keys)), "")


def _load_context(args):
    cfg = load_config(args.config)
    if not isinstance(cfg, dict):
        raise ModelConfigError("config root must be a JSON object")
    _check_keys(cfg)
    if args.grid_steps is not None:
        cfg.setdefault("grid", {})["M"] = args.grid_steps
    if args.seed is not None:
        cfg["seed"] = args.seed
    grid = parse_grid(cfg)
    coeffs = parse_coefficients(cfg, grid)
    initial = parse_initial_law(cfg)
    return cfg, coeffs, grid, initial, _seed(cfg.get("seed", 0))


def _settings(args, cfg: dict, section: str) -> dict:
    """The keys of one experiments section, each read from its flag if
    given, else from the config, else its default."""
    sec = cfg.get("experiments", {}).get(section, {})
    out = {}
    for key, default in _SECTIONS[section].items():
        read, flag = _KEYS[key]
        path = f"experiments.{section}.{key}"
        if getattr(args, key, None) is not None:
            out[key] = read(getattr(args, key), flag)
        elif key in sec:
            out[key] = read(sec[key], path)
        elif default is ...:
            raise ModelConfigError(f"{args.command} needs {path}")
        else:
            out[key] = default
    return out


# --------------------------------------------------------------------------
# subcommand handlers: each returns (written file paths, results metadata)
# --------------------------------------------------------------------------

def _cmd_validate(args, cfg, coeffs, grid, initial, seed):
    report = validate(coeffs, grid)
    results = {
        "q_nonnegative": report.q_nonnegative,
        "h_nonnegative": report.h_nonnegative,
        "r_indefinite": report.r_indefinite,
        "standing_assumptions_hold": report.a3_holds,
        **_convexity(*convexity_margin(coeffs, grid)),
    }
    for key, value in results.items():
        print(f"{key}: {value}")
    for msg in report.messages:
        print(f"note: {msg}")
    return [], results


def _cmd_solve_riccati(args, cfg, coeffs, grid, initial, seed):
    # each table is solved, its gains formed and its rows formatted in one
    # worker, and no file is written before both solves succeed: a failed
    # run leaves no table behind
    population = _settings(args, cfg, "solve_riccati")["N"]

    def table(sol):
        sched = gains(sol, coeffs)
        return _least_weight(sched.alpha, grid), _csv_text(
            ("t", "P", "K", "phi", "alpha", "beta", "gamma", "delta"),
            (grid.nodes, sol.P, sol.K, sol.phi, sched.alpha, sched.beta,
             sched.gamma, sched.delta),
            () if sol.N is None else (f"N = {sol.N}",))

    tables = solve_backward(
        coeffs, grid, [None] if population is None else [None, population],
        then=table, then_seconds=8 * (grid.M + 1) * _SECONDS_PER_CELL)
    outputs = []
    for (_, text), name in zip(tables, ("riccati_limit.csv",
                                        "riccati_finite.csv")):
        outputs.append(os.path.join(args.out_dir, name))
        _write_text(outputs[-1], text)
    # the limit form of convexity_margin solves this same P, so the limit's
    # alpha column gives its margin without another solve
    return outputs, {"population": population,
                     **_convexity(*tables[0][0])}


def _cmd_mean_field(args, cfg, coeffs, grid, initial, seed):
    law, = _build_laws([("decentralized", None)], coeffs, grid, initial)
    path = os.path.join(args.out_dir, "mean_field.csv")
    write_csv(path, ("t", "xbar"), (grid.nodes, law.xbar))
    return [path], {"initial_mean": initial.mean,
                    "terminal_mean": float(law.xbar[-1])}


def _cmd_simulate(args, cfg, coeffs, grid, initial, seed):
    s = _settings(args, cfg, "simulate")
    N, reps = s["N"], s["reps"]
    law, = _build_laws([(s["law"], s["theta"])], coeffs, grid, initial, N)

    outputs = [os.path.join(args.out_dir, "law.csv")]
    write_csv(outputs[0], ("t", "k_self", "k_mean", "k_const"),
              (grid.nodes, law.k_self, law.k_mean, law.k_const),
              (f"kind = {law.label}", f"mean_source = {law.mean_source}"))

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
    ses = (per_agent.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1
           else np.zeros(N))
    summary = os.path.join(args.out_dir, "summary.csv")
    write_csv(summary, ("agent", "mean_cost", "stderr"),
              (range(N), means, ses))
    outputs.append(summary)
    return outputs, {"N": N, "reps": reps, "law": law.label,
                     "population_mean_cost": float(per_agent.mean())}


def _cmd_epsilon_sweep(args, cfg, coeffs, grid, initial, seed):
    s = _settings(args, cfg, "epsilon_sweep")
    tab = epsilon_sweep(coeffs, s["Ns"], s["reps"], seed, grid, initial)
    path = os.path.join(args.out_dir, "epsilon_sweep.csv")
    write_csv(path, tab.columns, zip(*tab.rows))
    return [path], dict(tab.metadata)


def _cmd_riccati_convergence(args, cfg, coeffs, grid, initial, seed):
    Ns = _settings(args, cfg, "riccati_convergence")["Ns"]
    tab = riccati_convergence(coeffs, Ns, grid)
    path = os.path.join(args.out_dir, "riccati_convergence.csv")
    write_csv(path, tab.columns, zip(*tab.rows))
    return [path], dict(tab.metadata)


def _cmd_nash_gap(args, cfg, coeffs, grid, initial, seed):
    s = _settings(args, cfg, "nash_gap")
    tab = nash_gap(coeffs, s["N"], s["reps"], seed, grid, initial,
                   s["deviations"])
    path = os.path.join(args.out_dir, "nash_gap.csv")
    write_csv(path, tab.columns, zip(*tab.rows))
    return [path], dict(tab.metadata)


def _cmd_figures(args, cfg, coeffs, grid, initial, seed):
    s = _settings(args, cfg, "epsilon_sweep")
    sweep = epsilon_sweep(coeffs, s["Ns"], s["reps"], seed, grid, initial)
    files = figure_data(coeffs, grid, sweep, args.out_dir)
    return files, dict(sweep.metadata)


_COMMANDS = {
    "validate": ("check the model config and print a report", _cmd_validate),
    "solve-riccati": ("solve the backward systems and write gain tables",
                      _cmd_solve_riccati),
    "mean-field": ("integrate the decentralized mean path", _cmd_mean_field),
    "simulate": ("run the population Monte Carlo and report costs",
                 _cmd_simulate),
    "epsilon-sweep": ("mean-field approximation error against N",
                      _cmd_epsilon_sweep),
    "riccati-convergence": ("population-vs-limit solver distance",
                            _cmd_riccati_convergence),
    "nash-gap": ("paired deviation study for the first agent", _cmd_nash_gap),
    "figures": ("emit fig1/fig2 CSVs and gnuplot scripts", _cmd_figures),
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
        outputs, results = _COMMANDS[args.command][1](args, cfg, coeffs,
                                                       grid, initial, seed)
        manifest["outputs"] = sorted(os.path.basename(p) for p in outputs)
        manifest["results"] = results
        if results.get("convex") is False:
            print("note: the cost is not convex in an agent's own control "
                  "(convexity_margin {convexity_margin:.6g} at t="
                  "{convexity_margin_t:.6g}): no equilibrium".format(**results),
                  file=sys.stderr)
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
        "subcommand": argv[0] if argv and argv[0] in _COMMANDS else None,
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
