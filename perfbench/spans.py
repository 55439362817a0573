"""In-memory spans around lqmfg's layers, recorded from outside the package.

The tracer replaces public functions in the namespaces that call them
(lqmfg.cli and lqmfg.experiments, plus lqmfg.sim.stream, which simulate_reps
looks up as a module global) with wrappers that record a span: name, start,
end, parent span and CLI-call id.  simulate_reps is a generator, so each
next() on it is one replication span.  Nothing is written while a call runs;
`layer_metrics` turns one iteration's spans into per-layer numbers afterwards.

Counters marked "computed" below are derived from the shapes and sizes of
what the layers return, not from timing, and repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

import numpy as np

_now = time.perf_counter

# write_csv lives in lqmfg.experiments but is the CLI's output layer
_SPAN_NAMES = {"write_csv": "cli.write_csv"}
_PARSE = ("model.load_config", "model.parse_grid", "model.parse_coefficients",
          "model.parse_initial_law")
SWEEP_NS = (64, 256, 1024, 4096)

# name, unit, better; the order is the order of the report
LAYER_METRICS = (
    ("riccati.solve_limit.us_per_step", "us", "lower"),
    ("riccati.solve_finite_N.us_per_step", "us", "lower"),
    ("riccati.share", "ratio", "lower"),
    ("riccati.rk4_steps", "count", "lower"),
    ("cli.write_csv.s", "s", "lower"),
    ("cli.write_csv.bytes", "B", "lower"),
    ("cli.write_csv.MB_per_s", "MB/s", "higher"),
    ("cli.write_csv.share", "ratio", "lower"),
    ("cli.self_s", "s", "lower"),
    ("model.parse_ms", "ms", "lower"),
    ("synthesis.solve_mean_field.us_per_step", "us", "lower"),
    ("sim.simulate_reps.ns_per_agent_step", "ns", "lower"),
    *((f"sim.simulate_reps.ns_per_agent_step.N{n}", "ns", "lower") for n in SWEEP_NS),
    ("sim.simulate_reps.share", "ratio", "lower"),
    ("sim.agent_steps", "count", "lower"),
    ("sim.rep_ms.p50", "ms", "lower"),
    ("sim.rep_ms.tail", "ms", "lower"),
    ("sim.rep_ms.tail_pct", "%", "higher"),
    ("sim.rep_ms.samples", "count", "higher"),
    ("sim.stream.calls", "count", "lower"),
    ("sim.stream.us_per_call", "us", "lower"),
    ("sim.stream.share", "ratio", "lower"),
    ("sim.path_bytes", "B", "lower"),
    ("sim.resimulate_agent.calls", "count", "lower"),
    ("sim.resimulate_agent.us_per_call", "us", "lower"),
    ("sim.resimulate_agent.share", "ratio", "lower"),
    ("sim.replay_copy_bytes", "B", "lower"),
    ("sim.cost.calls", "count", "lower"),
    ("sim.cost.us_per_call", "us", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# computed counters: identical in every iteration of a run at one seed
COUNTERS = ("riccati.rk4_steps", "cli.write_csv.bytes", "sim.agent_steps",
            "sim.stream.calls", "sim.path_bytes", "sim.resimulate_agent.calls",
            "sim.replay_copy_bytes", "sim.cost.calls")


def _grid_steps(tracer, span, args, out):
    span[5] = out.grid.M


def _csv_bytes(tracer, span, args, out):
    tracer.counts["cli.write_csv.bytes"] += os.path.getsize(args[0])


def _arrays(ps):
    return (ps.states, ps.controls, ps.increments, ps.mean)


def _replay_bytes(tracer, span, args, out):
    # bytes of the replayed PathSet that share no memory with the base paths
    base = _arrays(args[0])
    fresh = [a for a in _arrays(out)
             if not any(np.may_share_memory(a, b) for b in base)]
    tracer.counts["sim.replay_copy_bytes"] += sum(a.nbytes for a in fresh)


_AFTER = {"solve_limit": _grid_steps, "solve_finite_N": _grid_steps,
          "solve_mean_field": _grid_steps, "write_csv": _csv_bytes,
          "resimulate_agent": _replay_bytes}


class Tracer:
    """Span recorder; spans are lists [name, start, end, parent, call, tag]."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(("cli.write_csv.bytes", "sim.path_bytes",
                                     "sim.replay_copy_bytes"), 0)
        self._stack = []
        self._call = 0
        self._patches = []

    def open(self, name: str) -> list:
        span = [name, _now(), None, self._stack[-1] if self._stack else -1,
                self._call, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = _now()
        self._stack.pop()

    def call(self, fn, argv):
        """Run one CLI call as a root span."""
        self._call += 1
        span = self.open("cli.run")
        try:
            return fn(argv)
        finally:
            self.close(span)

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(self, span, args, out)
            return out
        return traced

    def _wrap_reps(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    span = self.open(name)
                    try:
                        ps = next(gen)
                    except StopIteration:
                        span[0] = name + ".end"
                        return
                    finally:
                        self.close(span)
                    n_agents, n_nodes = ps.states.shape
                    span[5] = (n_agents, n_agents * (n_nodes - 1))
                    size = sum(a.nbytes for a in _arrays(ps))
                    self.counts["sim.path_bytes"] = max(self.counts["sim.path_bytes"], size)
                    yield ps
            finally:
                gen.close()
        return traced

    def install(self, cli, experiments, sim) -> None:
        """Wrap every public lqmfg function imported into cli and experiments,
        and sim.stream; `uninstall` restores the originals."""
        for mod in (cli, experiments):
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("lqmfg.")
                        or (mod is cli and fn.__module__ == cli.__name__)):
                    continue
                span = _SPAN_NAMES.get(name, f"{fn.__module__.rsplit('.', 1)[1]}.{name}")
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._wrap_reps(span, fn)
                else:
                    wrapper = self._wrap(span, fn, _AFTER.get(name))
                self._patches.append((mod, name, fn))
                setattr(mod, name, wrapper)
        self._patches.append((sim, "stream", sim.stream))
        sim.stream = self._wrap("sim.stream", sim.stream)

    def uninstall(self) -> None:
        while self._patches:
            mod, name, fn = self._patches.pop()
            setattr(mod, name, fn)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def tree_problems(spans) -> list:
    """Ways in which the spans fail to form a tree of nested intervals."""
    problems = []
    for i, (name, start, end, parent, call, _) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) is open or ends before it starts")
        elif parent >= 0:
            p = spans[parent]
            if not (parent < i and p[1] <= start and end <= p[2] and p[4] == call):
                problems.append(f"span {i} ({name}) lies outside its parent {parent}")
    if any(t < -1e-9 for t in self_times(spans)):
        problems.append("a span has negative self time")
    return problems


def coverage_problems(spans, least: float) -> list:
    """CLI calls whose direct child spans cover less than `least` of them:
    a layer that does its work outside every wrapped function shows here."""
    covered = {}
    for s in spans:
        if s[3] >= 0 and spans[s[3]][0] == "cli.run":
            covered[s[3]] = covered.get(s[3], 0.0) + (s[2] - s[1])
    problems = []
    for i, s in enumerate(spans):
        if s[0] == "cli.run":
            share = covered.get(i, 0.0) / (s[2] - s[1])
            if share < least:
                problems.append(f"wrapped layers cover {share:.3f} of CLI call {s[4]}, "
                                f"less than {least}")
    return problems


def layer_metrics(spans, counts) -> dict:
    """Per-layer numbers of one traced iteration (all its CLI calls)."""
    selfs = self_times(spans)
    total, calls, steps = {}, {}, {}
    for s in spans:
        total[s[0]] = total.get(s[0], 0.0) + (s[2] - s[1])
        calls[s[0]] = calls.get(s[0], 0) + 1
        if isinstance(s[5], int):
            steps[s[0]] = steps.get(s[0], 0) + s[5]
    wall = total.get("cli.run", 0.0)

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(n, 0) for n in names)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    reps = [s for s in spans if s[0] == "sim.simulate_reps"]
    agent_steps = sum(s[5][1] for s in reps)
    riccati = [k for k in total if k.startswith("riccati.")]
    m = {
        "riccati.solve_limit.us_per_step": ratio(t("riccati.solve_limit"),
                                                 steps.get("riccati.solve_limit"), 1e6),
        "riccati.solve_finite_N.us_per_step": ratio(t("riccati.solve_finite_N"),
                                                    steps.get("riccati.solve_finite_N"), 1e6),
        "riccati.share": ratio(t(*riccati), wall),
        "riccati.rk4_steps": steps.get("riccati.solve_limit", 0)
        + steps.get("riccati.solve_finite_N", 0),
        "cli.write_csv.s": t("cli.write_csv"),
        "cli.write_csv.bytes": counts["cli.write_csv.bytes"],
        "cli.write_csv.MB_per_s": ratio(counts["cli.write_csv.bytes"],
                                        t("cli.write_csv"), 1e-6),
        "cli.write_csv.share": ratio(t("cli.write_csv"), wall),
        "cli.self_s": sum(x for s, x in zip(spans, selfs) if s[0] == "cli.run"),
        "model.parse_ms": 1e3 * t(*_PARSE),
        "synthesis.solve_mean_field.us_per_step": ratio(
            t("synthesis.solve_mean_field"), steps.get("synthesis.solve_mean_field"), 1e6),
        "sim.simulate_reps.ns_per_agent_step": ratio(t("sim.simulate_reps"),
                                                     agent_steps, 1e9),
        "sim.simulate_reps.share": ratio(t("sim.simulate_reps"), wall),
        "sim.agent_steps": agent_steps,
        "sim.stream.calls": n("sim.stream"),
        "sim.stream.us_per_call": ratio(t("sim.stream"), n("sim.stream"), 1e6),
        "sim.stream.share": ratio(t("sim.stream"), wall),
        "sim.path_bytes": counts["sim.path_bytes"],
        "sim.resimulate_agent.calls": n("sim.resimulate_agent"),
        "sim.resimulate_agent.us_per_call": ratio(t("sim.resimulate_agent"),
                                                  n("sim.resimulate_agent"), 1e6),
        "sim.resimulate_agent.share": ratio(t("sim.resimulate_agent"), wall),
        "sim.replay_copy_bytes": ratio(counts["sim.replay_copy_bytes"],
                                       n("sim.resimulate_agent")),
        "sim.cost.calls": n("sim.cost_of_agent", "sim.costs_all_agents"),
        "sim.cost.us_per_call": ratio(t("sim.cost_of_agent", "sim.costs_all_agents"),
                                      n("sim.cost_of_agent", "sim.costs_all_agents"), 1e6),
        "experiments.self_s": sum(x for s, x in zip(spans, selfs)
                                  if s[0].startswith("experiments.")),
        "trace.wall_s": wall,
    }
    for size in SWEEP_NS:
        sel = [s for s in reps if s[5][0] == size]
        m[f"sim.simulate_reps.ns_per_agent_step.N{size}"] = ratio(
            sum(s[2] - s[1] for s in sel), sum(s[5][1] for s in sel), 1e9)
    return m


def largest_n_reps_ms(spans) -> list:
    """Durations in ms of the replications at the largest population size,
    so that the percentiles describe one distribution."""
    reps = [s for s in spans if s[0] == "sim.simulate_reps"]
    largest = max((s[5][0] for s in reps), default=0)
    return [1e3 * (s[2] - s[1]) for s in reps if s[5][0] == largest]


def rep_percentiles(durations_ms) -> dict:
    """Median and the highest percentile with at least ten samples above it."""
    d = sorted(durations_ms)
    if not d:
        return {"sim.rep_ms.p50": 0.0, "sim.rep_ms.tail": 0.0,
                "sim.rep_ms.tail_pct": 0.0, "sim.rep_ms.samples": 0}
    k = max(0, len(d) - 11)
    return {"sim.rep_ms.p50": float(np.median(d)), "sim.rep_ms.tail": d[k],
            "sim.rep_ms.tail_pct": 100.0 * (k + 1) / len(d),
            "sim.rep_ms.samples": len(d)}
