"""Property test of the CLI contract on malformed configs and flags.

Whatever the config holds, a run ends with an exit code in {0, 2, 3, 4, 5},
writes manifest.json with that exit code as strict JSON (no NaN or
Infinity), and never raises; a misspelled key exits 2 and is named.  Sizes
(M, N, reps, population lists) are bounded so that every example runs in
milliseconds; other keys may take null, booleans, any float, strings, lists
or objects.  Raise `max_examples` for a longer campaign.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from lqmfg.cli import _CONFIG, _SECTIONS, run
from lqmfg.model import _INITIAL_KEYS

EXIT_CODES = {0, 2, 3, 4, 5}
PROFILES = ("A", "B", "C", "D", "f", "g", "Q", "R", "Gamma", "eta")
TERMINALS = ("H", "Gamma0", "eta0")

junk = st.one_of(st.none(), st.booleans(), st.floats(),
                 st.sampled_from(["", "abc", "2.5", "inf", "-1", "3", "1e3"]),
                 st.lists(st.integers(-2, 3), max_size=2),
                 st.dictionaries(st.sampled_from(["a", "N"]), st.integers(-1, 3),
                                 max_size=1))
# junk for size fields: no number above 40, so no run allocates much
small_junk = st.one_of(st.integers(-2, 40), st.floats(-2.0, 40.0),
                       junk.filter(lambda v: not isinstance(v, float)))
small_junk = st.one_of(small_junk, st.lists(small_junk, max_size=3))
SIZE_KEYS = {"M", "N", "reps", "Ns"}
# deviation labels: valid ones, near misses, and scaled(...) around short
# strings of '-', '.' and '1', many of which are no number
label = st.one_of(
    st.sampled_from(["zero", "centralized", "meanfield-informed",
                     "decentralized", "scaled", "scaled(0.5)", "scaled(-1)",
                     "scaled(.5)", "scaled(1.)", "hedged"]),
    st.text("-.1", max_size=5).map("scaled({})".format))
# the experiments section each subcommand reads
SECTIONS = {"validate": None, "mean-field": None,
            "solve-riccati": "solve_riccati", "simulate": "simulate",
            "epsilon-sweep": "epsilon_sweep", "figures": "epsilon_sweep",
            "riccati-convergence": "riccati_convergence",
            "nash-gap": "nash_gap"}
FLAGS = {
    "solve-riccati": {"--population": st.integers(-2, 12)},
    "simulate": {"--population": st.integers(-2, 12), "--reps": st.integers(-2, 3),
                 "--law": st.sampled_from(["zero", "scaled", "centralized", "x"]),
                 "--theta": st.floats()},
    "epsilon-sweep": {"--populations": st.sampled_from(
                          ["4,8", "8,4", "2.5,8", "inf", "", "a", "0,4"]),
                      "--reps": st.integers(-2, 3)},
    "riccati-convergence": {"--populations": st.sampled_from(
                                ["4,inf", "2.5", "x", ""])},
    "nash-gap": {"--population": st.integers(-2, 12), "--reps": st.integers(-2, 3)},
}


def not_json(name):
    """parse_constant hook: NaN and Infinity are not JSON."""
    raise ValueError(f"manifest holds {name}")


def key_paths(tree, prefix=()):
    """Every key of a nested dict as a path, inner keys before their parent."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))
        yield prefix + (key,)


def misspell(draw, cfg):
    """Rename one key the program reads, drawn from its key table, by
    doubling its last letter; returns the error the run must report."""
    known = [("", _CONFIG), ("initial.", ("kind",) + _INITIAL_KEYS[
        cfg["initial"]["kind"]])]
    known += [(f"{name}.", keys) for name, keys in _CONFIG.items() if keys]
    known += [(f"experiments.{name}.", keys)
              for name, keys in _SECTIONS.items()]
    path, keys = draw(st.sampled_from(known))
    key = draw(st.sampled_from(list(keys)))
    node = cfg
    for name in path.split(".")[:-1]:
        node = node.setdefault(name, {})
    node[key + key[-1]] = node.pop(key, 1)
    return f"unknown config key {path}{key + key[-1]}; did you mean {key!r}?"


@st.composite
def cases(draw):
    """A subcommand line and a valid small config with one key replaced,
    removed or misspelled, plus at most one flag set to any value; and the
    error a misspelling must be reported with."""
    sub = draw(st.sampled_from(sorted(SECTIONS)))
    section = SECTIONS[sub]
    real = st.floats(-3.0, 3.0)
    experiments = {
        "simulate": {"N": draw(st.integers(1, 8)), "reps": draw(st.integers(1, 3)),
                     "law": draw(st.sampled_from(
                         ["decentralized", "centralized", "scaled", "zero",
                          "meanfield-informed"])),
                     "theta": 0.5},
        "epsilon_sweep": {"Ns": [2, 4, 8], "reps": draw(st.integers(1, 3))},
        "riccati_convergence": {"Ns": [2, 4, "inf"]},
        "nash_gap": {"N": draw(st.integers(1, 8)), "reps": draw(st.integers(1, 3)),
                     "deviations": draw(st.lists(label, max_size=4))},
        "solve_riccati": {"N": draw(st.integers(1, 8))},
    }
    cfg = {
        "grid": {"T": draw(st.floats(0.1, 3.0)), "M": draw(st.integers(2, 30))},
        "coefficients": {name: draw(st.one_of(real, st.integers(-1, 2)))
                         for name in PROFILES + TERMINALS},
        "initial": dict(draw(st.sampled_from([
            {"kind": "uniform", "a": 0.0, "b": 20.0},
            {"kind": "gaussian", "mean": 1.0, "var": 2.0},
            {"kind": "point", "value": 3.0}]))),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "experiments": {section: experiments[section]} if section else {},
    }
    # replace or remove one key: pick a part of the config (the
    # subcommand's section, grid, coefficients, initial law, seed or the
    # experiments object), then a key in it; hypothesis draws the first
    # entries most often, so the subcommand's own sizes lead
    parts = {("experiments", section): []} if section else {}
    for path in key_paths(cfg):
        parts.setdefault(path[:2] if path[0] == "experiments" else path[:1],
                         []).append(path)
    part = draw(st.sampled_from(list(parts)))
    *parents, key = draw(st.sampled_from(parts[part]))
    node = cfg
    for name in parents:
        node = node[name]
    expect, mutation = None, draw(st.integers(0, 4))
    if mutation == 4:
        expect = misspell(draw, cfg)
    elif mutation == 0:
        del node[key]
    elif key in SIZE_KEYS:
        node[key] = draw(small_junk)
    elif key == "seed":
        node[key] = draw(st.one_of(st.integers(-2**65, 2**66), junk))
    else:
        node[key] = draw(st.one_of(junk, st.lists(st.floats(), max_size=3)))

    argv = [sub]
    flags = {"--seed": st.integers(-2**65, 2**66),
             "--grid-steps": st.integers(-2, 40), **FLAGS.get(sub, {})}
    flag = draw(st.one_of(st.none(), st.sampled_from(sorted(flags))))
    if flag is not None:
        argv.append(f"{flag}={draw(flags[flag])}")
    if sub == "simulate" and draw(st.booleans()):
        argv.append("--paths")
    return cfg, argv, expect


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_cli_exits_with_a_documented_code_and_a_manifest(case):
    cfg, argv, expect = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = run(argv + ["--config", path, "--out-dir", out])
        assert code in EXIT_CODES
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            assert json.load(fh, parse_constant=not_json)["exit_code"] == code
        assert "Traceback" not in err.getvalue()
        if expect is not None:
            assert code == 2 and expect in err.getvalue()
