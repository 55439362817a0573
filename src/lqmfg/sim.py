"""Population simulation and cost evaluation.

States advance by Euler-Maruyama on the solver grid with left-endpoint
feedback controls, each step the affine map x' = alpha x + beta of _affine.
Every random draw comes from a counter-based stream keyed by (master_seed,
purpose, replication, agent), so replications can be scheduled in any order
(or in parallel) without changing a single bit of output, and agent j's
noise is identical across population sizes, giving common random numbers
for the N-sweep experiments.  The mean-only studies map their chunks of
replications with _pool._pmap.  A population's sum at a node adds its
agents pairwise (np.add.reduce) along the contiguous agent axis of the
kernel's time-major tile, and its mean is that sum over N: np.mean of the
node's states, the mean a realized-mean law is fed.  The tree depends only
on the agent count, so a population's first n agents sum as a separate
n-agent population does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pool
from .errors import ModelConfigError, SimulationDivergedError
from .model import (CoefficientSet, InitialLaw, TimeGrid, _population_size,
                    _seed)
from .synthesis import StrategyLaw

_PURPOSE_AGENT = 0

_MAX_INDEX = 1 << 24

_TILE = 64     # kernel time steps per tile
_BLOCK = 128   # paths per block of the increments' transpose
_LANES = 2048  # paths per kernel call of the mean-only population path


def _key(master_seed: int, purpose: int, rep: int, agent) -> np.ndarray:
    """Philox key of the (purpose, replication, agent) stream, two words on
    the last axis; an array of agents gives one key per agent."""
    agent = np.asarray(agent)
    if not (0 <= rep < _MAX_INDEX
            and np.all((0 <= agent) & (agent < _MAX_INDEX))):
        raise ModelConfigError("replication and agent indices must be < 2^24")
    key = np.empty((*agent.shape, 2), dtype=np.uint64)
    key[..., 0] = _seed(master_seed)
    key[..., 1] = (purpose << 48) | (rep << 24) | agent
    return key


def stream(master_seed: int, purpose: int, rep: int, agent: int) -> np.random.Generator:
    """Counter-based stream for one (purpose, replication, agent) triple."""
    return np.random.Generator(np.random.Philox(
        key=_key(master_seed, purpose, rep, agent)))


def _fresh_philox(key) -> dict:
    """State of a fresh Philox with this key: counter 0 and an empty output
    buffer.  Philox is counter-based, so a generator given this state draws
    what a new one built with the key draws, without its SeedSequence
    set-up cost.  The state setter reads lists faster than arrays."""
    return {"bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0}


@dataclass(frozen=True)
class PopulationConfig:
    """Population size, replication count, master seed, and initial law."""

    N: int
    reps: int
    master_seed: int
    initial: InitialLaw

    def __post_init__(self):
        # agent and replication indices key the streams (_key)
        for n, what in ((self.N, "population size"),
                        (self.reps, "replication count")):
            if _population_size(n, what) > _MAX_INDEX:
                raise ModelConfigError(f"{what} must be <= 2^24, got {n!r}")
        _seed(self.master_seed)


@dataclass(frozen=True)
class PathSet:
    """One replication of one population on `grid`: states (N, M+1),
    controls (N, M), population average (M+1) by the module's rule.  Agent
    j's increments are not kept: stream(master_seed, 0, rep, j) draws its
    initial state, then its M standard normals, each times sqrt(dt)."""

    rep: int
    states: np.ndarray
    controls: np.ndarray
    mean: np.ndarray
    grid: TimeGrid


def _check_grid(what: str, own: TimeGrid, grid: TimeGrid) -> None:
    if own != grid:
        raise ModelConfigError(f"{what} on {own} does not match the grid "
                               f"{grid}")


def _reads_mean(law: StrategyLaw) -> bool:
    """Whether a population under law feeds back its realized mean.  A law
    whose k_mean is 0 reads none, so that an overflowing sum (0 inf = nan)
    does not reach its agents."""
    return law.xbar is None and bool(np.any(law.k_mean))


def _law_feedback(law: StrategyLaw, ndim: int):
    """_step_tiles' feedback and k_mean for a population under one law, on
    lanes of ndim axes: a precomputed mean folds into the offset
    k_mean xbar + k_const, a realized one is left to k_mean (_reads_mean)."""
    kappa = law.k_const if law.xbar is None else \
        law.k_mean * law.xbar + law.k_const
    k_mean = law.k_mean if _reads_mean(law) else None
    e, kappa = (v.reshape(-1, *(1,) * ndim) for v in (law.k_self, kappa))
    return (lambda k0, w: (e[k0:k0 + w], kappa[k0:k0 + w])), k_mean


def _affine(nc: dict, dt: float, k, e, kappa):
    """Under the control u = e x + kappa, Euler-Maruyama step k (an index
    or a slice of axis 0 of nc's profiles) is x' = (p + q dW) x + (r + s dW)
    with p = 1 + (A + B e) dt, q = C + D e, r = (B kappa + f) dt and
    s = D kappa + g; returns (p, q, r, s)."""
    a, b, c, d, f, g = (nc[name][k] for name in ("A", "B", "C", "D", "f", "g"))
    return 1.0 + (a + b * e) * dt, c + d * e, (b * kappa + f) * dt, d * kappa + g


def _step_tiles(nc: dict, dt: float, x0: np.ndarray, dW: np.ndarray,
                feedback, sink, k_mean=None) -> np.ndarray:
    """Euler-Maruyama steps of a batch of states started at x0, of shape S,
    under the controls u = e x + kappa; dW (..., M) broadcasts to S.

    feedback(k0, w) gives e and kappa of steps k0..k0+w-1, time on axis 0,
    broadcast to (w, *S); with k_mean, step k's kappa adds k_mean[k] times
    the mean of the states at node k (S is then one replication's paths).
    Each step is x' = alpha x + beta (_affine), two array operations.
    Time is walked in tiles of min(_TILE, M) steps on time-major buffers,
    so every step reads and writes contiguous rows; alpha and beta are
    formed a tile at a time (beta a step at a time with k_mean), and the
    increments come in transposed in blocks of _BLOCK paths.  After a tile
    of w steps from node k0, sink(k0, w, xs, e, kappa) reads it: rows 0..w
    of xs (tile+1, n) are the states at nodes k0..k0+w, one column per path
    of x0.ravel().  Returns the end states, flat.
    """
    n, M = x0.size, dW.shape[-1]
    tile = min(_TILE, M)
    tm = {name: v.reshape(-1, *(1,) * x0.ndim) for name, v in nc.items()}
    increments = dW.reshape(-1, M)
    xs = np.empty((tile + 1, n))
    ws = np.empty((tile, increments.shape[0]))
    wv = ws.reshape(-1, *dW.shape[:-1])
    beta = np.empty((tile, n))
    # alpha overwrites the increments once beta is formed, unless they
    # broadcast over the lanes or beta reads them a step at a time
    alpha = (ws if increments.shape[0] == n and k_mean is None
             else np.empty((tile, n)))
    av, bv = alpha.reshape(-1, *x0.shape), beta.reshape(-1, *x0.shape)
    xs[0] = x0.ravel()
    # overflow is an expected failure mode, reported as a typed error
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, M, tile):
            w = min(tile, M - k0)
            for j in range(0, increments.shape[0], _BLOCK):
                ws[:w, j:j + _BLOCK] = increments[j:j + _BLOCK, k0:k0 + w].T
            e, kappa = feedback(k0, w)
            p, q, r, s = _affine(tm, dt, slice(k0, k0 + w), e, kappa)
            if k_mean is None:
                np.add(r, np.multiply(s, wv[:w], out=bv[:w]), out=bv[:w])
            else:
                kappa = kappa.copy()
            np.add(p, np.multiply(q, wv[:w], out=av[:w]), out=av[:w])
            for i in range(w):
                if k_mean is not None:
                    kappa[i, 0] += k_mean[k0 + i] * np.mean(xs[i])
                    _, _, r, s = _affine(nc, dt, k0 + i, e[i, 0], kappa[i, 0])
                    np.add(r, np.multiply(s, ws[i], out=beta[i]), out=beta[i])
                np.multiply(alpha[i], xs[i], out=xs[i + 1])
                np.add(xs[i + 1], beta[i], out=xs[i + 1])
            sink(k0, w, xs, e, kappa)
            xs[0] = xs[w]
    return xs[0]


def _euler_maruyama(nc: dict, dt: float, x0: np.ndarray, dW: np.ndarray,
                    feedback, rep, agent: int | None = None, k_mean=None):
    """Euler-Maruyama paths of a batch of states started at x0, of shape S:
    states (S, M+1), controls (S, M) and the mean of each replication's
    paths (S[:-1], M+1), stepped by _step_tiles.

    The last axis of S holds the paths of one replication and the other
    axes the replications, numbered by rep (broadcast to S).  A divergence
    raises SimulationDivergedError naming the first replication, in order,
    whose paths end non-finite, its first non-finite step, and `agent`, or
    else the first path non-finite at that step (its index on the last
    axis).  The controls are formed a tile at a time as e x + kappa, and
    each tile goes out in one transposed copy.
    """
    n, M, width = x0.size, dW.shape[-1], x0.shape[-1]
    states = np.empty((n, M + 1))
    controls = np.empty((n, M))
    sums = np.empty((M + 1, n // width))
    states[:, 0] = x0.ravel()
    us = np.empty((min(_TILE, M), n))

    def sink(k0, w, xs, e, kappa):
        uv = np.multiply(e, xs[:w].reshape(w, *x0.shape),
                         out=us[:w].reshape(w, *x0.shape))
        np.add(uv, kappa, out=uv)
        states[:, k0 + 1:k0 + w + 1] = xs[1:w + 1].T
        controls[:, k0:k0 + w] = us[:w].T
        np.add.reduce(xs[:w + 1].reshape(w + 1, -1, width), axis=-1,
                      out=sums[k0:k0 + w + 1])

    end = _step_tiles(nc, dt, x0, dW, feedback, sink, k_mean)
    # a non-finite state stays non-finite, so checking the end state suffices
    if not np.all(np.isfinite(end)):
        r = int(np.argmin(np.isfinite(end).reshape(-1, width).all(axis=1)))
        bad = ~np.isfinite(states[r * width:(r + 1) * width])
        step = int(np.argmax(bad.any(axis=0)))
        path = int(np.argmax(bad[:, step]))
        rep = int(np.broadcast_to(rep, x0.shape).flat[r * width + path])
        agent = path if agent is None else agent
        raise SimulationDivergedError(
            f"agent {agent} diverged at step {step} of replication {rep}",
            rep=rep, agent=agent, step=step)
    return (states.reshape(*x0.shape, M + 1), controls.reshape(*x0.shape, M),
            (sums / width).T.reshape(*x0.shape[:-1], M + 1))


def _draw(rng: np.random.Generator, cfg: PopulationConfig, rep: int,
          sqdt: float, x0: np.ndarray, dW: np.ndarray) -> None:
    """Fill x0 (N,) and dW (N, M) with replication rep's initial states
    and Brownian increments; agent j's come from its own stream, on which
    rng is restarted."""
    keys = _key(cfg.master_seed, _PURPOSE_AGENT, rep, np.arange(cfg.N))
    # one state serves every restart: only its key changes
    state = _fresh_philox(None)
    for agent, key in enumerate(keys.tolist()):
        state["state"]["key"] = key
        rng.bit_generator.state = state
        x0[agent] = cfg.initial.sample(rng)
        rng.standard_normal(out=dW[agent])
    dW *= sqdt


def simulate_reps(coeffs: CoefficientSet, law: StrategyLaw,
                  cfg: PopulationConfig, grid: TimeGrid):
    """Yield one PathSet per replication, in replication order."""
    _check_grid("strategy law", law.grid, grid)
    sqdt = math.sqrt(grid.dt)
    nc = coeffs.node_values(grid)
    feedback, k_mean = _law_feedback(law, 1)
    # one generator, restarted on each agent's stream
    rng = np.random.Generator(np.random.Philox())
    for rep in range(cfg.reps):
        x0, dW = np.empty(cfg.N), np.empty((cfg.N, grid.M))
        _draw(rng, cfg, rep, sqdt, x0, dW)
        states, controls, mean = _euler_maruyama(nc, grid.dt, x0, dW,
                                                 feedback, rep, k_mean=k_mean)
        # the draws go before the caller reads the paths: stream redraws them
        del x0, dW
        yield PathSet(rep=rep, states=states, controls=controls, mean=mean,
                      grid=grid)


def _population_sums(coeffs: CoefficientSet, law: StrategyLaw,
                     cfg: PopulationConfig, grid: TimeGrid, sizes,
                     first: int, R: int, then=None):
    """Replications first..first+R-1 as the lanes of one kernel call.

    Returns sums (R, len(sizes), M+1), whose row [r, i] is the sum of the
    first sizes[i] agents' states of replication first + r by the module's
    rule, the bits of a separate sizes[i]-agent population's sum; or, given
    then, what then(first, sums, x0, dW) returns, x0 (R, N) and dW (R, N, M)
    the initial states and increments as simulate_reps draws them.  No
    (N, M+1) path array is built, so the law's mean must be precomputed
    and agents do not interact.  A divergence is reported as simulate_reps
    reports it.
    """
    N, M = cfg.N, grid.M
    sqdt = math.sqrt(grid.dt)
    nc = coeffs.node_values(grid)
    x0 = np.empty((R, N))
    dW = np.empty((R, N, M))
    sums = np.empty((R, len(sizes), M + 1))

    def sink(k0, w, xs, e, kappa):
        tile = xs[:w + 1].reshape(w + 1, R, N)
        for i, n in enumerate(sizes):
            np.add.reduce(tile[..., :n], axis=-1,
                          out=sums[:, i, k0:k0 + w + 1].T)

    feedback, _ = _law_feedback(law, 2)
    rng = np.random.Generator(np.random.Philox())
    for r in range(R):
        _draw(rng, cfg, first + r, sqdt, x0[r], dW[r])
    end = _step_tiles(nc, grid.dt, x0, dW, feedback, sink)
    if not np.all(np.isfinite(end)):
        # rerun the call on full paths: the same inputs give the same bits,
        # so it raises, naming the replication, step and agent as
        # simulate_reps does
        _euler_maruyama(nc, grid.dt, x0, dW, feedback,
                        first + np.arange(R)[:, None])
    return sums if then is None else then(first, sums, x0, dW)


def _population_chunks(coeffs: CoefficientSet, law: StrategyLaw,
                       cfg: PopulationConfig, grid: TimeGrid, sizes,
                       then=None) -> list:
    """_population_sums over all cfg.reps replications, the calls mapped by
    _pmap, so that `then` runs in the worker too: one result per call, in
    replication order.

    A call holds at most max(1, _LANES // N) replications.  The calls are
    as few as that allows, rounded up to a multiple of the workers _pmap
    will use (but no more than the replications), and their sizes differ
    by at most one, the larger first, so every worker gets an even share."""
    _check_grid("strategy law", law.grid, grid)
    if law.xbar is None:
        raise ModelConfigError("mean-only simulation needs a law with a "
                               "precomputed mean")
    reps = cfg.reps
    workers = _pool._workers(reps)
    calls = -(-reps // max(1, _LANES // cfg.N))
    calls = min(reps, -(-calls // workers) * workers)
    # the larger calls first: each worker's later calls then fit in the
    # memory its first one freed
    q, rem = divmod(reps, calls)
    bounds = [i * q + min(i, rem) for i in range(calls + 1)]
    tasks = [(coeffs, law, cfg, grid, sizes, lo, hi - lo, then)
             for lo, hi in zip(bounds, bounds[1:])]
    return _pool._pmap(_population_sums, tasks)


def simulate(coeffs: CoefficientSet, law: StrategyLaw,
             cfg: PopulationConfig, grid: TimeGrid) -> list:
    """All replications as a list; see simulate_reps for the streaming form."""
    return list(simulate_reps(coeffs, law, cfg, grid))


def _replay_lanes(agent: int, reps, x0, dW, others, N: int, laws,
                  coeffs: CoefficientSet, grid: TimeGrid):
    """Replay `agent` of replications reps (initial states x0, increments
    dW, co-player state sums others) under every law in one kernel call.
    Lane [r, l] is replication reps[r] under laws[l]; a realized-mean lane
    sees the mean (others[r, k] + x) / N, so its control is
    (k_self + k_mean / N) x + (k_mean (others / N) + k_const).  Returns
    states (R, L, M+1), controls (R, L, M)."""
    realized = np.array([_reads_mean(law) for law in laws])
    # without a precomputed mean, xbar is a zero that a realized-mean lane
    # never selects and a lane whose k_mean is 0 multiplies by 0
    rows = [(law.k_self, law.k_mean, law.k_const,
             np.zeros_like(law.k_const) if law.xbar is None else law.xbar)
            for law in laws]
    # time-major, (M+1, 1, L)
    ks, km, kc, xbar = (np.stack(col).T[:, None] for col in zip(*rows))
    e = np.where(realized, ks + km / N, ks)
    share = others.T[:, :, None] / N

    def feedback(k0, w):
        t = slice(k0, k0 + w)
        return e[t], km[t] * np.where(realized, share[t], xbar[t]) + kc[t]

    return _euler_maruyama(
        coeffs.node_values(grid), grid.dt,
        np.repeat(x0[:, None], len(laws), axis=1), dW[:, None], feedback,
        np.reshape(reps, (-1, 1)), agent)[:2]


def quadrature(dt: float, nodes: np.ndarray, cells=None):
    """Trapezoid rule over node values plus rectangle rule over cell values,
    both along the last axis."""
    out = dt * (nodes.sum(axis=-1) - 0.5 * (nodes[..., 0] + nodes[..., -1]))
    return out if cells is None else out + dt * cells.sum(axis=-1)


def _costs(states, controls, mean, rep, coeffs: CoefficientSet,
           grid: TimeGrid) -> np.ndarray:
    """costs_all_agents on bare arrays; an overflow names the replication
    of the first such path (rep, broadcast to the paths)."""
    nc = coeffs.node_values(grid)
    dev = states - nc["Gamma"] * mean - nc["eta"]
    tdev = states[..., -1] - coeffs.Gamma0 * mean[..., -1] - coeffs.eta0
    with np.errstate(over="ignore", invalid="ignore"):
        costs = 0.5 * (quadrature(grid.dt, nc["Q"] * dev * dev,
                                  nc["R"][:grid.M] * controls * controls)
                       + coeffs.H * tdev * tdev)
    if not np.all(np.isfinite(costs)):
        rep = int(np.broadcast_to(rep, costs.shape)
                  .flat[np.argmin(np.isfinite(costs))])
        raise SimulationDivergedError(
            f"a cost overflowed in replication {rep}", rep=rep)
    return costs


def costs_all_agents(ps: PathSet, coeffs: CoefficientSet,
                     grid: TimeGrid) -> np.ndarray:
    """Cost of every path in ps, one per row.

    Half of: trapezoid of Q (x - Gamma x^(N) - eta)^2, rectangle sum of
    R u^2, plus terminal H (x(T) - Gamma0 x^(N)(T) - eta0)^2.  Finite paths
    whose cost overflows raise SimulationDivergedError.
    """
    _check_grid("path set", ps.grid, grid)
    return _costs(ps.states, ps.controls, ps.mean, ps.rep, coeffs, grid)
