"""A fork pool for independent work: the backward solves, with the gain
tables solve-riccati writes where they are solved, and the Monte Carlo
chunks.

_pmap runs its tasks on one forked worker process per CPU of the process's
affinity mask (taskset -c 0 gives a one-CPU run), however small the work:
forking and reaping two workers costs about 5 ms, a CLI start about 0.2 s
(on a 2-CPU x86-64 machine).  It runs them in process with one CPU or one
task, inside a worker, or without os.fork.  The output is byte-identical
for any CPU count.  The pool is built on os.fork, os.pipe and pickle only,
so importing it loads nothing the package does not already load.
"""

from __future__ import annotations

import os
import pickle

# set in a worker, whose own _pmap calls run in process
_in_worker = False


def _cpus() -> int:
    """CPUs of the process's affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(tasks: int) -> int:
    """How many forked workers _pmap runs `tasks` tasks on; 1 means in
    process."""
    if _in_worker or not hasattr(os, "fork"):
        return 1
    return max(1, min(_cpus(), tasks))


def _work(fn, tasks: list, fd: int) -> None:
    """A worker's life: run its tasks until the first failure, pickle the
    (ok, result or error) pairs to fd, and leave without returning into the
    caller's stack.  A worker that cannot pickle them exits with status 1."""
    global _in_worker
    _in_worker = True
    status = 1
    try:
        results = []
        for task in tasks:
            try:
                results.append((True, fn(*task)))
            except Exception as exc:
                results.append((False, exc))
                break
        with open(fd, "wb") as fh:
            pickle.dump(results, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _load(fd: int):
    """One worker's (ok, result or error) pairs, unpickled from its pipe;
    None if the pipe ends before them."""
    try:
        with open(fd, "rb", closefd=False) as fh:
            return pickle.load(fh)
    except (EOFError, pickle.UnpicklingError):  # a truncated pickle
        return None


def _pmap(fn, tasks: list) -> list:
    """[fn(*task) for task in tasks], in task order.

    With several tasks, several CPUs and os.fork, the tasks run on
    w = min(CPUs, tasks) forked workers (_workers), worker i running
    tasks[i::w]; results and errors come back pickled, so fn may be a
    closure.  The first task, in order, that raises raises its own error; a
    worker stops at its own first failure.  A worker that dies without
    returning its results fails at its first task with a ChildProcessError
    that names its exit status.  An interrupted _pmap kills and reaps its
    workers.  Called inside a worker, _pmap runs in process.
    """
    workers = _workers(len(tasks))
    if workers < 2:
        return [fn(*task) for task in tasks]
    pids, fds, outs = [], [], None
    try:
        for w in range(workers):
            r, wr = os.pipe()
            fds.append(r)
            try:
                pid = os.fork()
            except BaseException:
                os.close(wr)
                raise
            if pid == 0:
                _work(fn, tasks[w::workers], wr)
            os.close(wr)
            pids.append(pid)
        outs = [_load(r) for r in fds]
    finally:
        for r in fds:
            os.close(r)
        if outs is None:  # an error or an interrupt: leave no worker behind
            import signal
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    for w, (pid, code) in enumerate(zip(pids, codes)):
        if code != 0 or outs[w] is None:  # it fails at its first task
            outs[w] = [(False, ChildProcessError(
                f"pool worker {pid} exited with status {code} without a "
                f"complete result"))]
    results = []
    for i in range(len(tasks)):
        ok, value = outs[i % workers][i // workers]
        if not ok:
            raise value
        results.append(value)
    return results
