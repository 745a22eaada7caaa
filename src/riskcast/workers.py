"""Independent tasks in forked worker processes, and the CPUs a process may use.

:func:`run_tasks` runs a list of callables that share nothing but what they
read, and returns their results in task order.  It is for Python-bound
work, whose numpy calls are too short to release the interpreter lock for
long: two threads running it take turns, while two processes run side by
side.  ``gen-data`` composes its news texts in a worker this way, and
``train --grid`` fits its points in workers.

``prediction_scores`` keeps threads instead: its windows go through numpy
256 at a time, so its numpy loops run long enough to overlap, and its parts
write into one shared score array.  A fork per call, and sending the scores
back, would cost more than those threads gain.

A forked child is a copy of the process, so only results cross between
processes, pickled over a pipe.  Forking beside a live thread can leave the
child waiting on a lock that no thread of its own will release, so tasks
run in the calling process whenever another thread is alive.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
import threading
from collections.abc import Callable, Sequence


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def _run_share(tasks: Sequence[Callable]) -> tuple[list, BaseException | None]:
    """The results of ``tasks`` run in order, up to the first that raises,
    and that task's exception (``None`` when none raised)."""
    results = []
    try:
        for task in tasks:
            results.append(task())
    except BaseException as exc:  # handed to run_tasks' caller, in task order
        return results, exc
    return results, None


def _fork(tasks: Sequence[Callable]) -> tuple[int, int]:
    """Start a child that runs ``tasks`` and writes :func:`_run_share`'s
    outcome, pickled, to a pipe; the child's pid and the pipe's read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 1
    try:
        os.close(read_end)
        data = pickle.dumps(_run_share(tasks), pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        # Never return into the parent's code: no cleanup handlers, no
        # flushing of stdio buffers copied from the parent.
        os._exit(code)


def run_tasks(tasks: Sequence[Callable], fork: bool = True) -> list:
    """``[task() for task in tasks]``, with the tasks shared among
    ``min(len(tasks), usable CPUs)`` processes when ``fork`` is true.

    The tasks are split into that many contiguous shares.  The calling
    process runs the first share, one forked child each of the others, and
    every child has been reaped when this returns or raises.  Results come
    back pickled, in task order.  When a task raises, its share stops there,
    and the exception of the earliest such task, the one the serial loop
    would meet first, reaches the caller with its type and arguments.  A
    child that sends no result (it died, or its result does not pickle) is
    a RuntimeError.

    There is one share, run in the calling process with nothing forked,
    when ``fork`` is false, when one CPU is usable or there is at most one
    task, when the platform is not Linux or lacks ``os.fork``, or when
    another thread is alive.
    """
    # Python's docs call fork unsafe on macOS, and other platforms lack it.
    forkable = sys.platform == "linux" and hasattr(os, "fork") and threading.active_count() == 1
    processes = max(min(len(tasks), usable_cpus()), 1) if fork and forkable else 1
    bounds = [len(tasks) * i // processes for i in range(processes + 1)]
    with contextlib.ExitStack() as children:
        pipes = []
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid, read_end = _fork(tasks[lo:hi])
            children.callback(os.waitpid, pid, 0)
            pipes.append((pid, children.enter_context(open(read_end, "rb"))))
        outcomes = [_run_share(tasks[:bounds[1]])]
        for pid, pipe in pipes:
            data = pipe.read()
            if not data:
                outcomes.append(([], RuntimeError(f"worker process {pid} ended "
                                                  "without sending a result")))
            else:
                outcomes.append(pickle.loads(data))
    results = []
    for share, exc in outcomes:
        if exc is not None:
            raise exc
        results += share
    return results
