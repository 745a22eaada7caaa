"""``workers.run_tasks``: results in task order for any process count, the
earliest task's exception, every child reaped, and the cases that run in
the calling process.  The CPU count is patched through
``os.sched_getaffinity``, and ``os.fork`` is wrapped to count the children."""

import os
import signal
import sys
import threading

import pytest

from conftest import allow_cpus, assert_no_child_left, count_forks
from riskcast import SchemaError
from riskcast import workers
from riskcast.workers import run_tasks


def _value(i):
    return lambda: (i, os.getpid())


def _raising(exc):
    def task():
        raise exc
    return task


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n_tasks", [1, 2, 3, 5])
def test_results_come_back_in_task_order(monkeypatch, cpus, n_tasks):
    allow_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    results = run_tasks([_value(i) for i in range(n_tasks)])
    assert [i for i, _ in results] == list(range(n_tasks))
    processes = min(cpus, n_tasks)
    assert len(forks) == processes - 1
    # The caller runs the first share, a child each of the others.
    share = n_tasks // processes
    assert {pid for _, pid in results[:share]} == {os.getpid()}
    assert len({pid for _, pid in results}) == processes
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("raising, expected", [
    ((3,), 3),          # in the last child's share
    ((1, 3), 1),        # the caller's and a child's
    ((2, 3), 2),        # two in children's shares
    ((0, 1, 2, 3), 0),
])
def test_the_earliest_tasks_exception_is_raised_unchanged(monkeypatch, cpus, raising,
                                                         expected):
    allow_cpus(monkeypatch, cpus)
    tasks = [_raising(SchemaError(f"task {i} failed")) if i in raising else _value(i)
             for i in range(4)]
    with pytest.raises(SchemaError) as got:
        run_tasks(tasks)
    assert type(got.value) is SchemaError
    assert got.value.args == (f"task {expected} failed",)
    assert_no_child_left()


def test_an_os_error_keeps_its_errno_and_filename(monkeypatch, tmp_path):
    allow_cpus(monkeypatch, 2)

    def open_directory():
        with open(tmp_path, "w"):
            pass

    with pytest.raises(IsADirectoryError) as serial:
        open_directory()
    with pytest.raises(IsADirectoryError) as forked:
        run_tasks([_value(0), open_directory])
    assert str(forked.value) == str(serial.value)
    assert (forked.value.errno, forked.value.filename) == (serial.value.errno,
                                                           serial.value.filename)
    assert_no_child_left()


def test_children_are_reaped_when_the_callers_share_raises(monkeypatch, tmp_path):
    """The caller's exception wins, and the child has finished its share."""
    allow_cpus(monkeypatch, 2)
    done = tmp_path / "child-done"
    with pytest.raises(KeyError):
        run_tasks([_raising(KeyError("caller")), lambda: done.write_text("yes")])
    assert done.read_text() == "yes"
    assert_no_child_left()


def test_a_child_leaves_only_through_os_exit(monkeypatch, tmp_path):
    """A child never returns or unwinds into the caller's code (here, the
    test runner), and a ``SystemExit`` in it is handed back like any
    exception."""
    allow_cpus(monkeypatch, 2)
    caller = os.getpid()
    try:
        results = run_tasks([_value(0), _value(1)])
        with pytest.raises(SystemExit) as got:
            run_tasks([_value(0), _raising(SystemExit(7))])
    finally:
        if os.getpid() != caller:  # a child that left run_tasks
            (tmp_path / "escaped").touch()
            os._exit(0)
    assert not (tmp_path / "escaped").exists()
    assert [i for i, _ in results] == [0, 1]
    assert got.value.code == 7
    assert_no_child_left()


@pytest.mark.parametrize("task", [lambda: os._exit(3), lambda: os.kill(os.getpid(), signal.SIGKILL),
                                  threading.Lock],
                         ids=["child-dies", "child-killed", "unpicklable-result"])
def test_a_child_that_sends_no_result_is_a_child_process_error(monkeypatch, task):
    allow_cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="ended without sending a result"):
        run_tasks([_value(0), task])
    assert_no_child_left()


@pytest.mark.parametrize("case", ["one-cpu", "no-os-fork", "not-linux", "live-thread"])
def test_runs_in_the_calling_process(monkeypatch, case):
    allow_cpus(monkeypatch, 1 if case == "one-cpu" else 2)
    forks = count_forks(monkeypatch)
    if case == "no-os-fork":
        monkeypatch.delattr(os, "fork")
    if case == "not-linux":
        monkeypatch.setattr(sys, "platform", "darwin")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "live-thread":
        thread.start()
    try:
        results = run_tasks([_value(i) for i in range(3)])
    finally:
        release.set()
        if thread.is_alive():
            thread.join()
    assert results == [(i, os.getpid()) for i in range(3)]
    assert forks == []


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    allow_cpus(monkeypatch, 3)
    assert workers.usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert workers.usable_cpus() == 1
