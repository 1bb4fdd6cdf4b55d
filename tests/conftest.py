"""Shared test fixtures."""

import contextlib
import os
import types

import pytest

from homeowheel import executor


@pytest.fixture
def forbid(monkeypatch):
    """``forbid(module, name)`` replaces ``module.name`` for the test with a
    stand-in that fails it when called. Work-cap tests forbid the first step
    of the work, so a missing cap fails at once instead of running a huge case."""
    def fail(*args, **kwargs):
        pytest.fail("work started past the cap")

    def apply(module, name):
        monkeypatch.setattr(module, name, fail)
    return apply


@contextlib.contextmanager
def _split_export(cpus: int, min_part_rows: int | None = 1):
    fork = os.fork
    seen = types.SimpleNamespace(forked=[], pins=[])

    def counting_fork():
        pid = fork()
        if pid:
            seen.forked.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(os, "sched_setaffinity", lambda pid, mask: seen.pins.append(set(mask)))
        patch.setattr(os, "fork", counting_fork)
        if min_part_rows is not None:
            patch.setattr(executor, "_MIN_PART_ROWS", min_part_rows)
        yield seen


@pytest.fixture(scope="session")
def split_export():
    """``with split_export(cpus) as seen:`` runs trace exports as if on
    ``cpus`` usable CPUs, in parts of as few as one row (``min_part_rows=``
    sets another least, None keeps the package's). ``seen.forked`` lists the
    pid of each worker forked and ``seen.pins`` each CPU set this process
    pinned itself to; no process is really pinned. Session scoped, so
    hypothesis tests may use it across examples."""
    return _split_export
