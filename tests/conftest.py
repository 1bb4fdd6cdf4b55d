"""Shared test fixtures."""

import pytest


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
