"""Fixtures every test gets."""

from __future__ import annotations

import pytest

from helpers import assert_no_children


@pytest.fixture(autouse=True)
def _no_children_left():
    """Fail a test that leaves a child process, running or unreaped: the
    fork-joins of ``Forest.route`` and ``Forest.grow`` must reap
    every child they fork, on every path."""
    yield
    assert_no_children()
