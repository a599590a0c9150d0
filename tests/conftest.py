"""Fixtures every test gets."""

from __future__ import annotations

import pytest

from helpers import assert_no_children
from imondrian.tree import _close_helpers


@pytest.fixture(autouse=True)
def _no_children_left():
    """Fail a test that leaves a child process, running or unreaped, once
    the helpers of ``Forest.route`` and ``Forest.grow`` are stopped: they
    live until their process exits, so every test starts without them, and
    every other child must be reaped on every path."""
    yield
    _close_helpers()
    assert_no_children()
