"""Telemetry test fixtures: every test starts from a quiet bus."""

from __future__ import annotations

import pytest

from repro.telemetry.bus import BUS


@pytest.fixture(autouse=True)
def quiet_bus():
    """Reset the process-wide bus around each test so telemetry state
    never leaks between tests."""
    BUS.reset()
    yield
    BUS.reset()
