"""Shared fixtures for the executor tests."""

import pytest

from repro.exec import pool as pool_mod


@pytest.fixture
def fast_watchdog(monkeypatch):
    """Shrink the pool's supervision constants so a hang is declared,
    and a hung worker reaped, in well under a second.

    The pool hands each worker the beat period when it starts it, so
    build the pool after requesting this fixture.
    """
    monkeypatch.setattr(pool_mod, "_HEARTBEAT_PERIOD", 0.05)
    monkeypatch.setattr(pool_mod, "_HEARTBEAT_TIMEOUT", 0.4)
    monkeypatch.setattr(pool_mod, "_SHUTDOWN_GRACE", 0.3)
