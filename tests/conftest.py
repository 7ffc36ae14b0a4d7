"""Fixtures shared across the test packages."""

import pytest

from repro.exec.recovery import CheckpointStore, FaultPoints


@pytest.fixture
def fault_points(monkeypatch):
    """Crash hooks hit by every checkpoint store until the test ends.

    Arm a point on the returned :class:`FaultPoints` (``fault_points.arm(
    "checkpoint.record_written", after=3)``) before running the campaign.
    The hooks sit on the class, and a store only ever lives in the
    parent process, so they reach every store a campaign opens — its
    resume included — on any worker start method.
    """
    fp = FaultPoints()
    monkeypatch.setattr(CheckpointStore, "fault_points", fp)
    return fp
