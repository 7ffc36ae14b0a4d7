"""Discrete-event simulation kernel.

This package is the substrate for every other subsystem: a deterministic
event queue, a SimPy-style process model, trace recording, seeded random
streams and shared-resource primitives.
"""

from .events import PRIORITY_LATE, PRIORITY_NORMAL, PRIORITY_URGENT, EventQueue, ScheduledCall
from .kernel import Interrupted, Process, Signal, Simulator, Timeout
from .resources import Resource, Store, ThroughputServer
from .rng import RngStreams
from .snapshot import SimSnapshot, SnapshotError
from .trace import TraceEntry, Tracer, read_jsonl

__all__ = [
    "EventQueue",
    "Interrupted",
    "PRIORITY_LATE",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "Resource",
    "RngStreams",
    "ScheduledCall",
    "Signal",
    "SimSnapshot",
    "Simulator",
    "SnapshotError",
    "Store",
    "ThroughputServer",
    "Timeout",
    "TraceEntry",
    "Tracer",
    "read_jsonl",
]
