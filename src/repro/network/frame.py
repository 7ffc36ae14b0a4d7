"""Network frame model shared by all bus technologies.

A :class:`Frame` is the unit of transmission on a single bus segment.
End-to-end messages that cross gateways are carried by one frame per
segment; the middleware layer (``repro.middleware``) deals in *messages*
and maps them onto frames.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from ..errors import NetworkError


class TrafficClass(Enum):
    """Criticality class of a transmission (Section 3.1, Hardware Access
    & Communication): deterministic traffic must not be delayed by
    non-deterministic bulk traffic."""

    DETERMINISTIC = "deterministic"   # control traffic with deadlines
    NON_DETERMINISTIC = "non_deterministic"  # best-effort / bulk / streams


_frame_ids = itertools.count(1)


@dataclass
class Frame:
    """One frame on one bus segment.

    Attributes:
        src: sending ECU name.
        dst: destination ECU name, or ``None`` for broadcast (CAN-style).
        payload_bytes: application payload size in bytes.
        priority: technology-specific priority.  For CAN this is the 11-bit
            identifier (lower wins arbitration); for Ethernet it is the
            802.1p PCP class 0..7 (higher is more important).
        traffic_class: deterministic vs non-deterministic.
        payload: opaque application data carried along for delivery.
        created_at: simulated time the frame was enqueued by the sender.
        delivered_at: simulated time of complete reception (set by the bus).
        corrupted: set by fault injection; receivers model a CRC check and
            discard corrupted frames instead of dispatching them.
        hop: index of this frame's segment along its end-to-end route
            (0 on the first bus); lets one completion sink serve every hop.
    """

    src: str
    dst: Optional[str]
    payload_bytes: int
    priority: int = 0
    traffic_class: TrafficClass = TrafficClass.NON_DETERMINISTIC
    payload: Any = None
    label: str = ""
    created_at: float = 0.0
    delivered_at: Optional[float] = None
    corrupted: bool = False
    frame_id: int = field(default_factory=lambda: next(_frame_ids))
    hop: int = 0

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise NetworkError("payload size cannot be negative")

    @property
    def latency(self) -> float:
        """Queueing + transmission latency; only valid after delivery."""
        if self.delivered_at is None:
            raise NetworkError(f"frame {self.frame_id} not delivered yet")
        return self.delivered_at - self.created_at

    def clone_for_segment(self, frame_id: Optional[int] = None) -> "Frame":
        """Fresh copy (new id, reset timestamps) for the next bus segment.

        Corruption is sticky: a gateway forwards the payload bit-for-bit,
        so a frame mangled on one hop stays mangled on the next.

        Pass ``frame_id`` (e.g. ``sim.next_frame_id()``) to draw from a
        sim-local sequence — required wherever forked worlds must keep
        byte-identical traces; the process-global fallback only suits
        standalone construction.
        """
        return Frame(
            src=self.src,
            dst=self.dst,
            payload_bytes=self.payload_bytes,
            priority=self.priority,
            traffic_class=self.traffic_class,
            payload=self.payload,
            label=self.label,
            corrupted=self.corrupted,
            frame_id=next(_frame_ids) if frame_id is None else frame_id,
        )
