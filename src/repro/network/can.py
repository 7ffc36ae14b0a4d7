"""CAN bus simulator with identifier-based arbitration.

Classic CAN 2.0A semantics at frame granularity:

* the bus is a single broadcast medium;
* when the bus goes idle, the pending frame with the **lowest identifier**
  (``Frame.priority``) wins arbitration, across all attached nodes;
* transmission is **non-preemptive** — a started frame always completes,
  so an urgent frame can be blocked for at most one maximal frame time
  (the classic priority-inversion bound used in CAN response-time
  analysis);
* a CAN data frame carries at most 8 payload bytes; larger payloads are
  rejected (segmentation is a transport-protocol concern, modelled in the
  middleware layer).

Frame timing uses the standard worst-case stuffed length for an 11-bit
identifier frame.

The pending queue is a binary heap keyed on ``(identifier, submit
sequence)`` — each arbitration round is O(log n) instead of the former
full O(n log n) sort, with identical winner selection (ties between equal
identifiers break by submission order, exactly as the sort did).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Sequence, Tuple

from ..errors import NetworkError
from ..sim import Signal, Simulator
from .base import BusModel
from .frame import Frame

#: Maximum payload of a classic CAN data frame.
CAN_MAX_PAYLOAD = 8

#: Highest valid 11-bit identifier.
CAN_MAX_ID = 0x7FF


def can_frame_bits(payload_bytes: int) -> int:
    """Worst-case wire bits of an 11-bit-ID CAN frame with stuffing.

    47 overhead bits, 8 per payload byte, plus worst-case stuff bits on the
    34 stuffable overhead bits and the payload: floor((34 + 8n - 1) / 4).
    """
    if not 0 <= payload_bytes <= CAN_MAX_PAYLOAD:
        raise NetworkError(
            f"CAN payload must be 0..{CAN_MAX_PAYLOAD} bytes, got {payload_bytes}"
        )
    data_bits = 8 * payload_bytes
    stuff_bits = (34 + data_bits - 1) // 4
    return 47 + data_bits + stuff_bits


class CanBus(BusModel):
    """Event-driven CAN segment."""

    technology = "can"

    #: 3-bit interframe space.
    IFS_BITS = 3

    def __init__(self, sim: Simulator, name: str, bitrate_bps: float) -> None:
        super().__init__(sim, name, bitrate_bps)
        #: wire seconds per payload size 0..CAN_MAX_PAYLOAD, so neither
        #: submit nor arbitration re-derives the stuffed frame length
        self._durations = tuple(
            can_frame_bits(n) / bitrate_bps for n in range(CAN_MAX_PAYLOAD + 1)
        )
        self._ifs = self.IFS_BITS / bitrate_bps
        # heap of (priority/id, submit sequence, frame, done-signal); the
        # (priority, seq) prefix is unique, so the Frame is never compared
        self._pending: List[Tuple[int, int, Frame, Signal]] = []
        self._seq = 0
        self._busy = False
        #: Frames that have lost at least one arbitration round — each
        #: frame is counted once, at its *first* loss (a frame stuck
        #: behind heavy traffic for K rounds still counts as one loss).
        self.arbitration_losses = 0
        # first-loss bookkeeping, O(1) per round: every entry with a
        # submit sequence above the watermark has never lost a round yet
        self._loss_watermark = 0
        self._fresh_pending = 0

    def submit(self, frame: Frame, done: Signal = None) -> Signal:
        """Queue ``frame`` for arbitration; identifier = ``frame.priority``."""
        if not 0 <= frame.priority <= CAN_MAX_ID:
            raise NetworkError(
                f"CAN identifier must be 0..{CAN_MAX_ID}, got {frame.priority}"
            )
        if not 0 <= frame.payload_bytes <= CAN_MAX_PAYLOAD:
            can_frame_bits(frame.payload_bytes)  # raises the size error
        frame.created_at = self.sim.now
        if done is None:
            done = self.sim.signal(name=f"{self.name}.tx")
        self._seq += 1
        heapq.heappush(self._pending, (frame.priority, self._seq, frame, done))
        self._fresh_pending += 1
        if not self._busy:
            self._start_next()
        return done

    # -- internals ---------------------------------------------------------

    def _start_next(self) -> None:
        if not self._pending:
            return
        self._busy = True
        __, seq, frame, done = heapq.heappop(self._pending)
        if seq > self._loss_watermark:
            self._fresh_pending -= 1
        if self._pending:
            # every still-pending frame just lost this round; only frames
            # above the watermark are losing for the first time
            self.arbitration_losses += self._fresh_pending
            self._fresh_pending = 0
            self._loss_watermark = self._seq
        duration = self._durations[frame.payload_bytes]
        sim = self.sim
        if sim.tracer.enabled:
            sim.trace(
                "net.tx_start",
                bus=self.name,
                frame_id=frame.frame_id,
                can_id=frame.priority,
                duration=duration,
            )
        sim.queue.push(
            sim.now + duration, self._finish, (frame, done, duration)
        ).pooled = True

    def _finish(self, frame: Frame, done: Signal, duration: float) -> None:
        self.transmit_time += duration
        self._deliver(frame, done)
        # interframe space before the next arbitration round
        sim = self.sim
        sim.queue.push(sim.now + self._ifs, self._idle, ()).pooled = True

    def _idle(self) -> None:
        self._busy = False
        self._start_next()

    @property
    def queue_depth(self) -> int:
        """Frames currently waiting for arbitration."""
        return len(self._pending)

    def worst_case_blocking(self) -> float:
        """Longest time a top-priority frame can wait behind a started frame."""
        return can_frame_bits(CAN_MAX_PAYLOAD) / self.bitrate_bps


def can_response_time_bound(
    flows: Sequence[Tuple[int, int, float]], bitrate_bps: float
) -> Dict[int, float]:
    """Worst-case response time of each periodic single-frame CAN flow.

    The sufficient test of Davis, Burns, Bril & Lukkien (2007), with no
    queuing jitter.  ``flows`` holds one ``(identifier, payload_bytes,
    period)`` per flow, identifiers unique.  For the flow with
    identifier ``m``::

        w = max(B_m, C_m) + sum over k in hp(m) of ceil((w + tau) / T_k) C_k
        R_m = w + C_m

    ``C_k`` is flow ``k``'s worst-case stuffed frame time plus the 3-bit
    interframe space :class:`CanBus` inserts after every frame, ``B_m``
    the longest ``C`` among lower-priority identifiers, and ``tau`` one
    bit time.  Taking ``max(B_m, C_m)`` covers the push-through of the
    flow's own previous instance, so the bound holds for every instance
    as long as it does not exceed the period.  A flow whose response
    would exceed its period gets ``math.inf``: the test cannot bound it.
    """
    ids = [can_id for can_id, __, __ in flows]
    if len(set(ids)) != len(ids):
        raise NetworkError("CAN response-time analysis needs unique identifiers")
    tau = 1.0 / bitrate_bps
    frame_times = {
        can_id: (can_frame_bits(size) + CanBus.IFS_BITS) / bitrate_bps
        for can_id, size, __ in flows
    }
    bounds: Dict[int, float] = {}
    for can_id, __, period in flows:
        own = frame_times[can_id]
        blocking = max(
            (frame_times[other] for other in ids if other >= can_id), default=0.0
        )
        higher = [(frame_times[k], t) for k, __, t in flows if k < can_id]
        w = blocking
        while True:
            nxt = blocking + sum(math.ceil((w + tau) / t) * c for c, t in higher)
            if nxt + own > period:
                bounds[can_id] = math.inf
                break
            if nxt == w:
                bounds[can_id] = w + own
                break
            w = nxt
    return bounds
