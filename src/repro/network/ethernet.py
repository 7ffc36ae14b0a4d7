"""Switched Ethernet segment with 802.1p strict-priority egress queues.

The segment is modelled as one store-and-forward switch: every attached ECU
has a dedicated full-duplex link to the switch, so the only contention point
is the **egress port** towards each destination.  Each egress port keeps
eight priority queues (PCP 0..7); transmission selection is strict priority
(higher PCP first), non-preemptive.

This is the baseline against which :mod:`repro.network.tsn` adds 802.1Qbv
time-aware gates.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import NetworkError
from ..sim import PRIORITY_NORMAL, Signal, Simulator
from .base import BusModel
from .frame import Frame

#: Ethernet frame overhead: preamble+SFD (8) + header (14) + FCS (4) + IFG (12).
ETH_OVERHEAD_BYTES = 38

#: Minimum and maximum Ethernet payload sizes.
ETH_MIN_PAYLOAD = 46
ETH_MAX_PAYLOAD = 1500

#: Number of 802.1p priority classes.
N_PRIORITIES = 8


def ethernet_wire_bytes(payload_bytes: int) -> int:
    """Bytes on the wire for one frame carrying ``payload_bytes``."""
    if payload_bytes > ETH_MAX_PAYLOAD:
        raise NetworkError(
            f"payload {payload_bytes} exceeds Ethernet MTU {ETH_MAX_PAYLOAD}"
        )
    return ETH_OVERHEAD_BYTES + max(payload_bytes, ETH_MIN_PAYLOAD)


class EgressPort:
    """One switch egress port: 8 strict-priority FIFO queues.

    Each queued entry carries its precomputed wire duration — computed
    once at enqueue time, not re-derived at selection/transmission (the
    gated TSN subclass re-inspects the head duration on every selection
    round, so this caching is what keeps guard-band checks O(1)).  A
    class's queue is created by its first queued frame.

    An idle plain port has empty queues (a finish selects the next frame
    before it lets the port go idle), so :meth:`enqueue` starts a frame
    on an idle port directly, without queueing and selecting it."""

    def __init__(self, bus: "EthernetBus", dst: str) -> None:
        self.bus = bus
        self.dst = dst
        self.queues: List[Optional[Deque[Tuple[Frame, Signal, float]]]] = [
            None
        ] * N_PRIORITIES
        self.busy = False
        self.frames_sent = 0

    def _duration(self, frame: Frame) -> float:
        """Wire seconds of ``frame``, after checking its PCP."""
        if not 0 <= frame.priority < N_PRIORITIES:
            raise NetworkError(
                f"Ethernet PCP must be 0..{N_PRIORITIES - 1}, got {frame.priority}"
            )
        durations = self.bus._durations
        duration = durations.get(frame.payload_bytes)
        if duration is None:
            # a miss fills the per-bus memo; an oversize frame raises
            # before anything is stored
            duration = durations[frame.payload_bytes] = self.bus.wire_time(
                ethernet_wire_bytes(frame.payload_bytes)
            )
        return duration

    def _queue(self, frame: Frame, done: Signal, duration: float) -> None:
        queue = self.queues[frame.priority]
        if queue is None:
            queue = self.queues[frame.priority] = deque()
        queue.append((frame, done, duration))

    def enqueue(self, frame: Frame, done: Signal) -> None:
        duration = self._duration(frame)
        if self.busy:
            self._queue(frame, done, duration)
            return
        self.busy = True
        sim = self.bus.sim
        sim.queue.push(
            sim.now + duration, self._finish, (frame, done, duration)
        ).pooled = True

    def _select(self) -> Optional[Tuple[Frame, Signal, float]]:
        """Strict priority: highest non-empty PCP queue first."""
        queues = self.queues
        for pcp in range(N_PRIORITIES - 1, -1, -1):
            queue = queues[pcp]
            if queue:
                return queue.popleft()
        return None

    def _finish(self, frame: Frame, done: Signal, duration: float) -> None:
        """Deliver a completed frame, then run the wire train: select the
        port's next frame and perform its finish in place for as long as
        it is exactly the event the kernel would dispatch next
        (:meth:`Simulator.dispatch_in_place`); the first one that is not
        is pushed.  The port stays busy while a delivery runs, so a frame
        enqueued from a receiver is queued and selected here."""
        bus = self.bus
        sim = bus.sim
        while True:
            self.frames_sent += 1
            bus.transmit_time += duration
            bus._deliver(frame, done)
            item = self._select()
            if item is None:
                self.busy = False
                return
            frame, done, duration = item
            when = sim.now + duration
            if not sim.dispatch_in_place(when, PRIORITY_NORMAL):
                sim.queue.push(when, self._finish, item).pooled = True
                return

    @property
    def backlog_frames(self) -> int:
        return sum(len(q) for q in self.queues if q)


class _BroadcastLatch:
    """Countdown completion sink for a broadcast fan-out.

    A class (not a closure) so snapshots taken with a broadcast in flight
    deep-copy the latch into the new world instead of sharing its
    mutable countdown across worlds; it also replaces the per-copy
    Signal allocation (buses only ever call ``fire``).
    """

    __slots__ = ("remaining", "frame", "done")

    def __init__(self, remaining: int, frame: Frame, done: Signal) -> None:
        self.remaining = remaining
        self.frame = frame
        self.done = done

    def fire(self, _value: object) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.done.fire(self.frame)


class EthernetBus(BusModel):
    """Single-switch full-duplex Ethernet segment."""

    technology = "ethernet"

    def __init__(
        self, sim: Simulator, name: str, bitrate_bps: float = 100_000_000.0
    ) -> None:
        super().__init__(sim, name, bitrate_bps)
        self._ports: Dict[str, EgressPort] = {}
        #: payload bytes -> wire seconds, filled on first use of a size
        self._durations: Dict[int, float] = {}

    def _port(self, dst: str) -> EgressPort:
        port = self._ports.get(dst)
        if port is None:
            port = self._make_port(dst)
            self._ports[dst] = port
        return port

    def _make_port(self, dst: str) -> EgressPort:
        """Factory hook so the TSN subclass can install gated ports."""
        return EgressPort(self, dst)

    def submit(self, frame: Frame, done: Signal = None) -> Signal:
        """Queue ``frame`` at its destination's egress port.

        Broadcast (``dst=None``) fans out one copy per attached ECU except
        the sender; the returned signal fires when the *last* copy lands.
        """
        frame.created_at = self.sim.now
        if done is None:
            done = self.sim.signal(name=f"{self.name}.tx")
        if frame.dst is not None:
            # ingress-link serialisation is negligible next to egress
            # queueing for a store-and-forward switch; model egress only.
            self._port(frame.dst).enqueue(frame, done)
            return done
        receivers = [e for e in self.attached_ecus if e != frame.src]
        if not receivers:
            self.sim.post(0.0, done.fire, frame)
            return done
        latch = _BroadcastLatch(len(receivers), frame, done)
        for ecu in receivers:
            copy = frame.clone_for_segment(frame_id=self.sim.next_frame_id())
            copy.dst = ecu
            copy.created_at = self.sim.now
            self._port(ecu).enqueue(copy, latch)
        return done

    def port_backlog(self, dst: str) -> int:
        """Frames queued towards ``dst`` (0 if the port was never used)."""
        port = self._ports.get(dst)
        return port.backlog_frames if port else 0
