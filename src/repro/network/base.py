"""Common bus interface.

Every bus simulator exposes the same surface so that the middleware and
gateway layers are technology-agnostic:

* :meth:`BusModel.submit` — enqueue a frame for transmission; returns a
  :class:`~repro.sim.kernel.Signal` that fires with the frame on complete
  delivery;
* :meth:`BusModel.add_listener` — register a reception callback for an
  attached ECU.

Delivery semantics: the listener of the destination ECU (or every listener
except the sender, for broadcast frames) is invoked at the instant the last
bit arrives.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import NetworkError
from ..sim import Signal, Simulator
from .frame import Frame

Listener = Callable[[Frame], None]


class BusModel:
    """Abstract base for CAN, FlexRay and Ethernet segment simulators."""

    technology = "abstract"

    def __init__(self, sim: Simulator, name: str, bitrate_bps: float) -> None:
        if bitrate_bps <= 0:
            raise NetworkError(f"bus {name!r}: bitrate must be positive")
        self.sim = sim
        self.name = name
        self.bitrate_bps = bitrate_bps
        self._listeners: Dict[str, Listener] = {}
        # broadcast fan-out snapshot, rebuilt lazily after add/remove so
        # the hot path never copies the listener table per delivery
        self._listener_snapshot: Optional[List[tuple]] = None
        self.frames_delivered = 0
        self.bytes_delivered = 0
        self.frames_dropped = 0
        self.frames_corrupted = 0
        self.frames_delayed = 0
        #: fault-injection hook consulted at delivery time.  ``None`` (the
        #: default) keeps the hot path at a single attribute test — the
        #: same zero-overhead pattern as the tracing guards.  When set, it
        #: is called as ``hook(bus, frame)`` and returns ``None`` (deliver
        #: normally) or an action tuple: ``("drop",)``, ``("corrupt",)``
        #: or ``("delay", seconds)``.
        self._fault_hook: Optional[Callable[["BusModel", Frame], Optional[tuple]]] = None
        #: accumulated seconds the medium spent transmitting (wire
        #: occupancy; the basis for observed-utilization measurements)
        self.transmit_time = 0.0
        # cached per-bus instruments; no-ops while metrics are disabled
        metrics = sim.metrics
        self._m_frames = metrics.counter("net.frames", bus=name)
        self._m_bytes = metrics.counter("net.bytes", bus=name)
        self._m_latency = metrics.histogram("net.latency", bus=name)

    def record_transmission(self, seconds: float) -> None:
        """Account wire occupancy for a completed transmission."""
        self.transmit_time += seconds

    # -- attachment --------------------------------------------------------

    def add_listener(self, ecu_name: str, listener: Listener) -> None:
        """Register ``listener`` as ECU ``ecu_name``'s receive handler."""
        self._listeners[ecu_name] = listener
        self._listener_snapshot = None

    def remove_listener(self, ecu_name: str) -> None:
        """Detach an ECU's receive handler (e.g. on ECU failure)."""
        self._listeners.pop(ecu_name, None)
        self._listener_snapshot = None

    @property
    def attached_ecus(self) -> List[str]:
        return list(self._listeners)

    # -- transmission --------------------------------------------------------

    def submit(self, frame: Frame, done: Optional[Signal] = None) -> Signal:
        """Queue ``frame``; the returned signal fires on delivery.

        ``done`` lets a batching caller supply its own completion sink —
        any object with ``fire(frame)`` — so the hot path can skip the
        per-frame :class:`Signal` allocation and its deferred-dispatch
        event (see ``VehicleNetwork.send_segments``).  When omitted, a
        fresh signal is created and returned.
        """
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def _deliver(
        self, frame: Frame, done: Optional[Signal], hooked: bool = False
    ) -> None:
        """Mark ``frame`` delivered now and fan it out to receivers.

        The whole delivery of one completed transmission, in one frame:
        every bus completion calls this exactly once, and it is the one
        entry point a subclass overrides to replace delivery.  ``hooked``
        marks the continuation of a fault-delayed frame, which already
        passed the fault hook and is delivered without asking it again.
        """
        hook = self._fault_hook
        if hook is not None and not hooked:
            action = hook(self, frame)
            if action is not None:
                kind = action[0]
                if kind == "drop":
                    # the frame vanishes: completion sinks never fire, so
                    # upper layers see it exactly as a lost transmission
                    self.frames_dropped += 1
                    return
                if kind == "delay":
                    self.frames_delayed += 1
                    self.sim.post(action[1], self._deliver, frame, done, True)
                    return
                # "corrupt": deliver the mangled frame; receivers model a
                # CRC check and discard it (see Endpoint._on_frame)
                frame.corrupted = True
                self.frames_corrupted += 1
        sim = self.sim
        now = sim.now
        frame.delivered_at = now
        self.frames_delivered += 1
        payload_bytes = frame.payload_bytes
        self.bytes_delivered += payload_bytes
        m_frames = self._m_frames
        if m_frames._enabled:
            # the registry flips every instrument's flag together, so one
            # test covers all three; now - created_at is frame.latency
            m_frames.value += 1.0
            self._m_bytes.value += payload_bytes
            self._m_latency.observe(now - frame.created_at)
        if sim.tracer.enabled:
            # guarded at the call site: building the kwargs dict per
            # delivery is pure overhead while tracing is off
            sim.trace(
                "net.delivery",
                bus=self.name,
                frame_id=frame.frame_id,
                src=frame.src,
                dst=frame.dst,
                label=frame.label,
                latency=now - frame.created_at,
                traffic_class=frame.traffic_class.value,
            )
        dst = frame.dst
        if dst is None:
            # iterate a prebuilt snapshot: a listener mutating the table
            # mid-fan-out invalidates the cache for the *next* delivery,
            # while this delivery keeps the pre-mutation view — exactly
            # the semantics the per-delivery list() copy provided
            listeners = self._listener_snapshot
            if listeners is None:
                listeners = self._listener_snapshot = list(self._listeners.items())
            src = frame.src
            for ecu, listener in listeners:
                if ecu != src:
                    listener(frame)
        else:
            listener = self._listeners.get(dst)
            if listener is not None:
                listener(frame)
        if done is not None:
            done.fire(frame)

    def wire_time(self, wire_bytes: float) -> float:
        """Seconds to clock ``wire_bytes`` onto this bus."""
        return wire_bytes * 8.0 / self.bitrate_bps
