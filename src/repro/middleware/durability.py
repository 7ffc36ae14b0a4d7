"""DDS-style QoS extensions for the event paradigm.

Section 2.1 lists DDS next to SOME/IP as a middleware candidate; its
signature QoS policies matter for dynamic platforms because apps join at
runtime: a late-joining subscriber of a state-like topic must not wait a
full period (or forever, for change-driven topics) for its first value.

* :class:`DurableEventProducer` — keeps a bounded history per eventgroup
  and replays the retained samples to every new subscriber
  (``TRANSIENT_LOCAL`` durability with ``KEEP_LAST`` history);
* :class:`DeadlineMonitor` — the DDS deadline QoS: flags a topic whose
  inter-publication gap exceeds the declared deadline (feeds the runtime
  monitor / diagnosis story).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim import Signal
from .endpoint import Endpoint, QOS_DEFAULT, QoS
from .paradigms import EventProducer
from .wire import Message, MessageType


class DurableEventProducer(EventProducer):
    """Event producer with TRANSIENT_LOCAL durability.

    The last ``history_depth`` published samples are retained; whenever a
    new subscriber's SUBSCRIBE arrives, the retained samples are replayed
    to it (oldest first) before any new publication reaches it.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        service_id: int,
        eventgroup: int,
        *,
        provider_app: str,
        history_depth: int = 1,
        instance_id: int = 1,
    ) -> None:
        if history_depth < 1:
            raise ConfigurationError("history depth must be >= 1")
        super().__init__(
            endpoint, service_id, eventgroup,
            provider_app=provider_app, instance_id=instance_id,
        )
        self.history_depth = history_depth
        self._history: Deque[Tuple[object, int]] = deque(maxlen=history_depth)
        self.replays = 0

    def publish(
        self, payload: object, payload_bytes: int, qos: QoS = QOS_DEFAULT
    ) -> List[Signal]:
        self._history.append((payload, payload_bytes))
        return super().publish(payload, payload_bytes, qos)

    def _on_subscribe(self, message: Message) -> None:
        super()._on_subscribe(message)
        # replay retained samples to the new subscriber only
        for payload, payload_bytes in self._history:
            note = Message(
                service_id=self.service_id,
                method_id=self.eventgroup,
                msg_type=MessageType.NOTIFICATION,
                payload_bytes=payload_bytes,
                src=self.endpoint.ecu_name,
                dst=message.src,
                payload=payload,
                sender_app=self.provider_app,
                session_id=self.endpoint.sim.next_session_id(),
            )
            self.replays += 1
            self.endpoint._send(note, QOS_DEFAULT)


@dataclass
class DeadlineViolation:
    """One missed publication deadline on a monitored topic."""

    time: float
    service_id: int
    gap: float
    deadline: float


class DeadlineMonitor:
    """DDS deadline QoS: watch the publication cadence of a topic."""

    def __init__(
        self,
        endpoint: Endpoint,
        service_id: int,
        deadline: float,
        *,
        on_violation: Optional[Callable[[DeadlineViolation], None]] = None,
    ) -> None:
        if deadline <= 0:
            raise ConfigurationError("deadline must be positive")
        self.endpoint = endpoint
        self.service_id = service_id
        self.deadline = deadline
        self.on_violation = on_violation
        self.violations: List[DeadlineViolation] = []
        self._last_seen: Optional[float] = None
        self._watchdog_armed = False
        endpoint.on_message(service_id, MessageType.NOTIFICATION, self._on_note)

    def _on_note(self, message: Message) -> None:
        now = self.endpoint.sim.now
        if self._last_seen is not None:
            gap = now - self._last_seen
            if gap > self.deadline + 1e-12:
                self._record(now, gap)
        self._last_seen = now
        self._arm_watchdog()

    def _arm_watchdog(self) -> None:
        if self._watchdog_armed:
            return
        self._watchdog_armed = True
        self.endpoint.sim.post(self.deadline * 1.001, self._check)

    def _check(self) -> None:
        self._watchdog_armed = False
        now = self.endpoint.sim.now
        if self._last_seen is None:
            return
        gap = now - self._last_seen
        if gap > self.deadline + 1e-12:
            # topic went silent: record once and park the watchdog; the
            # next publication re-arms it (also keeps idle sims drainable)
            self._record(now, gap)
            return
        self._arm_watchdog()

    def _record(self, now: float, gap: float) -> None:
        violation = DeadlineViolation(
            time=now, service_id=self.service_id, gap=gap,
            deadline=self.deadline,
        )
        self.violations.append(violation)
        if self.on_violation is not None:
            self.on_violation(violation)
