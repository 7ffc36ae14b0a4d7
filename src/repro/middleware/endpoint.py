"""Middleware endpoint: one per ECU.

The endpoint turns :class:`~repro.middleware.wire.Message` objects into
bus frames (segmenting to the smallest MTU along the route), reassembles
incoming segments, and dispatches complete messages to registered
handlers.  It also implements service discovery round trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..network import TrafficClass, VehicleNetwork
from ..obs.metrics import Counter, Histogram, Identity, identity
from ..sim import Signal, Simulator
from .registry import ServiceRegistry
from .wire import (
    CAN_SEGMENT_PAYLOAD,
    Message,
    MessageType,
    plan_segment_sizes,
    segment_payload_for,
)

#: Handler signature for incoming messages.
MessageHandler = Callable[[Message], None]


@dataclass(frozen=True)
class QoS:
    """Quality-of-service attributes of a transmission.

    Attributes:
        priority: technology-neutral priority (CAN-style: lower = more
            urgent, 0..2047).
        traffic_class: deterministic transmissions ride protected bus
            mechanisms (CAN low IDs, FlexRay static slots, TSN gates).
        deadline: optional end-to-end latency requirement, used by
            monitors and verification (not enforced by the network).
    """

    priority: int = 0x300
    traffic_class: TrafficClass = TrafficClass.NON_DETERMINISTIC
    deadline: Optional[float] = None


#: QoS presets mirroring the application model.
QOS_CONTROL = QoS(priority=0x040, traffic_class=TrafficClass.DETERMINISTIC)
QOS_DEFAULT = QoS()
QOS_BULK = QoS(priority=0x700, traffic_class=TrafficClass.NON_DETERMINISTIC)


#: message type value -> paradigm label of its delivery-latency histogram;
#: any other type counts as "control"
_PARADIGMS = {
    MessageType.NOTIFICATION._value_: "event",
    MessageType.REQUEST._value_: "message",
    MessageType.RESPONSE._value_: "message",
    MessageType.STREAM_SAMPLE._value_: "stream",
}
#: ECU name -> (``mw.messages`` key, paradigm -> delivery-latency key)
_ENDPOINT_KEYS: Dict[str, Tuple[Identity, Dict[str, Identity]]] = {}


def _endpoint_keys(ecu_name: str) -> Tuple[Identity, Dict[str, Identity]]:
    keys = _ENDPOINT_KEYS.get(ecu_name)
    if keys is None:
        keys = _ENDPOINT_KEYS[ecu_name] = (
            identity("counter", "mw.messages", ecu=ecu_name),
            {paradigm: identity("histogram", "mw.delivery_latency",
                                ecu=ecu_name, paradigm=paradigm)
             for paradigm in ("event", "message", "stream", "control")},
        )
    return keys


class Endpoint:
    """Middleware instance bound to one ECU."""

    #: the ``mw.messages`` handle, ``None`` until the first delivery
    _m_received = None

    def __init__(
        self,
        sim: Simulator,
        network: VehicleNetwork,
        ecu_name: str,
        registry: ServiceRegistry,
    ) -> None:
        self.sim = sim
        self.network = network
        self.ecu_name = ecu_name
        self.registry = registry
        #: (service_id, msg_type value) -> handlers.  Per-message tables
        #: key on the enum's value string, which hashes in C; a member's
        #: own __hash__ is a Python frame per lookup.
        self._handlers: Dict[Tuple[int, str], List[MessageHandler]] = {}
        self._default_handlers: List[MessageHandler] = []
        #: (session_id) -> [received segments, needed, message]
        self._reassembly: Dict[int, List] = {}
        #: (src, dst) -> (route_epoch, min_segment, can_route, sizes,
        #: labels): the send plan for a route, valid while the network's
        #: failure set is unchanged (``route_epoch`` guards staleness).
        #: ``sizes`` maps a message's ``total_bytes`` to its segment
        #: sizes; ``labels`` maps ``(service_id, msg_type value)`` to its
        #: frame label.  Both fill lazily, once per distinct message shape.
        self._segment_plans: Dict[Tuple[str, str], tuple] = {}
        self.messages_sent = 0
        self.messages_received = 0
        self.frames_discarded = 0
        self.detached = False
        # per-paradigm delivery-latency histograms (send accept to full
        # reassembly at the destination), reserved here and materialised
        # at first use: an endpoint that receives nothing owns none.
        # No-ops while metrics are off
        received, latency = _endpoint_keys(ecu_name)
        sim.metrics.reserve((received, *latency.values()))
        #: message type value -> its latency histogram, filled at first use
        self._m_latency: Dict[str, Histogram] = {}
        network.register_receiver(ecu_name, self._on_frame)

    def _materialise_received(self) -> Counter:
        counter = self._m_received = self.sim.metrics.materialise(
            _endpoint_keys(self.ecu_name)[0])
        return counter

    def _materialise_latency(self, msg_type: str) -> Histogram:
        # REQUEST and RESPONSE share the "message" histogram: the second
        # materialise returns the first one's instrument
        key = _endpoint_keys(self.ecu_name)[1][_PARADIGMS.get(msg_type, "control")]
        hist = self._m_latency[msg_type] = self.sim.metrics.materialise(key)
        return hist

    # -- handler registration ---------------------------------------------------

    def on_message(
        self, service_id: int, msg_type: MessageType, handler: MessageHandler
    ) -> None:
        """Dispatch messages of (service, type) to ``handler``.

        Multiple handlers may coexist (e.g. a consumer plus a deadline
        monitor); all of them are invoked in registration order.
        """
        self._handlers.setdefault((service_id, msg_type._value_), []).append(
            handler
        )

    def on_any_message(self, handler: MessageHandler) -> None:
        """Fallback handler for messages without a specific registration."""
        self._default_handlers.append(handler)

    def detach(self) -> None:
        """Disconnect from the network (ECU failure / shutdown)."""
        self.detached = True
        self.network.unregister_receiver(self.ecu_name)

    def reattach(self) -> None:
        """Reconnect after recovery."""
        self.detached = False
        self.network.register_receiver(self.ecu_name, self._on_frame)

    # -- sending ---------------------------------------------------------------

    def send(self, message: Message, qos: QoS = QOS_DEFAULT) -> Signal:
        """Transmit ``message``; the signal fires (with the message) once
        the destination has reassembled all segments.

        Local delivery (dst == own ECU) bypasses the network with zero
        latency, mirroring RTE-local communication.
        """
        done = self.sim.signal(name=f"mw.{message.src}->{message.dst}")
        self._send(message, qos, done)
        return done

    def _send(
        self, message: Message, qos: QoS, done: Optional[Signal] = None
    ) -> None:
        """The one send path behind :meth:`send`.

        ``done`` is the completion sink fired with the message once the
        destination reassembled it; ``None`` means nobody waits, so the
        paradigm senders that would drop :meth:`send`'s signal call this
        directly and no signal is built at all.
        """
        self.messages_sent += 1
        if message.sent_at is None:
            message.sent_at = self.sim.now
        if message.dst == self.ecu_name:
            self.sim.post(0.0, self._deliver_local, message, done)
            return
        self._transmit(self.ecu_name, message, qos, done)

    def _segment_plan(self, src: str, dst: str) -> Tuple[int, bool]:
        """(min_segment, can_route) for the live route."""
        plan = self._send_plan(src, dst)
        return plan[1], plan[2]

    def _send_plan(self, src: str, dst: str) -> tuple:
        """The :attr:`_segment_plans` entry for the live route, cached per
        ``(src, dst)`` and invalidated by the network's ``route_epoch``
        (any ``fail_bus``/``repair_bus`` cycle)."""
        epoch = self.network.route_epoch
        plan = self._segment_plans.get((src, dst))
        if plan is not None and plan[0] == epoch:
            return plan
        route_buses = self.network.route_buses(src, dst)
        min_segment = min(
            segment_payload_for(spec.technology) for spec in route_buses
        )
        can_route = min_segment == CAN_SEGMENT_PAYLOAD
        plan = self._segment_plans[(src, dst)] = (
            epoch, min_segment, can_route, {}, {}
        )
        return plan

    def _transmit(
        self, src: str, message: Message, qos: QoS, done: Optional[Signal]
    ) -> None:
        __, min_segment, can_route, sizes_by_total, labels = self._send_plan(
            src, message.dst
        )
        total_bytes = message.total_bytes
        sizes = sizes_by_total.get(total_bytes)
        if sizes is None:
            sizes = sizes_by_total[total_bytes] = tuple(
                plan_segment_sizes(total_bytes, min_segment, can_route)
            )
        msg_type = message.msg_type._value_
        label_key = (message.service_id, msg_type)
        label = labels.get(label_key)
        if label is None:
            label = labels[label_key] = f"svc{message.service_id:04x}.{msg_type}"
        n_segments = len(sizes)
        markers = [(message, index, n_segments, done) for index in range(n_segments)]
        # the markers carry the message's sink to the reassembling
        # endpoint; nobody waits on the network's own completion
        self.network._send_segments(
            src, message.dst, sizes, qos.priority, qos.traffic_class,
            markers, label, None,
        )

    def _deliver_local(self, message: Message, done: Optional[Signal]) -> None:
        self.messages_received += 1
        self._dispatch(message)
        if done is not None:
            done.fire(message)

    # -- receiving --------------------------------------------------------------

    def _on_frame(self, frame) -> None:
        if self.detached:
            return
        if frame.corrupted:
            # CRC check failed: the segment is discarded, so the carrying
            # message never completes reassembly (a lost transmission)
            self.frames_discarded += 1
            return
        marker = frame.payload
        if not isinstance(marker, tuple) or len(marker) != 4:
            return  # not a middleware frame
        message, index, n_segments, done = marker
        if message.dst != self.ecu_name:
            return
        state = self._reassembly.get(message.session_id)
        if state is None:
            state = [0, n_segments, message, done]
            self._reassembly[message.session_id] = state
        state[0] += 1
        if state[0] >= state[1]:
            del self._reassembly[message.session_id]
            self.messages_received += 1
            self._dispatch(message)
            if done is not None and not done.fired:
                done.fire(message)

    def _dispatch(self, message: Message) -> None:
        (self._m_received or self._materialise_received()).inc()
        msg_type = message.msg_type._value_
        if message.sent_at is not None:
            hist = self._m_latency.get(msg_type) or self._materialise_latency(msg_type)
            hist.observe(self.sim.now - message.sent_at)
        if self.sim.tracer.enabled:
            self.sim.trace(
                "mw.delivery",
                ecu=self.ecu_name,
                service=message.service_id,
                type=msg_type,
                session=message.session_id,
                size=message.payload_bytes,
            )
        handlers = self._handlers.get((message.service_id, msg_type))
        if handlers:
            for handler in list(handlers):
                handler(message)
            return
        for fallback in self._default_handlers:
            fallback(message)

    # -- discovery ---------------------------------------------------------------

    def discover(
        self, service_id: int, *, client_app: str = ""
    ) -> Signal:
        """Resolve a service over the network (FIND/OFFER round trip).

        The returned signal fires with the :class:`ServiceOffer`.  The
        directory lookup is authoritative; the round trip to the provider
        models SOME/IP-SD latency.  Raises synchronously on unknown
        services or denied bindings.
        """
        offer = self.registry.find(
            service_id, client_app=client_app, client_ecu=self.ecu_name
        )
        result = self.sim.signal(name=f"sd.{service_id:04x}")
        if offer.ecu == self.ecu_name:
            self.sim.post(0.0, result.fire, offer)
            return result
        find_msg = Message(
            service_id=service_id,
            method_id=0,
            msg_type=MessageType.FIND_SERVICE,
            payload_bytes=16,
            src=self.ecu_name,
            dst=offer.ecu,
            session_id=self.sim.next_session_id(),
        )

        def on_find_done(_msg) -> None:
            offer_msg = Message(
                service_id=service_id,
                method_id=0,
                msg_type=MessageType.OFFER_SERVICE,
                payload_bytes=32,
                src=offer.ecu,
                dst=self.ecu_name,
                session_id=self.sim.next_session_id(),
            )
            back = self.sim.signal()
            back.add_callback(lambda _m: result.fire(offer))
            self._send_from(offer.ecu, offer_msg, QOS_DEFAULT, back)

        self.send(find_msg, QOS_DEFAULT).add_callback(on_find_done)
        return result

    def _send_from(
        self, src_ecu: str, message: Message, qos: QoS, done: Signal
    ) -> None:
        """Send a message on behalf of another ECU (SD reply modelling)."""
        if message.sent_at is None:
            message.sent_at = self.sim.now
        self._transmit(src_ecu, message, qos, done)
