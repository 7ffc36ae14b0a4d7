"""The three communication paradigms of Section 2.1 / Figure 3.

* **Event** — one-way publish/subscribe.  The interface owner is the
  *producer*; consumers subscribe to a topic and receive notifications.
* **Message** — two-way request/response enabling RPC.  The interface
  owner is the *consumer offering the service*.
* **Stream** — one-way continuous data where each sample depends on its
  predecessors; the sink only releases a sample once every earlier sample
  has arrived (head-of-line semantics of a codec).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError, NetworkError
from ..sim import Signal
from .endpoint import Endpoint, QOS_DEFAULT, QoS
from .registry import ServiceOffer
from .wire import Message, MessageType, ReturnCode


# ---------------------------------------------------------------------------
# Event paradigm
# ---------------------------------------------------------------------------


class EventProducer:
    """Owner side of an event interface: offers a topic, publishes data."""

    def __init__(
        self,
        endpoint: Endpoint,
        service_id: int,
        eventgroup: int,
        *,
        provider_app: str,
        instance_id: int = 1,
    ) -> None:
        self.endpoint = endpoint
        self.service_id = service_id
        self.eventgroup = eventgroup
        self.provider_app = provider_app
        self.published = 0
        endpoint.registry.offer(
            ServiceOffer(
                service_id=service_id,
                instance_id=instance_id,
                ecu=endpoint.ecu_name,
                provider_app=provider_app,
            )
        )
        endpoint.on_message(service_id, MessageType.SUBSCRIBE, self._on_subscribe)

    def _on_subscribe(self, message: Message) -> None:
        ack = Message(
            service_id=self.service_id,
            method_id=self.eventgroup,
            msg_type=MessageType.SUBSCRIBE_ACK,
            payload_bytes=8,
            src=self.endpoint.ecu_name,
            dst=message.src,
            session_id=self.endpoint.sim.next_session_id(),
        )
        self.endpoint._send(ack, QOS_DEFAULT)

    def publish(
        self, payload: object, payload_bytes: int, qos: QoS = QOS_DEFAULT
    ) -> List[Signal]:
        """Send a notification to every active subscriber.

        Returns one delivery signal per subscriber (empty list if nobody
        listens — publishing into the void is legal).
        """
        self.published += 1
        signals = []
        for sub in self.endpoint.registry.subscribers(
            self.service_id, self.eventgroup
        ):
            note = Message(
                service_id=self.service_id,
                method_id=self.eventgroup,
                msg_type=MessageType.NOTIFICATION,
                payload_bytes=payload_bytes,
                src=self.endpoint.ecu_name,
                dst=sub.client_ecu,
                payload=payload,
                sender_app=self.provider_app,
                session_id=self.endpoint.sim.next_session_id(),
            )
            signals.append(self.endpoint.send(note, qos))
        return signals


class EventConsumer:
    """Consumer side: subscribes to a topic and receives notifications."""

    def __init__(
        self,
        endpoint: Endpoint,
        service_id: int,
        eventgroup: int,
        *,
        client_app: str,
        on_data: Callable[[Message], None],
    ) -> None:
        self.endpoint = endpoint
        self.service_id = service_id
        self.eventgroup = eventgroup
        self.client_app = client_app
        self.on_data = on_data
        self.received = 0
        self.subscribed = endpoint.sim.signal(name=f"sub.{service_id:04x}")
        endpoint.on_message(service_id, MessageType.NOTIFICATION, self._on_note)
        endpoint.on_message(service_id, MessageType.SUBSCRIBE_ACK, self._on_ack)
        self._subscribe()

    def _subscribe(self) -> None:
        # registry side first (authorization enforced here) ...
        offer = self.endpoint.registry.find(
            self.service_id,
            client_app=self.client_app,
            client_ecu=self.endpoint.ecu_name,
        )
        self.endpoint.registry.subscribe(
            self.service_id, self.eventgroup, self.client_app, self.endpoint.ecu_name
        )
        # ... then the on-wire subscribe round trip
        sub = Message(
            service_id=self.service_id,
            method_id=self.eventgroup,
            msg_type=MessageType.SUBSCRIBE,
            payload_bytes=16,
            src=self.endpoint.ecu_name,
            dst=offer.ecu,
            sender_app=self.client_app,
            session_id=self.endpoint.sim.next_session_id(),
        )
        self.endpoint._send(sub, QOS_DEFAULT)

    def _on_ack(self, message: Message) -> None:
        if not self.subscribed.fired:
            self.subscribed.fire(message)

    def _on_note(self, message: Message) -> None:
        self.received += 1
        self.on_data(message)

    def unsubscribe(self) -> None:
        self.endpoint.registry.unsubscribe(
            self.service_id, self.eventgroup, self.client_app
        )


# ---------------------------------------------------------------------------
# Message (RPC) paradigm
# ---------------------------------------------------------------------------


class RpcServer:
    """Owner side of a message interface: offers callable methods."""

    def __init__(
        self,
        endpoint: Endpoint,
        service_id: int,
        *,
        provider_app: str,
        instance_id: int = 1,
    ) -> None:
        self.endpoint = endpoint
        self.service_id = service_id
        self.provider_app = provider_app
        self._methods: Dict[int, Callable[[Message], object]] = {}
        self._method_latency: Dict[int, float] = {}
        self.calls_served = 0
        endpoint.registry.offer(
            ServiceOffer(
                service_id=service_id,
                instance_id=instance_id,
                ecu=endpoint.ecu_name,
                provider_app=provider_app,
            )
        )
        endpoint.on_message(service_id, MessageType.REQUEST, self._on_request)

    def register_method(
        self,
        method_id: int,
        handler: Callable[[Message], object],
        *,
        latency: float = 0.0,
    ) -> None:
        """Expose ``handler`` as method ``method_id``.

        ``latency`` models the provider-side processing time before the
        response goes out.
        """
        self._methods[method_id] = handler
        self._method_latency[method_id] = latency

    def _on_request(self, request: Message) -> None:
        handler = self._methods.get(request.method_id)
        if handler is None:
            self._respond(request, None, 0, ReturnCode.UNKNOWN_METHOD)
            return
        latency = self._method_latency[request.method_id]
        if latency > 0:
            self.endpoint.sim.post(latency, self._serve, request, handler)
        else:
            self._serve(request, handler)

    def _serve(self, request: Message, handler: Callable[[Message], object]) -> None:
        self.calls_served += 1
        result = handler(request)
        payload_bytes = 8
        if isinstance(result, tuple) and len(result) == 2:
            result, payload_bytes = result
        self._respond(request, result, payload_bytes, ReturnCode.OK)

    def _respond(
        self,
        request: Message,
        payload: object,
        payload_bytes: int,
        code: ReturnCode,
    ) -> None:
        response = Message(
            service_id=self.service_id,
            method_id=request.method_id,
            msg_type=MessageType.RESPONSE,
            payload_bytes=payload_bytes,
            src=self.endpoint.ecu_name,
            dst=request.src,
            payload=payload,
            session_id=request.session_id,
            return_code=code,
            sender_app=self.provider_app,
        )
        self.endpoint._send(response, QOS_DEFAULT)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff for :meth:`RpcClient.call`.

    Attributes:
        max_attempts: total attempts, including the first (>= 1).
        backoff: wait after the first failed attempt, in seconds.
        backoff_factor: multiplier applied to the wait per further failure.
        deadline: optional *total* time budget across all attempts and
            backoffs, measured from the original ``call``; once spent, the
            call fails even if attempts remain.
    """

    max_attempts: int = 3
    backoff: float = 0.005
    backoff_factor: float = 2.0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("retry policy needs max_attempts >= 1")
        if self.backoff < 0:
            raise ConfigurationError("retry backoff cannot be negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("retry backoff factor must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError("retry deadline budget must be positive")

    def backoff_for(self, attempt: int) -> float:
        """Backoff to wait after failed attempt number ``attempt`` (1-based)."""
        return self.backoff * self.backoff_factor ** (attempt - 1)


class RpcClient:
    """Caller side of a message interface.

    Optionally resilient: a :class:`RetryPolicy` adds bounded retries with
    exponential backoff under a total deadline budget, and when the
    registry has circuit breakers configured, calls consult the breaker of
    the resolved offer — an open circuit fast-fails the attempt without
    touching the network.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        service_id: int,
        *,
        client_app: str,
    ) -> None:
        self.endpoint = endpoint
        self.service_id = service_id
        self.client_app = client_app
        #: session -> (result signal, expire timer, breaker, attempt context)
        self._pending: Dict[int, Tuple] = {}
        self.calls_made = 0
        self.attempts_made = 0
        self.timeouts = 0
        self.retries = 0
        self.failures = 0
        self.breaker_fastfails = 0
        metrics = endpoint.sim.metrics
        label = f"{service_id:04x}"
        #: name of every call's result signal, formatted once
        self._result_name = f"rpc.{label}"
        self._m_timeouts = metrics.counter("rpc.timeouts", service=label)
        self._m_retries = metrics.counter("rpc.retries", service=label)
        self._m_fastfails = metrics.counter("rpc.breaker_fastfail", service=label)
        self._m_failures = metrics.counter("rpc.failures", service=label)
        endpoint.on_message(service_id, MessageType.RESPONSE, self._on_response)

    def call(
        self,
        method_id: int,
        payload: object = None,
        payload_bytes: int = 16,
        *,
        qos: QoS = QOS_DEFAULT,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Signal:
        """Invoke a method; the signal fires with the response message.

        On timeout — or once every retry attempt is exhausted — the signal
        fires with ``None`` instead.  ``retry`` requires ``timeout`` (the
        per-attempt timeout is what detects a lost attempt).
        """
        if retry is not None and timeout is None:
            raise ConfigurationError(
                "a retrying call needs a per-attempt timeout"
            )
        self.calls_made += 1
        result = self.endpoint.sim.signal(name=self._result_name)
        self._attempt(
            result, method_id, payload, payload_bytes, qos, timeout, retry,
            self.endpoint.sim.now, 1,
        )
        return result

    # -- attempt machinery -------------------------------------------------

    def _attempt(
        self,
        result: Signal,
        method_id: int,
        payload: object,
        payload_bytes: int,
        qos: QoS,
        timeout: Optional[float],
        retry: Optional[RetryPolicy],
        started: float,
        attempt: int,
    ) -> None:
        sim = self.endpoint.sim
        self.attempts_made += 1
        ctx = (method_id, payload, payload_bytes, qos, timeout, retry, started, attempt)
        # resolve the offer per attempt: after a failover the service may
        # have moved to another ECU between attempts
        try:
            offer = self.endpoint.registry.find(
                self.service_id,
                client_app=self.client_app,
                client_ecu=self.endpoint.ecu_name,
            )
        except ConfigurationError:
            if retry is None:
                raise  # legacy behaviour: unoffered service raises
            self._attempt_failed(result, ctx)
            return
        breaker = self.endpoint.registry.breaker_for(self.service_id, offer.ecu)
        if breaker is not None and not breaker.allow(sim.now):
            self.breaker_fastfails += 1
            self._m_fastfails.inc()
            self._attempt_failed(result, ctx)
            return
        request = Message(
            service_id=self.service_id,
            method_id=method_id,
            msg_type=MessageType.REQUEST,
            payload_bytes=payload_bytes,
            src=self.endpoint.ecu_name,
            dst=offer.ecu,
            payload=payload,
            sender_app=self.client_app,
            session_id=sim.next_session_id(),
        )
        expire = None
        effective_timeout = timeout
        if retry is not None and retry.deadline is not None:
            # clip the attempt to the remaining total budget
            remaining = started + retry.deadline - sim.now
            if effective_timeout is None or remaining < effective_timeout:
                effective_timeout = remaining
        if effective_timeout is not None:
            expire = sim.schedule(effective_timeout, self._expire, request.session_id)
        self._pending[request.session_id] = (result, expire, breaker, ctx)
        self.endpoint._send(request, qos)

    def _attempt_failed(self, result: Signal, ctx: Tuple) -> None:
        method_id, payload, payload_bytes, qos, timeout, retry, started, attempt = ctx
        sim = self.endpoint.sim
        if retry is not None and attempt < retry.max_attempts:
            backoff = retry.backoff_for(attempt)
            if retry.deadline is None or sim.now + backoff < started + retry.deadline:
                self.retries += 1
                self._m_retries.inc()
                sim.post(
                    backoff, self._attempt, result, method_id, payload,
                    payload_bytes, qos, timeout, retry, started, attempt + 1,
                )
                return
        self.failures += 1
        self._m_failures.inc()
        if not result.fired:
            # fire through the event queue so a call failing synchronously
            # (open breaker, vanished service) still resolves asynchronously
            sim.post(0.0, self._fire_failure, result)

    def _fire_failure(self, result: Signal) -> None:
        if not result.fired:
            result.fire(None)

    def _on_response(self, response: Message) -> None:
        entry = self._pending.pop(response.session_id, None)
        if entry is None:
            return
        result, expire, breaker, _ctx = entry
        if expire is not None:
            # cancel the pending timeout so long soak runs don't accumulate
            # dead timer events in the kernel heap; this drops the only
            # handle, so release it first for the queue to reuse
            expire.pooled = True
            expire.cancel()
        if breaker is not None:
            breaker.record_success(self.endpoint.sim.now)
        if not result.fired:
            result.fire(response)

    def _expire(self, session_id: int) -> None:
        entry = self._pending.pop(session_id, None)
        if entry is None:
            return
        result, _expire, breaker, ctx = entry
        self.timeouts += 1
        self._m_timeouts.inc()
        if breaker is not None:
            breaker.record_failure(self.endpoint.sim.now)
        self._attempt_failed(result, ctx)


# ---------------------------------------------------------------------------
# Stream paradigm
# ---------------------------------------------------------------------------


class StreamSource:
    """Producer of a continuous, order-dependent sample stream."""

    def __init__(
        self,
        endpoint: Endpoint,
        service_id: int,
        channel: int,
        *,
        provider_app: str,
        sample_bytes: int,
        period: float,
        qos: QoS = QOS_DEFAULT,
        instance_id: int = 1,
    ) -> None:
        if period <= 0:
            raise ConfigurationError("stream period must be positive")
        self.endpoint = endpoint
        self.service_id = service_id
        self.channel = channel
        self.provider_app = provider_app
        self.sample_bytes = sample_bytes
        self.period = period
        self.qos = qos
        self.sequence = 0
        self._running = False
        self._dst: Optional[str] = None
        endpoint.registry.offer(
            ServiceOffer(
                service_id=service_id,
                instance_id=instance_id,
                ecu=endpoint.ecu_name,
                provider_app=provider_app,
            )
        )

    def start(self, dst_ecu: str, n_samples: Optional[int] = None) -> None:
        """Begin streaming to ``dst_ecu`` (``n_samples`` bounds the run)."""
        self._dst = dst_ecu
        self._running = True
        self._remaining = n_samples
        self._emit()

    def stop(self) -> None:
        self._running = False

    def _emit(self) -> None:
        if not self._running or self._dst is None:
            return
        if self._remaining is not None:
            if self._remaining <= 0:
                self._running = False
                return
            self._remaining -= 1
        sample = Message(
            service_id=self.service_id,
            method_id=self.channel,
            msg_type=MessageType.STREAM_SAMPLE,
            payload_bytes=self.sample_bytes,
            src=self.endpoint.ecu_name,
            dst=self._dst,
            sequence=self.sequence,
            payload={"seq": self.sequence, "t": self.endpoint.sim.now},
            sender_app=self.provider_app,
            session_id=self.endpoint.sim.next_session_id(),
        )
        self.sequence += 1
        self.endpoint._send(sample, self.qos)
        self.endpoint.sim.post(self.period, self._emit)


class StreamSink:
    """Consumer enforcing the stream dependency: sample *k* is released to
    the application only after samples 0..k-1 have all arrived."""

    def __init__(
        self,
        endpoint: Endpoint,
        service_id: int,
        channel: int,
        *,
        client_app: str,
        on_sample: Optional[Callable[[Message], None]] = None,
    ) -> None:
        self.endpoint = endpoint
        self.service_id = service_id
        self.channel = channel
        self.client_app = client_app
        self.on_sample = on_sample
        self.next_expected = 0
        self._held: Dict[int, Message] = {}
        self.released: List[Message] = []
        self.release_times: List[float] = []
        endpoint.on_message(service_id, MessageType.STREAM_SAMPLE, self._on_sample)

    def _on_sample(self, message: Message) -> None:
        if message.sequence is None:
            raise NetworkError("stream sample without sequence number")
        self._held[message.sequence] = message
        while self.next_expected in self._held:
            sample = self._held.pop(self.next_expected)
            self.next_expected += 1
            self.released.append(sample)
            self.release_times.append(self.endpoint.sim.now)
            if self.on_sample is not None:
                self.on_sample(sample)

    @property
    def samples_pending(self) -> int:
        """Samples held back waiting for a predecessor."""
        return len(self._held)

    def playout_latencies(self) -> List[float]:
        """Per-sample latency from emission to in-order release."""
        return [
            release - sample.payload["t"]
            for sample, release in zip(self.released, self.release_times)
            if isinstance(sample.payload, dict) and "t" in sample.payload
        ]
