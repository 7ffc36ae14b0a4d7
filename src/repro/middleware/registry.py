"""Service registry and discovery.

The registry answers *find-service* queries and administers event-group
subscriptions.  It also carries the security integration point: a
**binding guard** — installed by :mod:`repro.security.access_control` —
is consulted before any client/service binding is created, implementing
the paper's Section 4.2 requirement that "the binding partners are
authenticated and that communication is authorized".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError, SecurityError

#: Guard signature: (client_app, client_ecu, service_id) -> allowed?
BindingGuard = Callable[[str, str, int], bool]


@dataclass(frozen=True)
class ServiceOffer:
    """A service instance offered on the network."""

    service_id: int
    instance_id: int
    ecu: str
    provider_app: str
    version: Tuple[int, int] = (1, 0)

    @property
    def key(self) -> Tuple[int, int]:
        return (self.service_id, self.instance_id)


class CircuitBreaker:
    """Per-offer circuit breaker protecting clients from a sick provider.

    Classic three-state machine: **closed** (traffic flows; consecutive
    failures are counted), **open** (calls fast-fail without touching the
    network) and **half-open** (after ``reset_timeout`` one probe call is
    let through; its outcome closes or re-opens the circuit).

    The breaker is simulation-agnostic: callers pass the current time
    explicitly, so the registry needs no simulator reference.
    """

    __slots__ = (
        "failure_threshold",
        "reset_timeout",
        "state",
        "consecutive_failures",
        "opened_at",
        "times_opened",
        "fast_failures",
    )

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, *, failure_threshold: int = 3, reset_timeout: float = 0.5) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("breaker failure threshold must be >= 1")
        if reset_timeout <= 0:
            raise ConfigurationError("breaker reset timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.times_opened = 0
        self.fast_failures = 0

    def allow(self, now: float) -> bool:
        """May a call go out right now?  Counts fast-failed rejections."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now - self.opened_at >= self.reset_timeout:
                # the reset timer elapsed: admit exactly one probe call
                self.state = self.HALF_OPEN
                return True
            self.fast_failures += 1
            return False
        # half-open: a probe is already in flight — hold further calls
        self.fast_failures += 1
        return False

    def record_success(self, now: float) -> None:
        self.state = self.CLOSED
        self.consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if (
            self.state == self.HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            if self.state != self.OPEN:
                self.times_opened += 1
            self.state = self.OPEN
            self.opened_at = now


@dataclass
class Subscription:
    """One client's subscription to an eventgroup of a service."""

    service_id: int
    eventgroup: int
    client_app: str
    client_ecu: str
    active: bool = True


class ServiceRegistry:
    """Logically centralised service directory.

    Physically, SOME/IP-SD is a multicast protocol; its discovery latency
    is modelled by the endpoints (they exchange FIND/OFFER messages over
    the simulated network before using the directory answer).  The
    directory itself holds the authoritative state.
    """

    def __init__(self) -> None:
        self._offers: Dict[Tuple[int, int], ServiceOffer] = {}
        self._subscriptions: List[Subscription] = []
        self._guard: Optional[BindingGuard] = None
        self.denied_bindings = 0
        #: (service_id, provider ecu) -> CircuitBreaker; populated lazily
        #: once breakers are configured, empty (and bypassed) otherwise
        self._breakers: Dict[Tuple[int, str], CircuitBreaker] = {}
        self._breaker_config: Optional[Tuple[int, float]] = None

    # -- circuit breaking ------------------------------------------------------

    def configure_breakers(
        self, *, failure_threshold: int = 3, reset_timeout: float = 0.5
    ) -> None:
        """Enable per-offer circuit breakers (opt-in; off by default).

        Each ``(service_id, provider ecu)`` pair gets its own breaker the
        first time a client asks for it.  Reconfiguring clears existing
        breaker state.
        """
        self._breaker_config = (failure_threshold, reset_timeout)
        self._breakers.clear()

    def breaker_for(self, service_id: int, ecu: str) -> Optional[CircuitBreaker]:
        """The breaker guarding ``service_id`` on ``ecu``; ``None`` while
        breakers are not configured."""
        config = self._breaker_config
        if config is None:
            return None
        key = (service_id, ecu)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(
                failure_threshold=config[0], reset_timeout=config[1]
            )
        return breaker

    def breakers_opened(self) -> int:
        """Total circuit-open transitions across all offers."""
        return sum(b.times_opened for b in self._breakers.values())

    def breaker_fast_failures(self) -> int:
        """Total calls rejected without touching the network."""
        return sum(b.fast_failures for b in self._breakers.values())

    # -- security hook --------------------------------------------------------

    def set_binding_guard(self, guard: Optional[BindingGuard]) -> None:
        """Install (or clear) the authorization guard for new bindings."""
        self._guard = guard

    def _check_binding(self, client_app: str, client_ecu: str, service_id: int) -> None:
        if self._guard is not None and not self._guard(
            client_app, client_ecu, service_id
        ):
            self.denied_bindings += 1
            raise SecurityError(
                f"binding of {client_app!r}@{client_ecu} to service "
                f"{service_id:#06x} denied"
            )

    # -- offers ----------------------------------------------------------------

    def offer(self, offer: ServiceOffer) -> None:
        """Register a service instance.  Re-offering replaces the entry."""
        self._offers[offer.key] = offer

    def withdraw(self, service_id: int, instance_id: int) -> None:
        """Remove an offer (provider stopping or failing)."""
        self._offers.pop((service_id, instance_id), None)

    def withdraw_all_of_ecu(self, ecu: str) -> int:
        """Drop every offer hosted on ``ecu`` (ECU failure). Returns count."""
        doomed = [k for k, o in self._offers.items() if o.ecu == ecu]
        for key in doomed:
            del self._offers[key]
        return len(doomed)

    def find(
        self,
        service_id: int,
        *,
        client_app: str = "",
        client_ecu: str = "",
        instance_id: Optional[int] = None,
    ) -> ServiceOffer:
        """Resolve a service id to an offer, enforcing the binding guard.

        Raises:
            ConfigurationError: if no instance of the service is offered.
            SecurityError: if the binding guard denies the client.
        """
        self._check_binding(client_app, client_ecu, service_id)
        # one pass: the lowest instance id wins
        best = None
        for offer in self._offers.values():
            if offer.service_id != service_id or (
                instance_id is not None and offer.instance_id != instance_id
            ):
                continue
            if best is None or offer.instance_id < best.instance_id:
                best = offer
        if best is None:
            raise ConfigurationError(f"service {service_id:#06x} not offered")
        return best

    def instances_of(self, service_id: int) -> List[ServiceOffer]:
        """All offered instances of a service (for redundancy failover)."""
        return sorted(
            (o for o in self._offers.values() if o.service_id == service_id),
            key=lambda o: o.instance_id,
        )

    @property
    def offers(self) -> List[ServiceOffer]:
        return list(self._offers.values())

    # -- subscriptions ------------------------------------------------------------

    def subscribe(
        self, service_id: int, eventgroup: int, client_app: str, client_ecu: str
    ) -> Subscription:
        """Create (or reactivate) a subscription, enforcing the guard."""
        self._check_binding(client_app, client_ecu, service_id)
        for sub in self._subscriptions:
            if (
                sub.service_id == service_id
                and sub.eventgroup == eventgroup
                and sub.client_app == client_app
                and sub.client_ecu == client_ecu
            ):
                sub.active = True
                return sub
        sub = Subscription(service_id, eventgroup, client_app, client_ecu)
        self._subscriptions.append(sub)
        return sub

    def unsubscribe(self, service_id: int, eventgroup: int, client_app: str) -> None:
        for sub in self._subscriptions:
            if (
                sub.service_id == service_id
                and sub.eventgroup == eventgroup
                and sub.client_app == client_app
            ):
                sub.active = False

    def subscribers(self, service_id: int, eventgroup: int) -> List[Subscription]:
        """Active subscriptions for a service/eventgroup."""
        return [
            s
            for s in self._subscriptions
            if s.service_id == service_id
            and s.eventgroup == eventgroup
            and s.active
        ]

    def subscriptions_of(self, client_app: str) -> List[Subscription]:
        return [s for s in self._subscriptions if s.client_app == client_app]
