"""RPC hardening: retries, backoff, deadline budgets, circuit breakers."""

import pytest

from repro.errors import ConfigurationError
from repro.hw import BusSpec, EcuSpec, Topology
from repro.middleware import (
    CircuitBreaker,
    Endpoint,
    RetryPolicy,
    RpcClient,
    RpcServer,
    ServiceOffer,
    ServiceRegistry,
)
from repro.network import VehicleNetwork
from repro.sim import Simulator


def rpc_world():
    topo = Topology()
    topo.add_bus(BusSpec("eth", "ethernet", 100e6))
    for name in ("e0", "e1"):
        topo.add_ecu(EcuSpec(name, ports=(("eth0", "ethernet"),)))
        topo.attach(name, "eth0", "eth")
    sim = Simulator()
    net = VehicleNetwork(sim, topo)
    registry = ServiceRegistry()
    endpoints = {n: Endpoint(sim, net, n, registry) for n in ("e0", "e1")}
    server = RpcServer(endpoints["e1"], 0x30, provider_app="srv")
    server.register_method(1, lambda request: ("pong", 8))
    client = RpcClient(endpoints["e0"], 0x30, client_app="cli")
    return sim, net, registry, client


def drop_next(net, n):
    """Install a hook that drops the next ``n`` frames on the bus."""
    budget = [n]

    def hook(bus, frame):
        if budget[0] > 0:
            budget[0] -= 1
            return ("drop",)
        return None

    net.bus("eth")._fault_hook = hook


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline=0.0)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff=0.01, backoff_factor=2.0)
        assert policy.backoff_for(1) == pytest.approx(0.01)
        assert policy.backoff_for(2) == pytest.approx(0.02)
        assert policy.backoff_for(3) == pytest.approx(0.04)

    def test_retry_requires_timeout(self):
        sim, net, registry, client = rpc_world()
        with pytest.raises(ConfigurationError, match="timeout"):
            client.call(1, retry=RetryPolicy())


class TestRetries:
    def test_retry_recovers_from_lost_attempts(self):
        sim, net, registry, client = rpc_world()
        drop_next(net, 2)
        result = client.call(
            1, timeout=0.01, retry=RetryPolicy(max_attempts=3, backoff=0.001)
        )
        sim.run()
        assert result.fired
        assert result.value is not None
        assert result.value.payload == "pong"
        assert client.calls_made == 1
        assert client.attempts_made == 3
        assert client.timeouts == 2
        assert client.retries == 2
        assert client.failures == 0

    def test_exhausted_retries_fire_none(self):
        sim, net, registry, client = rpc_world()
        drop_next(net, 100)
        result = client.call(
            1, timeout=0.01, retry=RetryPolicy(max_attempts=3, backoff=0.001)
        )
        sim.run()
        assert result.fired
        assert result.value is None
        assert client.attempts_made == 3
        assert client.failures == 1

    def test_deadline_budget_caps_total_time(self):
        sim, net, registry, client = rpc_world()
        drop_next(net, 100)
        # per-attempt timeout 10 ms, 5 attempts allowed, but only 18 ms
        # total budget: the budget must cut the ladder short
        result = client.call(
            1,
            timeout=0.01,
            retry=RetryPolicy(max_attempts=5, backoff=0.001, deadline=0.018),
        )
        sim.run()
        assert result.fired
        assert result.value is None
        assert client.attempts_made < 5
        assert sim.now <= 0.018 + 1e-9

    def test_deadline_clips_last_attempt_timeout(self):
        sim, net, registry, client = rpc_world()
        drop_next(net, 100)
        result = client.call(
            1,
            timeout=0.1,
            retry=RetryPolicy(max_attempts=2, backoff=0.001, deadline=0.05),
        )
        sim.run()
        assert result.value is None
        # the second attempt's 100 ms timeout was clipped to the remaining
        # budget, so the whole call resolved within the 50 ms deadline
        assert sim.now <= 0.05 + 1e-9

    def test_unoffered_service_with_retry_fails_soft(self):
        sim, net, registry, client = rpc_world()
        registry._offers.clear()
        result = client.call(
            1, timeout=0.01, retry=RetryPolicy(max_attempts=2, backoff=0.001)
        )
        sim.run()
        assert result.fired
        assert result.value is None
        assert client.failures == 1

    def test_unoffered_service_without_retry_still_raises(self):
        sim, net, registry, client = rpc_world()
        registry._offers.clear()
        with pytest.raises(ConfigurationError):
            client.call(1, timeout=0.01)

    def test_plain_call_without_policy_unchanged(self):
        sim, net, registry, client = rpc_world()
        result = client.call(1)
        sim.run()
        assert result.value.payload == "pong"
        assert client.attempts_made == 1


class TestExpireCancellation:
    def test_response_cancels_pending_timeout(self):
        """A served call must not leave its timeout timer in the heap.

        With the timer cancelled, the simulation ends as soon as the
        response lands — long before the 1 s timeout would have fired.
        """
        sim, net, registry, client = rpc_world()
        result = client.call(1, timeout=1.0)
        sim.run()
        assert result.value is not None
        assert client.timeouts == 0
        assert sim.now < 0.1
        assert len(sim.queue) == 0

    def test_soak_leaves_no_dead_timers(self):
        sim, net, registry, client = rpc_world()

        def caller():
            for _ in range(50):
                yield client.call(1, timeout=1.0)
                yield 0.001

        sim.process(caller())
        sim.run()
        assert client.calls_made == 50
        assert client.timeouts == 0
        assert len(sim.queue) == 0
        assert sim.now < 0.5

    def test_cancelled_timeouts_are_reused(self):
        """The client drops a cancelled timer's only handle, so it is
        released to the event free list instead of built afresh per call."""
        sim, net, registry, client = rpc_world()
        answers = []

        def call_again(response):
            answers.append(response)
            if len(answers) < 200:
                client.call(1, timeout=1.0).add_callback(call_again)

        client.call(1, timeout=1.0).add_callback(call_again)
        sim.run()
        assert len(answers) == 200 and client.timeouts == 0
        assert sim.queue.stats()["pool_creations"] <= 16


class TestCircuitBreakerUnit:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=0.5)
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(0.1)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 1

    def test_open_fast_fails_until_reset(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.5)
        breaker.record_failure(0.0)
        assert not breaker.allow(0.1)
        assert breaker.fast_failures == 1
        # reset timer elapsed: exactly one probe goes through
        assert breaker.allow(0.6)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow(0.6)  # second caller held back

    def test_half_open_probe_outcome(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.5)
        breaker.record_failure(0.0)
        breaker.allow(0.6)
        breaker.record_success(0.6)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(1.0)
        breaker.allow(1.6)
        breaker.record_failure(1.6)  # failed probe re-opens immediately
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(reset_timeout=0.0)


class TestBreakerIntegration:
    def _dead_service_world(self):
        """An offered service nobody actually serves: every call times out."""
        topo = Topology()
        topo.add_bus(BusSpec("eth", "ethernet", 100e6))
        for name in ("e0", "e1"):
            topo.add_ecu(EcuSpec(name, ports=(("eth0", "ethernet"),)))
            topo.attach(name, "eth0", "eth")
        sim = Simulator()
        net = VehicleNetwork(sim, topo)
        registry = ServiceRegistry()
        registry.configure_breakers(failure_threshold=2, reset_timeout=0.1)
        endpoints = {n: Endpoint(sim, net, n, registry) for n in ("e0", "e1")}
        registry.offer(
            ServiceOffer(service_id=0x31, instance_id=1, ecu="e1", provider_app="ghost")
        )
        client = RpcClient(endpoints["e0"], 0x31, client_app="cli")
        return sim, net, registry, client

    def test_breaker_opens_and_fast_fails(self):
        sim, net, registry, client = self._dead_service_world()
        for _ in range(2):
            client.call(1, timeout=0.01)
        sim.run()
        assert client.timeouts == 2
        assert registry.breakers_opened() == 1
        frames_before = net.bus("eth").frames_delivered
        result = client.call(1, timeout=0.01)
        sim.run()
        # the open breaker fast-failed the call without touching the bus
        assert result.value is None
        assert client.breaker_fastfails == 1
        assert net.bus("eth").frames_delivered == frames_before
        assert registry.breaker_fast_failures() == 1

    def test_half_open_probe_goes_out_after_reset(self):
        sim, net, registry, client = self._dead_service_world()
        for _ in range(2):
            client.call(1, timeout=0.01)
        sim.run()
        breaker = registry.breaker_for(0x31, "e1")
        assert breaker.state == CircuitBreaker.OPEN
        frames_before = net.bus("eth").frames_delivered
        sim.schedule(0.2, lambda: client.call(1, timeout=0.01))
        sim.run()
        # after the reset timeout the probe attempt reached the network
        assert net.bus("eth").frames_delivered > frames_before
        assert breaker.state == CircuitBreaker.OPEN  # probe timed out too

    def test_unconfigured_registry_has_no_breakers(self):
        sim, net, registry, client = rpc_world()
        assert registry.breaker_for(0x30, "e1") is None
        assert registry.breakers_opened() == 0
