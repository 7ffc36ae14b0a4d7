"""The kernel -> network -> middleware event path leaves no reference cycles.

Every dead event, segment frame, batch, signal and message must be freed
by reference counting the moment its last holder lets go.  Anything that
only the cyclic garbage collector can reclaim shows up in ``gc.garbage``
under ``gc.DEBUG_SAVEALL``; these tests run whole worlds under that flag
and require none of the event-path types among it.
"""

import gc
from collections import Counter

from repro.hw import BusSpec, EcuSpec, Topology
from repro.middleware import (
    QOS_BULK,
    QOS_CONTROL,
    Endpoint,
    Message,
    MessageType,
    QoS,
    RetryPolicy,
    RpcClient,
    RpcServer,
    ServiceRegistry,
)
from repro.network import VehicleNetwork
from repro.sim import Simulator

#: event-path types that must never be reclaimed by the cyclic collector
EVENT_PATH_TYPES = frozenset({
    "ScheduledCall", "Frame", "_SegmentBatch", "_HopCompletion", "Signal",
    "Message",
})

PERIOD = 0.005

#: (src, dst, service, type, payload bytes, qos): CAN-segmented fan-in
#: across a gateway, bulk Ethernet samples, TSN-to-FlexRay commands, an
#: intra-FlexRay notification and an RTE-local delivery
FLOWS = (
    ("sensor", "fusion", 0x100, MessageType.NOTIFICATION, 48, QoS(priority=0x120)),
    ("cam", "fusion", 0x200, MessageType.STREAM_SAMPLE, 3000, QOS_BULK),
    ("fusion", "brake1", 0x300, MessageType.REQUEST, 8, QOS_CONTROL),
    ("brake2", "brake1", 0x301, MessageType.NOTIFICATION, 12, QoS(priority=0x500)),
    ("fusion", "fusion", 0x400, MessageType.NOTIFICATION, 4, QoS()),
)


def mixed_topology() -> Topology:
    """CAN and FlexRay legs joined through gateways to a TSN backbone."""
    topo = Topology("mixed")
    topo.add_bus(BusSpec("can", "can", 500_000.0))
    topo.add_bus(BusSpec("fr", "flexray", 10_000_000.0))
    topo.add_bus(BusSpec("eth", "ethernet", 100e6, tsn_capable=True))
    topo.add_ecu(EcuSpec("sensor", ports=(("can0", "can"),)))
    for name in ("brake1", "brake2"):
        topo.add_ecu(EcuSpec(name, ports=(("fr0", "flexray"),)))
    for name in ("cam", "fusion"):
        topo.add_ecu(EcuSpec(name, ports=(("eth0", "ethernet"),)))
    topo.add_ecu(EcuSpec("gw_can", ports=(("can0", "can"), ("eth0", "ethernet"))))
    topo.add_ecu(EcuSpec("gw_fr", ports=(("fr0", "flexray"), ("eth0", "ethernet"))))
    for ecu in ("sensor", "gw_can"):
        topo.attach(ecu, "can0", "can")
    for ecu in ("brake1", "brake2", "gw_fr"):
        topo.attach(ecu, "fr0", "fr")
    for ecu in ("cam", "fusion", "gw_can", "gw_fr"):
        topo.attach(ecu, "eth0", "eth")
    return topo


class Flow:
    """Self-rescheduling periodic sender (callback style)."""

    def __init__(self, sim, endpoint, dst, service, msg_type, size, qos, rounds):
        self.sim = sim
        self.endpoint = endpoint
        self.dst = dst
        self.service = service
        self.msg_type = msg_type
        self.size = size
        self.qos = qos
        self.rounds = rounds

    def tick(self) -> None:
        self.endpoint.send(
            Message(
                service_id=self.service, method_id=1, msg_type=self.msg_type,
                payload_bytes=self.size, src=self.endpoint.ecu_name,
                dst=self.dst, session_id=self.sim.next_session_id(),
            ),
            self.qos,
        )
        self.rounds -= 1
        if self.rounds:
            self.sim.post(PERIOD, self.tick)


def comms_world(rounds: int):
    sim = Simulator()
    net = VehicleNetwork(sim, mixed_topology())
    registry = ServiceRegistry()
    endpoints = {
        name: Endpoint(sim, net, name, registry)
        for name in ("sensor", "cam", "fusion", "brake1", "brake2")
    }
    for index, (src, dst, service, msg_type, size, qos) in enumerate(FLOWS):
        flow = Flow(sim, endpoints[src], dst, service, msg_type, size, qos, rounds)
        sim.post(0.0001 * index, flow.tick)
    return sim, net, endpoints


def rpc_world(latency: float):
    """One client and one server endpoint on a plain Ethernet segment."""
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
    server.register_method(1, lambda request: ("pong", 8), latency=latency)
    return sim, net, RpcClient(endpoints["e0"], 0x30, client_app="cli")


def cyclic_garbage(run) -> Counter:
    """Event-path objects only the cyclic collector could reclaim in ``run()``."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(
            name for name in (type(obj).__name__ for obj in gc.garbage)
            if name in EVENT_PATH_TYPES
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def received(endpoints) -> int:
    return sum(ep.messages_received for ep in endpoints.values())


class TestNoCycles:
    def test_mixed_multi_segment_world(self):
        sim, net, endpoints = comms_world(rounds=40)
        # one unbatched end-to-end send per round as well (gateway hop
        # through the single-frame forwarding path)
        def ping():
            net.send("sensor", "fusion", 8, priority=0x200, label="ping")
            if sim.now < 40 * PERIOD:
                sim.post(PERIOD, ping)
        sim.post(0.0, ping)
        assert cyclic_garbage(sim.run) == Counter()
        assert received(endpoints) == len(FLOWS) * 40
        assert net.gateway_forwards > 0

    def test_rpc_world_with_cancelled_timeouts(self):
        sim, net, client = rpc_world(latency=0.0002)
        chained, yielded = [], []

        def call_again(response) -> None:
            chained.append(response)
            if len(chained) < 60:
                client.call(1, timeout=1.0).add_callback(call_again)

        def caller():
            for _ in range(60):
                yielded.append((yield client.call(1, timeout=1.0)))

        # callback-style and process-style callers interleaved
        sim.post(0.0, lambda: client.call(1, timeout=1.0).add_callback(call_again))
        sim.process(caller())
        assert cyclic_garbage(sim.run) == Counter()
        answers = chained + yielded
        assert len(answers) == 120 and all(a is not None for a in answers)
        assert client.timeouts == 0
        assert sim.now < 1.0  # every timeout timer was cancelled

    def test_world_with_drop_fault_hook(self):
        sim, net, endpoints = comms_world(rounds=40)
        drops = {"can": 0, "eth": 0}

        def dropper(every):
            def hook(bus, frame):
                drops[bus.name] += 1
                return ("drop",) if drops[bus.name] % every == 0 else None
            return hook

        net.bus("can")._fault_hook = dropper(4)
        net.bus("eth")._fault_hook = dropper(5)
        assert cyclic_garbage(sim.run) == Counter()
        assert net.bus("can").frames_dropped > 0
        assert net.bus("eth").frames_dropped > 0
        # dropped segments leave their messages (and batches) unfinished
        assert received(endpoints) < len(FLOWS) * 40

    def test_rpc_retries_after_drops(self):
        sim, net, client = rpc_world(latency=0.0)
        seen = [0]

        def hook(bus, frame):
            seen[0] += 1
            return ("drop",) if seen[0] % 3 == 0 else None

        net.bus("eth")._fault_hook = hook
        results = []
        retry = RetryPolicy(max_attempts=4, backoff=0.001)
        for k in range(30):
            sim.post(0.01 * k, lambda: client.call(
                1, timeout=0.005, retry=retry).add_callback(results.append))
        assert cyclic_garbage(sim.run) == Counter()
        assert len(results) == 30
        assert client.timeouts > 0 and client.retries > 0


class TestEventReuse:
    def test_comms_world_reuses_its_events(self):
        """Fire-and-forget timers come from the free list: a 500-round
        world builds a handful of calls, not one per event."""
        sim, net, endpoints = comms_world(rounds=500)
        sim.run()
        stats = sim.queue.stats()
        assert received(endpoints) == len(FLOWS) * 500
        assert stats["pool_creations"] <= 64
        assert stats["pool_reuses"] > 10_000
