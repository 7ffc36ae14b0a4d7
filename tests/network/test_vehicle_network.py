"""Tests for multi-segment routing through gateways."""

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.hw import BusSpec, EcuSpec, Topology
from repro.network import (
    GATEWAY_LATENCY,
    CanBus,
    EthernetBus,
    FlexRayBus,
    TrafficClass,
    TsnBus,
    VehicleNetwork,
    build_bus,
)
from repro.sim import Simulator


def two_segment_topology():
    topo = Topology("t")
    topo.add_bus(BusSpec("can_a", "can", 500_000.0))
    topo.add_bus(BusSpec("eth_b", "ethernet", 100e6))
    topo.add_ecu(EcuSpec("sensor", ports=(("can0", "can"),)))
    topo.add_ecu(EcuSpec("gw", ports=(("can0", "can"), ("eth0", "ethernet"))))
    topo.add_ecu(EcuSpec("brain", ports=(("eth0", "ethernet"),)))
    topo.attach("sensor", "can0", "can_a")
    topo.attach("gw", "can0", "can_a")
    topo.attach("gw", "eth0", "eth_b")
    topo.attach("brain", "eth0", "eth_b")
    return topo


class TestBuildBus:
    def test_builds_matching_simulators(self):
        sim = Simulator()
        assert isinstance(build_bus(sim, BusSpec("c", "can", 5e5)), CanBus)
        assert isinstance(build_bus(sim, BusSpec("f", "flexray", 1e7)), FlexRayBus)
        assert isinstance(build_bus(sim, BusSpec("e", "ethernet", 1e8)), EthernetBus)
        tsn = build_bus(sim, BusSpec("t", "ethernet", 1e9, tsn_capable=True))
        assert isinstance(tsn, TsnBus)


class TestVehicleNetwork:
    def test_same_segment_delivery(self):
        sim = Simulator()
        net = VehicleNetwork(sim, two_segment_topology())
        got = []
        net.register_receiver("gw", lambda f: got.append(f.label))
        net.send("sensor", "gw", 8, priority=0x100, label="hello")
        sim.run()
        assert got == ["hello"]

    def test_cross_segment_delivery_via_gateway(self):
        sim = Simulator()
        net = VehicleNetwork(sim, two_segment_topology())
        got = []
        net.register_receiver("brain", lambda f: got.append((sim.now, f.label)))
        done = net.send("sensor", "brain", 8, priority=0x100, label="x")
        sim.run()
        assert done.fired
        assert got[0][1] == "x"
        # must include CAN time + gateway latency + Ethernet time
        assert got[0][0] > GATEWAY_LATENCY
        assert net.gateway_forwards == 1

    def test_unroutable_send_raises(self):
        topo = two_segment_topology()
        topo.add_ecu(EcuSpec("island"))
        sim = Simulator()
        net = VehicleNetwork(sim, topo)
        with pytest.raises(ConfigurationError):
            net.send("sensor", "island", 8)

    def test_deterministic_class_pins_ethernet_pcp7(self):
        sim = Simulator()
        net = VehicleNetwork(sim, two_segment_topology())
        seen = []
        net.register_receiver("brain", lambda f: seen.append(f.priority))
        net.send(
            "gw", "brain", 100,
            traffic_class=TrafficClass.DETERMINISTIC, priority=0x001,
        )
        sim.run()
        assert seen == [7]

    def test_nondeterministic_priority_mapping(self):
        sim = Simulator()
        net = VehicleNetwork(sim, two_segment_topology())
        seen = []
        net.register_receiver("brain", lambda f: seen.append(f.priority))
        net.send("gw", "brain", 100, priority=0)      # most urgent -> PCP 6
        net.send("gw", "brain", 100, priority=2047)   # least urgent -> PCP 0
        sim.run()
        assert seen == [6, 0]

    def test_unregistered_receiver_drops_silently(self):
        sim = Simulator()
        net = VehicleNetwork(sim, two_segment_topology())
        done = net.send("sensor", "gw", 8, priority=0x50)
        sim.run()
        assert done.fired  # delivery signal still fires

    def test_unregister_receiver(self):
        sim = Simulator()
        net = VehicleNetwork(sim, two_segment_topology())
        got = []
        net.register_receiver("gw", lambda f: got.append(1))
        net.unregister_receiver("gw")
        net.send("sensor", "gw", 8, priority=0x50)
        sim.run()
        assert got == []

    def test_payload_object_carried_end_to_end(self):
        sim = Simulator()
        net = VehicleNetwork(sim, two_segment_topology())
        got = []
        net.register_receiver("brain", lambda f: got.append(f.payload))
        net.send("sensor", "brain", 8, priority=0x10, payload={"v": 42})
        sim.run()
        assert got == [{"v": 42}]

    def test_unknown_bus_lookup_raises(self):
        sim = Simulator()
        net = VehicleNetwork(sim, two_segment_topology())
        with pytest.raises(NetworkError):
            net.bus("nope")

    def test_frame_counters(self):
        sim = Simulator()
        net = VehicleNetwork(sim, two_segment_topology())
        net.register_receiver("brain", lambda f: None)
        net.send("sensor", "brain", 8, priority=0x10)
        sim.run()
        assert net.total_frames_delivered() == 2  # one per segment


def gateway_pair_topology():
    """A CAN leg behind a gateway to an Ethernet pair ``a``/``b``."""
    topo = Topology("pair")
    topo.add_bus(BusSpec("can", "can", 500_000.0))
    topo.add_bus(BusSpec("eth", "ethernet", 100e6))
    topo.add_ecu(EcuSpec("c", ports=(("can0", "can"),)))
    topo.add_ecu(EcuSpec("g", ports=(("can0", "can"), ("eth0", "ethernet"))))
    for name in ("a", "b"):
        topo.add_ecu(EcuSpec(name, ports=(("eth0", "ethernet"),)))
    topo.attach("c", "can0", "can")
    topo.attach("g", "can0", "can")
    for name in ("g", "a", "b"):
        topo.attach(name, "eth0", "eth")
    return topo


class TestNegativePayload:
    """A negative size is refused on a fresh network and with a forwarded
    frame in flight (a gateway forwards the frame it received, so the
    refused send must not disturb the one on its next hop)."""

    def test_rejected_with_empty_pool(self):
        sim = Simulator()
        net = VehicleNetwork(sim, gateway_pair_topology())
        with pytest.raises(NetworkError, match="payload size cannot be negative"):
            net.send("a", "b", -5)
        assert len(sim.queue) == 0 and net.gateway_forwards == 0

    def test_rejected_when_a_pooled_frame_would_be_reused(self):
        sim = Simulator()
        net = VehicleNetwork(sim, gateway_pair_topology())
        net.send("c", "a", 8)
        while not net.gateway_forwards:
            sim.step()
        pending = len(sim.queue)
        with pytest.raises(NetworkError, match="payload size cannot be negative"):
            net.send("a", "b", -5)
        # the refused send consumed nothing: no event and no queued
        # frame, and only the gateway leg's 8 bytes reach the backbone
        assert len(sim.queue) == pending
        assert net.bus("eth").port_backlog("b") == 0
        sim.run()
        assert net.bus("eth").bytes_delivered == 8
        assert net.gateway_forwards == 1


class TestCorruptionIsSticky:
    def test_gateway_forwards_a_corrupted_frame(self):
        """A frame corrupted on its CAN leg stays corrupted across the
        gateway, so the destination endpoint discards it instead of
        receiving the message."""
        from repro.faults import FaultInjector, FaultPlan, FaultSpec
        from repro.middleware import Endpoint, Message, MessageType, ServiceRegistry

        sim = Simulator()
        net = VehicleNetwork(sim, gateway_pair_topology())
        registry = ServiceRegistry()
        c, a = (Endpoint(sim, net, name, registry) for name in ("c", "a"))
        plan = FaultPlan(name="corrupt-can", faults=(FaultSpec(
            kind="frame_corrupt", target="can", start=0.0, duration=1.0,
            probability=1.0),))
        FaultInjector(sim, plan, 3, network=net).arm()
        for session in range(1, 6):
            sim.post(0.001 * session, c.send, Message(
                service_id=0x10, method_id=1,
                msg_type=MessageType.NOTIFICATION, payload_bytes=4,
                src="c", dst="a", session_id=session))
        sim.run()
        can, eth = net.bus("can"), net.bus("eth")
        assert can.frames_corrupted == can.frames_delivered > 0
        assert net.gateway_forwards == eth.frames_delivered == can.frames_delivered
        assert a.messages_received == 0
        assert a.frames_discarded == eth.frames_delivered
