"""Golden delivery trace of the mixed CAN/FlexRay/TSN world.

Pins everything the bus completion -> delivery -> completion-sink path
produces, recorded once and compared byte for byte on every run:

* the sha256 of every tracer entry (``net.tx_start``, ``net.delivery``,
  ``mw.*``) with tracing on;
* per-bus delivery, drop, corrupt and delay counters and the exact
  ``transmit_time`` (as ``float.hex``);
* the whole ``MetricsRegistry.snapshot()``;
* the fault injector's timeline.

Two runs share the world of ``test_no_cycles`` (periodic SOA flows over
CAN and FlexRay legs behind gateways to a TSN backbone) plus one-segment
end-to-end sends and bus-level broadcasts:

* ``faulted`` arms drop, corrupt and delay windows on every bus;
* ``toggled`` disables the metrics registry mid-run and re-enables it
  later, so the per-delivery metric guard is pinned on both sides of a
  flip.

A third run, ``outage``, drives six SOA flows over two CAN legs, a
FlexRay cluster and a redundant Ethernet pair, and fails the backbone
for the middle half of the run so traffic reroutes over the ring.  Its
trace was recorded at commit ``bbdfa5f``, where it equalled, entry for
entry, the trace of a frozen copy of the pre-route-cache network stack
(per-send shortest paths, list-scan arbitration, one event per segment).

Regenerate the golden (only when a behaviour change is intended) with::

    PYTHONPATH=src python -m tests.network.test_delivery_golden
"""

import hashlib
import json
import os

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.hw import BusSpec, EcuSpec, Topology
from repro.middleware import (
    QOS_BULK,
    QOS_CONTROL,
    Endpoint,
    Message,
    MessageType,
    QoS,
    ServiceRegistry,
)
from repro.network import Frame, VehicleNetwork
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator, Tracer

from .test_no_cycles import FLOWS, PERIOD, Flow, mixed_topology

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_delivery.json")

ROUNDS = 60

#: one window of every frame fault kind on every technology
PLAN = FaultPlan(
    name="delivery-golden",
    faults=(
        FaultSpec(kind="frame_drop", target="can", start=0.02, duration=0.06,
                  probability=0.3),
        FaultSpec(kind="frame_corrupt", target="eth", start=0.05, duration=0.08,
                  probability=0.25),
        FaultSpec(kind="frame_delay", target="eth", start=0.1, duration=0.1,
                  magnitude=0.0007, probability=0.5),
        FaultSpec(kind="frame_delay", target="fr", start=0.03, duration=0.1,
                  magnitude=0.002, probability=0.5),
        FaultSpec(kind="frame_corrupt", target="can", start=0.15, duration=0.05,
                  probability=0.5),
        FaultSpec(kind="frame_drop", target="fr", start=0.2, duration=0.05,
                  probability=0.4),
    ),
)


def golden_world():
    """The no-cycles comms world, traced and metered, plus extra senders."""
    sim = Simulator(tracer=Tracer(), metrics=MetricsRegistry())
    net = VehicleNetwork(sim, mixed_topology())
    registry = ServiceRegistry()
    endpoints = {
        name: Endpoint(sim, net, name, registry)
        for name in ("sensor", "cam", "fusion", "brake1", "brake2")
    }
    for index, (src, dst, service, msg_type, size, qos) in enumerate(FLOWS):
        flow = Flow(sim, endpoints[src], dst, service, msg_type, size, qos,
                    ROUNDS)
        sim.post(0.0001 * index, flow.tick)

    sim.post(0.00037, Extras(sim, net).tick, ROUNDS // 2)
    return sim, net, endpoints


class Extras:
    """One-segment gateway crossings (``VehicleNetwork.send``, whose
    batch fires the returned signal) and a broadcast on each of CAN and
    TSN (listener fan-out and the broadcast latch).  The broadcasts'
    ``bus.submit`` without a sink is the only unbatched Signal-sink path
    left."""

    def __init__(self, sim, net):
        self.sim = sim
        self.net = net

    def tick(self, rounds_left: int) -> None:
        sim, net = self.sim, self.net
        net.send("sensor", "fusion", 8, priority=0x200, label="ping")
        net.send("brake2", "cam", 16, priority=0x180, label="cmd")
        for bus, src, size in (("can", "sensor", 6), ("eth", "cam", 64)):
            net.bus(bus).submit(Frame(
                src=src, dst=None, payload_bytes=size, priority=3,
                label="bcast", frame_id=sim.next_frame_id(),
            ))
        if rounds_left > 1:
            sim.post(PERIOD * 1.3, self.tick, rounds_left - 1)


def record(sim, net, endpoints, timeline=()) -> dict:
    trace = "\n".join(entry.to_json() for entry in sim.tracer.entries)
    return {
        "trace_entries": len(sim.tracer.entries),
        "trace_sha256": hashlib.sha256(trace.encode()).hexdigest(),
        "timeline_sha256": hashlib.sha256(
            json.dumps(list(timeline)).encode()).hexdigest(),
        "received": {name: ep.messages_received
                     for name, ep in sorted(endpoints.items())},
        "buses": {
            name: {
                "frames_delivered": bus.frames_delivered,
                "bytes_delivered": bus.bytes_delivered,
                "frames_dropped": bus.frames_dropped,
                "frames_corrupted": bus.frames_corrupted,
                "frames_delayed": bus.frames_delayed,
                "transmit_time": float.hex(bus.transmit_time),
            }
            for name, bus in sorted(net.buses.items())
        },
        "metrics": sim.metrics.snapshot(),
    }


def faulted_run() -> dict:
    sim, net, endpoints = golden_world()
    injector = FaultInjector(sim, PLAN, 11, network=net).arm()
    sim.run()
    return record(sim, net, endpoints, injector.timeline)


def toggled_run() -> dict:
    sim, net, endpoints = golden_world()
    sim.post(0.061, sim.metrics.disable)
    sim.post(0.173, sim.metrics.enable)
    sim.run()
    return record(sim, net, endpoints)


OUTAGE_ROUNDS = 30

#: (src, dst, service, type, payload bytes, qos): CAN-segmented fan-in,
#: bulk camera samples (no redundant path), cross-CAN commands, a
#: FlexRay brake request and an intra-cluster FlexRay notification
OUTAGE_FLOWS = (
    ("sensor1", "fusion", 0x100, MessageType.NOTIFICATION, 48, QoS(priority=0x120)),
    ("cam", "fusion", 0x200, MessageType.STREAM_SAMPLE, 3000, QOS_BULK),
    ("fusion", "actuator1", 0x300, MessageType.REQUEST, 24, QoS(priority=0x340)),
    ("sensor2", "actuator2", 0x101, MessageType.NOTIFICATION, 16, QoS(priority=0x210)),
    ("fusion", "brake1", 0x400, MessageType.REQUEST, 8, QOS_CONTROL),
    ("brake2", "brake1", 0x401, MessageType.NOTIFICATION, 12, QoS(priority=0x500)),
)


def outage_topology() -> Topology:
    """Two CAN legs and a FlexRay cluster behind gateways, each gateway
    on both the Ethernet backbone and a redundant Ethernet ring."""
    topo = Topology("outage")
    for name in ("can_front", "can_rear"):
        topo.add_bus(BusSpec(name, "can", 500_000.0))
    topo.add_bus(BusSpec("flexray_chassis", "flexray", 10_000_000.0))
    for name in ("eth_backbone", "eth_ring"):
        topo.add_bus(BusSpec(name, "ethernet", 100e6))
    eth2 = (("eth0", "ethernet"), ("eth1", "ethernet"))
    legs = (("can_front", "can0", "can", ("sensor1", "sensor2"), "gw_front"),
            ("can_rear", "can0", "can", ("actuator1", "actuator2"), "gw_rear"),
            ("flexray_chassis", "fr0", "flexray", ("brake1", "brake2"),
             "gw_chassis"))
    for _, port, tech, ecus, _ in legs:
        for ecu in ecus:
            topo.add_ecu(EcuSpec(ecu, ports=((port, tech),)))
    topo.add_ecu(EcuSpec("cam", ports=(("eth0", "ethernet"),)))
    topo.add_ecu(EcuSpec("fusion", ports=eth2))
    for _, port, tech, _, gateway in legs:
        topo.add_ecu(EcuSpec(gateway, ports=((port, tech),) + eth2))
    for bus, port, _, ecus, gateway in legs:
        for ecu in ecus + (gateway,):
            topo.attach(ecu, port, bus)
    for ecu in ("gw_front", "gw_rear", "gw_chassis", "fusion"):
        topo.attach(ecu, "eth0", "eth_backbone")
        topo.attach(ecu, "eth1", "eth_ring")
    topo.attach("cam", "eth0", "eth_backbone")
    return topo


def outage_run() -> dict:
    """Every flow sends once per round; the backbone is down for the
    middle half of the rounds and the camera, which has no redundant
    path, pauses for that window."""
    sim = Simulator(tracer=Tracer(), metrics=MetricsRegistry())
    net = VehicleNetwork(sim, outage_topology())
    registry = ServiceRegistry()
    endpoints = {
        name: Endpoint(sim, net, name, registry)
        for name in ("sensor1", "sensor2", "actuator1", "actuator2",
                     "brake1", "brake2", "cam", "fusion")
    }

    fail_round = OUTAGE_ROUNDS // 4
    repair_round = 3 * OUTAGE_ROUNDS // 4
    # half a period off the round boundaries: never tied with a send
    sim.at(fail_round * PERIOD - PERIOD / 2, net.fail_bus, "eth_backbone")
    sim.at(repair_round * PERIOD - PERIOD / 2, net.repair_bus, "eth_backbone")
    for r in range(OUTAGE_ROUNDS):
        for src, dst, service, msg_type, size, qos in OUTAGE_FLOWS:
            if src == "cam" and fail_round <= r < repair_round:
                continue
            message = Message(service_id=service, method_id=1,
                              msg_type=msg_type, payload_bytes=size,
                              src=src, dst=dst,
                              session_id=sim.next_session_id())
            sim.at(r * PERIOD, endpoints[src].send, message, qos)
    sim.run()
    return record(sim, net, endpoints)


def golden_records() -> dict:
    return {"faulted": faulted_run(), "toggled": toggled_run(),
            "outage": outage_run()}


class TestDeliveryGolden:
    def test_matches_golden(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        assert json.loads(json.dumps(golden_records())) == golden

    def test_golden_exercises_every_delivery_branch(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        buses = golden["faulted"]["buses"]
        for counter in ("frames_dropped", "frames_corrupted", "frames_delayed"):
            assert sum(bus[counter] for bus in buses.values()) > 0, counter
        assert all(bus["frames_delivered"] > 0 for bus in buses.values())
        # the toggled run saw fewer deliveries on its metrics than on its
        # bus counters: the disabled stretch really was skipped
        toggled = golden["toggled"]
        counted = sum(
            value["value"]
            for name, value in toggled["metrics"]["counter"].items()
            if name.startswith("net.frames{")
        )
        delivered = sum(bus["frames_delivered"]
                        for bus in toggled["buses"].values())
        assert 0 < counted < delivered
        # the outage run rerouted over the ring and paused the camera
        outage = golden["outage"]
        assert outage["buses"]["eth_ring"]["frames_delivered"] > 0
        assert outage["received"]["fusion"] == OUTAGE_ROUNDS + OUTAGE_ROUNDS // 2


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden_records(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"regenerated {GOLDEN}")
