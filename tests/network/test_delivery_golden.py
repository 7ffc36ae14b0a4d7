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
CAN and FlexRay legs behind gateways to a TSN backbone) plus unbatched
end-to-end sends and bus-level broadcasts:

* ``faulted`` arms drop, corrupt and delay windows on every bus;
* ``toggled`` disables the metrics registry mid-run and re-enables it
  later, so the per-delivery metric guard is pinned on both sides of a
  flip.

Regenerate the golden (only when a behaviour change is intended) with::

    PYTHONPATH=src python -m tests.network.test_delivery_golden
"""

import hashlib
import json
import os

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.middleware import Endpoint, ServiceRegistry
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
    """Unbatched gateway crossings (the Signal-sink path) and a broadcast
    on each of CAN and TSN (listener fan-out and the broadcast latch)."""

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


def golden_records() -> dict:
    return {"faulted": faulted_run(), "toggled": toggled_run()}


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


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden_records(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"regenerated {GOLDEN}")
