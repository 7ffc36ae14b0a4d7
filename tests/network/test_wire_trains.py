"""Differential test: wire trains against a ``step()`` loop.

A bus completion performs the bus's own next event in place for as long
as it is exactly the event the kernel would dispatch next
(``Simulator.dispatch_in_place``): a wire train.  A CAN finish runs its
interframe-space idle, the next arbitration and that frame's finish; an
egress-port finish runs the port's next finish; a gated port's wake-up
starts the gated frame and runs its finish.  ``step()`` makes no train,
so the same world driven by a ``step()`` loop pushes and dispatches every
event: the oracle.  The worlds are the comms topology with the backbone
outage, the delivery golden's ``faulted`` world (drop, corrupt and delay
hooks armed on CAN, FlexRay and TSN), a forked chaos replication on the
TSN ring, traced and untraced, and CAN broadcasts with a receiver that
answers inside the delivery; each also with ``run()`` split at several
instants.  Per-bus counters, ``transmit_time`` (as ``float.hex``),
endpoint counters, receptions, the trace, the metrics (``sim.events``
included) and the sequence numbers taken must agree.

The pinned cases end a train at each thing that can end one: a frame
submitted inside the interframe space, a delayed delivery, ``until``,
an attached sanitizer and a snapshot of a run that ended mid-train.
"""

import dataclasses
import functools
from functools import partial

import pytest

from repro.analysis import KernelSanitizer
from repro.faults import FaultInjector
from repro.faults.campaign import (
    FaultCampaignSpec,
    build_campaign_snapshot,
    campaign_outcome,
    start_chaos_workload,
)
from repro.jobs import JobContext, derive_job_seed
from repro.network import CanBus, EthernetBus, Frame, TsnBus
from repro.network.tsn import GateControlList
from repro.obs import MetricsRegistry
from repro.sim import Simulator, Tracer

from ..faults.test_chaos_golden import PLAN as CHAOS_PLAN
from .test_delivery_golden import PLAN, golden_world, outage_world

#: end of every world's run, past its last event
END = 1.0


def step_until(sim, until):
    """What ``run(until=until)`` does, one ``step()`` per event."""
    while True:
        time = sim.queue.peek_time()
        if time is None or time > until:
            break
        sim.step()
    if until > sim.now:
        sim.now = until


def pushes(sim):
    stats = sim.queue.stats()
    return stats["pool_reuses"] + stats["pool_creations"]


def outcome(sim):
    world = sim.world
    buses = world["network"].buses if "network" in world else world["buses"]
    chaos = world.get("chaos")
    if chaos is not None:
        endpoints = {name: node.endpoint
                     for name, node in chaos["platform"].nodes.items()}
    else:
        endpoints = world.get("endpoints", {})
    return {
        "buses": {
            name: (bus.frames_delivered, bus.bytes_delivered,
                   bus.frames_dropped, bus.frames_corrupted,
                   bus.frames_delayed, float.hex(bus.transmit_time),
                   getattr(bus, "arbitration_losses", None))
            for name, bus in sorted(buses.items())
        },
        "endpoints": {
            name: (ep.messages_sent, ep.messages_received,
                   ep.frames_discarded)
            for name, ep in sorted(endpoints.items())
        },
        "received": list(world.get("log", ())),
        "timeline": list(world["injector"].timeline
                         if "injector" in world else ()),
        "chaos": (None if chaos is None else
                  dataclasses.asdict(campaign_outcome("rep", chaos))),
        "trace": [entry.to_json() for entry in sim.tracer.entries],
        "metrics": sim.metrics.snapshot(),
        "seq": sim.queue.reserve(),
        "now": sim.now,
    }


def compare(world, splits=()):
    """Drive ``world()`` by ``run()`` and by a ``step()`` loop, each
    stopping at every split; return both outcomes and heap pushes."""
    ran, stepped = world(), world()
    for until in tuple(splits) + (END,):
        ran.run(until=until)
        step_until(stepped, until)
    return outcome(ran), pushes(ran), outcome(stepped), pushes(stepped)


# -- worlds -------------------------------------------------------------------


def comms_world():
    """The comms topology's six flows, backbone failed mid-run."""
    sim, _net, endpoints = outage_world()
    sim.adopt("endpoints", endpoints)
    return sim


def faulted_world():
    """The delivery golden's ``faulted`` world."""
    sim, net, endpoints = golden_world()
    sim.adopt("endpoints", endpoints)
    sim.adopt("injector", FaultInjector(sim, PLAN, 11, network=net).arm())
    return sim


CHAOS_SPEC = FaultCampaignSpec(plan=CHAOS_PLAN, soak_time=0.5,
                               settle_time=0.05)


@functools.lru_cache(maxsize=None)
def chaos_snapshot():
    return build_campaign_snapshot(CHAOS_SPEC)


def chaos_world(traced):
    """Replication 0 of the chaos campaign, restored and armed."""
    job_id = "faults.rep0"
    rng = JobContext(job_id=job_id, seed=derive_job_seed(11, job_id),
                     attempt=0, metrics=MetricsRegistry()).rng()
    sim = chaos_snapshot().restore()
    if traced:
        sim.tracer = Tracer()
    start_chaos_workload(sim, sim.world["chaos"], CHAOS_SPEC, rng)
    return sim


class Chatter:
    """Broadcasts from three senders on one CAN bus at uneven intervals;
    ``c`` answers every ``ping`` inside its delivery."""

    SENDERS = ("a", "b", "c")

    def __init__(self, sim, bus, log):
        self.sim = sim
        self.bus = bus
        self.log = log

    def tick(self, k):
        sim = self.sim
        for i in range(1 + k % 3):
            self.submit(self.SENDERS[(k + i) % 3], 0x100 + (k * 7 + i) % 40,
                        (k + i) % 9, "ping" if i == 0 else "data")
        if k < 60:
            sim.post(0.0002 * (1 + k % 5), self.tick, k + 1)

    def submit(self, src, can_id, size, label):
        self.bus.submit(Frame(src=src, dst=None, payload_bytes=size,
                              priority=can_id, label=label,
                              frame_id=self.sim.next_frame_id()))

    def receive(self, ecu, frame):
        self.log.append((self.sim.now, ecu, frame.frame_id))
        if ecu == "c" and frame.label == "ping":
            self.submit("c", 0x080, 2, "pong")


def can_world(traced=False):
    sim = Simulator(tracer=Tracer(enabled=traced), metrics=MetricsRegistry())
    bus = CanBus(sim, "can", 500_000.0)
    log = []
    chatter = Chatter(sim, bus, log)
    for ecu in Chatter.SENDERS + ("d",):
        bus.add_listener(ecu, partial(chatter.receive, ecu))
    sim.post(0.0, chatter.tick, 0)
    sim.adopt("buses", {"can": bus})
    sim.adopt("log", log)
    return sim


WORLDS = {
    "comms": (comms_world, (0.0371, 0.0752, 0.11)),
    "faulted": (faulted_world, (0.0521, 0.1037, 0.1549)),
    "chaos": (partial(chaos_world, False), (0.2, 0.31, 0.4)),
    "chaos_traced": (partial(chaos_world, True), (0.2, 0.31, 0.4)),
    "can_broadcast": (can_world, (0.0013, 0.00531, 0.0101)),
    "can_broadcast_traced": (partial(can_world, True), (0.0027, 0.0064)),
}


class TestTrainsMatchStepping:
    @pytest.mark.parametrize("name", sorted(WORLDS))
    @pytest.mark.parametrize("split", [False, True])
    def test_world(self, name, split):
        world, splits = WORLDS[name]
        ran, ran_pushes, stepped, stepped_pushes = compare(
            world, splits if split else ())
        assert ran == stepped
        assert sum(bus[0] for bus in ran["buses"].values()) > 0
        # the same events, fewer of them through the heap
        assert ran_pushes < stepped_pushes


# -- pinned train ends on one CAN bus ------------------------------------------

BITRATE = 500_000.0
#: an 8-byte frame and the interframe space on that bus
FRAME = 135 / BITRATE
IFS = 3 / BITRATE


def answers(sim):
    """Record every ``dispatch_in_place`` answer the world gets as
    ``(time, yes)``."""
    log = []
    inner = sim.dispatch_in_place

    def dispatch_in_place(time, priority):
        yes = inner(time, priority)
        log.append((round(time, 9), yes))
        return yes

    sim.dispatch_in_place = dispatch_in_place
    return log


def us(*times):
    return [round(t, 9) for t in times]


class Receiver:
    def __init__(self, sim, log):
        self.sim = sim
        self.log = log

    def __call__(self, frame):
        self.log.append((self.sim.now, frame.label))


def bus_world(submits, hook=None):
    """One CAN bus, ``b`` receiving; ``submits`` holds ``(time, label,
    can_id)`` of 8-byte frames from ``a``, each submitted by its own
    event, in order."""
    sim = Simulator(tracer=Tracer(), metrics=MetricsRegistry())
    bus = CanBus(sim, "can", BITRATE)
    log = []
    bus.add_listener("a", Receiver(sim, []))
    bus.add_listener("b", Receiver(sim, log))
    bus._fault_hook = hook
    for time, label, can_id in submits:
        sim.post(time, bus.submit, Frame(
            src="a", dst="b", payload_bytes=8, priority=can_id, label=label,
            frame_id=sim.next_frame_id()))
    sim.adopt("buses", {"can": bus})
    sim.adopt("log", log)
    return sim


BACKLOG = ((0.0, "A", 1), (0.0, "B", 2), (0.0, "C", 3))


def stepped_outcome(world):
    sim = world()
    step_until(sim, END)
    return outcome(sim)


class TestTrainEnds:
    def test_a_backlog_runs_as_one_train(self):
        sim = bus_world(BACKLOG)
        seen = answers(sim)
        sim.run(until=END)
        assert seen == [(t, True) for t in us(
            FRAME + IFS, 2 * FRAME + IFS, 2 * (FRAME + IFS),
            3 * FRAME + 2 * IFS, 3 * (FRAME + IFS))]
        assert [label for _t, label in sim.world["log"]] == ["A", "B", "C"]
        assert outcome(sim) == stepped_outcome(lambda: bus_world(BACKLOG))

    def test_at_a_frame_submitted_inside_the_ifs(self):
        # "U" outranks "B" and arrives half-way through A's IFS: the idle
        # is pushed, and the arbitration it runs picks "U"
        submits = BACKLOG[:2] + ((FRAME + IFS / 2, "U", 0),)
        sim = bus_world(submits)
        seen = answers(sim)
        sim.run(until=END)
        assert seen[0] == (round(FRAME + IFS, 9), False)
        log = sim.world["log"]
        assert [label for _t, label in log] == ["A", "U", "B"]
        assert log[1][0] == pytest.approx(2 * FRAME + IFS)
        assert outcome(sim) == stepped_outcome(lambda: bus_world(submits))

    def test_at_a_delayed_delivery(self):
        def hook(_bus, frame):
            return ("delay", IFS / 2) if frame.label == "A" else None

        sim = bus_world(BACKLOG[:2], hook)
        seen = answers(sim)
        sim.run(until=END)
        # A's delivery is posted inside its own IFS, before the idle
        assert seen[0] == (round(FRAME + IFS, 9), False)
        log = sim.world["log"]
        assert log[0] == (pytest.approx(FRAME + IFS / 2), "A")
        assert log[1] == (pytest.approx(2 * FRAME + IFS), "B")
        assert sim.world["buses"]["can"].frames_delayed == 1
        assert outcome(sim) == stepped_outcome(
            lambda: bus_world(BACKLOG[:2], hook))

    def test_at_until(self):
        sim = bus_world(BACKLOG)
        seen = answers(sim)
        sim.run(until=FRAME + IFS / 2)
        assert seen == [(round(FRAME + IFS, 9), False)]
        assert sim.now == FRAME + IFS / 2 and len(sim.queue) == 1
        assert sim.queue.peek_time() == FRAME + IFS
        # A's finish only: the idle is a plain event on the heap
        assert sim.metrics.counter("sim.events").value == 4
        sim.run(until=END)
        # the pushed idle pushes B's finish; from there a train again
        assert seen[1:] == [(t, True) for t in us(
            2 * FRAME + 2 * IFS, 3 * FRAME + 2 * IFS, 3 * (FRAME + IFS))]
        assert outcome(sim) == stepped_outcome(lambda: bus_world(BACKLOG))

    def test_with_a_sanitizer_attached(self):
        sim = bus_world(BACKLOG)
        KernelSanitizer(sim).attach()
        seen = answers(sim)
        sim.run(until=END)
        # asked once per finish, answered no: every idle is pushed
        assert seen == [(t, False) for t in us(
            FRAME + IFS, 2 * FRAME + 2 * IFS, 3 * (FRAME + IFS))]
        assert outcome(sim) == stepped_outcome(lambda: bus_world(BACKLOG))

    def test_snapshot_of_a_run_that_ended_mid_train(self):
        expected = stepped_outcome(lambda: bus_world(BACKLOG))
        straight = bus_world(BACKLOG)
        straight.run(until=END)
        sim = bus_world(BACKLOG)
        sim.run(until=2 * FRAME + IFS / 2)
        restored = sim.snapshot().restore()
        restored.run(until=END)
        sim.run(until=END)
        assert outcome(straight) == expected
        assert outcome(restored) == expected
        assert outcome(sim) == expected

    def test_step_makes_no_train(self):
        sim = bus_world(BACKLOG)
        seen = answers(sim)
        step_until(sim, END)
        assert seen == [(t, False) for t in us(
            FRAME + IFS, 2 * FRAME + 2 * IFS, 3 * (FRAME + IFS))]


class TestEgressTrains:
    def test_a_port_backlog_runs_as_one_train(self):
        sim = Simulator(metrics=MetricsRegistry())
        bus = EthernetBus(sim, "eth", 100e6)
        log = []
        bus.add_listener("b", Receiver(sim, log))
        for label in ("x", "y", "z"):
            bus.submit(Frame(src="a", dst="b", payload_bytes=100, priority=3,
                             label=label, frame_id=sim.next_frame_id()))
        seen = answers(sim)
        sim.run()
        duration = bus.wire_time(138)
        assert seen == [(t, True) for t in us(2 * duration, 3 * duration)]
        assert [label for _t, label in log] == ["x", "y", "z"]
        assert [t for t, _label in log] == pytest.approx(
            [duration, 2 * duration, 3 * duration])
        assert sim.metrics.counter("sim.events").value == 3

    def test_a_gate_wakeup_runs_the_frame_it_starts(self):
        # PCP 3 waits out the protected window: its wake-up starts the
        # frame and performs its finish in place
        sim = Simulator(metrics=MetricsRegistry())
        gcl = GateControlList.tas_split(cycle=0.0005, critical_window=0.0001)
        bus = TsnBus(sim, "tsn", 1e9, gcl=gcl)
        log = []
        bus.add_listener("b", Receiver(sim, log))
        bus.submit(Frame(src="a", dst="b", payload_bytes=100, priority=3,
                         label="x", frame_id=sim.next_frame_id()))
        seen = answers(sim)
        sim.run()
        duration = bus.wire_time(138)
        assert seen == [(round(0.0001 + 1e-9 + duration, 9), True)]
        assert log == [(pytest.approx(0.0001 + 1e-9 + duration), "x")]
        assert sim.metrics.counter("sim.events").value == 2
