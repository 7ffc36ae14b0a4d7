"""Per-kind behaviour and determinism of the FaultInjector."""

import hashlib
import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultPlan, FaultSpec, redundant_ring_topology
from repro.fleet.shard import FleetSpec, app_for, vehicle_plan
from repro.fleet.variants import build_vehicle_world, variant_of
from repro.hw import BusSpec, EcuSpec, Topology
from repro.middleware import Endpoint, Message, MessageType, ServiceRegistry
from repro.network import VehicleNetwork
from repro.osal import Core, FixedPriorityPolicy, PeriodicSource, TaskSpec
from repro.security.crypto import TrustStore
from repro.sim import Simulator


def eth_world():
    """Two ECUs on one Ethernet segment, plus endpoints."""
    topo = Topology()
    topo.add_bus(BusSpec("eth", "ethernet", 100e6))
    for name in ("e0", "e1"):
        topo.add_ecu(EcuSpec(name, ports=(("eth0", "ethernet"),)))
        topo.attach(name, "eth0", "eth")
    sim = Simulator()
    net = VehicleNetwork(sim, topo)
    registry = ServiceRegistry()
    endpoints = {n: Endpoint(sim, net, n, registry) for n in ("e0", "e1")}
    return sim, net, endpoints


def notification(src="e0", dst="e1", payload_bytes=64):
    return Message(
        service_id=0x10, method_id=1, msg_type=MessageType.NOTIFICATION,
        payload_bytes=payload_bytes, src=src, dst=dst,
    )


def core_world():
    sim = Simulator()
    core = Core(sim, "core0", 1.0, FixedPriorityPolicy())
    return sim, core


def small_platform(sim, n=2):
    from repro.core.platform import DynamicPlatform

    store = TrustStore()
    store.generate_key("oem")
    return DynamicPlatform(sim, redundant_ring_topology(n), trust_store=store)


class TestFrameFaults:
    def test_drop_window_swallows_frames(self):
        sim, net, eps = eth_world()
        got = []
        eps["e1"].on_message(0x10, MessageType.NOTIFICATION, got.append)
        plan = FaultPlan(name="drop", faults=(
            FaultSpec(kind="frame_drop", target="eth", start=0.0, duration=0.01),
        ))
        FaultInjector(sim, plan, 1, network=net).arm()
        done = eps["e0"].send(notification())
        sim.run()
        assert not done.fired
        assert got == []
        assert net.bus("eth").frames_dropped == 1
        assert net.bus("eth").frames_delivered == 0

    def test_corrupt_frames_delivered_but_discarded(self):
        sim, net, eps = eth_world()
        got = []
        eps["e1"].on_message(0x10, MessageType.NOTIFICATION, got.append)
        plan = FaultPlan(name="corrupt", faults=(
            FaultSpec(kind="frame_corrupt", target="eth", start=0.0, duration=0.01),
        ))
        FaultInjector(sim, plan, 1, network=net).arm()
        eps["e0"].send(notification())
        sim.run()
        # the bus delivered the bits, but the receiver's CRC check rejects
        assert net.bus("eth").frames_delivered == 1
        assert net.bus("eth").frames_corrupted == 1
        assert eps["e1"].frames_discarded == 1
        assert got == []

    def test_delay_window_adds_exact_latency(self):
        times = []
        for delayed in (False, True):
            sim, net, eps = eth_world()
            eps["e1"].on_message(
                0x10, MessageType.NOTIFICATION, lambda m: times.append(sim.now)
            )
            if delayed:
                plan = FaultPlan(name="delay", faults=(
                    FaultSpec(
                        kind="frame_delay", target="eth", start=0.0,
                        duration=0.01, magnitude=0.004,
                    ),
                ))
                FaultInjector(sim, plan, 1, network=net).arm()
            eps["e0"].send(notification())
            sim.run()
        baseline, faulted = times
        assert faulted == pytest.approx(baseline + 0.004)

    def test_window_close_restores_zero_overhead_path(self):
        sim, net, eps = eth_world()
        got = []
        eps["e1"].on_message(0x10, MessageType.NOTIFICATION, got.append)
        plan = FaultPlan(name="drop", faults=(
            FaultSpec(kind="frame_drop", target="eth", start=0.0, duration=0.005),
        ))
        injector = FaultInjector(sim, plan, 1, network=net).arm()
        sim.run(until=0.006)
        assert net.bus("eth")._fault_hook is None
        eps["e0"].send(notification())
        sim.run()
        assert len(got) == 1
        actions = injector.counts_by_action()
        assert actions == {"window_open": 1, "window_close": 1}

    def test_probability_gates_per_frame(self):
        sim, net, eps = eth_world()
        plan = FaultPlan(name="lossy", faults=(
            FaultSpec(
                kind="frame_drop", target="eth", start=0.0,
                duration=1.0, probability=0.5,
            ),
        ))
        FaultInjector(sim, plan, 1, network=net).arm()

        def sender():
            for _ in range(40):
                eps["e0"].send(notification())
                yield 0.001

        sim.process(sender())
        sim.run(until=0.5)
        bus = net.bus("eth")
        assert 0 < bus.frames_dropped < 40
        assert bus.frames_dropped + bus.frames_delivered == 40


class TestBusOutage:
    def test_outage_and_repair_bump_route_epoch(self):
        sim, net, eps = eth_world()
        plan = FaultPlan(name="outage", faults=(
            FaultSpec(kind="bus_outage", target="eth", start=0.01, duration=0.02),
        ))
        injector = FaultInjector(sim, plan, 1, network=net).arm()
        epoch = net.route_epoch
        sim.run(until=0.02)
        assert "eth" in net._failed_buses
        sim.run(until=0.05)
        assert "eth" not in net._failed_buses
        assert net.route_epoch == epoch + 2
        assert [e[3] for e in injector.timeline] == ["outage", "repair"]

    def test_outage_on_downed_bus_is_skipped(self):
        sim, net, eps = eth_world()
        plan = FaultPlan(name="double", faults=(
            FaultSpec(kind="bus_outage", target="eth", start=0.01),
            FaultSpec(kind="bus_outage", target="eth", start=0.02),
        ))
        injector = FaultInjector(sim, plan, 1, network=net).arm()
        sim.run(until=0.03)
        assert [e[3] for e in injector.timeline] == ["outage", "skipped"]


class TestEcuCrash:
    def test_crash_and_reboot(self):
        sim = Simulator()
        platform = small_platform(sim)
        plan = FaultPlan(name="crash", faults=(
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.01, duration=0.02),
        ))
        injector = FaultInjector(sim, plan, 1, platform=platform).arm()
        sim.run(until=0.02)
        assert platform.node("platform_0").failed
        sim.run(until=0.05)
        assert not platform.node("platform_0").failed
        assert [e[3] for e in injector.events_of_kind("ecu_crash")] == [
            "crash", "reboot",
        ]

    def test_crash_on_failed_node_is_skipped(self):
        sim = Simulator()
        platform = small_platform(sim)
        plan = FaultPlan(name="crash2", faults=(
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.01),
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.02),
        ))
        injector = FaultInjector(sim, plan, 1, platform=platform).arm()
        sim.run(until=0.03)
        assert [e[3] for e in injector.timeline] == ["crash", "skipped"]


class TestTaskFaults:
    def test_overrun_stretches_execution(self):
        sim, core = core_world()
        task = TaskSpec(name="t", period=0.01, wcet=0.002)
        PeriodicSource(sim, core, task, horizon=0.1)
        plan = FaultPlan(name="overrun", faults=(
            FaultSpec(
                kind="task_overrun", target="core0", start=0.045,
                duration=0.02, magnitude=1.0,
            ),
        ))
        injector = FaultInjector(sim, plan, 1, cores=(core,)).arm()
        sim.run()
        hit = [j for j in core.completed_jobs if 0.045 <= j.release_time < 0.065]
        clean = [j for j in core.completed_jobs if j.release_time < 0.045]
        assert hit and clean
        assert all(j.response_time == pytest.approx(0.004) for j in hit)
        assert all(j.response_time == pytest.approx(0.002) for j in clean)
        assert core.fault_perturb is None  # window closed
        assert len(injector.events_of_kind("task_overrun")) == len(hit) + 2

    def test_jitter_delays_release_but_not_deadline(self):
        sim, core = core_world()
        task = TaskSpec(name="t", period=0.01, wcet=0.002)
        PeriodicSource(sim, core, task, horizon=0.1)
        plan = FaultPlan(name="jitter", faults=(
            FaultSpec(
                kind="task_jitter", target="core0", start=0.045,
                duration=0.02, magnitude=0.003,
            ),
        ))
        injector = FaultInjector(sim, plan, 7, cores=(core,)).arm()
        sim.run()
        hit = [j for j in core.completed_jobs if 0.045 <= j.release_time < 0.065]
        assert hit
        # start is pushed past the nominal release; the deadline stays
        # anchored at the nominal activation instant
        for job in hit:
            assert job.start_time > job.release_time
            assert job.absolute_deadline == pytest.approx(
                job.release_time + task.effective_deadline
            )
        assert injector.counts_by_action()["jitter"] == len(hit)

    def test_node_target_reaches_all_platform_cores(self):
        sim = Simulator()
        platform = small_platform(sim)
        plan = FaultPlan(name="node_overrun", faults=(
            FaultSpec(
                kind="task_overrun", target="platform_0", start=0.0,
                duration=0.01, magnitude=0.5,
            ),
        ))
        FaultInjector(sim, plan, 1, platform=platform).arm()
        sim.run(until=0.005)
        for core in platform.node("platform_0").cores:
            assert core.fault_perturb is not None
        sim.run(until=0.02)
        for core in platform.node("platform_0").cores:
            assert core.fault_perturb is None


class TestClockDrift:
    def test_drift_stretches_activation_grid(self):
        sim, core = core_world()
        task = TaskSpec(name="t", period=0.01, wcet=0.001)
        source = PeriodicSource(sim, core, task, horizon=0.3)
        plan = FaultPlan(name="drift", faults=(
            FaultSpec(
                kind="clock_drift", target="core0", start=0.1,
                duration=0.1, magnitude=0.5,
            ),
        ))
        injector = FaultInjector(sim, plan, 1, cores=(core,)).arm()
        sim.run()
        in_window = [
            j for j in source.jobs if 0.1 <= j.release_time < 0.2
        ]
        before = [j for j in source.jobs if j.release_time < 0.1]
        # a 50 % slow clock fits ~6-7 periods where 10 nominally fit
        assert len(before) == 10
        assert len(in_window) < 8
        assert core.clock_drift == 0.0  # drift cleared after the window
        assert [e[3] for e in injector.timeline] == ["drift_on", "drift_off"]


class TestArming:
    def test_unknown_targets_rejected(self):
        sim, net, _ = eth_world()
        bad_bus = FaultPlan(name="b", faults=(
            FaultSpec(kind="frame_drop", target="nosuchbus", start=0.0),
        ))
        with pytest.raises(ConfigurationError, match="unknown bus"):
            FaultInjector(sim, bad_bus, 1, network=net).arm()
        bad_core = FaultPlan(name="c", faults=(
            FaultSpec(kind="task_jitter", target="ghost", start=0.0, magnitude=0.1),
        ))
        with pytest.raises(ConfigurationError, match="unknown core"):
            FaultInjector(sim, bad_core, 1, network=net).arm()
        needs_platform = FaultPlan(name="d", faults=(
            FaultSpec(kind="ecu_crash", target="e0", start=0.0),
        ))
        with pytest.raises(ConfigurationError, match="need a platform"):
            FaultInjector(sim, needs_platform, 1, network=net).arm()

    def test_disarm_cancels_and_removes_hooks(self):
        sim, net, eps = eth_world()
        got = []
        eps["e1"].on_message(0x10, MessageType.NOTIFICATION, got.append)
        plan = FaultPlan(name="drop", faults=(
            FaultSpec(kind="frame_drop", target="eth", start=0.0, duration=1.0),
        ))
        injector = FaultInjector(sim, plan, 1, network=net).arm()
        sim.run(until=0.001)
        assert net.bus("eth")._fault_hook is not None
        injector.disarm()
        assert net.bus("eth")._fault_hook is None
        eps["e0"].send(notification())
        sim.run()
        assert len(got) == 1

    def test_arm_is_idempotent(self):
        sim, net, _ = eth_world()
        plan = FaultPlan(name="o", faults=(
            FaultSpec(kind="bus_outage", target="eth", start=0.01),
        ))
        injector = FaultInjector(sim, plan, 1, network=net)
        injector.arm().arm()
        sim.run(until=0.02)
        assert len(injector.timeline) == 1


class TestDeterminism:
    PLAN = FaultPlan(
        name="det",
        faults=(
            FaultSpec(
                kind="frame_drop", target="eth", start=0.0,
                duration=0.05, probability=0.4, count=3, period=0.06,
                jitter=0.005,
            ),
            FaultSpec(
                kind="frame_delay", target="eth", start=0.02,
                duration=0.01, magnitude=0.002,
            ),
        ),
    )

    def _run(self, seed):
        sim, net, eps = eth_world()
        injector = FaultInjector(sim, self.PLAN, seed, network=net).arm()

        def sender():
            for _ in range(100):
                eps["e0"].send(notification())
                yield 0.002

        sim.process(sender())
        sim.run(until=0.25)
        return tuple(injector.timeline)

    def test_same_plan_and_seed_give_identical_timeline(self):
        assert self._run(42) == self._run(42)

    def test_different_seed_gives_different_timeline(self):
        assert self._run(42) != self._run(43)


GOLDEN_VEHICLES = os.path.join(os.path.dirname(__file__),
                               "golden_vehicle_faults.json")

#: a fleet whose vehicles carry all three overrun windows of the fleet
#: plan (baseline, spike and, under "new", the regression) on every core
GOLDEN_FLEET = FleetSpec(name="golden", master_seed=7, soak_time=2.0,
                         regression_overrun=0.2)


def vehicle_fault_record(index, tag):
    """Injector timeline and fault counters of one fleet vehicle soak."""
    spec = GOLDEN_FLEET
    variant = variant_of(spec.master_seed, index, spec.variant_table)
    sim = build_vehicle_world(variant, app_for(spec, tag))
    platform = sim.world["fleet_vehicle"]["platform"]
    injector = FaultInjector(sim, vehicle_plan(spec, tag), 1000 + index,
                             platform=platform).arm()
    sim.run(until=sim.now + spec.soak_time)
    timeline = json.dumps(injector.timeline).encode()
    metrics = sim.metrics.snapshot()["counter"]
    return {
        "vehicle": index,
        "tag": tag,
        "timeline_entries": len(injector.timeline),
        "timeline_sha256": hashlib.sha256(timeline).hexdigest(),
        "actions": injector.counts_by_action(),
        "counters": {name: value for name, value in sorted(metrics.items())
                     if name.startswith("faults.")},
    }


def vehicle_fault_records():
    return [vehicle_fault_record(index, tag)
            for tag in ("old", "new") for index in range(3)]


def perturbed_wcet(core, task, seen):
    """Record what the core's task hook makes of a 1 s wcet right now."""
    hook = core.fault_perturb
    seen.append(None if hook is None else hook(task, 1.0)[0])


class TestCoreWindowBinding:
    """The task hook binds the core's live window list once per install."""

    @staticmethod
    def overrun(start, duration, magnitude, target="core0"):
        return FaultSpec(kind="task_overrun", target=target, start=start,
                         duration=duration, magnitude=magnitude)

    def test_reopened_window_sees_new_specs(self):
        sim, core = core_world()
        task = TaskSpec(name="t", period=0.01, wcet=0.002)
        PeriodicSource(sim, core, task, horizon=0.1)
        first = self.overrun(0.005, 0.02, 1.0)
        second = self.overrun(0.045, 0.02, 3.0)
        injector = FaultInjector(sim, FaultPlan(name="reopen", faults=(
            first, second)), 1, cores=(core,)).arm()
        sim.run(until=0.03)
        assert core.fault_perturb is None  # last window closed
        sim.run(until=0.05)
        # a fresh hook bound to a fresh list holding only the new spec
        assert core.fault_perturb.args[1] == [second]
        assert core.fault_perturb.args[1] is injector._active_core_faults["core0"]
        sim.run()
        first_hit = [j for j in core.completed_jobs
                     if 0.005 <= j.release_time < 0.025]
        second_hit = [j for j in core.completed_jobs
                      if 0.045 <= j.release_time < 0.065]
        assert len(first_hit) == 2 and len(second_hit) == 2
        assert all(j.response_time == pytest.approx(0.004) for j in first_hit)
        assert all(j.response_time == pytest.approx(0.008) for j in second_hit)

    def test_overlapping_node_and_core_windows_compose(self):
        sim = Simulator()
        platform = small_platform(sim)
        cores = platform.node("platform_0").cores
        core = cores[0]
        node_wide = self.overrun(0.0, 0.03, 0.5, target="platform_0")
        core_only = self.overrun(0.01, 0.01, 1.0, target=core.name)
        FaultInjector(sim, FaultPlan(name="compose", faults=(
            node_wide, core_only)), 1, platform=platform).arm()
        task = TaskSpec(name="probe", period=0.01, wcet=0.001)
        seen = []
        for when in (0.005, 0.015, 0.025, 0.035):
            sim.at(when, perturbed_wcet, core, task, seen)
        sim.run(until=0.04)
        # node window alone, both stacked, node window alone, none
        assert seen == [1.5, 3.0, 1.5, None]
        for other in cores:
            assert other.fault_perturb is None

    def test_task_stream_created_on_first_activation(self):
        sim, core = core_world()
        task = TaskSpec(name="t", period=0.01, wcet=0.002, offset=0.004)
        PeriodicSource(sim, core, task, horizon=0.02)
        plan = FaultPlan(name="late", faults=(FaultSpec(
            kind="task_overrun", target="core0", start=0.0, duration=0.0,
            magnitude=0.5, probability=0.5),))
        injector = FaultInjector(sim, plan, 3, cores=(core,)).arm()
        sim.run(until=0.002)
        assert core.fault_perturb is not None  # window open
        assert "faults.task.core0" not in injector.rng._streams
        sim.run(until=0.005)
        assert "faults.task.core0" in injector.rng._streams

    def test_fleet_vehicle_faults_match_golden(self):
        with open(GOLDEN_VEHICLES, encoding="utf-8") as fh:
            golden = json.load(fh)
        assert json.loads(json.dumps(vehicle_fault_records())) == golden


if __name__ == "__main__":
    with open(GOLDEN_VEHICLES, "w", encoding="utf-8") as fh:
        json.dump(vehicle_fault_records(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"regenerated {GOLDEN_VEHICLES}")
