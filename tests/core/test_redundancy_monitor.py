"""Tests for the redundancy manager, runtime monitor and platform services."""

import pytest

from repro.errors import ConfigurationError, PlatformError
from repro.core import (
    BackendLink,
    DiagnosisService,
    DynamicPlatform,
    LoggingService,
    PersistenceService,
    RedundancyManager,
    ReplicaSet,
    RuntimeMonitor,
)
from repro.hw import centralized_topology
from repro.model import AppModel, Asil
from repro.osal import Core, FixedPriorityPolicy, PeriodicSource, TaskSpec
from repro.security import TrustStore, build_package
from repro.sim import Simulator, Tracer


def ctl_app(name="ctl"):
    return AppModel(
        name=name,
        tasks=(TaskSpec(name=f"{name}_loop", period=0.01, wcet=0.001),),
        asil=Asil.D, memory_kib=64, image_kib=128,
    )


def replicated_platform():
    sim = Simulator()
    store = TrustStore()
    store.generate_key("oem")
    platform = DynamicPlatform(
        sim, centralized_topology(n_platforms=3), trust_store=store
    )
    app = ctl_app()
    for node in ("platform_0", "platform_1", "platform_2"):
        platform.install(build_package(app, store, "oem"), node)
    sim.run()
    manager = RedundancyManager(platform, heartbeat_period=0.005)
    return sim, platform, manager


class TestRedundancy:
    def test_deploy_starts_all_replicas(self):
        sim, platform, manager = replicated_platform()
        replica_set = manager.deploy(
            "ctl", ["platform_0", "platform_1", "platform_2"], service_id=0x500
        )
        sim.run(until=0.05)
        assert replica_set.primary.node_name == "platform_0"
        assert len(replica_set.standbys) == 2
        assert platform.registry.find(0x500).ecu == "platform_0"

    def test_failover_promotes_standby(self):
        sim, platform, manager = replicated_platform()
        replica_set = manager.deploy(
            "ctl", ["platform_0", "platform_1"], service_id=0x500
        )
        sim.run(until=0.05)
        platform.fail_node("platform_0")
        sim.run(until=0.2)
        assert replica_set.primary.node_name == "platform_1"
        assert platform.registry.find(0x500).ecu == "platform_1"
        assert len(replica_set.failovers) == 1

    def test_failover_interruption_bounded(self):
        """Fail-operational: interruption <= heartbeat + promotion."""
        sim, platform, manager = replicated_platform()
        replica_set = manager.deploy("ctl", ["platform_0", "platform_1"])
        sim.run(until=0.0501)
        platform.fail_node("platform_0")
        sim.run(until=0.3)
        event = replica_set.failovers[0]
        assert event.interruption <= manager.heartbeat_period + 0.002 + 1e-9

    def test_state_replicated_to_standby(self):
        sim, platform, manager = replicated_platform()
        replica_set = manager.deploy("ctl", ["platform_0", "platform_1"])
        sim.run(until=0.02)
        replica_set.primary.internal_state["x"] = 123
        sim.run(until=0.3)  # sync period elapses
        platform.fail_node("platform_0")
        sim.run(until=0.4)
        assert replica_set.primary.node_name == "platform_1"
        assert replica_set.primary.internal_state.get("x") == 123

    def test_no_standby_means_function_lost(self):
        """The baseline: a single instance dies with its ECU."""
        sim, platform, manager = replicated_platform()
        replica_set = manager.deploy("ctl", ["platform_0"])
        sim.run(until=0.05)
        platform.fail_node("platform_0")
        sim.run(until=0.2)
        assert replica_set.exhausted
        assert platform.running_instances("ctl") == []

    def test_double_failure_second_standby_takes_over(self):
        sim, platform, manager = replicated_platform()
        replica_set = manager.deploy(
            "ctl", ["platform_0", "platform_1", "platform_2"]
        )
        sim.run(until=0.05)
        platform.fail_node("platform_0")
        sim.run(until=0.1)
        platform.fail_node("platform_1")
        sim.run(until=0.2)
        assert replica_set.primary.node_name == "platform_2"
        assert len(replica_set.failovers) == 2

    @pytest.mark.parametrize("heartbeat, sync, cadence", [
        (0.1, 0.3, 3),      # 0.3 / 0.1 == 2.9999999999999996
        (0.01, 0.07, 7),    # 0.07 / 0.01 == 7.000000000000001
        (0.005, 0.05, 10),  # the default periods, an exact quotient
    ])
    def test_state_syncs_every_cadence_ticks(self, monkeypatch, heartbeat,
                                             sync, cadence):
        sim, platform, _ = replicated_platform()
        manager = RedundancyManager(platform, heartbeat_period=heartbeat,
                                    sync_period=sync)
        synced_ticks = []
        original = ReplicaSet.sync_state

        def counting_sync(replica_set):
            synced_ticks.append(round(sim.now / heartbeat))
            original(replica_set)

        monkeypatch.setattr(ReplicaSet, "sync_state", counting_sync)
        manager.deploy("ctl", ["platform_0", "platform_1"])
        # exactly 30 heartbeat ticks
        sim.run(until=sim.now + 30.5 * heartbeat)
        assert len(synced_ticks) in (30 // cadence, -(-30 // cadence))
        assert all(later - earlier == cadence
                   for earlier, later in zip(synced_ticks, synced_ticks[1:]))

    def test_duplicate_deploy_rejected(self):
        sim, platform, manager = replicated_platform()
        manager.deploy("ctl", ["platform_0"])
        with pytest.raises(PlatformError):
            manager.deploy("ctl", ["platform_1"])


class TestRuntimeMonitor:
    def loaded_core(self, util_ok=True):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        core = Core(sim, "c", 1.0, FixedPriorityPolicy())
        wcet = 0.002 if util_ok else 0.009
        victim = TaskSpec(
            name="victim", period=0.01, wcet=wcet, deadline=0.008,
            jitter_tolerance=0.002,
        )
        hog = TaskSpec(name="hog", period=0.01, wcet=0.006, priority=0)
        monitor = RuntimeMonitor(sim)
        monitor.watch(victim)
        PeriodicSource(sim, core, victim, horizon=0.5)
        PeriodicSource(sim, core, hog, horizon=0.5)
        return sim, monitor

    def test_healthy_task_raises_no_faults(self):
        sim, monitor = self.loaded_core(util_ok=True)
        sim.run(until=0.6)
        assert monitor.faults_of_kind("deadline") == []
        stats = monitor.stats("victim")
        assert stats.completions >= 49
        assert stats.miss_ratio == 0.0

    def test_deadline_fault_detected(self):
        sim, monitor = self.loaded_core(util_ok=False)
        sim.run(until=0.6)
        assert len(monitor.faults_of_kind("deadline")) > 0
        assert monitor.stats("victim").miss_ratio > 0.0

    def test_jitter_fault_detected(self):
        sim, monitor = self.loaded_core(util_ok=False)
        sim.run(until=0.6)
        # the hog (priority 0) delays the victim's start beyond 2ms
        assert len(monitor.faults_of_kind("jitter")) > 0

    def test_backend_receives_fault_reports(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        backend = BackendLink(sim, uplink_latency=0.1)
        monitor = RuntimeMonitor(sim, backend=backend)
        core = Core(sim, "c", 1.0, FixedPriorityPolicy())
        bad = TaskSpec(name="bad", period=0.01, wcet=0.009, deadline=0.001)
        monitor.watch(bad)
        PeriodicSource(sim, core, bad, horizon=0.05)
        sim.run(until=0.5)
        assert len(backend.received) > 0
        assert backend.received[0].kind == "deadline"

    def test_disconnected_backend_drops_reports(self):
        sim = Simulator(tracer=Tracer())
        backend = BackendLink(sim)
        backend.connected = False
        monitor = RuntimeMonitor(sim, backend=backend)
        core = Core(sim, "c", 1.0, FixedPriorityPolicy())
        bad = TaskSpec(name="bad", period=0.01, wcet=0.009, deadline=0.001)
        monitor.watch(bad)
        PeriodicSource(sim, core, bad, horizon=0.03)
        sim.run(until=0.5)
        assert backend.received == []
        assert monitor.faults  # still recorded locally

    def test_unwatched_tasks_ignored(self):
        sim = Simulator(tracer=Tracer())
        monitor = RuntimeMonitor(sim)
        core = Core(sim, "c", 1.0, FixedPriorityPolicy())
        PeriodicSource(
            sim, core, TaskSpec(name="anon", period=0.01, wcet=0.001),
            horizon=0.05,
        )
        sim.run(until=0.1)
        assert monitor.trace_events_processed == 0

    def test_memory_check(self):
        from repro.core import PlatformNode
        from repro.hw import EcuSpec
        from repro.middleware import ServiceRegistry
        from repro.network import VehicleNetwork
        from repro.hw import Topology

        sim = Simulator(tracer=Tracer())
        topo = Topology()
        topo.add_ecu(EcuSpec("e", memory_kib=100, has_mmu=True))
        net = VehicleNetwork(sim, topo)
        node = PlatformNode(sim, topo.ecu("e"), net, ServiceRegistry())
        monitor = RuntimeMonitor(sim)
        assert monitor.check_memory(node) is None
        node.state.allocate_memory(99)
        fault = monitor.check_memory(node)
        assert fault is not None and fault.kind == "memory"

    def test_certification_report(self):
        sim, monitor = self.loaded_core(util_ok=True)
        sim.run(until=0.6)
        report = monitor.certification_report()
        assert "victim" in report
        assert report["victim"]["completions"] > 0
        assert report["victim"]["miss_ratio"] == 0.0


class TestServices:
    def test_logging_levels(self):
        sim = Simulator()
        log = LoggingService(sim, min_level="info")
        log.log("app", "debug", "hidden")
        log.log("app", "error", "visible")
        assert log.dropped == 1
        assert len(log.records) == 1
        assert log.records_at_least("warning")[0].message == "visible"

    def test_logging_invalid_level(self):
        with pytest.raises(ConfigurationError):
            LoggingService(Simulator(), min_level="chatty")
        log = LoggingService(Simulator())
        with pytest.raises(ConfigurationError):
            log.log("a", "verbose", "x")

    def test_persistence_versioning(self):
        sim = Simulator()
        store = PersistenceService(sim)
        assert store.put("cfg", {"gain": 1}) == 1
        assert store.put("cfg", {"gain": 2}) == 2
        assert store.get("cfg") == {"gain": 2}
        assert store.rollback("cfg") == {"gain": 1}
        assert store.version_count("cfg") == 1

    def test_persistence_rollback_limits(self):
        store = PersistenceService(Simulator())
        with pytest.raises(ConfigurationError):
            store.rollback("missing")
        store.put("k", 1)
        with pytest.raises(ConfigurationError):
            store.rollback("k")

    def test_persistence_default(self):
        store = PersistenceService(Simulator())
        assert store.get("nope", default="d") == "d"

    def test_diagnosis_dtc_accumulation(self):
        sim = Simulator()
        diag = DiagnosisService(sim)
        diag.report("P0300", freeze_frame={"rpm": 3000})
        sim.schedule(1.0, lambda: diag.report("P0300"))
        sim.run()
        dtcs = diag.dtcs()
        assert len(dtcs) == 1
        assert dtcs[0].count == 2
        assert dtcs[0].last_seen == 1.0
        assert diag.clear() == 1
        assert diag.dtcs() == []
