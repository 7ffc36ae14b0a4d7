"""Snapshot/fork API tests and the snapshot determinism matrix.

The matrix is the correctness bar from PRs 2-3 applied to snapshots: a
chaos scenario with active fault windows and an open circuit breaker is
snapshotted at several points; restore + continue-to-end must reproduce
the straight run's trace byte for byte, and capturing must not perturb
the source world.
"""

import pickle

import pytest

from repro.faults import FaultCampaignSpec, FaultPlan, FaultSpec
from repro.faults.campaign import (
    build_chaos_base,
    campaign_outcome,
    start_chaos_workload,
)
from repro.sim import RngStreams, Simulator, Timeout, Tracer
from repro.sim.snapshot import SimSnapshot, SnapshotError, fork_world

from ..exec.test_fork_equality import HEAVY_CHAOS_SPEC


def trace_json(sim):
    return [entry.to_json() for entry in sim.tracer.entries]


class Ticker:
    """Callback-style periodic component (snapshot-safe)."""

    def __init__(self, sim, period=0.1, limit=20):
        self.sim = sim
        self.period = period
        self.limit = limit
        self.ticks = 0
        sim.post(period, self._tick)

    def _tick(self):
        self.ticks += 1
        self.sim.trace("tick", n=self.ticks)
        if self.ticks < self.limit:
            self.sim.post(self.period, self._tick)


class TestForkApi:
    def test_fork_then_continue_matches_original(self):
        sim = Simulator(Tracer())
        ticker = Ticker(sim)
        sim.adopt("ticker", ticker)
        sim.run(until=0.55)

        fork = sim.fork()
        sim.run()
        fork.run()
        assert trace_json(fork) == trace_json(sim)
        assert fork.world["ticker"].ticks == ticker.ticks == 20

    def test_fork_is_independent(self):
        sim = Simulator(Tracer())
        Ticker(sim)
        sim.run(until=0.35)
        fork = sim.fork()
        fork.run()  # only the fork finishes
        assert sim.now == 0.35
        assert len(fork.tracer.entries) > len(sim.tracer.entries)

    def test_shared_structure_is_aliased_not_copied(self):
        sim = Simulator()
        topology = {"buses": ("a", "b")}  # stand-in for immutable structure
        sim.share(topology)
        holder = {"topo": topology, "state": [1, 2]}
        sim.adopt("holder", holder)
        fork = sim.fork()
        assert fork.world["holder"]["topo"] is topology
        assert fork.world["holder"]["state"] is not holder["state"]

    def test_fork_refused_while_running(self):
        sim = Simulator()
        failures = []

        def try_fork():
            try:
                sim.fork()
            except SnapshotError as exc:
                failures.append(exc)

        # the closure is the point: fork() must refuse mid-run anyway
        sim.post(0.1, try_fork)  # repro: allow[PICK511]
        sim.run()
        assert len(failures) == 1

    def test_fork_refused_with_live_generator_process(self):
        sim = Simulator()

        def forever():
            while True:
                yield Timeout(1.0)

        sim.process(forever(), name="spinner")
        sim.run(until=2.5)
        with pytest.raises(SnapshotError, match="spinner"):
            sim.fork()

    def test_fork_world_function_matches_method(self):
        sim = Simulator(Tracer())
        Ticker(sim)
        sim.run(until=0.35)
        a, b = fork_world(sim), sim.fork()
        a.run()
        b.run()
        assert trace_json(a) == trace_json(b)


class TestSnapshotApi:
    def test_snapshot_restores_many_independent_worlds(self):
        sim = Simulator(Tracer())
        Ticker(sim)
        sim.run(until=0.55)
        snap = sim.snapshot()
        assert snap.now == 0.55

        worlds = [snap.restore() for _ in range(3)]
        sim.run()
        for world in worlds:
            world.run()
            assert trace_json(world) == trace_json(sim)

    def test_restore_method_alias(self):
        sim = Simulator()
        snap = sim.snapshot()
        assert isinstance(sim.restore(snap), Simulator)

    def test_to_bytes_roundtrip(self):
        sim = Simulator(Tracer())
        Ticker(sim)
        sim.run(until=0.55)
        snap = sim.snapshot()
        shipped = SimSnapshot.from_bytes(snap.to_bytes())
        assert shipped.now == snap.now

        local, remote = snap.restore(), shipped.restore()
        local.run()
        remote.run()
        assert trace_json(remote) == trace_json(local)

    def test_snapshot_itself_pickles(self):
        # executors pickle the snapshot when shipping it as shared context
        sim = Simulator(Tracer())
        Ticker(sim)
        sim.run(until=0.55)
        snap = pickle.loads(pickle.dumps(sim.snapshot()))
        sim.run()
        world = snap.restore()
        world.run()
        assert trace_json(world) == trace_json(sim)

    def test_restored_world_has_empty_event_pool(self):
        sim = Simulator()
        Ticker(sim)  # Ticker uses sim.post -> pooled calls
        sim.run(until=1.05)
        assert sim.queue.stats()["pool_size"] > 0
        restored = sim.snapshot().restore()
        assert restored.queue.stats()["pool_size"] == 0
        created_before = restored.queue.stats()["pool_creations"]
        restored.run()  # pool refills from its own dispatches only
        # one fresh object at most: the first post-restore pooled push
        # finds the pool empty, everything after reuses it
        assert restored.queue.stats()["pool_creations"] - created_before <= 1


def chaos_matrix_spec():
    """Chaos with a primary crash, a long frame-drop window and circuit
    breaking — so snapshots land inside active fault windows and (late
    in the soak) after the client's breaker has opened."""
    plan = FaultPlan(
        name="matrix",
        faults=(
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.05,
                      duration=0.3),
            FaultSpec(kind="frame_drop", target="eth_backbone", start=0.02,
                      duration=0.4, probability=0.5),
        ),
    )
    return FaultCampaignSpec(plan=plan, soak_time=0.5, breaker_threshold=2,
                             breaker_reset=0.4)


def build_chaos_world(spec, seed=77):
    sim = Simulator(Tracer())
    base = build_chaos_base(sim, spec)
    start_chaos_workload(sim, base, spec, RngStreams(seed))
    return sim, base


class TestSnapshotDeterminismMatrix:
    def test_scenario_is_actually_chaotic(self):
        spec = chaos_matrix_spec()
        sim, base = build_chaos_world(spec)
        sim.run(until=sim.now + spec.soak_time)
        outcome = campaign_outcome("straight", base)
        assert outcome.frames_dropped > 0
        assert outcome.breakers_opened >= 1
        assert len(outcome.timeline) >= 2

    def test_matrix_restore_continue_equals_straight_run(self):
        spec = chaos_matrix_spec()
        sim, _ = build_chaos_world(spec)
        start, end = sim.now, sim.now + spec.soak_time
        sim.run(until=end)
        straight = trace_json(sim)
        assert straight

        for fraction in (0.2, 0.5, 0.9):
            source, base = build_chaos_world(spec)
            source.run(until=start + fraction * spec.soak_time)
            snap = source.snapshot()
            if fraction == 0.5:
                # mid-soak: the crash/drop windows are open and faults
                # have fired, but the scenario is not over yet
                timeline = base["injector"].timeline
                assert 0 < len(timeline)

            restored = snap.restore()
            restored.run(until=end)
            assert trace_json(restored) == straight

            # capturing must not have perturbed the source world
            source.run(until=end)
            assert trace_json(source) == straight

    def test_heavy_base_mid_soak_restore_equals_straight_run(self):
        """The same bar on a base that dwarfs its soak (four
        triple-redundant nodes), snapshotted halfway through the soak."""
        spec = HEAVY_CHAOS_SPEC
        sim, _ = build_chaos_world(spec)
        start, end = sim.now, sim.now + spec.soak_time
        sim.run(until=end)
        straight = trace_json(sim)
        assert straight

        source, _ = build_chaos_world(spec)
        source.run(until=start + 0.5 * spec.soak_time)
        restored = source.snapshot().restore()
        restored.run(until=end)
        source.run(until=end)
        assert trace_json(restored) == straight
        assert trace_json(source) == straight

    def test_fork_per_variant_equals_rebuild(self):
        # same world forked twice with the same workload seed stays
        # byte-identical; different seeds diverge (sanity check that the
        # workload actually consumes the per-variant stream)
        spec = chaos_matrix_spec()
        sim = Simulator(Tracer())
        build_chaos_base(sim, spec)
        snap = sim.snapshot()

        def soak(seed):
            world = snap.restore()
            start_chaos_workload(world, world.world["chaos"], spec,
                                 RngStreams(seed))
            world.run(until=world.now + spec.soak_time)
            return trace_json(world)

        assert soak(1) == soak(1)
        assert soak(1) != soak(2)
