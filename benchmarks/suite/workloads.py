"""The four benchmark workloads, driven only through public entry points.

Every workload runs in *batches*: one batch is one call of the public
entry point on inputs derived from the run seed and the batch index
alone, and returns its item count plus a JSON-able digest of its
deterministic result.  The harness (``run.py``) times batches in a
closed loop — the next batch starts when the previous one returns.

Each workload also offers

* ``setup()`` — the cold set-up a run pays before its first item,
  timed by the workload and repeated by the harness between batches
  to report a median;
* ``reference(index)`` — the digest of batch ``index`` recomputed
  through an independent public path (serial instead of pooled,
  rebuild instead of fork, restored snapshot instead of a fresh world);
* ``trace(ledger)`` — the first batches re-driven step by step with
  every public call timed (see :mod:`ledger`), returning one digest per
  traced batch so the harness can prove the trace measured the same
  program.

The chaos plan and the mixed comms topology are copied here on purpose:
editing the older ``benchmarks/*.py`` drivers must never change what this
benchmark measures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import tempfile
from functools import partial
from time import perf_counter
from typing import Dict, List, Tuple

from ledger import Ledger
from repro.core.campaign import plan_waves
from repro.exec import (
    CheckpointSpec,
    CheckpointStore,
    JobContext,
    ParallelExecutor,
    derive_item_seed,
    derive_job_seed,
    get_inline_executor,
    plan_shards,
)
from repro.faults import (
    FaultCampaignSpec,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    build_resilience_report,
    campaign_outcome,
    run_fault_campaign,
)
from repro.faults.campaign import build_campaign_snapshot, start_chaos_workload
from repro.fleet import (
    TAG_NEW,
    TAG_OLD,
    FleetCampaign,
    FleetCampaignSpec,
    FleetDigest,
    FleetShardJob,
    FleetSpec,
    TopK,
    build_fleet_snapshots,
    run_fleet,
    run_fleet_campaign,
    variant_of,
)
from repro.fleet.shard import vehicle_plan
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
from repro.network import CanBus, VehicleNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import merge_digests
from repro.sim import RngStreams, Simulator

#: pool size of the pooled workload: one parent, two workers (a 2-CPU host)
WORKERS = 2


class OutputMismatch(Exception):
    """A workload produced an output that fails its correctness check."""


def digest_sha256(digest: object) -> str:
    """sha256 of a digest in canonical (sorted-key, compact) JSON."""
    blob = json.dumps(digest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def batch_seed(seed: int, workload: str, index: int) -> int:
    """Master seed of batch ``index``: a pure function of the run seed."""
    return derive_item_seed(seed, f"suite.{workload}", index)


class Workload:
    """Common shape of a benchmark workload (see the module docstring)."""

    name = ""

    def __init__(self, seed: int, size: Dict[str, int], workdir: str) -> None:
        self.seed = seed
        self.batch_size = size["batch"]
        self.trace_batches = size["trace_batches"]
        self.workdir = workdir

    def setup(self) -> float:
        """Do the cold set-up a run needs before its first item and return
        its seconds; safe to call between batches."""
        raise NotImplementedError

    def run_batch(self, index: int) -> Tuple[int, object, float]:
        """Run batch ``index`` through the entry point; returns its item
        count, its digest and the seconds the entry-point call took."""
        raise NotImplementedError

    def reference(self, index: int) -> object:
        raise NotImplementedError

    def trace(self, ledger: Ledger) -> List[object]:
        raise NotImplementedError

    def trace_reference(self, ledger: Ledger) -> List[object]:
        """Untraced entry-point digests of the traced batches; their time
        is the ledger's reference wall (the trace-overhead baseline)."""
        digests = []
        for index in range(self.trace_batches):
            _, digest, seconds = self.run_batch(index)
            ledger.reference_wall += seconds
            digests.append(digest)
        return digests

    def close(self) -> None:
        """Release pools and processes; idempotent."""


# -- fleet workloads -------------------------------------------------------


def _read_core_metrics(sim: Simulator, platform) -> Tuple[int, int, tuple]:
    """The per-vehicle metric reads of :func:`repro.fleet.simulate_vehicle`."""
    releases = 0
    misses = 0
    histograms = []
    for node_name in sorted(platform.nodes):
        for core in platform.nodes[node_name].cores:
            releases += int(
                sim.metrics.counter("os.releases", core=core.name).value
            )
            misses += int(
                sim.metrics.counter("os.deadline_misses", core=core.name).value
            )
            histograms.append(sim.metrics.histogram("os.response", core=core.name))
    return releases, misses, tuple(histograms)


def _count_network(ledger: Ledger, sim: Simulator, network, endpoints) -> None:
    """Fold one finished world's traffic counters into the ledger."""
    for bus in network.buses.values():
        ledger.count("frames", bus.frames_delivered)
        if isinstance(bus, CanBus):
            ledger.count("arbitration_losses", bus.arbitration_losses)
    for endpoint in endpoints:
        ledger.count("messages", endpoint.messages_sent)
    ledger.count("route_hits", sim.metrics.counter("net.route_cache.hit").value)
    ledger.count("route_misses",
                 sim.metrics.counter("net.route_cache.miss").value)


def _platform_endpoints(platform) -> list:
    return [platform.nodes[name].endpoint for name in sorted(platform.nodes)]


def trace_vehicles(ledger: Ledger, fleet: FleetSpec, tag: str, snapshots,
                   start: int, stop: int) -> FleetDigest:
    """Re-drive :func:`repro.fleet.simulate_vehicle` for ``[start, stop)``
    with each public call timed, folding into one shard digest."""
    digest = FleetDigest(worst=TopK(k=fleet.top_k))
    for index in range(start, stop):
        t0 = perf_counter()
        variant = variant_of(fleet.master_seed, index, fleet.variant_table)
        seed = derive_item_seed(fleet.master_seed, f"{fleet.name}:{tag}", index)
        t1 = perf_counter()
        sim = snapshots[(variant.variant_id, tag)].restore()
        platform = sim.world["fleet_vehicle"]["platform"]
        t2 = perf_counter()
        plan = vehicle_plan(fleet, tag)
        injector = None
        if plan.faults:
            injector = FaultInjector(sim, plan, seed, platform=platform).arm()
        t3 = perf_counter()
        sim.run(until=sim.now + fleet.soak_time)
        t4 = perf_counter()
        releases, misses, histograms = _read_core_metrics(sim, platform)
        t5 = perf_counter()
        report = (build_resilience_report(injector=injector)
                  if injector is not None else None)
        t6 = perf_counter()
        digest.observe_vehicle(index, variant.variant_id, releases, misses,
                               histograms, report)
        t7 = perf_counter()
        ledger.span("fleet.seed", "fleet", t1 - t0)
        ledger.span("sim.restore", "sim", t2 - t1)
        ledger.span("faults.arm", "faults", t3 - t2)
        ledger.run(t4 - t3)
        ledger.span("obs.collect", "obs", t5 - t4)
        ledger.span("faults.outcome", "faults", t6 - t5)
        ledger.span("fleet.observe", "fleet", t7 - t6)
        ledger.item(t7 - t0)
    return digest


def profile_vehicles(ledger: Ledger, fleet: FleetSpec, tag: str, snapshots,
                     start: int, stop: int) -> None:
    """Second pass over ``[start, stop)`` with the layer profiler attached
    to each restored world, counting each world's traffic."""
    for index in range(start, stop):
        variant = variant_of(fleet.master_seed, index, fleet.variant_table)
        seed = derive_item_seed(fleet.master_seed, f"{fleet.name}:{tag}", index)
        sim = snapshots[(variant.variant_id, tag)].restore()
        platform = sim.world["fleet_vehicle"]["platform"]
        plan = vehicle_plan(fleet, tag)
        if plan.faults:
            FaultInjector(sim, plan, seed, platform=platform).arm()
        sim.profiler = ledger.profiler
        sim.run(until=sim.now + fleet.soak_time)
        sim.profiler = None
        _count_network(ledger, sim, platform.network,
                       _platform_endpoints(platform))


def _timed_merge(ledger: Ledger, into: FleetDigest, other: FleetDigest) -> None:
    start = perf_counter()
    into.merge(other)
    ledger.span("fleet.merge", "fleet", perf_counter() - start)


def _snapshot_kib(snapshots) -> float:
    sizes = [len(snap.to_bytes()) for snap in snapshots.values()]
    return sum(sizes) / len(sizes) / 1024.0


class FleetRollout(Workload):
    """Staged OTA campaigns over a healthy fleet on a warm 2-worker pool.

    One batch is one checkpointed campaign (canary 5 %, cohort 25 %,
    fleet), sharded 50 vehicles per shard, each shard persisted as its
    own fsynced record.  Short soaks keep snapshot restore, dispatch,
    pickling, digest merging and checkpoint writes on the blocking path.
    """

    name = "fleet_rollout"
    stages = (0.05, 0.25, 1.0)
    shard_size = 50
    soak_time = 0.1
    #: a healthy fleet's waves stay below ~7 % misses even for a 6-vehicle
    #: canary; a regressed version misses nearly every deadline.  The
    #: default 5 % threshold would halt some healthy seeds, and a halt's
    #: rollback doubles that wave's work
    halt_miss_ratio = 0.25

    def __init__(self, seed: int, size: Dict[str, int], workdir: str) -> None:
        super().__init__(seed, size, workdir)
        self.executor = None

    def spec(self, index: int) -> FleetCampaignSpec:
        fleet = FleetSpec(
            name="rollout", size=self.batch_size, soak_time=self.soak_time,
            master_seed=batch_seed(self.seed, self.name, index),
        )
        return FleetCampaignSpec(fleet=fleet, stages=self.stages,
                                 shard_size=self.shard_size,
                                 halt_miss_ratio=self.halt_miss_ratio)

    def _checkpoint(self) -> CheckpointSpec:
        return CheckpointSpec(tempfile.mkdtemp(dir=self.workdir),
                              every_n_shards=1)

    def setup(self) -> float:
        """Spawn and warm a pool, then build a campaign (snapshots and
        checkpoint manifest) — everything before the first vehicle.  The
        first pool stays warm for the batches; later ones are closed."""
        start = perf_counter()
        executor = ParallelExecutor(workers=WORKERS)
        executor.warm_up()
        FleetCampaign(self.spec(0), executor=executor,
                      checkpoint=self._checkpoint())
        elapsed = perf_counter() - start
        if self.executor is None:
            self.executor = executor
        else:
            executor.close()
        return elapsed

    def run_batch(self, index: int) -> Tuple[int, object, float]:
        spec = self.spec(index)
        checkpoint = self._checkpoint()
        start = perf_counter()
        result = run_fleet_campaign(spec, executor=self.executor,
                                    checkpoint=checkpoint)
        elapsed = perf_counter() - start
        if result.halted or result.vehicles_updated != spec.fleet.size:
            raise OutputMismatch(
                f"healthy campaign {index} halted or lost vehicles "
                f"({result.vehicles_updated}/{spec.fleet.size} updated)"
            )
        return spec.fleet.size, result.campaign_digest, elapsed

    def reference(self, index: int) -> object:
        """Serial, uncheckpointed campaign: parallel ≡ serial and
        checkpointed ≡ plain must give the same campaign digest."""
        return run_fleet_campaign(self.spec(index)).campaign_digest

    def trace_reference(self, ledger: Ledger) -> List[object]:
        """The serial entry point, to compare with the serial trace."""
        digests = []
        for index in range(self.trace_batches):
            start = perf_counter()
            digests.append(self.reference(index))
            ledger.reference_wall += perf_counter() - start
        return digests

    def trace(self, ledger: Ledger) -> List[object]:
        digests = []
        for index in range(self.trace_batches):
            spec = self.spec(index)
            fleet = spec.fleet
            start = perf_counter()
            snapshots = build_fleet_snapshots(fleet, tags=(TAG_OLD, TAG_NEW))
            ledger.span("fleet.snapshots", "fleet", perf_counter() - start)
            campaign = FleetDigest(worst=TopK(k=fleet.top_k))
            for wave_start, wave_stop in plan_waves(fleet.size,
                                                    stages=spec.stages):
                wave = FleetDigest(worst=TopK(k=fleet.top_k))
                for lo, hi in plan_shards(wave_stop - wave_start,
                                          spec.shard_size):
                    shard = trace_vehicles(ledger, fleet, TAG_NEW, snapshots,
                                           wave_start + lo, wave_start + hi)
                    _timed_merge(ledger, wave, shard)
                if wave.miss_ratio > spec.halt_miss_ratio:
                    raise OutputMismatch(f"traced wave of campaign {index} "
                                         f"halted a healthy fleet")
                _timed_merge(ledger, campaign, wave)
            ledger.wall += perf_counter() - start
            digests.append(campaign.to_json())
            ledger.values["sim.snapshot_kib"] = _snapshot_kib(snapshots)
            profile_vehicles(ledger, fleet, TAG_NEW, snapshots, 0, fleet.size)
        self._trace_exec(ledger, digests[0])
        return digests

    def _trace_exec(self, ledger: Ledger, expected: object) -> None:
        """Push batch 0's waves through the pool with a checkpoint store,
        measuring what the serial trace cannot: pool idle time, result
        pickling and checkpoint writes.  Charged per vehicle to ``exec``.
        """
        spec = self.spec(0)
        fleet = spec.fleet
        start = perf_counter()
        executor = ParallelExecutor(workers=WORKERS)
        executor.warm_up()
        ledger.values["exec.setup_s"] = perf_counter() - start
        try:
            snapshots = build_fleet_snapshots(fleet, tags=(TAG_OLD, TAG_NEW))
            context = pickle.dumps(snapshots, pickle.HIGHEST_PROTOCOL)
            ledger.values["exec.context_kib"] = len(context) / 1024.0
            store = CheckpointStore(
                self._checkpoint(), kind="fleet_campaign", plan=spec,
                meta={"every_n_shards": 1},
            )
            sink = ResultSink(store)
            campaign = FleetDigest(worst=TopK(k=fleet.top_k))
            wall = busy = 0.0
            shards = retried = 0
            for wave_start, wave_stop in plan_waves(fleet.size,
                                                    stages=spec.stages):
                jobs = [
                    FleetShardJob(
                        f"{fleet.name}.{TAG_NEW}.{wave_start + lo}-"
                        f"{wave_start + hi}",
                        fleet, wave_start + lo, wave_start + hi, tag=TAG_NEW,
                    )
                    for lo, hi in plan_shards(wave_stop - wave_start,
                                              spec.shard_size)
                ]
                t0 = perf_counter()
                store.load()
                report = executor.run_jobs(
                    jobs, master_seed=fleet.master_seed, context=snapshots,
                    on_result=sink,
                )
                store.flush()
                wall += perf_counter() - t0
                if report.failed:
                    raise OutputMismatch(f"{report.failed} pooled shards failed")
                busy += sum(result.elapsed for result in report.results)
                shards += len(jobs)
                retried += report.retried
                wave = FleetDigest(worst=TopK(k=fleet.top_k))
                for value in report.values:
                    wave.merge(value)
                campaign.merge(wave)
            restarts = executor.supervisor.restarts.value
        finally:
            executor.close()
        if campaign.to_json() != expected:
            raise OutputMismatch("pooled checkpointed campaign digest differs "
                                 "from the traced campaign digest")
        idle = WORKERS * wall - busy
        ledger.values.update({
            "exec.busy_ratio": busy / (WORKERS * wall) if wall else 0.0,
            "exec.idle_s": idle,
            "exec.shards": float(shards),
            "exec.result_bytes_per_shard": _mean(sink.result_bytes),
            "exec.pickle_us_per_shard": _mean(sink.pickle_seconds) * 1e6,
            "exec.retried": float(retried),
            "exec.supervisor_restarts": float(restarts),
            "exec.checkpoint_records": float(store.written),
            "exec.checkpoint_ms_per_record": (
                sum(sink.store_seconds) / store.written * 1e3
                if store.written else 0.0
            ),
        })
        # worker-seconds the pool spent not simulating, per vehicle, on
        # top of the serial per-vehicle cost the trace measured
        per_vehicle = max(0.0, idle) / fleet.size
        ledger.seconds["exec"] += per_vehicle * ledger.items
        ledger.wall += per_vehicle * ledger.items

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None


class ResultSink:
    """``on_result`` hook of the traced pool pass: sizes each shard's
    pickled result and persists it, timing both."""

    def __init__(self, store: CheckpointStore) -> None:
        self.store = store
        self.result_bytes: List[float] = []
        self.pickle_seconds: List[float] = []
        self.store_seconds: List[float] = []

    def __call__(self, result) -> None:
        t0 = perf_counter()
        blob = pickle.dumps(result.value, pickle.HIGHEST_PROTOCOL)
        t1 = perf_counter()
        self.store.add(result.job_id, (result.value, result.digest))
        t2 = perf_counter()
        self.result_bytes.append(float(len(blob)))
        self.pickle_seconds.append(t1 - t0)
        self.store_seconds.append(t2 - t1)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class FleetSoak(Workload):
    """Long soaks of one streamed fleet, inline, no checkpoint.

    Same code as the rollout, used the other way: ~800 kernel events per
    vehicle, so kernel and ``osal`` callbacks dominate and restore is a
    few percent.  A restore or pool gain must show no change here.
    """

    name = "fleet_soak"
    soak_time = 2.0

    def __init__(self, seed: int, size: Dict[str, int], workdir: str) -> None:
        super().__init__(seed, size, workdir)
        self.fleet = FleetSpec(name="soak", size=1_000_000,
                               soak_time=self.soak_time, master_seed=seed)
        self.snapshots = None

    def _range(self, index: int) -> Tuple[int, int]:
        return index * self.batch_size, (index + 1) * self.batch_size

    def setup(self) -> float:
        start = perf_counter()
        self.snapshots = build_fleet_snapshots(self.fleet, tags=(TAG_OLD,))
        return perf_counter() - start

    def run_batch(self, index: int) -> Tuple[int, object, float]:
        if self.snapshots is None:
            self.setup()
        start, stop = self._range(index)
        began = perf_counter()
        run = run_fleet(self.fleet, snapshots=self.snapshots,
                        start=start, stop=stop)
        elapsed = perf_counter() - began
        if run.vehicles != stop - start:
            raise OutputMismatch(f"batch {index} simulated {run.vehicles} "
                                 f"of {stop - start} vehicles")
        return stop - start, run.digest_json, elapsed

    def reference(self, index: int) -> object:
        """Every vehicle rebuilt instead of forked, in one shard."""
        start, stop = self._range(index)
        return run_fleet(self.fleet, fork=False, start=start, stop=stop,
                         shard_size=stop - start).digest_json

    def trace(self, ledger: Ledger) -> List[object]:
        start = perf_counter()
        snapshots = build_fleet_snapshots(self.fleet, tags=(TAG_OLD,))
        ledger.span("fleet.snapshots", "fleet", perf_counter() - start)
        ledger.wall += perf_counter() - start
        ledger.values["sim.snapshot_kib"] = _snapshot_kib(snapshots)
        digests = []
        for index in range(self.trace_batches):
            lo, hi = self._range(index)
            start = perf_counter()
            batch = FleetDigest(worst=TopK(k=self.fleet.top_k))
            for s_lo, s_hi in get_inline_executor().plan_shards(hi - lo):
                shard = trace_vehicles(ledger, self.fleet, TAG_OLD, snapshots,
                                       lo + s_lo, lo + s_hi)
                _timed_merge(ledger, batch, shard)
            ledger.wall += perf_counter() - start
            digests.append(batch.to_json())
            profile_vehicles(ledger, self.fleet, TAG_OLD, snapshots, lo, hi)
        return digests


# -- chaos campaign ----------------------------------------------------------

#: ECU crash, backbone outage, frame drops, overrun and clock drift on the
#: 3-node redundant ring (the fault-soak scenario, frozen for this suite)
CHAOS_PLAN = FaultPlan(
    name="soak",
    faults=(
        FaultSpec(kind="ecu_crash", target="platform_0", start=0.1, duration=0.15),
        FaultSpec(kind="bus_outage", target="eth_backbone", start=0.05,
                  duration=0.08),
        FaultSpec(
            kind="frame_drop", target="eth_ring", start=0.06,
            duration=0.04, probability=0.5, count=3, period=0.12, jitter=0.01,
        ),
        FaultSpec(
            kind="task_overrun", target="platform_1", start=0.2,
            duration=0.1, magnitude=0.5,
        ),
        FaultSpec(
            kind="clock_drift", target="platform_1", start=0.3,
            duration=0.1, magnitude=0.01,
        ),
    ),
)

CHAOS_SPEC = FaultCampaignSpec(plan=CHAOS_PLAN, soak_time=0.5, settle_time=0.05)


def _outcomes_json(outcomes) -> list:
    return [dataclasses.asdict(outcome) for outcome in outcomes]


class ChaosCampaign(Workload):
    """Forked chaos replications on the redundant ring, inline.

    The paper's uncertainty-management loop: TSN egress, RPC retry and
    timeout, redundancy failover and fault hooks.  The only workload
    where ``core`` and the fault injector do real work.
    """

    name = "chaos_campaign"

    def setup(self) -> float:
        """The base world a campaign builds before its first replication."""
        start = perf_counter()
        build_campaign_snapshot(CHAOS_SPEC)
        return perf_counter() - start

    def run_batch(self, index: int) -> Tuple[int, object, float]:
        start = perf_counter()
        result = run_fault_campaign(
            CHAOS_SPEC, replications=self.batch_size,
            master_seed=batch_seed(self.seed, self.name, index),
        )
        elapsed = perf_counter() - start
        if len(result.outcomes) != self.batch_size:
            raise OutputMismatch(f"batch {index} returned "
                                 f"{len(result.outcomes)} outcomes")
        return self.batch_size, _outcomes_json(result.outcomes), elapsed

    def reference(self, index: int) -> object:
        """Every replication rebuilt from scratch instead of forked."""
        return _outcomes_json(run_fault_campaign(
            CHAOS_SPEC, replications=self.batch_size,
            master_seed=batch_seed(self.seed, self.name, index), fork=False,
        ).outcomes)

    def trace(self, ledger: Ledger) -> List[object]:
        digests = []
        snapshot = None
        for index in range(self.trace_batches):
            master = batch_seed(self.seed, self.name, index)
            start = perf_counter()
            snapshot = build_campaign_snapshot(CHAOS_SPEC)
            ledger.span("faults.snapshot", "faults", perf_counter() - start)
            outcomes = []
            job_digests = []
            for rep in range(self.batch_size):
                outcome, job_digest = self._trace_replication(
                    ledger, snapshot, master, rep)
                outcomes.append(outcome)
                job_digests.append(job_digest)
            t0 = perf_counter()
            merge_digests(job_digests, jobs=len(job_digests), failed=0,
                          retried=0)
            ledger.span("obs.merge", "obs", perf_counter() - t0)
            ledger.wall += perf_counter() - start
            digests.append(_outcomes_json(outcomes))
            for rep in range(self.batch_size):
                self._profile_replication(ledger, snapshot, master, rep)
            for outcome in outcomes:
                ledger.count("rpc_calls", outcome.rpc_calls)
                ledger.count("rpc_successes", outcome.rpc_successes)
                ledger.count("rpc_retries", outcome.rpc_retries)
        ledger.values["sim.snapshot_kib"] = len(snapshot.to_bytes()) / 1024.0
        return digests

    @staticmethod
    def _rng(master: int, rep: int):
        job_id = f"faults.rep{rep}"
        seed = derive_job_seed(master, job_id)
        return job_id, JobContext(job_id=job_id, seed=seed, attempt=0,
                                  metrics=MetricsRegistry()).rng()

    def _trace_replication(self, ledger: Ledger, snapshot, master: int,
                           rep: int):
        """Re-drive :class:`repro.faults.campaign.ForkedFaultCampaignJob`."""
        t0 = perf_counter()
        job_id, rng = self._rng(master, rep)
        t1 = perf_counter()
        sim = snapshot.restore()
        base = sim.world["chaos"]
        t2 = perf_counter()
        start_chaos_workload(sim, base, CHAOS_SPEC, rng)
        t3 = perf_counter()
        sim.run(until=sim.now + CHAOS_SPEC.soak_time)
        t4 = perf_counter()
        outcome = campaign_outcome(job_id, base)
        t5 = perf_counter()
        registry = MetricsRegistry()
        registry.absorb(sim.metrics)
        job_digest = {"metrics": registry.snapshot()}
        t6 = perf_counter()
        ledger.span("faults.seed", "faults", t1 - t0)
        ledger.span("sim.restore", "sim", t2 - t1)
        ledger.span("faults.arm", "faults", t3 - t2)
        ledger.run(t4 - t3)
        ledger.span("faults.outcome", "faults", t5 - t4)
        ledger.span("obs.collect", "obs", t6 - t5)
        ledger.item(t6 - t0)
        return outcome, job_digest

    def _profile_replication(self, ledger: Ledger, snapshot, master: int,
                             rep: int) -> None:
        _, rng = self._rng(master, rep)
        sim = snapshot.restore()
        base = sim.world["chaos"]
        start_chaos_workload(sim, base, CHAOS_SPEC, rng)
        sim.profiler = ledger.profiler
        sim.run(until=sim.now + CHAOS_SPEC.soak_time)
        sim.profiler = None
        platform = base["platform"]
        _count_network(ledger, sim, platform.network,
                       _platform_endpoints(platform))


# -- comms under a backbone outage -------------------------------------------

#: one traffic round every 5 ms of simulated time
COMMS_PERIOD = 0.005
#: flow phase offsets are drawn from [0, PHASE_SPREAD); staying below half
#: a period keeps every send clear of the outage boundaries
PHASE_SPREAD = 0.001
#: payload sizes vary by +-10 % around the nominal flow sizes
SIZE_JITTER = 0.1

#: (src, dst, service, type, nominal payload bytes, qos) — CAN-segmented
#: sensor fan-in, bulk camera samples, cross-CAN commands, a FlexRay brake
#: request and an intra-cluster FlexRay notification
FLOWS = (
    ("sensor1", "fusion", 0x100, MessageType.NOTIFICATION, 48,
     QoS(priority=0x120)),
    ("cam", "fusion", 0x200, MessageType.STREAM_SAMPLE, 3000, QOS_BULK),
    ("fusion", "actuator1", 0x300, MessageType.REQUEST, 24,
     QoS(priority=0x340)),
    ("sensor2", "actuator2", 0x101, MessageType.NOTIFICATION, 16,
     QoS(priority=0x210)),
    ("fusion", "brake1", 0x400, MessageType.REQUEST, 8, QOS_CONTROL),
    ("brake2", "brake1", 0x401, MessageType.NOTIFICATION, 12,
     QoS(priority=0x500)),
)
#: the camera sits on the backbone alone, so it pauses during the outage
CAMERA_FLOW = 1
ENDPOINTS = ("sensor1", "sensor2", "actuator1", "actuator2", "brake1",
             "brake2", "cam", "fusion")


def comms_topology() -> Topology:
    """Mixed CAN / FlexRay / Ethernet vehicle with a redundant ring.

    Two CAN legs joined to an Ethernet backbone through gateways, one
    FlexRay chassis cluster, and a second Ethernet segment giving every
    gateway a redundant channel, so failing the backbone reroutes
    traffic without partitioning the vehicle.
    """
    topo = Topology("suite-comms")
    topo.add_bus(BusSpec("can_front", "can", 500_000.0))
    topo.add_bus(BusSpec("can_rear", "can", 500_000.0))
    topo.add_bus(BusSpec("flexray_chassis", "flexray", 10_000_000.0))
    topo.add_bus(BusSpec("eth_backbone", "ethernet", 100e6))
    topo.add_bus(BusSpec("eth_ring", "ethernet", 100e6))
    eth2 = (("eth0", "ethernet"), ("eth1", "ethernet"))
    for name in ("sensor1", "sensor2", "actuator1", "actuator2"):
        topo.add_ecu(EcuSpec(name, ports=(("can0", "can"),)))
    for name in ("brake1", "brake2"):
        topo.add_ecu(EcuSpec(name, ports=(("fr0", "flexray"),)))
    topo.add_ecu(EcuSpec("cam", ports=(("eth0", "ethernet"),)))
    topo.add_ecu(EcuSpec("fusion", ports=eth2))
    topo.add_ecu(EcuSpec("gw_front", ports=(("can0", "can"),) + eth2))
    topo.add_ecu(EcuSpec("gw_rear", ports=(("can0", "can"),) + eth2))
    topo.add_ecu(EcuSpec("gw_chassis", ports=(("fr0", "flexray"),) + eth2))
    for ecu in ("sensor1", "sensor2", "gw_front"):
        topo.attach(ecu, "can0", "can_front")
    for ecu in ("actuator1", "actuator2", "gw_rear"):
        topo.attach(ecu, "can0", "can_rear")
    for ecu in ("brake1", "brake2", "gw_chassis"):
        topo.attach(ecu, "fr0", "flexray_chassis")
    for ecu in ("gw_front", "gw_rear", "gw_chassis", "fusion"):
        topo.attach(ecu, "eth0", "eth_backbone")
        topo.attach(ecu, "eth1", "eth_ring")
    topo.attach("cam", "eth0", "eth_backbone")
    return topo


class FlowDriver:
    """Self-rescheduling periodic sender of one flow.

    One pending event per flow instead of every round pre-scheduled, and
    callback style, so a world holding drivers can be snapshotted.
    """

    #: ledger layer of this harness callback: the public call it wraps
    LAYER = "middleware"

    def __init__(self, sim: Simulator, endpoint: Endpoint, dst: str,
                 service_id: int, msg_type: MessageType, payload_bytes: int,
                 qos: QoS, rounds: int, skip: Tuple[int, int]) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.dst = dst
        self.service_id = service_id
        self.msg_type = msg_type
        self.payload_bytes = payload_bytes
        self.qos = qos
        self.rounds = rounds
        self.skip = skip
        self.round = 0

    def start(self, offset: float) -> None:
        self.sim.post(offset, self._tick)

    def _tick(self) -> None:
        if not self.skip[0] <= self.round < self.skip[1]:
            self.send()
        self.round += 1
        if self.round < self.rounds:
            self.sim.post(COMMS_PERIOD, self._tick)

    def send(self) -> None:
        self.endpoint.send(
            Message(
                service_id=self.service_id, method_id=1,
                msg_type=self.msg_type, payload_bytes=self.payload_bytes,
                src=self.endpoint.ecu_name, dst=self.dst,
                session_id=self.sim.next_session_id(),
            ),
            self.qos,
        )


class TimedFlowDriver(FlowDriver):
    """Flow driver that times each ``Endpoint.send`` into a ledger."""

    def __init__(self, *args, ledger: Ledger) -> None:
        super().__init__(*args)
        self.ledger = ledger

    def send(self) -> None:
        start = perf_counter()
        super().send()
        self.ledger.sample("middleware.send", perf_counter() - start)


def build_comms_endpoints(sim: Simulator, network: VehicleNetwork
                          ) -> Dict[str, Endpoint]:
    registry = ServiceRegistry()
    endpoints = {name: Endpoint(sim, network, name, registry)
                 for name in ENDPOINTS}
    sim.adopt("comms_endpoints", endpoints)
    return endpoints


def start_comms_flows(sim: Simulator, network: VehicleNetwork,
                      endpoints: Dict[str, Endpoint], seed: int, rounds: int,
                      driver=FlowDriver) -> int:
    """Arm every flow and the backbone outage; returns the message count.

    Payload sizes and phase offsets come from ``RngStreams(seed)``; the
    backbone is down for the middle half of the rounds, offset half a
    period from the round boundaries so the failure never ties a send.
    """
    rng = RngStreams(seed)
    fail_round, repair_round = rounds // 4, (3 * rounds) // 4
    for index, (src, dst, service, msg_type, size, qos) in enumerate(FLOWS):
        payload = max(1, round(size * rng.uniform(
            f"flow{index}.size", 1.0 - SIZE_JITTER, 1.0 + SIZE_JITTER)))
        offset = rng.uniform(f"flow{index}.phase", 0.0, PHASE_SPREAD)
        skip = (fail_round, repair_round) if index == CAMERA_FLOW else (0, 0)
        driver(sim, endpoints[src], dst, service, msg_type, payload, qos,
               rounds, skip).start(offset)
    half = COMMS_PERIOD / 2
    sim.at(fail_round * COMMS_PERIOD - half, network.fail_bus, "eth_backbone")
    sim.at(repair_round * COMMS_PERIOD - half, network.repair_bus,
           "eth_backbone")
    return len(FLOWS) * rounds - (repair_round - fail_round)


def comms_digest(sim: Simulator, expected_messages: int) -> object:
    """Traffic counters of a finished comms world, after conservation
    checks: every scheduled message was sent and every one delivered."""
    network = sim.world["network"]
    endpoints = sim.world["comms_endpoints"]
    sent = sum(ep.messages_sent for ep in endpoints.values())
    received = sum(ep.messages_received for ep in endpoints.values())
    if sent != expected_messages or received != sent:
        raise OutputMismatch(f"comms world sent {sent} / received {received} "
                             f"of {expected_messages} scheduled messages")
    return {
        "endpoints": {
            name: [ep.messages_sent, ep.messages_received, ep.frames_discarded]
            for name, ep in endpoints.items()
        },
        "buses": {
            name: [bus.frames_delivered, bus.bytes_delivered,
                   bus.frames_dropped]
            for name, bus in network.buses.items()
        },
        "arbitration_losses": {
            name: bus.arbitration_losses
            for name, bus in network.buses.items() if isinstance(bus, CanBus)
        },
    }


class CommsOutage(Workload):
    """Mixed CAN/FlexRay/Ethernet SOA traffic with the backbone failed for
    the middle half of each batch.  One simulator per batch, no pool, no
    snapshot: ``network`` and ``middleware`` send dominate."""

    name = "comms_outage"

    def _build(self, index: int, *, driver=FlowDriver, **sim_kwargs):
        sim = Simulator(**sim_kwargs)
        network = VehicleNetwork(sim, comms_topology())
        endpoints = build_comms_endpoints(sim, network)
        messages = start_comms_flows(
            sim, network, endpoints, batch_seed(self.seed, self.name, index),
            self.batch_size, driver,
        )
        return sim, messages

    def setup(self) -> float:
        """Topology, network, endpoints and flow drivers of one world."""
        start = perf_counter()
        self._build(0)
        return perf_counter() - start

    def run_batch(self, index: int) -> Tuple[int, object, float]:
        sim, messages = self._build(index)
        start = perf_counter()
        sim.run()
        elapsed = perf_counter() - start
        return messages, comms_digest(sim, messages), elapsed

    def reference(self, index: int) -> object:
        """The same batch run from a restored snapshot of its world."""
        sim, messages = self._build(index)
        restored = sim.snapshot().restore()
        restored.run()
        return comms_digest(restored, messages)

    def trace(self, ledger: Ledger) -> List[object]:
        digests = []
        for index in range(self.trace_batches):
            start = perf_counter()
            sim = Simulator()
            network = VehicleNetwork(sim, comms_topology())
            t1 = perf_counter()
            endpoints = build_comms_endpoints(sim, network)
            messages = start_comms_flows(
                sim, network, endpoints,
                batch_seed(self.seed, self.name, index), self.batch_size,
                partial(TimedFlowDriver, ledger=ledger),
            )
            t2 = perf_counter()
            ledger.span("network.build", "network", t1 - start)
            ledger.span("middleware.build", "middleware", t2 - t1)
            # one run() per round gives a per-round host time; the item
            # count of a round is the messages its flows sent
            for rnd in range(self.batch_size):
                sent_before = self._sent(endpoints)
                t0 = perf_counter()
                sim.run(until=(rnd + 1) * COMMS_PERIOD)
                elapsed = perf_counter() - t0
                ledger.run(elapsed)
                ledger.item(elapsed, self._sent(endpoints) - sent_before)
            t0 = perf_counter()
            sim.run()
            ledger.run(perf_counter() - t0)
            ledger.wall += perf_counter() - start
            digests.append(comms_digest(sim, messages))
            profiled, _ = self._build(index, profiler=ledger.profiler)
            profiled.run()
            # route-cache counters need metrics, which the measured world
            # runs without: count on a third, unprofiled world
            counted, _ = self._build(index, metrics=MetricsRegistry())
            counted.run()
            _count_network(ledger, counted, counted.world["network"],
                           counted.world["comms_endpoints"].values())
        return digests

    @staticmethod
    def _sent(endpoints: Dict[str, Endpoint]) -> int:
        return sum(ep.messages_sent for ep in endpoints.values())


#: every workload, in catalogue order
WORKLOADS = {
    cls.name: cls
    for cls in (FleetRollout, FleetSoak, ChaosCampaign, CommsOutage)
}
