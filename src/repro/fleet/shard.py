"""Sharded per-vehicle simulation with streaming reduction.

One :class:`FleetShardJob` simulates a contiguous index range of the
fleet — forking each vehicle from the variant's snapshotted base world —
and folds every outcome into one :class:`~repro.fleet.summary.FleetDigest`
before returning.  Per-vehicle state never leaves the worker: the wire
carries O(1) bytes per shard, and the campaign merges digests
shard → wave → campaign.

Determinism contract: a vehicle's variant and seed derive from the
campaign's ``master_seed`` and the vehicle's **global** index (via
:func:`repro.exec.derive_item_seed`), never from the shard id, worker or
``JobContext`` seed — so any shard size × worker count × fork/rebuild
combination produces byte-identical digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exec.pool import get_inline_executor
from ..exec.recovery import run_campaign_jobs
from ..faults.injector import FaultInjector
from ..faults.report import ResilienceReport, build_resilience_report
from ..faults.spec import FaultPlan, FaultSpec
from ..jobs import JobContext, SimJob, derive_item_seed
from ..model.applications import AppModel
from ..osal.task import TaskSpec
from ..sim import Simulator
from .summary import FleetDigest, TopK
from .variants import (
    VARIANT_TABLE,
    VehicleVariant,
    build_vehicle_world,
    variant_of,
)

#: rollout tags: the version a vehicle runs during its soak
TAG_OLD = "old"
TAG_NEW = "new"

#: calibrated per-vehicle wall-clock estimate (seconds) for the cost model
VEHICLE_COST_HINT = 0.002


@dataclass(frozen=True)
class FleetSpec:
    """Picklable description of a simulated fleet and its two versions.

    ``regression_overrun`` > 0 arms the halt demo: the *new* version's
    task stretches its execution by that factor on every activation, so
    rolling it out floods the wave digest with deadline misses.
    """

    name: str = "fleet"
    size: int = 1000
    master_seed: int = 0
    #: simulated seconds each vehicle runs under observation
    soak_time: float = 0.1
    period: float = 0.005
    deadline: float = 0.004
    wcet: float = 0.001
    new_wcet: float = 0.001
    #: baseline uncertainty: fraction of activations stretched +50 %
    overrun_probability: float = 0.25
    #: rare heavy spike (activation stretched 41x) — the tail that makes
    #: some vehicles miss deadlines even on a healthy version
    spike_probability: float = 0.01
    spike_magnitude: float = 40.0
    #: >0 → the new version overruns every activation by this stretch
    regression_overrun: float = 0.0
    top_k: int = 8
    variant_table: Tuple[VehicleVariant, ...] = VARIANT_TABLE


def app_for(spec: FleetSpec, tag: str) -> AppModel:
    """The app model a vehicle runs under rollout ``tag``."""
    if tag == TAG_OLD:
        version, wcet, suffix = (1, 0), spec.wcet, ""
    elif tag == TAG_NEW:
        version, wcet, suffix = (2, 0), spec.new_wcet, "_v2"
    else:
        raise ValueError(f"unknown rollout tag {tag!r}")
    return AppModel(
        name="fleet_fn",
        tasks=(TaskSpec(
            name=f"fleet_loop{suffix}", period=spec.period, wcet=wcet,
            deadline=spec.deadline,
        ),),
        memory_kib=64, image_kib=128, version=version,
    )


def vehicle_plan(spec: FleetSpec, tag: str) -> FaultPlan:
    """The per-vehicle fault plan modelling field uncertainty.

    All windows are permanent over the soak; which activations are
    actually perturbed comes from the vehicle's own seeded streams, so
    every vehicle draws a different trajectory from the same plan.
    """
    faults: List[FaultSpec] = []
    if spec.overrun_probability > 0:
        faults.append(FaultSpec(
            kind="task_overrun", target="vecu", start=0.0, duration=0.0,
            magnitude=0.5, probability=spec.overrun_probability,
        ))
    if spec.spike_probability > 0:
        faults.append(FaultSpec(
            kind="task_overrun", target="vecu", start=0.0, duration=0.0,
            magnitude=spec.spike_magnitude,
            probability=spec.spike_probability,
        ))
    if tag == TAG_NEW and spec.regression_overrun > 0:
        faults.append(FaultSpec(
            kind="task_overrun", target="vecu", start=0.0, duration=0.0,
            magnitude=spec.regression_overrun, probability=1.0,
        ))
    return FaultPlan(name=f"fleet.{tag}", faults=tuple(faults))


def build_fleet_snapshots(
    spec: FleetSpec, tags: Tuple[str, ...] = (TAG_OLD, TAG_NEW)
) -> Dict[Tuple[int, str], object]:
    """One snapshotted base world per (variant, rollout tag).

    The whole map is shipped to each worker once as shared context;
    every vehicle then forks its variant's world instead of rebuilding.
    """
    snapshots: Dict[Tuple[int, str], object] = {}
    for variant in spec.variant_table:
        for tag in tags:
            sim = build_vehicle_world(variant, app_for(spec, tag))
            snapshots[(variant.variant_id, tag)] = sim.snapshot()
    return snapshots


def simulate_vehicle(
    spec: FleetSpec,
    index: int,
    tag: str,
    snapshots: Optional[Dict[Tuple[int, str], object]] = None,
) -> Tuple[VehicleVariant, int, int, Tuple, Optional[ResilienceReport]]:
    """Simulate one vehicle's soak; returns its digest contribution.

    With ``snapshots`` the variant's base world is forked (one C-speed
    unpickle); without, it is rebuilt from scratch — byte-identical
    either way because :func:`build_vehicle_world` is RNG-free.
    """
    variant = variant_of(spec.master_seed, index, spec.variant_table)
    seed = derive_item_seed(spec.master_seed, f"{spec.name}:{tag}", index)
    if snapshots is not None:
        sim: Simulator = snapshots[(variant.variant_id, tag)].restore()
        platform = sim.world["fleet_vehicle"]["platform"]
    else:
        sim = build_vehicle_world(variant, app_for(spec, tag))
        platform = sim.world["fleet_vehicle"]["platform"]
    plan = vehicle_plan(spec, tag)
    injector = None
    if plan.faults:
        injector = FaultInjector(sim, plan, seed, platform=platform).arm()
    sim.run(until=sim.now + spec.soak_time)
    releases = 0
    misses = 0
    histograms = []
    # read-only lookups: a core that never missed keeps its reserved zero
    lookup = sim.metrics.lookup
    for node_name in sorted(platform.nodes):
        for core in platform.nodes[node_name].cores:
            releases += int(lookup("counter", "os.releases", core=core.name).value)
            misses += int(
                lookup("counter", "os.deadline_misses", core=core.name).value
            )
            histograms.append(lookup("histogram", "os.response", core=core.name))
    report = (
        build_resilience_report(injector=injector)
        if injector is not None else None
    )
    return variant, releases, misses, tuple(histograms), report


class FleetShardJob(SimJob):
    """Simulate vehicles ``[start, stop)`` and return one merged digest.

    Each vehicle forks its variant's world from the snapshot map in
    ``ctx.shared`` when one is set, and rebuilds it otherwise.
    """

    def __init__(
        self,
        job_id: str,
        spec: FleetSpec,
        start: int,
        stop: int,
        tag: str = TAG_OLD,
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        self.start = start
        self.stop = stop
        self.tag = tag
        self.cost_hint = (stop - start) * VEHICLE_COST_HINT

    def run(self, ctx: JobContext) -> FleetDigest:
        snapshots = ctx.shared
        digest = FleetDigest(worst=TopK(k=self.spec.top_k))
        for index in range(self.start, self.stop):
            variant, releases, misses, histograms, report = simulate_vehicle(
                self.spec, index, self.tag, snapshots
            )
            digest.observe_vehicle(
                index, variant.variant_id, releases, misses, histograms,
                report,
            )
        return digest


def shard_jobs(
    spec: FleetSpec,
    start: int,
    stop: int,
    tag: str,
    *,
    executor,
    shard_size: Optional[int] = None,
) -> List[FleetShardJob]:
    """The shard jobs covering vehicles ``[start, stop)`` under ``tag``.

    Without ``shard_size`` the executor's default size applies.  Job ids
    name the global vehicle range, so they double as checkpoint keys.
    """
    return [
        FleetShardJob(
            job_id=f"{spec.name}.{tag}.{start + lo}-{start + hi}",
            spec=spec, start=start + lo, stop=start + hi, tag=tag,
        )
        for lo, hi in executor.plan_shards(stop - start,
                                           shard_size=shard_size)
    ]


@dataclass
class FleetRunResult:
    """Outcome of one sharded fleet run (a single tag, no waves)."""

    digest: FleetDigest
    shards: int
    vehicles: int
    digest_json: Dict[str, object] = field(default_factory=dict)


def run_fleet(
    spec: FleetSpec,
    *,
    executor=None,
    fork: bool = True,
    tag: str = TAG_OLD,
    shard_size: Optional[int] = None,
    snapshots: Optional[Dict[Tuple[int, str], object]] = None,
    start: int = 0,
    stop: Optional[int] = None,
    store=None,
) -> FleetRunResult:
    """Simulate vehicles ``[start, stop)`` sharded over ``executor``.

    The workhorse behind both the benchmark and the campaign service.
    Returns the merged digest; per-vehicle results never accumulate
    anywhere.

    ``store`` (a :class:`repro.exec.recovery.CheckpointStore`) makes the
    run durable: shard digests already recorded are loaded instead of
    re-simulated, fresh ones are persisted as they complete.  Shard job
    ids name the **global vehicle range** (``fleet.new.100-150``), so
    records from different waves of one campaign never collide in a
    shared store — and because vehicle seeds derive from global indices,
    a loaded digest is byte-identical to what recomputation would yield.
    """
    if executor is None:
        executor = get_inline_executor()
    if stop is None:
        stop = spec.size
    count = stop - start
    digest = FleetDigest(worst=TopK(k=spec.top_k))
    if count <= 0:
        return FleetRunResult(digest=digest, shards=0, vehicles=0,
                              digest_json=digest.to_json())
    if fork and snapshots is None:
        snapshots = build_fleet_snapshots(spec, tags=(tag,))
    jobs = shard_jobs(spec, start, stop, tag, executor=executor,
                      shard_size=shard_size)
    report = run_campaign_jobs(
        jobs, executor=executor, master_seed=spec.master_seed,
        context=snapshots if fork else None, store=store, error=RuntimeError,
        what="fleet shards",
    )
    for shard_digest in report.values:
        digest.merge(shard_digest)
    return FleetRunResult(
        digest=digest, shards=len(jobs), vehicles=digest.vehicles,
        digest_json=digest.to_json(),
    )
