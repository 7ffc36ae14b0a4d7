"""Fault campaigns: sweepable chaos experiments via :mod:`repro.exec`.

A :class:`FaultCampaignSpec` describes one replicable chaos scenario: a
redundant platform, a replicated control service under heartbeat
supervision, an RPC client hammering that service with retries and
circuit breaking — and a :class:`~repro.faults.spec.FaultPlan` injected
on top.  :func:`run_fault_campaign` fans N replications out through a
:class:`~repro.exec.pool.ParallelExecutor`; each replication's RNG is
derived from the campaign master seed and the replication id alone, so
the outcome list is byte-identical for any worker count (serial ≡
parallel), which the test suite and the CI fault-soak job assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import ExecutionError
from ..exec.recovery import (
    KINDS,
    ReplicationKind,
    base_snapshot,
    run_replications,
)
from ..hw.catalog import platform_computer
from ..hw.topology import BusSpec, Topology
from ..middleware.endpoint import QOS_CONTROL
from ..middleware.paradigms import RetryPolicy, RpcClient, RpcServer
from ..model.applications import AppModel
from ..osal.task import TaskSpec
from ..security.crypto import TrustStore
from ..security.package import build_package
from ..sim import Simulator
from .injector import FaultInjector, TimelineEvent
from .report import build_resilience_report
from .spec import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.redundancy import RedundancyManager
    from ..exec.pool import ParallelExecutor


def redundant_ring_topology(n_platforms: int = 3) -> Topology:
    """``n_platforms`` platform computers on *two* Ethernet segments.

    Every computer attaches ``eth0`` to the backbone and ``eth1`` to a
    second ring segment, so a single bus outage always leaves a detour —
    the precondition for exercising reroute-under-failure scenarios.
    """
    if n_platforms < 2:
        raise ExecutionError("a redundant ring needs at least two platforms")
    topo = Topology("redundant_ring")
    backbone = topo.add_bus(
        BusSpec("eth_backbone", "ethernet", 1_000_000_000.0, tsn_capable=True)
    )
    ring = topo.add_bus(
        BusSpec("eth_ring", "ethernet", 100_000_000.0, tsn_capable=True)
    )
    for i in range(n_platforms):
        pc = platform_computer(f"platform_{i}")
        topo.add_ecu(pc)
        topo.attach(pc.name, "eth0", backbone.name)
        topo.attach(pc.name, "eth1", ring.name)
    return topo


@dataclass(frozen=True)
class FaultCampaignSpec:
    """Picklable description of one chaos-scenario replication."""

    plan: FaultPlan
    n_nodes: int = 3
    replicas: int = 2
    soak_time: float = 0.5
    heartbeat_period: float = 0.005
    app_name: str = "ctl"
    task_period: float = 0.01
    task_wcet: float = 0.001
    service_id: int = 0x500
    rpc_period: float = 0.01
    rpc_timeout: float = 0.02
    retry: Optional[RetryPolicy] = RetryPolicy(max_attempts=3, backoff=0.005)
    breaker_threshold: int = 0  # 0 disables circuit breaking
    breaker_reset: float = 0.05
    # fault-free warm-up under heartbeats/supervision before the workload
    # arms; part of the shared base, so fork-per-replication pays it once
    settle_time: float = 0.0

    def __post_init__(self) -> None:
        if self.n_nodes < 2 or not 1 <= self.replicas <= self.n_nodes:
            raise ExecutionError(
                "campaign needs >= 2 nodes and 1 <= replicas <= nodes"
            )
        if self.soak_time <= 0:
            raise ExecutionError("campaign soak time must be positive")
        if self.settle_time < 0:
            raise ExecutionError("campaign settle time must be >= 0")


@dataclass(frozen=True)
class FaultCampaignOutcome:
    """Picklable, bitwise-comparable summary of one replication.

    Deliberately excludes process-global identifiers (frame ids, session
    ids): those depend on what else ran in the worker process before this
    job, which would break the serial ≡ parallel guarantee.
    """

    replication: str
    timeline: Tuple[TimelineEvent, ...]
    failovers: int
    interruptions: Tuple[float, ...]
    rpc_calls: int
    rpc_successes: int
    rpc_timeouts: int
    rpc_retries: int
    rpc_failures: int
    rpc_fastfails: int
    breakers_opened: int
    frames_dropped: int
    frames_corrupted: int
    frames_delayed: int

    @property
    def success_ratio(self) -> float:
        return self.rpc_successes / self.rpc_calls if self.rpc_calls else 0.0


def _ctl_app(spec: FaultCampaignSpec) -> AppModel:
    return AppModel(
        name=spec.app_name,
        tasks=(
            TaskSpec(
                name=f"{spec.app_name}_loop",
                period=spec.task_period,
                wcet=spec.task_wcet,
            ),
        ),
        memory_kib=64,
        image_kib=128,
    )


def _pong(request) -> Tuple[str, int]:
    """The chaos service's only method (module-level: must pickle with a
    snapshotted world, which a lambda would not)."""
    return ("pong", 8)


class ChaosCaller:
    """The RPC hammering loop, in snapshot-safe callback style.

    Mirrors the event pattern of the previous generator process exactly —
    start event at the current instant, issue/await/count/re-arm — but
    with bound methods instead of a suspended frame, so a mid-soak
    snapshot copies the loop (successes counter included) cleanly.
    """

    def __init__(self, sim: Simulator, client: RpcClient, spec: FaultCampaignSpec) -> None:
        self.sim = sim
        self.client = client
        self.spec = spec
        self.successes = 0

    def start(self) -> None:
        self.sim.post(0.0, self._issue)

    def _issue(self) -> None:
        result = self.client.call(
            1,
            payload_bytes=32,
            qos=QOS_CONTROL,
            timeout=self.spec.rpc_timeout,
            retry=self.spec.retry,
        )
        result.add_callback(self._on_response)

    def _on_response(self, response) -> None:
        if isinstance(response, BaseException):
            raise response  # the generator version crashed here too
        if response is not None:
            self.successes += 1
        self.sim.post(self.spec.rpc_period, self._issue)


def build_chaos_base(sim: Simulator, spec: FaultCampaignSpec) -> Dict[str, object]:
    """Assemble the warmed-up, fault-free part of the chaos scenario.

    Everything here is deterministic and RNG-free: platform, installs,
    settle run, RPC servers, redundancy supervision and the client.  The
    returned dict is registered under ``sim.world["chaos"]``, so a world
    forked after this call can retrieve *its own copies* of every handle
    — the basis of fork-per-replication campaigns.
    """
    from ..core.platform import DynamicPlatform
    from ..core.redundancy import RedundancyManager

    store = TrustStore()
    store.generate_key("oem")
    platform = DynamicPlatform(
        sim, redundant_ring_topology(spec.n_nodes), trust_store=store
    )
    # campaigns read aggregate outcomes, never the per-job history; a
    # bounded window keeps the base world (and its snapshot) the same
    # size no matter how long it settles or soaks
    for node in platform.nodes.values():
        for core in node.cores:
            core.job_history_limit = 16
    if spec.breaker_threshold > 0:
        platform.registry.configure_breakers(
            failure_threshold=spec.breaker_threshold,
            reset_timeout=spec.breaker_reset,
        )
    app = _ctl_app(spec)
    replica_nodes = [f"platform_{i}" for i in range(spec.replicas)]
    for node in replica_nodes:
        platform.install(build_package(app, store, "oem"), node)
    sim.run()  # let install verification settle before deployment

    # one RPC server per replica node; the registry's single offer entry
    # is (re)pointed at the primary by the redundancy manager
    servers = []
    for node in replica_nodes:
        server = RpcServer(
            platform.nodes[node].endpoint,
            spec.service_id,
            provider_app=spec.app_name,
        )
        server.register_method(1, _pong)
        servers.append(server)

    manager = RedundancyManager(
        platform, heartbeat_period=spec.heartbeat_period
    )
    manager.deploy(
        spec.app_name, replica_nodes, service_id=spec.service_id
    )

    client_node = f"platform_{spec.n_nodes - 1}"
    client = RpcClient(
        platform.nodes[client_node].endpoint,
        spec.service_id,
        client_app="chaos_client",
    )
    base: Dict[str, object] = {
        "platform": platform,
        "manager": manager,
        "servers": servers,
        "client": client,
    }
    sim.adopt("chaos", base)
    if spec.settle_time > 0:
        # warm up heartbeats and supervision fault-free; deterministic,
        # so it belongs to the base every replication shares
        sim.run(until=sim.now + spec.settle_time)
    return base


def start_chaos_workload(
    sim: Simulator, base: Dict[str, object], spec: FaultCampaignSpec, rng
) -> Dict[str, object]:
    """Arm the per-replication part: the RPC caller and the fault plan.

    This is the only RNG-consuming stage, so it runs *after* a fork —
    each replication forks the shared base world and arms its own
    injector with its own derived streams.
    """
    caller = ChaosCaller(sim, base["client"], spec)
    caller.start()
    injector = FaultInjector(sim, spec.plan, rng, platform=base["platform"])
    injector.arm()
    base["caller"] = caller
    base["injector"] = injector
    return base


def build_chaos_scenario(
    sim: Simulator, spec: FaultCampaignSpec, rng
) -> Dict[str, object]:
    """Assemble the full chaos scenario on ``sim`` (base + workload).

    Shared by the examples and the chaos-soak tests, so every consumer
    exercises the identical scenario.
    """
    return start_chaos_workload(sim, build_chaos_base(sim, spec), spec, rng)


def campaign_outcome(
    replication: str, scenario: Dict[str, object]
) -> FaultCampaignOutcome:
    """Condense a finished scenario into its picklable outcome."""
    platform = scenario["platform"]
    manager: "RedundancyManager" = scenario["manager"]
    client: RpcClient = scenario["client"]
    injector: FaultInjector = scenario["injector"]
    failovers = manager.all_failovers()
    buses = platform.network.buses.values()
    return FaultCampaignOutcome(
        replication=replication,
        timeline=tuple(injector.timeline),
        failovers=len(failovers),
        interruptions=tuple(f.interruption for f in failovers),
        rpc_calls=client.calls_made,
        rpc_successes=scenario["caller"].successes,
        rpc_timeouts=client.timeouts,
        rpc_retries=client.retries,
        rpc_failures=client.failures,
        rpc_fastfails=client.breaker_fastfails,
        breakers_opened=platform.registry.breakers_opened(),
        frames_dropped=sum(b.frames_dropped for b in buses),
        frames_corrupted=sum(b.frames_corrupted for b in buses),
        frames_delayed=sum(b.frames_delayed for b in buses),
    )


def replicate_chaos(
    sim: Simulator,
    base: Dict[str, object],
    spec: FaultCampaignSpec,
    job_id: str,
    rng,
) -> FaultCampaignOutcome:
    """One chaos replication on a built base: arm, soak, condense.

    Counts into ``sim.metrics``, which on a fork is the forked world's
    registry — the job folds it into its still-empty registry afterwards.
    """
    start_chaos_workload(sim, base, spec, rng)
    sim.run(until=sim.now + spec.soak_time)
    outcome = campaign_outcome(job_id, base)
    sim.metrics.counter("faults.campaign.failovers").inc(outcome.failovers)
    sim.metrics.counter("faults.campaign.rpc_failures").inc(
        outcome.rpc_failures
    )
    return outcome


#: the chaos campaign as a spine kind: job ids ``faults.rep{i}``,
#: checkpoints of kind ``fault_campaign``
CHAOS = ReplicationKind(
    name="fault_campaign", prefix="faults", world="chaos",
    build_base=build_chaos_base, replicate=replicate_chaos,
    error=ExecutionError,
)


def build_campaign_snapshot(spec: FaultCampaignSpec):
    """Build the chaos base once and return its reusable snapshot."""
    return base_snapshot(CHAOS, spec)


@dataclass
class FaultCampaignResult:
    """Aggregate outcome of a multi-replication fault campaign."""

    outcomes: List[FaultCampaignOutcome]
    digest: Dict = field(default_factory=dict)

    def worst_interruption(self) -> float:
        worst = 0.0
        for outcome in self.outcomes:
            if outcome.interruptions:
                worst = max(worst, max(outcome.interruptions))
        return worst

    def total_timeline_events(self) -> int:
        return sum(len(o.timeline) for o in self.outcomes)


def run_fault_campaign(
    spec: FaultCampaignSpec,
    *,
    replications: int,
    executor: Optional["ParallelExecutor"] = None,
    master_seed: Optional[int] = None,
    fork: bool = True,
    checkpoint=None,
) -> FaultCampaignResult:
    """Run ``replications`` independent chaos replications.

    With an executor the replications fan out across worker processes;
    without one they run inline.  Replication ``i`` draws all fault
    randomness from a seed derived from the master seed and the job id
    ``faults.rep{i}`` alone, so outcomes are byte-identical for any
    worker count and completion order.

    With ``fork=True`` (the default) the deterministic base world is
    built once, snapshotted, and forked per replication instead of being
    rebuilt from scratch in every job — same outcomes, a fraction of the
    time.  ``fork=False`` keeps the rebuild path (used by tests and the
    snapshot benchmark to prove the equivalence).

    ``checkpoint`` (a :class:`repro.exec.recovery.CheckpointSpec`)
    persists each completed replication atomically; an interrupted
    campaign resumes via :func:`repro.exec.recovery.resume_campaign`,
    re-running only the missing replications with their original seeds.
    """
    report = run_replications(
        CHAOS, spec, replications=replications, executor=executor,
        master_seed=master_seed, fork=fork, checkpoint=checkpoint,
    )
    return FaultCampaignResult(
        outcomes=report.values, digest=report.merged_digest()
    )


def _rerun(plan, **options) -> FaultCampaignResult:
    spec, replications, master_seed = plan
    return run_fault_campaign(spec, replications=replications,
                              master_seed=master_seed, **options)


KINDS[CHAOS.name] = _rerun


__all__ = [
    "ChaosCaller",
    "FaultCampaignOutcome",
    "FaultCampaignResult",
    "FaultCampaignSpec",
    "build_campaign_snapshot",
    "build_chaos_base",
    "build_chaos_scenario",
    "build_resilience_report",
    "campaign_outcome",
    "redundant_ring_topology",
    "run_fault_campaign",
    "start_chaos_workload",
]
