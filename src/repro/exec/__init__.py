"""Deterministic parallel experiment execution.

The paper's workloads are embarrassingly parallel at the experiment
level — DSE candidate evaluations (Section 2.3), fleet-campaign
replications (Section 3.4) and XiL scenario batteries (Section 2.4) are
all independent simulation runs.  This package fans them out across
worker processes without ever changing results:

* :class:`SimJob` — a picklable spec that builds a fresh simulator in a
  worker and returns a picklable result (optionally carrying a
  ``cost_hint`` to prime the chunk cost model);
* :class:`ParallelExecutor` — a persistent warm worker pool with
  cost-model chunking, overlapped dispatch/collection, per-job seed
  derivation, one supervision rule (a worker whose pipe hits EOF or
  whose heartbeat stops is killed, respawned and its chunk re-queued),
  one attempt budget per job, and merged :mod:`repro.obs` batch
  reports; build one, :meth:`~ParallelExecutor.warm_up` it and pass it
  to every campaign so they share one warm pool;
* :func:`get_inline_executor` — the process-wide ``workers=1``
  executor that serial fallback paths share;
* :func:`derive_job_seed` — the seed contract that makes parallel runs
  byte-identical to serial ones;
* :mod:`repro.exec.recovery` — the campaign spine every campaign runs
  on (one strict batch runner, ``run_campaign_jobs``; one replication
  job; one resume entry, :func:`resume_campaign`, over the kind
  registry), durable checkpoints of sharded campaigns
  (:class:`CheckpointSpec`) and the seeded executor chaos harness
  (:class:`ExecChaos`) that proves recovery under worker kills and
  injected crashes.
"""

from ..jobs import (
    BatchReport,
    FunctionJob,
    JobContext,
    JobResult,
    SimJob,
    derive_item_seed,
    derive_job_seed,
)
from .pool import (
    ParallelExecutor,
    PoolSupervisor,
    get_inline_executor,
    plan_shards,
)
from .recovery import (
    CheckpointCrash,
    CheckpointSpec,
    CheckpointStore,
    ExecChaos,
    FaultPoints,
    load_manifest,
    resume_campaign,
)

__all__ = [
    "BatchReport",
    "CheckpointCrash",
    "CheckpointSpec",
    "CheckpointStore",
    "ExecChaos",
    "FaultPoints",
    "FunctionJob",
    "JobContext",
    "JobResult",
    "ParallelExecutor",
    "PoolSupervisor",
    "SimJob",
    "derive_item_seed",
    "derive_job_seed",
    "get_inline_executor",
    "load_manifest",
    "plan_shards",
    "resume_campaign",
]
