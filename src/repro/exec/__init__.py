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
  derivation, per-chunk deadlines with surgical single-worker rebuild,
  bounded retry, and merged :mod:`repro.obs` batch reports;
* :func:`warm_executor` / :func:`get_inline_executor` — process-wide
  shared executors so call sites reuse one warm pool across campaigns
  instead of paying spawn/import per call;
* :func:`derive_job_seed` — the seed contract that makes parallel runs
  byte-identical to serial ones;
* :mod:`repro.exec.recovery` — the campaign spine every campaign runs
  on (its shared job tail, one replication job and the resume
  registry), durable checkpoint/resume of sharded campaigns
  (:class:`CheckpointSpec`, :func:`resume_campaign`) and the seeded
  executor chaos harness (:class:`ExecChaos`) that proves recovery
  under worker kills and injected crashes.
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
    warm_executor,
)
from .recovery import (
    CheckpointCrash,
    CheckpointSpec,
    CheckpointStore,
    ExecChaos,
    FaultPoints,
    load_manifest,
    resume_campaign,
    run_jobs_checkpointed,
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
    "run_jobs_checkpointed",
    "warm_executor",
]
