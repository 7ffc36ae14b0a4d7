"""Multi-replication campaign sweeps on the :mod:`repro.exec` spine.

A sweep replays one :class:`~repro.core.campaign.CampaignSpec` rollout N
times, each replication drawing its own target-wcet jitter, so it
explores the uncertainty band around the nominal update instead of one
trajectory.  The fleet base (deploy plus settle) is built by
:func:`~repro.core.campaign.build_fleet_base`, and each replication runs
:func:`~repro.core.campaign.replicate_rollout` on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.campaign import (
    CampaignOutcome,
    CampaignSpec,
    build_fleet_base,
    replicate_rollout,
)
from ..errors import UpdateError
from ..exec.pool import ParallelExecutor
from ..exec.recovery import (
    KINDS,
    ReplicationJob,
    ReplicationKind,
    run_replications,
)

#: the sweep as a spine kind: job ids ``campaign.rep{i}``, checkpoints
#: of kind ``campaign_sweep``
SWEEP = ReplicationKind(
    name="campaign_sweep", prefix="campaign", world="campaign",
    build_base=build_fleet_base, replicate=replicate_rollout,
    error=UpdateError,
)


class CampaignJob(ReplicationJob):
    """One sweep replication (forks ``ctx.shared`` when set, else rebuilds)."""

    def __init__(self, job_id: str, spec: CampaignSpec) -> None:
        super().__init__(SWEEP, job_id, spec)


@dataclass
class SweepResult:
    """Aggregate outcome of a multi-replication campaign sweep."""

    outcomes: List[CampaignOutcome]
    digest: Dict

    @property
    def aborted_count(self) -> int:
        return sum(1 for o in self.outcomes if o.aborted)

    @property
    def completed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.completed)


def sweep_campaigns(
    spec: CampaignSpec,
    *,
    replications: int,
    executor: Optional[ParallelExecutor] = None,
    master_seed: Optional[int] = None,
    fork: bool = True,
    checkpoint=None,
) -> SweepResult:
    """Run ``replications`` independent campaign replications.

    With an executor the replications fan out across its warm worker
    pool; without one they run inline through the shared serial
    executor.  Either way, replication ``i`` is seeded from
    ``master_seed`` (defaulting to the executor's own master seed when
    one is given, else ``0``) and its id alone, so the outcome list is
    byte-identical for any worker count.

    With ``fork=True`` (the default) the deployed-and-settled fleet is
    built once, snapshotted and forked per replication instead of being
    rebuilt in every job — same outcomes, a fraction of the time.
    ``fork=False`` keeps the rebuild path for equivalence checks.

    ``checkpoint`` (a :class:`repro.exec.recovery.CheckpointSpec`)
    persists each completed replication atomically; an interrupted
    sweep resumes via :func:`repro.exec.recovery.resume_campaign`,
    re-running only the missing replications with their original seeds.
    """
    report = run_replications(
        SWEEP, spec, replications=replications, executor=executor,
        master_seed=master_seed, fork=fork, checkpoint=checkpoint,
    )
    return SweepResult(outcomes=report.values, digest=report.merged_digest())


def _rerun(plan, **options) -> SweepResult:
    spec, replications, master_seed = plan
    return sweep_campaigns(spec, replications=replications,
                           master_seed=master_seed, **options)


KINDS[SWEEP.name] = _rerun
