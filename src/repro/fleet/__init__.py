"""Fleet-scale campaign backend: sharded simulation, mergeable digests.

The paper's OEM backend monitors a fleet and stages OTA rollouts.  This
package makes that tractable at 10^5–10^6 vehicles:

* :mod:`repro.fleet.variants` — deterministic per-vehicle variants and
  RNG-free base worlds, snapshotted once per (variant, version);
* :mod:`repro.fleet.shard` — contiguous vehicle shards simulated over
  the warm executor, each reduced to one constant-size digest;
* :mod:`repro.fleet.summary` — the exact, commutative merge algebra
  (error-free sums, streaming histograms, bounded top-K) that keeps
  campaign memory O(shards) and digests byte-identical under any shard
  layout;
* :mod:`repro.fleet.service` — staged canary → cohort → fleet waves with
  digest-gated halt/rollback, plus admission control over the shared
  pool; checkpointed campaigns survive harness crashes and resume with
  byte-identical digests (:func:`repro.exec.resume_campaign`);
* :mod:`repro.fleet.sweep` — multi-replication sweeps of one
  :class:`~repro.core.campaign.CampaignSpec` rollout
  (:func:`sweep_campaigns`, :func:`resume_sweep`).
"""

from .service import (
    CampaignAdmission,
    FleetCampaign,
    FleetCampaignResult,
    FleetCampaignSpec,
    FleetService,
    WaveOutcome,
    run_fleet_campaign,
)
from .shard import (
    TAG_NEW,
    TAG_OLD,
    FleetShardJob,
    FleetSpec,
    build_fleet_snapshots,
    run_fleet,
    simulate_vehicle,
)
from .summary import FleetDigest, StatSummary, TopK, merge_digests
from .sweep import CampaignJob, SweepResult, resume_sweep, sweep_campaigns
from .variants import (
    VARIANT_TABLE,
    VehicleVariant,
    build_vehicle_world,
    variant_of,
)

__all__ = [
    "CampaignAdmission",
    "CampaignJob",
    "FleetCampaign",
    "FleetCampaignResult",
    "FleetCampaignSpec",
    "FleetDigest",
    "FleetService",
    "FleetShardJob",
    "FleetSpec",
    "StatSummary",
    "SweepResult",
    "TAG_NEW",
    "TAG_OLD",
    "TopK",
    "VARIANT_TABLE",
    "VehicleVariant",
    "WaveOutcome",
    "build_fleet_snapshots",
    "build_vehicle_world",
    "merge_digests",
    "resume_sweep",
    "run_fleet",
    "run_fleet_campaign",
    "simulate_vehicle",
    "sweep_campaigns",
    "variant_of",
]
