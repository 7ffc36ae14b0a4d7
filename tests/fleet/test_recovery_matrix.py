"""Resume-equivalence matrix: a campaign killed at *any* checkpoint
boundary — shard, wave, mid-wave, mid-rollback — must resume to a
campaign digest byte-identical to an uninterrupted run, across
shard-size × worker-count layouts.

Also pins the skip property (resume recomputes only missing shards) and
the resume path of the other two campaign kinds (fault campaigns and
campaign sweeps).
"""

import json

import pytest

from repro.core.campaign import CampaignSpec
from repro.exec import ParallelExecutor
from repro.exec.recovery import (
    CheckpointCrash,
    CheckpointSpec,
    FaultPoints,
    load_manifest,
    resume_campaign,
)
from repro.faults import FaultPlan, FaultSpec
from repro.faults.campaign import (
    FaultCampaignSpec,
    resume_fault_campaign,
    run_fault_campaign,
)
from repro.fleet import (
    FleetCampaign,
    FleetCampaignSpec,
    FleetSpec,
    resume_sweep,
    run_fleet_campaign,
    sweep_campaigns,
)


def fleet_spec(shard_size, *, regression=0.0):
    return FleetCampaignSpec(
        fleet=FleetSpec(
            name="rec", size=24, soak_time=0.02, master_seed=13,
            regression_overrun=regression,
        ),
        stages=(0.25, 0.5, 1.0),
        shard_size=shard_size,
    )


def canonical(digest):
    return json.dumps(digest, sort_keys=True)


@pytest.fixture(scope="module")
def pool():
    ex = ParallelExecutor(workers=2, shutdown_grace=0.3)
    yield ex
    ex.close()


@pytest.fixture(scope="module")
def reference_digest():
    """Uninterrupted baseline — layout-proof, so one digest serves every
    shard-size × worker combination."""
    return canonical(run_fleet_campaign(fleet_spec(3)).campaign_digest)


class TestResumeMatrix:
    @pytest.mark.parametrize("shard_size", [3, 5])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("crash_after", [0, 3, 6])
    def test_kill_at_any_boundary_resumes_byte_identical(
        self, tmp_path, pool, reference_digest, shard_size, workers,
        crash_after,
    ):
        spec = fleet_spec(shard_size)
        executor = pool if workers == 2 else None
        directory = str(tmp_path / "ckpt")
        fp = FaultPoints().arm("checkpoint.record_written",
                               after=crash_after)
        campaign = FleetCampaign(
            spec, executor=executor,
            checkpoint=CheckpointSpec(directory), fault_points=fp,
        )
        try:
            campaign.run()
            crashed = False  # crash point beyond the shard count
        except CheckpointCrash:
            crashed = True
        result = resume_campaign(directory, executor=executor)
        assert not result.halted
        assert result.vehicles_updated == 24
        assert canonical(result.campaign_digest) == reference_digest
        if crash_after < 6 or shard_size == 3:
            assert crashed, "fault point never fired — matrix too small"

    def test_resume_skips_completed_shards(self, tmp_path, monkeypatch):
        """After a crash with k shards durable, resume simulates only
        the vehicles of the missing shards."""
        from repro.fleet import shard as shard_mod

        spec = fleet_spec(3)  # waves 6/6/12 -> shards 2/2/4 of 3 vehicles
        directory = str(tmp_path / "ckpt")
        fp = FaultPoints().arm("checkpoint.record_written", after=3)
        with pytest.raises(CheckpointCrash):
            FleetCampaign(
                spec, checkpoint=CheckpointSpec(directory), fault_points=fp,
            ).run()
        reference = canonical(run_fleet_campaign(fleet_spec(3)).campaign_digest)
        # 4 records durable (the crash fires after the 4th rename) -> 12
        # of 24 vehicles are already on disk
        simulated = []
        real = shard_mod.simulate_vehicle

        def counting(spec_, index, tag, snapshots=None):
            simulated.append((index, tag))
            return real(spec_, index, tag, snapshots)

        monkeypatch.setattr(shard_mod, "simulate_vehicle", counting)
        result = resume_campaign(directory)
        assert canonical(result.campaign_digest) == reference
        assert len(simulated) == 12, (
            f"resume resimulated {len(simulated)} vehicles, expected 12"
        )

    def test_crash_during_rollback_resumes_halt_and_rollback(
        self, tmp_path
    ):
        """A halted campaign killed mid-rollback must resume to the same
        halted, rolled-back state and digest."""
        spec = fleet_spec(3, regression=30.0)
        reference = run_fleet_campaign(spec)
        assert reference.halted and reference.rolled_back
        directory = str(tmp_path / "ckpt")
        # wave 1 = 6 vehicles = 2 new-tag shards; the 3rd record is the
        # first rollback (old-tag) shard — crash right after it
        fp = FaultPoints().arm("checkpoint.record_written", after=2)
        with pytest.raises(CheckpointCrash):
            FleetCampaign(
                spec, checkpoint=CheckpointSpec(directory), fault_points=fp,
            ).run()
        result = resume_campaign(directory)
        assert result.halted and result.rolled_back
        assert result.vehicles_updated == reference.vehicles_updated
        assert canonical(result.campaign_digest) == canonical(
            reference.campaign_digest
        )
        assert [w.tag for w in result.waves] == [
            w.tag for w in reference.waves
        ]

    def test_every_n_shards_batching_still_resumes_exactly(self, tmp_path):
        """Coarser flush granularity widens the recompute window but
        never changes the resumed digest."""
        spec = fleet_spec(3)
        reference = canonical(run_fleet_campaign(spec).campaign_digest)
        directory = str(tmp_path / "ckpt")
        fp = FaultPoints().arm("checkpoint.flush", after=1)
        with pytest.raises(CheckpointCrash):
            FleetCampaign(
                spec, checkpoint=CheckpointSpec(directory, every_n_shards=2),
                fault_points=fp,
            ).run()
        result = resume_campaign(directory)
        assert canonical(result.campaign_digest) == reference

    def test_manifest_pins_the_campaign_kind(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        FleetCampaign(
            fleet_spec(5), checkpoint=CheckpointSpec(directory)
        ).run()
        manifest = load_manifest(directory)
        assert manifest["kind"] == "fleet_campaign"
        assert manifest["meta"]["every_n_shards"] == 1


CHAOS_PLAN = FaultPlan(
    name="rec",
    faults=(
        FaultSpec(kind="frame_drop", target="eth_backbone", start=0.02,
                  duration=0.1, probability=0.3),
    ),
)


class TestOtherCampaignKinds:
    def test_fault_campaign_crash_resume_equivalence(self, tmp_path):
        spec = FaultCampaignSpec(plan=CHAOS_PLAN, soak_time=0.15)
        reference = run_fault_campaign(spec, replications=4, master_seed=7)
        directory = str(tmp_path / "faults")
        fp = FaultPoints().arm("checkpoint.record_written", after=1)
        with pytest.raises(CheckpointCrash):
            run_fault_campaign(
                spec, replications=4, master_seed=7,
                checkpoint=CheckpointSpec(directory), fault_points=fp,
            )
        resumed = resume_fault_campaign(directory)
        assert resumed.outcomes == reference.outcomes
        assert resumed.digest["metrics"] == reference.digest["metrics"]
        assert load_manifest(directory)["kind"] == "fault_campaign"

    def test_sweep_crash_resume_equivalence(self, tmp_path):
        spec = CampaignSpec(fleet_size=2, soak_time=0.2, settle_time=0.1,
                            target_wcet=0.004, target_wcet_jitter=0.004,
                            target_deadline=0.002)
        reference = sweep_campaigns(spec, replications=3, master_seed=5)
        directory = str(tmp_path / "sweep")
        fp = FaultPoints().arm("checkpoint.record_written", after=0)
        with pytest.raises(CheckpointCrash):
            sweep_campaigns(
                spec, replications=3, master_seed=5,
                checkpoint=CheckpointSpec(directory), fault_points=fp,
            )
        resumed = resume_sweep(directory)
        assert resumed.outcomes == reference.outcomes
        assert resumed.digest["metrics"] == reference.digest["metrics"]
        assert load_manifest(directory)["kind"] == "campaign_sweep"
