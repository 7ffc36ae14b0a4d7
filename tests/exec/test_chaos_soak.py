"""Chaos soak: a fleet campaign under continuous executor-level chaos
(random SIGKILLs and pipe EOFs), plus an injected checkpoint-write
crash, must resume to the byte-identical campaign digest of a clean run.

This is the end-to-end composition the recovery layer exists for: the
supervisor turns killed workers into re-dispatches, the checkpoint store
turns the crash into a skip-and-replay resume, and per-item seed
derivation makes both invisible to the digest.
"""

import json

import pytest

from repro.exec import ExecChaos, ParallelExecutor
from repro.exec.recovery import (
    CheckpointCrash,
    CheckpointSpec,
    resume_campaign,
)
from repro.fleet import FleetCampaign, FleetCampaignSpec, FleetSpec, run_fleet_campaign

SOAK_SPEC = FleetCampaignSpec(
    fleet=FleetSpec(name="soak", size=120, soak_time=0.01, master_seed=31),
    stages=(0.1, 0.4, 1.0),
    shard_size=4,
)


def chaotic_executor(seed):
    return ParallelExecutor(
        workers=2,
        chunk_size=1,
        retries=8,
        chaos=ExecChaos(seed=seed, kill_every=5, eof_every=7),
    )


@pytest.fixture(scope="module")
def clean_digest():
    return json.dumps(
        run_fleet_campaign(SOAK_SPEC).campaign_digest, sort_keys=True
    )


def test_chaos_soak_digest_survives_kills_eofs_and_crash(
    tmp_path, clean_digest, fault_points
):
    directory = str(tmp_path / "ckpt")
    # crash the checkpoint writer roughly 60% of the way through the
    # campaign's 32 shard records (12 + 8 rounding from the wave plan)
    fault_points.arm("checkpoint.record_written", after=17)
    ex = chaotic_executor(seed=11)
    try:
        with pytest.raises(CheckpointCrash):
            FleetCampaign(
                SOAK_SPEC,
                executor=ex,
                checkpoint=CheckpointSpec(directory),
            ).run()
        # the chaos harness actually did its job before the crash
        assert ex.chaos.kills > 0, "chaos never killed a worker"
    finally:
        ex.close()

    resume_ex = chaotic_executor(seed=12)
    try:
        result = resume_campaign(directory, executor=resume_ex)
    finally:
        resume_ex.close()

    assert not result.halted
    assert result.vehicles_updated == SOAK_SPEC.fleet.size
    assert (
        json.dumps(result.campaign_digest, sort_keys=True) == clean_digest
    ), "resumed-under-chaos digest diverged from the clean baseline"


def test_chaos_alone_matches_clean_run(clean_digest):
    """Without any checkpoint crash, a chaos-ridden run is still
    byte-identical to the clean baseline (supervision is invisible)."""
    ex = chaotic_executor(seed=21)
    try:
        result = run_fleet_campaign(SOAK_SPEC, executor=ex)
        assert ex.chaos.kills > 0 or ex.chaos.eofs > 0
        snapshot = ex.supervisor.snapshot()["counter"]
        assert snapshot["pool.supervisor.redispatches"]["value"] > 0
        assert snapshot["pool.supervisor.restarts"]["value"] > 0
    finally:
        ex.close()
    assert json.dumps(result.campaign_digest, sort_keys=True) == clean_digest


def test_sweep_digest_identical_inline_and_under_worker_loss():
    """Worker loss is harness recovery: it re-runs jobs but must not
    move a sweep's digest (its ``exec`` block included) by one byte."""
    from repro.core.campaign import CampaignSpec
    from repro.fleet import sweep_campaigns

    spec = CampaignSpec(fleet_size=8)
    inline = sweep_campaigns(spec, replications=12, master_seed=5)
    ex = ParallelExecutor(workers=2, retries=8,
                          chaos=ExecChaos(seed=3, kill_every=3))
    try:
        chaotic = sweep_campaigns(spec, replications=12, master_seed=5,
                                  executor=ex)
        assert ex.chaos.kills > 0, "chaos never killed a worker"
        assert ex.supervisor.redispatches.value > 0
    finally:
        ex.close()
    assert chaotic.outcomes == inline.outcomes
    assert (json.dumps(chaotic.digest, sort_keys=True)
            == json.dumps(inline.digest, sort_keys=True))
