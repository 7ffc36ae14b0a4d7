"""The fleet determinism matrix: shards × workers × fork are all identical.

The satellite contract from ISSUE 8: per-vehicle seeds and variants
derive from the campaign master seed and the vehicle's global index, so
shard boundaries, worker counts and the fork/rebuild choice must all be
invisible in the merged campaign digest — byte for byte.
"""

import json

import pytest

from repro.exec.pool import ParallelExecutor
from repro.fleet import (
    FleetCampaignSpec,
    FleetSpec,
    build_fleet_snapshots,
    run_fleet,
    run_fleet_campaign,
)

SPEC = FleetSpec(size=18, soak_time=0.03, master_seed=11)


def digest_bytes(result):
    return json.dumps(result.digest_json, sort_keys=True)


@pytest.fixture(scope="module")
def snapshots():
    return build_fleet_snapshots(SPEC, tags=("old",))


@pytest.fixture(scope="module")
def reference(snapshots):
    """Unsharded, serial, forked run — the baseline everyone must match."""
    return digest_bytes(
        run_fleet(SPEC, fork=True, snapshots=snapshots, shard_size=SPEC.size)
    )


class TestDeterminismMatrix:
    @pytest.mark.parametrize("shard_size", [1, 4, 7, 18])
    def test_shard_size_is_invisible(self, shard_size, snapshots, reference):
        run = run_fleet(
            SPEC, fork=True, snapshots=snapshots, shard_size=shard_size
        )
        assert digest_bytes(run) == reference

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shard_size", [5, 18])
    def test_worker_count_is_invisible(
        self, workers, shard_size, snapshots, reference
    ):
        executor = ParallelExecutor(workers=workers, master_seed=0)
        try:
            run = run_fleet(
                SPEC, executor=executor, fork=True, snapshots=snapshots,
                shard_size=shard_size,
            )
        finally:
            executor.close()
        assert digest_bytes(run) == reference

    @pytest.mark.parametrize("shard_size", [6, 18])
    def test_rebuild_path_is_identical(self, shard_size, reference):
        run = run_fleet(SPEC, fork=False, shard_size=shard_size)
        assert digest_bytes(run) == reference

    def test_executor_master_seed_is_irrelevant(self, snapshots, reference):
        """Outcomes bind to the spec's master seed, not the job seeds."""
        executor = ParallelExecutor(workers=1, master_seed=424242)
        try:
            run = run_fleet(
                SPEC, executor=executor, fork=True, snapshots=snapshots,
                shard_size=5,
            )
        finally:
            executor.close()
        assert digest_bytes(run) == reference

    def test_second_fleet_every_layout_matches_unsharded(self):
        """Another fleet, seed and soak: forked shards of 3 and 7, the
        unsharded rebuild and two workers over shards of 5 all equal the
        unsharded forked run."""
        spec = FleetSpec(name="bench", size=24, soak_time=0.05,
                         master_seed=20)
        snaps = build_fleet_snapshots(spec, tags=("old",))
        reference = digest_bytes(
            run_fleet(spec, snapshots=snaps, shard_size=24))
        runs = [run_fleet(spec, snapshots=snaps, shard_size=size)
                for size in (3, 7)]
        runs.append(run_fleet(spec, fork=False, shard_size=24))
        executor = ParallelExecutor(workers=2, master_seed=0)
        try:
            runs.append(run_fleet(spec, executor=executor, snapshots=snaps,
                                  shard_size=5))
        finally:
            executor.close()
        assert [digest_bytes(run) for run in runs] == [reference] * 4

    def test_master_seed_changes_outcomes(self, snapshots, reference):
        other = FleetSpec(size=18, soak_time=0.03, master_seed=12)
        run = run_fleet(other, fork=False, shard_size=18)
        assert digest_bytes(run) != reference


class TestCampaignDigestMatrix:
    def campaign_digest(self, **kwargs):
        spec = FleetCampaignSpec(
            fleet=FleetSpec(size=30, soak_time=0.03, master_seed=5),
            stages=(0.1, 0.5, 1.0),
            shard_size=kwargs.pop("shard_size", None),
        )
        result = run_fleet_campaign(spec, **kwargs)
        return json.dumps(result.campaign_digest, sort_keys=True)

    def test_campaign_digest_shard_and_fork_invariant(self):
        reference = self.campaign_digest(shard_size=30, fork=True)
        assert self.campaign_digest(shard_size=4, fork=True) == reference
        assert self.campaign_digest(shard_size=11, fork=False) == reference
