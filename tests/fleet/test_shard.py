"""``run_fleet`` edge cases outside the determinism matrix."""

from repro.fleet import FleetDigest, FleetSpec, TopK, run_fleet

SPEC = FleetSpec(name="e", size=4, soak_time=0.02, master_seed=1, top_k=3)


def test_empty_range_returns_the_non_empty_shape():
    run = run_fleet(SPEC, start=2, stop=2)
    empty = FleetDigest(worst=TopK(k=SPEC.top_k))
    assert (run.shards, run.vehicles) == (0, 0)
    assert run.digest.worst.k == SPEC.top_k
    assert run.digest_json == empty.to_json()
    # same keys as a non-empty run's digest, so callers never special-case
    assert run.digest_json.keys() == run_fleet(
        SPEC, start=0, stop=1).digest_json.keys()
