"""Tracing observes a fleet vehicle; it never changes what the vehicle does.

The OSAL records ``os.release`` / ``os.done`` only when the tracer is
enabled, so the digest of a vehicle must be byte-identical with tracing
off and on, and the traced entries must account for every release and
completion the core's metrics counted.
"""

import json

from repro.fleet import FleetSpec
from repro.fleet.shard import TAG_OLD, app_for, simulate_vehicle
from repro.fleet.summary import FleetDigest, TopK
from repro.fleet.variants import build_vehicle_world

#: heavy spikes so the traced vehicle also misses deadlines
SPEC = FleetSpec(name="traced", size=1, soak_time=0.5, master_seed=0,
                 spike_probability=0.2)

RELEASE_FIELDS = {"core", "task", "job", "deadline"}
DONE_FIELDS = {"core", "task", "job", "response", "missed", "jitter"}


class _KeepWorlds:
    """Snapshot stand-in that remembers every world it restores."""

    def __init__(self, snapshot):
        self.snapshot = snapshot
        self.worlds = []

    def restore(self):
        sim = self.snapshot.restore()
        self.worlds.append(sim)
        return sim


def simulate(traced):
    snapshots = {}
    for variant in SPEC.variant_table:
        sim = build_vehicle_world(variant, app_for(SPEC, TAG_OLD))
        sim.tracer.enabled = traced
        snapshots[(variant.variant_id, TAG_OLD)] = _KeepWorlds(sim.snapshot())
    variant, releases, misses, histograms, report = simulate_vehicle(
        SPEC, 0, TAG_OLD, snapshots
    )
    digest = FleetDigest(worst=TopK(k=SPEC.top_k))
    digest.observe_vehicle(0, variant.variant_id, releases, misses,
                           histograms, report)
    (sim,) = snapshots[(variant.variant_id, TAG_OLD)].worlds
    return sim, digest


def test_tracing_never_changes_the_digest():
    plain_sim, plain = simulate(traced=False)
    traced_sim, traced = simulate(traced=True)
    assert len(plain_sim.tracer) == 0
    assert json.dumps(traced.to_json(), sort_keys=True) == json.dumps(
        plain.to_json(), sort_keys=True
    )
    assert traced.deadline_misses > 0


def test_traced_entries_match_core_counts():
    sim, _digest = simulate(traced=True)
    (node,) = sim.world["fleet_vehicle"]["platform"].nodes.values()
    for core in node.cores:
        releases = sim.metrics.counter("os.releases", core=core.name).value
        completions = sim.metrics.histogram("os.response", core=core.name).count
        misses = sim.metrics.counter("os.deadline_misses", core=core.name).value
        released = sim.tracer.select("os.release", core=core.name)
        done = sim.tracer.select("os.done", core=core.name)
        assert len(released) == releases > 0
        assert len(done) == completions > 0
        assert sum(entry["missed"] for entry in done) == misses
        assert all(set(entry.fields) == RELEASE_FIELDS for entry in released)
        assert all(set(entry.fields) == DONE_FIELDS for entry in done)
