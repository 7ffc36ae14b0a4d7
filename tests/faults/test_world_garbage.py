"""Cyclic-garbage budget of a dead forked world.

A forked world is cyclic, so the cyclic collector frees it, and the
collector's share of a campaign grows with the number of objects each
fork rebuilds.  Restoring fewer objects is the lever (DESIGN.md,
"Dead-world teardown does not pay"): interned metric identities, shared
zero entries for instruments a world never uses, slotted scheduling
policies and no empty per-core containers.  These budgets keep it that
way, counted in two places:

* per forked replication of the benchmark suite's chaos spec (the
  redundant ring, 24 cores of which 2 run jobs), through the campaign
  spine's own job: restore, arm, soak, collect into the job registry;
* per restored ``fleet_soak`` vehicle (2 s soak), through
  :func:`repro.fleet.shard.simulate_vehicle`.

The count is every object the collector finds unreachable after one
item, under ``gc.DEBUG_SAVEALL`` with automatic collection paused for
the item, so no collection in between untracks or frees part of it.
Counts read on CPython 3.11: chaos 1,354 and fleet 323 before the cut,
699 and 253 after.  Interpreters that keep an instance's attribute dict
as a separate object even when nothing asked for it (3.9, 3.10) count
about 38 (chaos) and 23 (fleet) more.
"""

import gc
import statistics

from repro.exec.recovery import ReplicationJob
from repro.faults import FaultPlan, FaultSpec
from repro.faults.campaign import (
    CHAOS,
    FaultCampaignSpec,
    build_campaign_snapshot,
)
from repro.fleet import TAG_OLD, FleetSpec, build_fleet_snapshots
from repro.fleet.shard import simulate_vehicle
from repro.jobs import JobContext, derive_job_seed
from repro.middleware import endpoint
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry
from repro.osal import core

#: cyclic garbage one chaos replication may leave (1,354 before the cut)
CHAOS_GARBAGE_CEILING = 800
#: cyclic garbage one fleet_soak vehicle may leave (323 before the cut)
FLEET_GARBAGE_CEILING = 290

ITEMS = 5

#: the benchmark suite's chaos scenario (``benchmarks/suite``)
CHAOS_SPEC = FaultCampaignSpec(
    plan=FaultPlan(
        name="soak",
        faults=(
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.1,
                      duration=0.15),
            FaultSpec(kind="bus_outage", target="eth_backbone", start=0.05,
                      duration=0.08),
            FaultSpec(
                kind="frame_drop", target="eth_ring", start=0.06,
                duration=0.04, probability=0.5, count=3, period=0.12,
                jitter=0.01,
            ),
            FaultSpec(
                kind="task_overrun", target="platform_1", start=0.2,
                duration=0.1, magnitude=0.5,
            ),
            FaultSpec(
                kind="clock_drift", target="platform_1", start=0.3,
                duration=0.1, magnitude=0.01,
            ),
        ),
    ),
    soak_time=0.5,
    settle_time=0.05,
)

#: the benchmark suite's fleet_soak fleet
SOAK_FLEET = FleetSpec(name="soak", size=1_000_000, soak_time=2.0,
                       master_seed=0)


def cyclic_garbage(item, n):
    """Mean count of objects the cyclic collector finds dead after each
    of ``item(0) .. item(n - 1)``; the ``gc`` state is restored after."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    counts = []
    try:
        for index in range(n):
            gc.set_debug(debug & ~gc.DEBUG_SAVEALL)
            gc.collect()
            start = len(gc.garbage)
            gc.disable()
            gc.set_debug(debug | gc.DEBUG_SAVEALL)
            item(index)
            gc.collect()
            counts.append(len(gc.garbage) - start)
            del gc.garbage[start:]
    finally:
        gc.set_debug(debug)
        if enabled:
            gc.enable()
        else:
            gc.disable()
    return statistics.mean(counts)


def chaos_replication(snapshot):
    def item(index):
        job_id = f"faults.rep{index}"
        ctx = JobContext(job_id=job_id, seed=derive_job_seed(0, job_id),
                         attempt=0, metrics=MetricsRegistry(),
                         shared=snapshot)
        ReplicationJob(CHAOS, job_id, CHAOS_SPEC).run(ctx)
        ctx.metrics.snapshot()
    return item


def test_chaos_replication_garbage_budget():
    snapshot = build_campaign_snapshot(CHAOS_SPEC)
    item = chaos_replication(snapshot)
    item(ITEMS)  # warm every lazily built process-wide table
    garbage = cyclic_garbage(item, ITEMS)
    assert garbage <= CHAOS_GARBAGE_CEILING, (
        f"a chaos replication left {garbage:.1f} cyclic-garbage objects "
        f"(ceiling {CHAOS_GARBAGE_CEILING})")


def test_fleet_soak_vehicle_garbage_budget():
    snapshots = build_fleet_snapshots(SOAK_FLEET, tags=(TAG_OLD,))
    simulate_vehicle(SOAK_FLEET, ITEMS, TAG_OLD, snapshots)
    garbage = cyclic_garbage(
        lambda index: simulate_vehicle(SOAK_FLEET, index, TAG_OLD, snapshots),
        ITEMS)
    assert garbage <= FLEET_GARBAGE_CEILING, (
        f"a fleet_soak vehicle left {garbage:.1f} cyclic-garbage objects "
        f"(ceiling {FLEET_GARBAGE_CEILING})")


def intern_table_sizes():
    return {
        "identities": len(metrics._IDENTITIES),
        "zeros": len(metrics._ZEROS),
        "full_names": len(metrics._FULL_NAMES),
        "core_keys": len(core._CORE_KEYS),
        "endpoint_keys": len(endpoint._ENDPOINT_KEYS),
    }


def test_intern_tables_stay_bounded_over_1000_restores():
    """The process-wide identity tables grow with distinct identities,
    never with the number of worlds restored and collected."""
    snapshot = build_campaign_snapshot(CHAOS_SPEC)
    chaos_replication(snapshot)(0)
    snapshot.restore().metrics.snapshot()
    sizes = intern_table_sizes()
    for _ in range(999):
        snapshot.restore().metrics.snapshot()
    assert intern_table_sizes() == sizes


def test_counting_restores_the_gc_state():
    enabled, debug = gc.isenabled(), gc.get_debug()
    garbage = len(gc.garbage)

    def cycle(_index):
        node = []
        node.append(node)

    assert cyclic_garbage(cycle, 3) == 1
    assert (gc.isenabled(), gc.get_debug()) == (enabled, debug)
    assert len(gc.garbage) == garbage
