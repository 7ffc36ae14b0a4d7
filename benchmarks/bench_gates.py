"""Timed gates: throughput floors and overhead ceilings, as pytest tests,
and two deterministic counts (heap pushes per soaked vehicle, Python
calls per soaked job).

Run with the rest of the experiment benchmarks::

    PYTHONPATH=src python -m pytest -q benchmarks --ignore=benchmarks/suite --benchmark-disable

Every bound below is a committed constant.  Floors were set at about a
quarter of the rate measured on a single-core host, then given a 10 %
margin, so a slower runner trips a gate only on a real regression.
Overheads compare two variants of one workload in one process with
:func:`min_ratio`, so the ratio isolates the code path from the host.
Gates that need parallel workers skip on a single-CPU host and say so.

The identity checks the same workloads used to carry (fork ≡ rebuild,
parallel ≡ serial, resumed ≡ clean, race freedom) are tier-1 tests under
``tests/``; this module only times.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
from time import perf_counter
from typing import Tuple

import pytest

import callcount
from repro.analysis import KernelSanitizer
from repro.exec import ExecChaos, ParallelExecutor, get_inline_executor
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.campaign import FaultCampaignSpec, build_chaos_base
from repro.fleet import (
    TAG_OLD,
    FleetCampaignSpec,
    FleetSpec,
    build_fleet_snapshots,
    run_fleet,
    run_fleet_campaign,
)
from repro.fleet.shard import simulate_vehicle
from repro.hw import BusSpec, EcuSpec, Topology
from repro.middleware import Endpoint, Message, MessageType, ServiceRegistry
from repro.network import VehicleNetwork
from repro.sim import EventQueue, Simulator

#: snapshot restores of the chaos base per second (committed floor 170.5)
FORKS_PER_SEC_FLOOR = 0.9 * 170.5
#: inline fleet vehicles per second (committed floor 204.0)
VEHICLES_PER_SEC_FLOOR = 0.9 * 204.0
#: wall-clock cost of worker kills and pipe EOFs over a clean pool run
REDISPATCH_OVERHEAD_CEILING = 0.15
#: peak-RSS growth allowed while the fleet grows by RSS_FLEET_GROWTH
RSS_GROWTH_CEILING = 2.0
RSS_FLEET_GROWTH = 100
#: peak-RSS growth allowed per vehicle of that larger fleet, in bytes
RSS_PER_VEHICLE_CEILING = 1024
#: cost of an attached kernel sanitizer on a message-heavy soak
SANITIZER_OVERHEAD_CEILING = 0.05
#: cost of an armed fault injector whose faults never open
IDLE_INJECTOR_OVERHEAD_CEILING = 0.05
#: EventQueue pushes per seed-0 ``fleet_soak`` vehicle, arming its
#: faults included, averaged over SOAK_VEHICLES vehicles.  One
#: push per kernel event reads ~415; activation trains read ~20
SOAK_HEAP_PUSHES_PER_VEHICLE_CEILING = 32
SOAK_VEHICLES = 30
#: profiled calls (built-ins included) per seed-0 ``fleet_soak`` job, as
#: ``callcount.drive_fleet_soak()`` counts them: 39.2 before a job's
#: settle, release and hold became one pass through ``Core._turnover``,
#: 26.1 after
SOAK_CALLS_PER_JOB_CEILING = 27.0

CPUS = os.cpu_count() or 1
multi_core = pytest.mark.skipif(
    CPUS < 2, reason=f"needs 2 CPUs for parallel workers, host has {CPUS}")


def min_ratio(bare, variant, *, ceiling, repeats, max_batches):
    """Overhead of ``variant`` over ``bare``: ``min(variant) / min(bare) - 1``.

    Each argument runs the workload once and returns its wall time.  Host
    noise (CPU steal, other tenants) only ever adds time, so the minimum
    of many short interleaved runs converges on the undisturbed cost of
    each side.  A batch whose overhead reaches ``ceiling`` adds another
    batch, up to ``max_batches``: a real overhead persists, noise washes
    out.
    """
    bare_runs, variant_runs = [], []
    for _ in range(max_batches):
        for _ in range(repeats):
            bare_runs.append(bare())
            variant_runs.append(variant())
        overhead = min(variant_runs) / min(bare_runs) - 1.0
        if overhead < ceiling:
            break
    return overhead


def timed(fn, *args, **kwargs):
    """Wall time of one call, after a collection so that no earlier
    garbage is charged to it."""
    gc.collect()
    start = perf_counter()
    fn(*args, **kwargs)
    return perf_counter() - start


# -- snapshot restore rate -----------------------------------------------


def test_forks_per_second():
    """Restore rate of one cached snapshot of a heavy chaos base: four
    triple-redundant nodes after a 1.5 s settle under heartbeats."""
    spec = FaultCampaignSpec(
        plan=FaultPlan(name="gate", faults=(
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.01,
                      duration=0.04),
            FaultSpec(kind="frame_drop", target="eth_backbone", start=0.005,
                      duration=0.05, probability=0.4),
        )),
        n_nodes=4, replicas=3, soak_time=0.06, settle_time=1.5,
        breaker_threshold=2, breaker_reset=0.03,
    )
    sim = Simulator()
    build_chaos_base(sim, spec)
    snap = sim.snapshot()
    restores = 20
    elapsed = timed(lambda: [snap.restore() for _ in range(restores)])
    forks_per_sec = restores / elapsed
    assert forks_per_sec >= FORKS_PER_SEC_FLOOR, (
        f"{forks_per_sec:.1f} forks/s < floor {FORKS_PER_SEC_FLOOR:.1f}")


# -- fleet throughput and memory -----------------------------------------


def fleet_spec(size: int) -> FleetSpec:
    return FleetSpec(name="bench", size=size, master_seed=20, soak_time=0.1)


def test_inline_vehicles_per_second():
    spec = fleet_spec(400)
    snapshots = build_fleet_snapshots(spec, tags=("old",))
    elapsed = timed(run_fleet, spec, executor=get_inline_executor(),
                    snapshots=snapshots)
    rate = spec.size / elapsed
    assert rate >= VEHICLES_PER_SEC_FLOOR, (
        f"{rate:.1f} vehicles/s < floor {VEHICLES_PER_SEC_FLOOR:.1f}")


def fleet_rss_growth(small: int) -> Tuple[float, float]:
    """Peak RSS after a ``RSS_FLEET_GROWTH`` times larger inline fleet
    over peak RSS after a small one, in this process, and the growth in
    bytes per vehicle of the larger fleet."""
    executor = get_inline_executor()
    snapshots = build_fleet_snapshots(fleet_spec(small), tags=("old",))
    run_fleet(fleet_spec(small), executor=executor, snapshots=snapshots)
    rss_small = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    large = small * RSS_FLEET_GROWTH
    run_fleet(fleet_spec(large), executor=executor, snapshots=snapshots)
    rss_large = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux
    return rss_large / rss_small, (rss_large - rss_small) * 1024 / large


def test_rss_growth_over_a_100x_fleet():
    """Memory is O(shards), not O(vehicles).  Measured in a fresh
    interpreter: ``ru_maxrss`` never falls, so earlier tests in this
    process would raise the small-fleet baseline and hide growth.

    The ratio alone compares against the interpreter's baseline, so a
    small leak per vehicle hides under it; the per-vehicle bound does
    not."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(os.path.dirname(here), "src"), here]
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path[:0] = {path!r}; import bench_gates; "
         "print(*bench_gates.fleet_rss_growth(50))"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    growth, per_vehicle = map(float, out.split()[-2:])
    assert growth < RSS_GROWTH_CEILING, (
        f"peak RSS grew {growth:.3f}x over a {RSS_FLEET_GROWTH}x fleet")
    assert per_vehicle < RSS_PER_VEHICLE_CEILING, (
        f"peak RSS grew {per_vehicle:.0f} B per vehicle over a "
        f"{RSS_FLEET_GROWTH}x fleet")


# -- redispatch overhead under executor chaos ------------------------------


def recovery_pool(chaos=None) -> ParallelExecutor:
    # one shard per dispatch on both pools, so they compare like for like
    # and the kill/EOF schedule, which counts dispatches, fires
    return ParallelExecutor(workers=2, master_seed=0, chunk_size=1,
                            retries=8, chaos=chaos)


@multi_core
def test_redispatch_overhead():
    """A 600-vehicle campaign in 25-vehicle shards, clean vs. with a
    worker SIGKILLed every 25 and a pipe EOF every 33 dispatches.  Each
    kill or EOF costs a respawn and the lost shard's work, so some 10 %
    overhead is real, not noise; the minimum over chaos runs is the run
    whose failures cost least."""
    spec = FleetCampaignSpec(
        fleet=FleetSpec(name="bench_rec", size=600, master_seed=29,
                        soak_time=0.02),
        stages=(0.05, 0.3, 1.0), shard_size=25,
    )
    chaos = ExecChaos(seed=17, kill_every=25, eof_every=33)
    clean_pool, chaos_pool = recovery_pool(), recovery_pool(chaos)
    digests = set()

    def campaign(pool):
        gc.collect()
        start = perf_counter()
        result = run_fleet_campaign(spec, executor=pool)
        elapsed = perf_counter() - start
        digests.add(json.dumps(result.campaign_digest, sort_keys=True))
        return elapsed

    try:
        clean_pool.warm_up()
        chaos_pool.warm_up()
        overhead = min_ratio(lambda: campaign(clean_pool),
                             lambda: campaign(chaos_pool),
                             ceiling=REDISPATCH_OVERHEAD_CEILING,
                             repeats=5, max_batches=6)
    finally:
        clean_pool.close()
        chaos_pool.close()
    assert chaos.kills > 0, "the kill schedule never fired"
    assert len(digests) == 1, "a chaos run's digest diverged from clean"
    assert overhead <= REDISPATCH_OVERHEAD_CEILING, (
        f"redispatch overhead {overhead:.1%} > "
        f"{REDISPATCH_OVERHEAD_CEILING:.0%}")


# -- hooks that must cost (almost) nothing ---------------------------------


def message_soak(n_messages: int, *, sanitizer=False, idle_injector=False):
    """Wall time to pump ``n_messages`` notifications over one segment."""
    topo = Topology()
    topo.add_bus(BusSpec("eth", "ethernet", 1e9))
    for name in ("e0", "e1"):
        topo.add_ecu(EcuSpec(name, ports=(("eth0", "ethernet"),)))
        topo.attach(name, "eth0", "eth")
    sim = Simulator()
    net = VehicleNetwork(sim, topo)
    registry = ServiceRegistry()
    endpoints = {n: Endpoint(sim, net, n, registry) for n in ("e0", "e1")}
    endpoints["e1"].on_message(0x10, MessageType.NOTIFICATION, lambda m: None)
    if sanitizer:
        KernelSanitizer(sim).attach()
    if idle_injector:
        # armed, but every fault opens far beyond the horizon, so no
        # hook is ever installed: the cost of the fault layer's presence
        FaultInjector(sim, FaultPlan(name="idle", faults=(
            FaultSpec(kind="frame_drop", target="eth", start=1e6),
            FaultSpec(kind="bus_outage", target="eth", start=1e6),
        )), 0, network=net).arm()

    def sender():
        for _ in range(n_messages):
            endpoints["e0"].send(Message(
                service_id=0x10, method_id=1,
                msg_type=MessageType.NOTIFICATION,
                payload_bytes=64, src="e0", dst="e1",
                session_id=sim.next_session_id(),
            ))
            yield 1e-5

    sim.process(sender())
    elapsed = timed(sim.run, until=(n_messages + 10) * 1e-5)
    assert net.bus("eth").frames_delivered == n_messages
    return elapsed


@pytest.mark.parametrize("hook, ceiling", [
    ("sanitizer", SANITIZER_OVERHEAD_CEILING),
    ("idle_injector", IDLE_INJECTOR_OVERHEAD_CEILING),
])
def test_hook_overhead(hook, ceiling):
    overhead = min_ratio(lambda: message_soak(2000),
                         lambda: message_soak(2000, **{hook: True}),
                         ceiling=ceiling, repeats=20, max_batches=5)
    assert overhead < ceiling, f"{hook} overhead {overhead:.2%} >= {ceiling:.0%}"


# -- heap traffic of a soaked vehicle ---------------------------------------


def soak_heap_pushes_per_vehicle(vehicles: int) -> float:
    """Mean EventQueue pushes of the first ``vehicles`` vehicles of the
    seed-0 ``fleet_soak`` fleet, each soaked by the benchmark's own
    :func:`~repro.fleet.shard.simulate_vehicle` (fork, arm the faults,
    2 s run) and its pushes counted by the call counter."""
    spec = callcount.fleet_soak_fleet()
    snapshots = build_fleet_snapshots(spec, tags=(TAG_OLD,))

    def soak() -> None:
        for index in range(vehicles):
            simulate_vehicle(spec, index, TAG_OLD, snapshots)

    _, counts = callcount.count_calls(soak)
    push = EventQueue.push.__code__
    return counts.by_site.get(
        (push.co_filename, push.co_firstlineno, push.co_name), 0) / vehicles


def test_soak_heap_pushes_per_vehicle():
    """A periodic activation that is the next event anyway is dispatched
    in place, so a soaked vehicle's releases cost no heap traffic; only
    completions, delayed releases and injector events are pushed."""
    pushes = soak_heap_pushes_per_vehicle(SOAK_VEHICLES)
    assert pushes <= SOAK_HEAP_PUSHES_PER_VEHICLE_CEILING, (
        f"{pushes:.1f} heap pushes per soaked vehicle > ceiling "
        f"{SOAK_HEAP_PUSHES_PER_VEHICLE_CEILING}")


def test_soak_calls_per_job():
    """A periodic release settles the previous job's held completion,
    dispatches the new job and holds its completion in one pass through
    ``Core._turnover``; the per-job call count holds that path flat."""
    per_job = callcount.drive_fleet_soak().per_job
    assert per_job <= SOAK_CALLS_PER_JOB_CEILING, (
        f"{per_job:.2f} calls per soaked job > ceiling "
        f"{SOAK_CALLS_PER_JOB_CEILING}")
