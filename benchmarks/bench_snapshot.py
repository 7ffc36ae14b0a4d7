#!/usr/bin/env python
"""Snapshot/fork benchmark: CoW campaign throughput and hot-loop allocations.

Measures the copy-on-write snapshot machinery end to end and writes
``BENCH_snapshot.json`` at the repo root:

* **snapshot** — capture/restore latency and forks/s on the warmed-up
  chaos base world, plus the correctness bar: a mid-soak restore that
  continues to the end must reproduce the straight run's trace byte for
  byte, and capturing must not perturb the source world.
* **campaign / sweep / xil** — the three fan-out sites run fork-per-
  variant (``fork=True``, the default) against rebuild-per-variant
  (``fork=False``), asserting identical outcomes and digests before
  reporting the speedup.
* **dse** — ``MappingProblem.evaluate`` with its warm ``VerifyCache``
  against a faithful reconstruction of the pre-cache scoring path
  (uncached ``verify`` + per-call route/latency recomputation), with
  evaluation-list equality asserted.
* **allocations** — steady-state allocated bytes per event, measured
  with :mod:`tracemalloc` around single-event steps: the pooled
  ``sim.post`` kernel against the frozen :mod:`_legacy_kernel` shim
  (fresh call object per push, tuple-allocating ``__lt__``).

Usage::

    PYTHONPATH=src python benchmarks/bench_snapshot.py           # full run
    PYTHONPATH=src python benchmarks/bench_snapshot.py --smoke   # CI-sized

Both sides of every comparison run the same workload in the same
process, so the ratios isolate the code path from the hardware.  Pass
``--gate-snapshot BENCH_snapshot.json`` to gate against the committed
report: any ``results_identical: false`` fails the run unconditionally;
forks/s failing 90% of the committed ``forks_per_sec_floor`` fails it
too (the floor is committed deliberately low — about a quarter of the
measured rate on the machine that produced the report — so slower CI
runners gate on real regressions, not on hardware).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import tracemalloc
from time import perf_counter

sys.path.insert(0, os.path.dirname(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import _legacy_kernel  # noqa: E402

from repro.core.campaign import CampaignSpec  # noqa: E402
from repro.dse import MappingProblem  # noqa: E402
from repro.dse.problem import Evaluation  # noqa: E402
from repro.faults import FaultCampaignSpec, FaultPlan, FaultSpec  # noqa: E402
from repro.faults.campaign import (  # noqa: E402
    build_chaos_base,
    run_fault_campaign,
    start_chaos_workload,
)
from repro.fleet import sweep_campaigns  # noqa: E402
from repro.hw import centralized_topology  # noqa: E402
from repro.model.verification import estimate_latency, verify  # noqa: E402
from repro.osal.analysis import scaled_utilization  # noqa: E402
from repro.osal.task import Criticality  # noqa: E402
from repro.sim import RngStreams, Simulator, Tracer  # noqa: E402
from repro.workloads import reference_system  # noqa: E402
from repro.xil import ScenarioSpec, run_battery  # noqa: E402


# -- shared fixtures ----------------------------------------------------


def _chaos_spec(*, soak_time: float) -> FaultCampaignSpec:
    """A campaign whose deterministic base dwarfs its per-variant soak.

    Four nodes with triple redundancy and a long fault-free settle under
    heartbeats make the shared base the dominant cost — exactly the
    regime fork-per-variant is for.  Faults land inside the short soak
    so every replication still exercises crash, drop and breaker paths.
    """
    plan = FaultPlan(
        name="bench",
        faults=(
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.01,
                      duration=0.04),
            FaultSpec(kind="frame_drop", target="eth_backbone", start=0.005,
                      duration=0.05, probability=0.4),
        ),
    )
    return FaultCampaignSpec(plan=plan, n_nodes=4, replicas=3,
                             soak_time=soak_time, settle_time=1.5,
                             breaker_threshold=2, breaker_reset=0.03)


def trace_json(sim) -> list:
    return [entry.to_json() for entry in sim.tracer.entries]


def _build_chaos_world(spec, seed=77):
    sim = Simulator(Tracer())
    base = build_chaos_base(sim, spec)
    start_chaos_workload(sim, base, spec, RngStreams(seed))
    return sim


# -- snapshot micro-benchmark -------------------------------------------


def bench_snapshot_micro(*, smoke: bool) -> dict:
    """Capture/restore latency, forks/s, and the trace-equality bar."""
    spec = _chaos_spec(soak_time=0.06)
    captures = 5 if smoke else 20
    restores = 20 if smoke else 100

    # correctness first: restore + continue == straight run, source
    # unperturbed — the same matrix bar the tests pin, sampled mid-soak
    straight_sim = _build_chaos_world(spec)
    start = straight_sim.now
    end = start + spec.soak_time
    straight_sim.run(until=end)
    straight = trace_json(straight_sim)

    source = _build_chaos_world(spec)
    source.run(until=start + 0.5 * spec.soak_time)
    mid_snap = source.snapshot()
    restored = mid_snap.restore()
    restored.run(until=end)
    source.run(until=end)
    identical = (trace_json(restored) == straight
                 and trace_json(source) == straight
                 and bool(straight))

    # capture latency: snapshot the warmed-up base world repeatedly
    base_sim = Simulator()
    build_chaos_base(base_sim, spec)
    gc.collect()  # steady playing field for the timed half
    t0 = perf_counter()
    for _ in range(captures):
        snap = base_sim.snapshot()
    capture_s = (perf_counter() - t0) / captures

    # restore latency / forks-per-second: one cached snapshot fanned out
    # many times — the exact per-variant cost of a fork-based campaign
    gc.collect()  # steady playing field for the timed half
    t0 = perf_counter()
    for _ in range(restores):
        snap.restore()
    restore_s = (perf_counter() - t0) / restores
    forks_per_sec = 1.0 / restore_s if restore_s > 0 else float("inf")

    return {
        "capture_ms": round(capture_s * 1e3, 3),
        "restore_ms": round(restore_s * 1e3, 3),
        "forks_per_sec": round(forks_per_sec, 1),
        # committed deliberately low (~25% of measured) so slower CI
        # hardware does not trip the gate; see --gate-snapshot
        "forks_per_sec_floor": round(forks_per_sec * 0.25, 1),
        "snapshot_bytes": len(snap.to_bytes()),
        "results_identical": identical,
    }


# -- fan-out sites: fork vs rebuild -------------------------------------


def bench_campaign(*, smoke: bool) -> dict:
    spec = _chaos_spec(soak_time=0.06)
    replications = 6 if smoke else 16

    # untimed warm-up: pay one-time import/allocator costs outside the
    # timed halves so both measure steady state
    run_fault_campaign(spec, replications=1, master_seed=7, fork=True)
    run_fault_campaign(spec, replications=1, master_seed=7, fork=False)

    gc.collect()  # steady playing field for the timed half
    t0 = perf_counter()
    forked = run_fault_campaign(spec, replications=replications,
                                master_seed=7, fork=True)
    fork_s = perf_counter() - t0

    gc.collect()  # steady playing field for the timed half
    t0 = perf_counter()
    rebuilt = run_fault_campaign(spec, replications=replications,
                                 master_seed=7, fork=False)
    rebuild_s = perf_counter() - t0

    identical = (forked.outcomes == rebuilt.outcomes
                 and forked.digest["metrics"] == rebuilt.digest["metrics"])
    return {
        "replications": replications,
        "fork_seconds": round(fork_s, 4),
        "rebuild_seconds": round(rebuild_s, 4),
        "speedup": round(rebuild_s / fork_s, 2) if fork_s > 0 else None,
        "results_identical": identical,
    }


def bench_sweep(*, smoke: bool) -> dict:
    # single-wave rollout with a short wave soak: the per-replication
    # half stays small next to the shared build-deploy-settle base
    spec = CampaignSpec(fleet_size=6, wave_size=6, soak_time=0.02,
                        settle_time=10.0, target_wcet=0.004,
                        target_wcet_jitter=0.004, target_deadline=0.002)
    replications = 10 if smoke else 16

    # untimed warm-up: pay one-time import/allocator costs outside the
    # timed halves so both measure steady state
    sweep_campaigns(spec, replications=1, master_seed=7, fork=True)
    sweep_campaigns(spec, replications=1, master_seed=7, fork=False)

    gc.collect()  # steady playing field for the timed half
    t0 = perf_counter()
    forked = sweep_campaigns(spec, replications=replications,
                             master_seed=7, fork=True)
    fork_s = perf_counter() - t0

    gc.collect()  # steady playing field for the timed half
    t0 = perf_counter()
    rebuilt = sweep_campaigns(spec, replications=replications,
                              master_seed=7, fork=False)
    rebuild_s = perf_counter() - t0

    identical = (forked.outcomes == rebuilt.outcomes
                 and forked.digest["metrics"] == rebuilt.digest["metrics"])
    return {
        "replications": replications,
        "fork_seconds": round(fork_s, 4),
        "rebuild_seconds": round(rebuild_s, 4),
        "speedup": round(rebuild_s / fork_s, 2) if fork_s > 0 else None,
        "results_identical": identical,
    }


def bench_xil(*, smoke: bool) -> dict:
    """Battery of SiL scenarios sharing one loop config.

    With ``warmup_fraction=0.8`` the healthy warm-up covers 80% of every
    scenario; all faults open after the fork point, so every scenario is
    fork-eligible and the battery builds the warm world exactly once.
    """
    duration = 8.0 if smoke else 16.0
    late = duration * 0.85  # strictly after the 0.8 warm-up point

    def scenario(name, **kw):
        return ScenarioSpec(name=name, level="SiL", duration=duration, **kw)

    scenarios = [scenario("nominal")] + [
        scenario(f"late-dropout-{i}",
                 sensor_dropout_window=(late + duration * 0.01 * i,
                                        late + duration * (0.05 + 0.01 * i)))
        for i in range(9)
    ]

    # untimed warm-up: pay one-time import/allocator costs outside the
    # timed halves so both measure steady state
    run_battery(scenarios[:2], master_seed=7, fork=True, warmup_fraction=0.8)
    run_battery(scenarios[:2], master_seed=7, fork=False, warmup_fraction=0.8)

    gc.collect()  # steady playing field for the timed half
    t0 = perf_counter()
    forked = run_battery(scenarios, master_seed=7, fork=True,
                         warmup_fraction=0.8)
    fork_s = perf_counter() - t0

    gc.collect()  # steady playing field for the timed half
    t0 = perf_counter()
    rebuilt = run_battery(scenarios, master_seed=7, fork=False,
                          warmup_fraction=0.8)
    rebuild_s = perf_counter() - t0

    identical = all(fv == rv for fv, rv
                    in zip(forked.verdicts, rebuilt.verdicts)) \
        and len(forked.verdicts) == len(rebuilt.verdicts)
    return {
        "scenarios": len(scenarios),
        "fork_seconds": round(fork_s, 4),
        "rebuild_seconds": round(rebuild_s, 4),
        "speedup": round(rebuild_s / fork_s, 2) if fork_s > 0 else None,
        "results_identical": identical,
    }


# -- DSE: warm VerifyCache vs the pre-cache scoring path ----------------


def _evaluate_cold(problem: MappingProblem, deployment) -> Evaluation:
    """The scoring path as it was before ``VerifyCache``.

    Uncached ``verify`` plus a latency loop that re-derives routes,
    payload sizes and bandwidths on every call — kept here (not in the
    library) so the benchmark always compares against the true old cost.
    """
    model = problem.model
    result = verify(model, deployment)
    cost = sum(
        model.topology.ecu(name).unit_cost for name in deployment.used_ecus()
    )
    latency = 0.0
    for producer, consumer, interface in model.communication_pairs():
        if deployment.is_placed(producer) and deployment.is_placed(consumer):
            latency += estimate_latency(
                model,
                deployment.ecu_of(producer),
                deployment.ecu_of(consumer),
                interface.payload_bytes,
            )
    utilizations = []
    for ecu_name in deployment.used_ecus():
        spec = model.topology.ecu(ecu_name)
        for core in range(spec.cores):
            tasks = [
                t
                for a in deployment.apps_on_core(ecu_name, core)
                for t in model.app(a).tasks
                if t.criticality is Criticality.DETERMINISTIC
            ]
            if tasks:
                utilizations.append(
                    scaled_utilization(tasks, spec.speed_factor)
                )
    imbalance = (max(utilizations) - min(utilizations)
                 if len(utilizations) > 1 else 0.0)
    return Evaluation(
        feasible=result.ok,
        cost=cost,
        latency=latency,
        imbalance=imbalance,
        violations=len(result.errors),
    )


def bench_dse(*, smoke: bool) -> dict:
    model = reference_system(centralized_topology())
    problem = MappingProblem(model)
    evaluations = 200 if smoke else 600

    rng = RngStreams(13).stream("bench.dse.deployments")
    bounds = problem.genome_bounds()
    deployments = [
        problem.decode([rng.randrange(b) for b in bounds])
        for _ in range(evaluations)
    ]

    # cold side first so the warm side cannot piggyback on anything
    gc.collect()  # steady playing field for the timed half
    t0 = perf_counter()
    cold = [_evaluate_cold(problem, d) for d in deployments]
    cold_s = perf_counter() - t0

    # warm side includes its own one-time cache fill — honest end-to-end
    gc.collect()  # steady playing field for the timed half
    t0 = perf_counter()
    warm = [problem.evaluate(d) for d in deployments]
    warm_s = perf_counter() - t0

    return {
        "evaluations": evaluations,
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
        "results_identical": warm == cold,
    }


# -- steady-state allocations per event (tracemalloc) -------------------

_CHAINS = 64
_PERIOD = 0.0625          # 64 * 2**-10: all event times exact in binary
_PHASE = _PERIOD / _CHAINS


def _measure_bytes_per_event(step_one, *, warmup: int, events: int) -> float:
    """Sum of per-step tracemalloc peak deltas over ``events`` steps.

    Each step dispatches exactly one event with the peak counter reset
    first, so the delta is the gross transient allocation of that event
    — churn that current/peak sampling over a whole run can never see,
    because dispatched call objects are freed as fast as they are made.
    """
    for _ in range(warmup):
        step_one()
    gc.disable()
    tracemalloc.start()
    try:
        total = 0
        for _ in range(events):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()  # after the base read: the probe's
            # own result tuple never contaminates the measured peak
            step_one()
            total += max(0, tracemalloc.get_traced_memory()[1] - base)
        return total / events
    finally:
        tracemalloc.stop()
        gc.enable()


def bench_allocations(*, smoke: bool) -> dict:
    """Pooled ``sim.post`` kernel vs the frozen legacy shim.

    The workload is 64 phase-staggered self-rescheduling timer chains —
    the steady-state shape of every heartbeat/sampling loop in the
    stack.  The pooled kernel recycles one call object per chain and
    compares precomputed keys; the legacy shim allocates a fresh call
    per push and two key tuples per heap comparison.
    """
    warmup = 256
    events = 512 if smoke else 2048

    sim = Simulator()

    # this benchmark sim is stepped, never snapshotted: closures are fine
    def tick():
        sim.post(_PERIOD, tick)  # repro: allow[PICK511]

    for j in range(_CHAINS):
        sim.post(j * _PHASE if j else _PERIOD, tick)  # repro: allow[PICK511]
    current_bpe = _measure_bytes_per_event(sim.step, warmup=warmup,
                                           events=events)
    pool = sim.queue.stats()

    lsim = _legacy_kernel.LegacySimulator()

    def ltick():
        lsim.schedule(_PERIOD, ltick)  # repro: allow[PICK511]

    for j in range(_CHAINS):
        lsim.schedule(j * _PHASE if j else _PERIOD, ltick)  # repro: allow[PICK511]

    def lstep():
        call = lsim.queue.pop()
        lsim.now = call.time
        call.callback(*call.args)

    legacy_bpe = _measure_bytes_per_event(lstep, warmup=warmup,
                                          events=events)

    ratio = (legacy_bpe / current_bpe) if current_bpe > 0 else float("inf")
    return {
        "events_measured": events,
        "legacy_bytes_per_event": round(legacy_bpe, 1),
        "current_bytes_per_event": round(current_bpe, 1),
        "ratio": round(ratio, 1) if ratio != float("inf") else "inf",
        "reduced_5x": (ratio >= 5.0),
        "pool_creations": pool["pool_creations"],
        "pool_reuses": pool["pool_reuses"],
    }


# -- report plumbing ----------------------------------------------------


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {path}")


def _load_snapshot_floor(path):
    with open(path) as fh:
        committed = json.load(fh)
    return committed.get("snapshot", {}).get("forks_per_sec_floor")


def _identity_failures(report: dict) -> list:
    failures = []
    for section in ("snapshot", "campaign", "sweep", "xil", "dse"):
        if not report[section]["results_identical"]:
            failures.append(
                f"{section}: fork/cached path diverged from the rebuild path"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small configs for CI smoke runs")
    parser.add_argument("--out-dir", default=REPO_ROOT,
                        help="directory for BENCH_snapshot.json "
                             "(default: repo root)")
    parser.add_argument(
        "--gate-snapshot", metavar="PATH", default=None,
        help="committed BENCH_snapshot.json to gate against: any "
             "results_identical=false fails unconditionally; forks/s "
             "below 90%% of the committed forks_per_sec_floor fails too")
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    committed_floor = (_load_snapshot_floor(args.gate_snapshot)
                       if args.gate_snapshot else None)

    print(f"snapshot micro-benchmark ({mode})...")
    snapshot = bench_snapshot_micro(smoke=args.smoke)
    print(
        f"  capture {snapshot['capture_ms']}ms, "
        f"restore {snapshot['restore_ms']}ms, "
        f"{snapshot['forks_per_sec']:,} forks/s "
        f"(trace identical={snapshot['results_identical']})"
    )

    sections = {"snapshot": snapshot}
    for name, fn in (("campaign", bench_campaign), ("sweep", bench_sweep),
                     ("xil", bench_xil)):
        print(f"\n{name} fork-vs-rebuild ({mode})...")
        result = fn(smoke=args.smoke)
        sections[name] = result
        print(
            f"  fork {result['fork_seconds']}s, "
            f"rebuild {result['rebuild_seconds']}s "
            f"({result['speedup']}x, identical="
            f"{result['results_identical']})"
        )

    print(f"\nDSE warm-cache benchmark ({mode})...")
    dse = bench_dse(smoke=args.smoke)
    sections["dse"] = dse
    print(
        f"  cold {dse['cold_seconds']}s, warm {dse['warm_seconds']}s "
        f"({dse['speedup']}x, identical={dse['results_identical']})"
    )

    print(f"\nallocations-per-event probe ({mode})...")
    allocations = bench_allocations(smoke=args.smoke)
    sections["allocations"] = allocations
    print(
        f"  legacy {allocations['legacy_bytes_per_event']} B/event, "
        f"current {allocations['current_bytes_per_event']} B/event "
        f"({allocations['ratio']}x reduction)"
    )

    _write(os.path.join(args.out_dir, "BENCH_snapshot.json"), {
        "environment": _environment(),
        "mode": mode,
        **sections,
    })

    failures = _identity_failures(sections)
    if committed_floor is not None:
        measured = snapshot["forks_per_sec"]
        if measured < committed_floor * 0.9:
            failures.append(
                f"forks/s {measured} regressed below 90% of the committed "
                f"floor {committed_floor} ({committed_floor * 0.9:.1f})"
            )
    if failures:
        print("\nFAILED: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
