#!/usr/bin/env python
"""Recovery benchmark: crash/resume latency, chaos overhead, identity.

Measures the :mod:`repro.exec.recovery` layer end to end on a fleet
campaign and writes ``BENCH_recovery.json`` at the repo root:

* **clean** — the uninterrupted parallel baseline every other section
  compares against (digest and wall-clock).
* **chaos** — the same campaign with :class:`repro.exec.ExecChaos`
  SIGKILLing and EOF-ing workers on a fixed schedule.  The digest must
  stay byte-identical (supervision is invisible to results) and the
  **redispatch overhead** — chaos wall-clock over clean wall-clock,
  minus one — is gated against the committed ceiling on multi-core
  runners.
* **crash_resume** — a checkpointed run killed ~60 % through by an
  injected checkpoint-write crash, then finished via
  :func:`resume_campaign`.  Reports recovery latency (resume
  wall-clock), how many shards were loaded vs. recomputed, and digest
  identity with the clean baseline.
* **checkpoint** — the durability tax: a checkpointed clean run vs. the
  uncheckpointed baseline (advisory, never gated).

Usage::

    PYTHONPATH=src python benchmarks/bench_recovery.py           # full run
    PYTHONPATH=src python benchmarks/bench_recovery.py --smoke   # CI-sized

Pass ``--gate-recovery BENCH_recovery.json`` to gate against the
committed report: any digest divergence fails unconditionally;
redispatch overhead above the committed ceiling fails too, but only on
multi-core runners (a single-core runner serialises respawns and would
gate on hardware, not regressions).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import tempfile
from time import perf_counter

sys.path.insert(0, os.path.dirname(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from repro.core.campaign import plan_waves  # noqa: E402
from repro.exec import ExecChaos, ParallelExecutor  # noqa: E402
from repro.exec.recovery import (  # noqa: E402
    CheckpointCrash,
    CheckpointSpec,
    FaultPoints,
    resume_campaign,
)
from repro.fleet import (  # noqa: E402
    FleetCampaignSpec,
    FleetSpec,
    run_fleet_campaign,
)

STAGES = (0.05, 0.3, 1.0)
SHARD_SIZE = 25


def _spec(size: int) -> FleetCampaignSpec:
    return FleetCampaignSpec(
        fleet=FleetSpec(name="bench_rec", size=size, master_seed=29,
                        soak_time=0.02),
        stages=STAGES,
        shard_size=SHARD_SIZE,
    )


def _total_shards(size: int) -> int:
    return sum(
        -(-(stop - start) // SHARD_SIZE)
        for start, stop in plan_waves(size, stages=STAGES)
    )


def _canonical(digest) -> str:
    return json.dumps(digest, sort_keys=True)


def _pool(workers: int, *, chaos=None) -> ParallelExecutor:
    # chunk_size=1 (one shard job per dispatch) for *every* pool so the
    # chaos sections compare apples to apples with the clean baseline —
    # and so the kill/EOF schedule, which counts dispatches, actually
    # fires on the small smoke configuration
    return ParallelExecutor(
        workers=workers,
        master_seed=0,
        chunk_size=1,
        heartbeat_period=0.1 if chaos is not None else 0.0,
        heartbeat_timeout=10.0 if chaos is not None else None,
        max_redispatches=8,
        shutdown_grace=1.0,
        chaos=chaos,
    )


def _ckpt_records(directory: str) -> int:
    return sum(1 for n in os.listdir(directory) if n.endswith(".ckpt"))


# -- clean: the uninterrupted parallel baseline --------------------------


def bench_clean(size: int, workers: int, repeats: int) -> dict:
    """Min-of-``repeats`` so the smoke-sized overhead comparison is not
    at the mercy of one noisy sub-second measurement."""
    pool = _pool(workers)
    try:
        pool.warm_up()
        elapsed = []
        for _ in range(repeats):
            gc.collect()
            start = perf_counter()
            result = run_fleet_campaign(_spec(size), executor=pool)
            elapsed.append(perf_counter() - start)
    finally:
        pool.close()
    best = min(elapsed)
    return {
        "vehicles": size,
        "workers": workers,
        "repeats": repeats,
        "seconds": round(best, 2),
        "vehicles_per_sec": round(size / best, 1),
        # unrounded: the overhead ratios divide by it, and a smoke run's
        # ~0.2 s rounded to 0.01 s alone moves a ratio by several percent
        "elapsed": best,
        "digest": _canonical(result.campaign_digest),
    }


# -- chaos: kills + EOFs, digest identity, redispatch overhead ------------


def bench_chaos(size: int, workers: int, repeats: int, clean: dict) -> dict:
    chaos = ExecChaos(seed=17, kill_every=25, eof_every=33)
    pool = _pool(workers, chaos=chaos)
    try:
        pool.warm_up()
        elapsed = []
        identical = True
        for _ in range(repeats):
            gc.collect()
            start = perf_counter()
            result = run_fleet_campaign(_spec(size), executor=pool)
            elapsed.append(perf_counter() - start)
            identical = identical and (
                _canonical(result.campaign_digest) == clean["digest"]
            )
        counters = pool.supervisor.snapshot()["counter"]
    finally:
        pool.close()
    best = min(elapsed)
    overhead = best / clean["elapsed"] - 1.0
    return {
        "vehicles": size,
        "workers": workers,
        "repeats": repeats,
        "seconds": round(best, 2),
        "workers_killed": chaos.kills,
        "pipe_eofs_injected": chaos.eofs,
        "redispatches": counters["pool.supervisor.redispatches"]["value"],
        "worker_restarts": counters["pool.supervisor.restarts"]["value"],
        "redispatch_overhead": round(max(overhead, 0.0), 4),
        # committed ceiling the CI gate enforces on multi-core runners
        "redispatch_overhead_ceiling": 0.15,
        "results_identical": identical,
    }


# -- crash_resume: checkpointed run killed mid-flight, then resumed -------


def bench_crash_resume(size: int, workers: int, clean: dict) -> dict:
    total = _total_shards(size)
    crash_after = int(total * 0.6)
    directory = tempfile.mkdtemp(prefix="bench_recovery_")
    try:
        pool = _pool(workers)
        try:
            pool.warm_up()
            start = perf_counter()
            crashed = False
            try:
                run_fleet_campaign(
                    _spec(size), executor=pool,
                    checkpoint=CheckpointSpec(directory),
                    fault_points=FaultPoints().arm(
                        "checkpoint.record_written", after=crash_after
                    ),
                )
            except CheckpointCrash:
                crashed = True
            crash_seconds = perf_counter() - start
        finally:
            pool.close()
        durable = _ckpt_records(directory)

        resume_pool = _pool(workers)
        try:
            resume_pool.warm_up()
            gc.collect()
            start = perf_counter()
            result = resume_campaign(directory, executor=resume_pool)
            recovery_seconds = perf_counter() - start
        finally:
            resume_pool.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "vehicles": size,
        "workers": workers,
        "total_shards": total,
        "crashed_mid_flight": crashed,
        "crash_seconds": round(crash_seconds, 2),
        "shards_durable_at_crash": durable,
        "shards_recomputed": total - durable,
        "recovery_seconds": round(recovery_seconds, 2),
        "recovery_fraction_of_clean": round(
            recovery_seconds / clean["elapsed"], 3
        ),
        "results_identical": _canonical(result.campaign_digest)
        == clean["digest"],
    }


# -- checkpoint: the durability tax (advisory) ----------------------------


def bench_checkpoint_overhead(size: int, workers: int, clean: dict) -> dict:
    directory = tempfile.mkdtemp(prefix="bench_recovery_ckpt_")
    try:
        pool = _pool(workers)
        try:
            pool.warm_up()
            gc.collect()
            start = perf_counter()
            result = run_fleet_campaign(
                _spec(size), executor=pool,
                checkpoint=CheckpointSpec(directory),
            )
            elapsed = perf_counter() - start
        finally:
            pool.close()
        records = _ckpt_records(directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    overhead = elapsed / clean["elapsed"] - 1.0
    return {
        "vehicles": size,
        "seconds": round(elapsed, 2),
        "records_written": records,
        "checkpoint_overhead": round(max(overhead, 0.0), 4),
        "results_identical": _canonical(result.campaign_digest)
        == clean["digest"],
    }


# -- report plumbing ------------------------------------------------------


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


def _load_ceiling(path):
    with open(path) as fh:
        committed = json.load(fh)
    return committed.get("chaos", {}).get("redispatch_overhead_ceiling")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small configs for CI smoke runs")
    parser.add_argument("--out-dir", default=REPO_ROOT,
                        help="directory for BENCH_recovery.json "
                             "(default: repo root)")
    parser.add_argument(
        "--gate-recovery", metavar="PATH", default=None,
        help="committed BENCH_recovery.json to gate against: any digest "
             "divergence fails unconditionally; redispatch overhead "
             "above the committed ceiling fails on multi-core runners")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool size (default: min(4, cpu_count); note that "
             "workers=1 runs inline, so chaos injection never fires)")
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    size = 600 if args.smoke else 10_000
    workers = args.workers or min(4, os.cpu_count() or 1)
    ceiling = (_load_ceiling(args.gate_recovery)
               if args.gate_recovery else None)

    repeats = 3 if args.smoke else 1

    print(f"clean baseline ({mode}, {size:,} vehicles, w{workers})...")
    clean = bench_clean(size, workers, repeats)
    print(f"  {clean['seconds']}s ({clean['vehicles_per_sec']:,}/s)")

    print(f"\nchaos run ({mode})...")
    chaos = bench_chaos(size, workers, repeats, clean)
    print(
        f"  {chaos['workers_killed']} kills, "
        f"{chaos['pipe_eofs_injected']} EOFs, overhead "
        f"{chaos['redispatch_overhead']:.1%}, identical="
        f"{chaos['results_identical']}"
    )

    print(f"\ncrash + resume ({mode})...")
    resume = bench_crash_resume(size, workers, clean)
    print(
        f"  crashed with {resume['shards_durable_at_crash']}/"
        f"{resume['total_shards']} shards durable; resumed in "
        f"{resume['recovery_seconds']}s "
        f"({resume['shards_recomputed']} shards recomputed), identical="
        f"{resume['results_identical']}"
    )

    print(f"\ncheckpoint overhead ({mode})...")
    checkpoint = bench_checkpoint_overhead(size, workers, clean)
    print(
        f"  {checkpoint['records_written']} records, overhead "
        f"{checkpoint['checkpoint_overhead']:.1%} (advisory)"
    )

    clean_public = {
        k: v for k, v in clean.items() if k not in ("digest", "elapsed")
    }
    _write(os.path.join(args.out_dir, "BENCH_recovery.json"), {
        "environment": _environment(),
        "mode": mode,
        "clean": clean_public,
        "chaos": chaos,
        "crash_resume": resume,
        "checkpoint": checkpoint,
    })

    failures = []
    for name, section in (("chaos", chaos), ("crash_resume", resume),
                          ("checkpoint", checkpoint)):
        if not section["results_identical"]:
            failures.append(f"{name}: digest diverged from clean baseline")
    if not resume["crashed_mid_flight"]:
        failures.append("crash_resume: injected crash never fired")
    if workers > 1 and chaos["workers_killed"] == 0:
        failures.append("chaos: the kill schedule never fired")
    if resume["shards_recomputed"] <= 0:
        failures.append("crash_resume: nothing was left to recompute")
    if ceiling is not None and (os.cpu_count() or 1) >= 2:
        if chaos["redispatch_overhead"] > ceiling:
            failures.append(
                f"redispatch overhead {chaos['redispatch_overhead']:.1%} "
                f"exceeds the committed ceiling {ceiling:.0%}"
            )
    if failures:
        print("\nFAILED: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
