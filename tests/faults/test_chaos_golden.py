"""Golden outcomes of forked chaos campaigns on the redundant ring.

Pins what a chaos replication produces, recorded once and compared byte
for byte on every run, for three campaigns of 25 replications:

* the benchmark suite's chaos scenario (ECU crash, backbone outage,
  frame drops, overrun and clock drift) at two master seeds;
* the same plan with circuit breaking (``breaker_threshold=2``) and a
  dense drop window on both ring segments while the primary stays up,
  so breakers open on a live offer and later attempts fast-fail.

Per campaign it records the sha256 of the outcomes JSON and of the merged
metric digest, and, for replication 0 restored from the campaign snapshot
and soaked with tracing on, the sha256 of every tracer entry and the
number of events the kernel dispatched during the soak.

Regenerate the golden (only when a behaviour change is intended) with::

    PYTHONPATH=src python -m tests.faults.test_chaos_golden
"""

import dataclasses
import hashlib
import json
import os

from repro.jobs import JobContext, derive_job_seed
from repro.faults import FaultPlan, FaultSpec
from repro.faults.campaign import (
    FaultCampaignSpec,
    build_campaign_snapshot,
    run_fault_campaign,
    start_chaos_workload,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim import Tracer

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_chaos.json")

REPLICATIONS = 25

PLAN = FaultPlan(
    name="soak",
    faults=(
        FaultSpec(kind="ecu_crash", target="platform_0", start=0.1,
                  duration=0.15),
        FaultSpec(kind="bus_outage", target="eth_backbone", start=0.05,
                  duration=0.08),
        FaultSpec(
            kind="frame_drop", target="eth_ring", start=0.06,
            duration=0.04, probability=0.5, count=3, period=0.12, jitter=0.01,
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
)

SPEC = FaultCampaignSpec(plan=PLAN, soak_time=0.5, settle_time=0.05)
BREAKER_PLAN = FaultPlan(
    name="breaker",
    faults=PLAN.faults + tuple(
        FaultSpec(kind="frame_drop", target=bus, start=0.3, duration=0.1,
                  probability=0.9)
        for bus in ("eth_backbone", "eth_ring")
    ),
)
BREAKER_SPEC = dataclasses.replace(SPEC, plan=BREAKER_PLAN,
                                   breaker_threshold=2)

#: name -> (spec, master seed)
RUNS = {
    "chaos_seed11": (SPEC, 11),
    "chaos_seed2024": (SPEC, 2024),
    "breaker_seed11": (BREAKER_SPEC, 11),
}


def _sha256(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


def traced_replication(spec, master_seed: int) -> dict:
    """Replication 0 of a forked campaign, restored and soaked traced."""
    job_id = "faults.rep0"
    rng = JobContext(job_id=job_id, seed=derive_job_seed(master_seed, job_id),
                     attempt=0, metrics=MetricsRegistry()).rng()
    sim = build_campaign_snapshot(spec).restore()
    sim.tracer = Tracer()
    start_chaos_workload(sim, sim.world["chaos"], spec, rng)
    events = sim.metrics.counter("sim.events")
    before = events.value
    sim.run(until=sim.now + spec.soak_time)
    trace = "\n".join(entry.to_json() for entry in sim.tracer.entries)
    return {
        "trace_entries": len(sim.tracer.entries),
        "trace_sha256": hashlib.sha256(trace.encode()).hexdigest(),
        "events_dispatched": events.value - before,
    }


def campaign_record(spec, master_seed: int) -> dict:
    result = run_fault_campaign(spec, replications=REPLICATIONS,
                                master_seed=master_seed)
    outcomes = [dataclasses.asdict(outcome) for outcome in result.outcomes]
    return {
        "outcomes_sha256": _sha256(outcomes),
        "digest_sha256": _sha256(result.digest),
        "rpc_fastfails": sum(o.rpc_fastfails for o in result.outcomes),
        "breakers_opened": sum(o.breakers_opened for o in result.outcomes),
        "rep0": traced_replication(spec, master_seed),
    }


def golden_records() -> dict:
    return {name: campaign_record(spec, seed)
            for name, (spec, seed) in RUNS.items()}


class TestChaosGolden:
    def test_matches_golden(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        assert json.loads(json.dumps(golden_records())) == golden

    def test_breaker_run_fast_fails(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        assert golden["breaker_seed11"]["rpc_fastfails"] > 0
        assert golden["breaker_seed11"]["breakers_opened"] > 0


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden_records(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"regenerated {GOLDEN}")
