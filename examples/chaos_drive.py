#!/usr/bin/env python3
"""Seeded chaos run: a redundant control service under a fault plan.

Builds the standard chaos scenario — three platform computers on a
redundant ring, a replicated control service under heartbeat
supervision, an RPC client with retries — and injects a declarative
fault plan on top: the primary crashes and reboots, the backbone flaps,
frames are dropped, a core jitters and its clock drifts.

Everything is driven by one master seed: run the script twice with the
same seed and the fault timeline is byte-identical.

Usage:  PYTHONPATH=src python examples/chaos_drive.py [seed]
"""

import sys

from repro.faults import (
    FaultCampaignSpec,
    FaultPlan,
    FaultSpec,
    build_chaos_scenario,
    build_resilience_report,
)
from repro.sim import Simulator

CHAOS_PLAN = FaultPlan(
    name="drive_chaos",
    description="crash + bus flap + frame loss + timing faults",
    faults=(
        FaultSpec(kind="ecu_crash", target="platform_0", start=0.10, duration=0.15),
        FaultSpec(kind="bus_outage", target="eth_backbone", start=0.05, duration=0.08),
        FaultSpec(
            kind="frame_drop", target="eth_ring", start=0.06,
            duration=0.04, probability=0.5, count=3, period=0.12, jitter=0.01,
        ),
        FaultSpec(
            kind="task_jitter", target="platform_1", start=0.20,
            duration=0.10, magnitude=0.002,
        ),
        FaultSpec(
            kind="clock_drift", target="platform_1", start=0.30,
            duration=0.10, magnitude=0.01,
        ),
    ),
)


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    spec = FaultCampaignSpec(plan=CHAOS_PLAN, soak_time=0.5, breaker_threshold=3)
    sim = Simulator()
    scenario = build_chaos_scenario(sim, spec, seed)
    print(f"seed {seed}: injecting {len(CHAOS_PLAN)} declared faults "
          f"over a {spec.soak_time}s soak ...")
    sim.run(until=sim.now + spec.soak_time)

    injector = scenario["injector"]
    print("\nFault timeline:")
    for time, kind, target, action in injector.timeline:
        print(f"  [{time:7.4f}s] {kind:<13} {target:<14} {action}")

    report = build_resilience_report(
        injector=injector,
        redundancy=scenario["manager"],
        clients=(scenario["client"],),
        registry=scenario["platform"].registry,
        degradation=scenario["platform"].degradation,
    )
    print()
    print(report.render())
    client = scenario["client"]
    served = scenario["caller"].successes
    print(f"\nThe service answered {served}/{client.calls_made} calls "
          f"({report.rpc_retries} retried) through crash, outage and loss.")


if __name__ == "__main__":
    main()
