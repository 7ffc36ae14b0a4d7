"""Deterministic fault injection (`repro.faults`).

Turns the paper's uncertainty sources — node loss, bus outages, timing
faults, clock drift — into declarative, seeded, repeatable experiments:

* :class:`FaultSpec` / :class:`FaultPlan` — picklable fault descriptions;
* :class:`FaultInjector` — schedules a plan on the sim kernel from named
  RNG streams, producing a byte-identical timeline per ``(plan, seed)``;
* :class:`ResilienceReport` — the closed loop: interruption times,
  retry/breaker/degradation counters;
* :func:`run_fault_campaign` — parallel chaos sweeps through
  :mod:`repro.exec` with a serial ≡ parallel guarantee.
"""

from .campaign import (
    FaultCampaignOutcome,
    FaultCampaignResult,
    FaultCampaignSpec,
    build_chaos_scenario,
    campaign_outcome,
    redundant_ring_topology,
    run_fault_campaign,
)
from .injector import FaultInjector, TimelineEvent
from .report import ResilienceDigest, ResilienceReport, build_resilience_report
from .spec import (
    FAULT_KINDS,
    FRAME_KINDS,
    KIND_BUS_OUTAGE,
    KIND_CLOCK_DRIFT,
    KIND_ECU_CRASH,
    KIND_FRAME_CORRUPT,
    KIND_FRAME_DELAY,
    KIND_FRAME_DROP,
    KIND_TASK_JITTER,
    KIND_TASK_OVERRUN,
    TASK_KINDS,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "FAULT_KINDS",
    "FRAME_KINDS",
    "FaultCampaignOutcome",
    "FaultCampaignResult",
    "FaultCampaignSpec",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "KIND_BUS_OUTAGE",
    "KIND_CLOCK_DRIFT",
    "KIND_ECU_CRASH",
    "KIND_FRAME_CORRUPT",
    "KIND_FRAME_DELAY",
    "KIND_FRAME_DROP",
    "KIND_TASK_JITTER",
    "KIND_TASK_OVERRUN",
    "ResilienceDigest",
    "ResilienceReport",
    "TASK_KINDS",
    "TimelineEvent",
    "build_chaos_scenario",
    "build_resilience_report",
    "campaign_outcome",
    "redundant_ring_topology",
    "run_fault_campaign",
]
