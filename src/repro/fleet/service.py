"""Staged OTA campaigns over sharded fleets, with halt and admission.

:class:`FleetCampaign` rolls the new version out in canary → cohort →
fleet waves (:func:`repro.core.campaign.plan_waves`), simulating each
wave's vehicles through :func:`repro.fleet.shard.run_fleet` and judging
the wave's *merged digest* against the declared regression threshold.  A
regressed wave halts the campaign and re-runs its vehicles on the old
version — the rollback — so the final campaign digest shows the fleet
back in a healthy state.

:class:`CampaignAdmission` bounds how many campaigns may drive the shared
executor pool concurrently; :class:`FleetService` queues or rejects the
rest, stepping active campaigns one wave at a time in round-robin order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..core.campaign import plan_waves
from ..errors import UpdateError
from ..exec.recovery import KINDS, open_store
from .shard import TAG_NEW, TAG_OLD, FleetSpec, build_fleet_snapshots, run_fleet
from .summary import FleetDigest, TopK


@dataclass(frozen=True)
class FleetCampaignSpec:
    """Picklable description of one staged rollout campaign."""

    fleet: FleetSpec = field(default_factory=FleetSpec)
    #: cumulative fleet fractions per wave — canary, cohort, full fleet
    stages: Tuple[float, ...] = (0.01, 0.1, 1.0)
    #: fixed shard size; ``None`` lets the executor pick (a few per worker)
    shard_size: Optional[int] = None
    #: halt when a wave's merged deadline-miss ratio exceeds this
    halt_miss_ratio: float = 0.05


@dataclass
class WaveOutcome:
    """One wave's merged result — O(1) state, the digest is a summary."""

    wave: int
    start: int
    stop: int
    tag: str
    miss_ratio: float
    halted: bool
    digest_json: Dict[str, object]


@dataclass
class FleetCampaignResult:
    """Final campaign outcome: wave digests plus one campaign digest."""

    spec: FleetCampaignSpec
    waves: List[WaveOutcome] = field(default_factory=list)
    halted: bool = False
    rolled_back: bool = False
    vehicles_updated: int = 0
    campaign_digest: Dict[str, object] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return not self.halted


class FleetCampaign:
    """A steppable staged rollout; one :meth:`step` call runs one wave.

    Steppable so :class:`FleetService` can interleave waves of several
    admitted campaigns over one shared executor instead of running each
    campaign to completion serially.
    """

    def __init__(
        self,
        spec: FleetCampaignSpec,
        *,
        executor=None,
        fork: bool = True,
        checkpoint=None,
        fault_points=None,
    ) -> None:
        if spec.fleet.size < 1:
            raise UpdateError("fleet campaign needs at least one vehicle")
        self.spec = spec
        self.executor = executor
        self.fork = fork
        self.waves = plan_waves(spec.fleet.size, stages=spec.stages)
        self._wave_index = 0
        self._digest = FleetDigest(worst=TopK(k=spec.fleet.top_k))
        self._snapshots = None
        if fork:
            self._snapshots = build_fleet_snapshots(
                spec.fleet, tags=(TAG_OLD, TAG_NEW)
            )
        self.result = FleetCampaignResult(spec=spec)
        #: durable shard store; every wave (rollback included) reads and
        #: writes it, so an interrupted campaign resumes mid-wave from
        #: :func:`repro.exec.recovery.resume_campaign` with the exact
        #: digest an uninterrupted run would produce — wave boundaries,
        #: halt decisions and rollback are recomputed from the spec, the
        #: only durable state is the per-shard digests themselves
        self.store = open_store(checkpoint, "fleet_campaign", spec,
                                fault_points)

    @property
    def done(self) -> bool:
        return self.result.halted or self._wave_index >= len(self.waves)

    def step(self) -> Optional[WaveOutcome]:
        """Run the next wave; returns its outcome (None when done).

        The wave's vehicles soak on the **new** version and reduce to one
        merged digest.  If the digest's deadline-miss ratio exceeds the
        declared threshold the campaign halts and the same vehicles are
        re-run on the old version (the rollback), so the campaign digest
        ends on the fleet's restored state.
        """
        if self.done:
            return None
        start, stop = self.waves[self._wave_index]
        wave_number = self._wave_index + 1
        self._wave_index += 1
        run = run_fleet(
            self.spec.fleet, executor=self.executor, fork=self.fork,
            tag=TAG_NEW, shard_size=self.spec.shard_size,
            snapshots=self._snapshots, start=start, stop=stop,
            store=self.store,
        )
        halted = run.digest.miss_ratio > self.spec.halt_miss_ratio
        outcome = WaveOutcome(
            wave=wave_number, start=start, stop=stop, tag=TAG_NEW,
            miss_ratio=run.digest.miss_ratio, halted=halted,
            digest_json=run.digest_json,
        )
        self.result.waves.append(outcome)
        if halted:
            self.result.halted = True
            self._rollback(start, stop, wave_number)
        else:
            self._digest.merge(run.digest)
            self.result.vehicles_updated += run.vehicles
        if self.done:
            self.result.campaign_digest = self._digest.to_json()
        return outcome

    def _rollback(self, start: int, stop: int, wave_number: int) -> None:
        """Re-run the halted wave's vehicles on the old version."""
        run = run_fleet(
            self.spec.fleet, executor=self.executor, fork=self.fork,
            tag=TAG_OLD, shard_size=self.spec.shard_size,
            snapshots=self._snapshots, start=start, stop=stop,
            store=self.store,
        )
        self.result.rolled_back = True
        self.result.waves.append(WaveOutcome(
            wave=wave_number, start=start, stop=stop, tag=TAG_OLD,
            miss_ratio=run.digest.miss_ratio, halted=False,
            digest_json=run.digest_json,
        ))
        self._digest.merge(run.digest)

    def run(self) -> FleetCampaignResult:
        """Run every remaining wave to completion."""
        while not self.done:
            self.step()
        return self.result


def run_fleet_campaign(
    spec: FleetCampaignSpec,
    *,
    executor=None,
    fork: bool = True,
    checkpoint=None,
    fault_points=None,
) -> FleetCampaignResult:
    """Build and run one staged campaign to completion.

    With ``checkpoint`` (a :class:`repro.exec.recovery.CheckpointSpec`)
    every completed shard digest is persisted atomically; if the process
    dies, :func:`repro.exec.recovery.resume_campaign` finishes the
    campaign from the directory alone with a byte-identical digest.
    """
    return FleetCampaign(
        spec, executor=executor, fork=fork, checkpoint=checkpoint,
        fault_points=fault_points,
    ).run()


KINDS["fleet_campaign"] = run_fleet_campaign


class CampaignAdmission:
    """Bounds concurrent campaigns against the shared worker pool.

    ``max_active`` campaigns may step concurrently; up to ``max_queued``
    more wait; anything beyond that is rejected outright.  Keeping the
    bound at the campaign level means one runaway tenant cannot occupy
    every pool slot with queued shard jobs.
    """

    def __init__(self, max_active: int = 2, max_queued: int = 8) -> None:
        if max_active < 1:
            raise UpdateError("admission needs max_active >= 1")
        if max_queued < 0:
            raise UpdateError("admission needs max_queued >= 0")
        self.max_active = max_active
        self.max_queued = max_queued
        self.active: List[str] = []
        self.queued: Deque[str] = deque()
        self.rejected = 0

    def admit(self, ticket: str) -> str:
        """Returns ``"active"``, ``"queued"`` or ``"rejected"``."""
        if len(self.active) < self.max_active:
            self.active.append(ticket)
            return "active"
        if len(self.queued) < self.max_queued:
            self.queued.append(ticket)
            return "queued"
        self.rejected += 1
        return "rejected"

    def release(self, ticket: str) -> Optional[str]:
        """Finish ``ticket``; returns the promoted ticket, if any.

        Safe to call for a ticket that is not (or no longer) active —
        error paths may release defensively, and a double release must
        not free somebody else's slot.
        """
        if ticket in self.active:
            self.active.remove(ticket)
        elif ticket in self.queued:
            self.queued.remove(ticket)
            return None
        else:
            return None
        if self.queued and len(self.active) < self.max_active:
            promoted = self.queued.popleft()
            self.active.append(promoted)
            return promoted
        return None


class FleetService:
    """Multi-campaign front end over one shared executor."""

    def __init__(
        self,
        *,
        executor=None,
        admission: Optional[CampaignAdmission] = None,
    ) -> None:
        self.executor = executor
        self.admission = (
            admission if admission is not None else CampaignAdmission()
        )
        self._campaigns: Dict[str, FleetCampaign] = {}
        self.completed: Dict[str, FleetCampaignResult] = {}
        #: ticket → repr of the exception that killed its campaign
        self.failed: Dict[str, str] = {}
        self._counter = 0

    def submit(
        self, spec: FleetCampaignSpec, *, fork: bool = True
    ) -> Tuple[str, str]:
        """Submit a campaign; returns ``(ticket, state)``.

        ``state`` is the admission verdict — rejected campaigns get a
        ticket for bookkeeping but never run.
        """
        self._counter += 1
        ticket = f"campaign-{self._counter}"
        state = self.admission.admit(ticket)
        if state != "rejected":
            self._campaigns[ticket] = FleetCampaign(
                spec, executor=self.executor, fork=fork
            )
        return ticket, state

    def step(self) -> bool:
        """Advance every active campaign by one wave (round-robin).

        Returns True while any campaign is still active or queued.

        A campaign whose wave raises is recorded in :attr:`failed` and
        its admission slot is released immediately — a crashed tenant
        must never permanently shrink ``max_active`` for everyone else.
        """
        for ticket in list(self.admission.active):
            campaign = self._campaigns[ticket]
            try:
                campaign.step()
            except Exception as exc:  # noqa: BLE001 - tenant isolation
                self.failed[ticket] = repr(exc)
                del self._campaigns[ticket]
                self.admission.release(ticket)
                continue
            if campaign.done:
                self.completed[ticket] = campaign.result
                del self._campaigns[ticket]
                self.admission.release(ticket)
        return bool(self.admission.active or self.admission.queued)

    def run_until_idle(self) -> Dict[str, FleetCampaignResult]:
        """Step until every admitted campaign has finished."""
        while self.step():
            pass
        return self.completed
