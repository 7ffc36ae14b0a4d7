"""Scheduling policies for :class:`repro.osal.core.Core`.

The paper's CPU-interference argument (Section 3.1) rests on the
difference between these policy classes:

* **RTOS policies** (:class:`FixedPriorityPolicy`, :class:`EdfPolicy`,
  and the table-driven scheduler in :mod:`repro.osal.timetable`) can
  guarantee deterministic applications their activation windows;
* **general-purpose policies** (:class:`FairSharePolicy`) cannot — they
  share the core equally, so a deterministic task's response time grows
  with the number of co-resident tasks;
* the **mixed policy** (:class:`MixedCriticalityPolicy`) is the dynamic
  platform's answer: deterministic tasks run at fixed priority, while
  non-deterministic tasks are confined to a budget server (design
  decision D1 in DESIGN.md) so they can neither starve the deterministic
  tasks nor be starved entirely.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigurationError
from .core import SchedulingPolicy
from .task import Criticality, Job

# module constants: one global load instead of an enum attribute lookup
# per ready job per pick
_DETERMINISTIC = Criticality.DETERMINISTIC


def _effective_priority(job: Job) -> float:
    """Explicit priority if set, else rate-monotonic (shorter period wins)."""
    if job.task.priority is not None:
        return float(job.task.priority)
    return job.task.period


def _fixed_priority_key(job: Job) -> tuple:
    return (_effective_priority(job), job.release_time, job.job_id)


class FixedPriorityPolicy(SchedulingPolicy):
    """Preemptive fixed-priority scheduling (rate-monotonic by default)."""

    preemptive = True
    quantum = None

    def pick(self, ready: List[Job], now: float) -> Optional[Job]:
        if not ready:
            return None
        return min(ready, key=_fixed_priority_key)


class EdfPolicy(SchedulingPolicy):
    """Preemptive earliest-deadline-first scheduling."""

    preemptive = True
    quantum = None

    def pick(self, ready: List[Job], now: float) -> Optional[Job]:
        if not ready:
            return None
        return min(ready, key=lambda j: (j.absolute_deadline, j.release_time, j.job_id))


class FifoPolicy(SchedulingPolicy):
    """Non-preemptive run-to-completion in arrival order (bare-metal loop)."""

    preemptive = False
    quantum = None

    def pick(self, ready: List[Job], now: float) -> Optional[Job]:
        if not ready:
            return None
        return min(ready, key=lambda j: (j.release_time, j.job_id))


class FairSharePolicy(SchedulingPolicy):
    """Round-robin time slicing, blind to deadlines and criticality.

    Models a general-purpose OS scheduler: every runnable job gets an equal
    share of the core via a fixed quantum.  Deterministic tasks receive no
    preferential treatment — which is exactly why the paper says only
    non-deterministic applications may run on such an OS.
    """

    preemptive = False  # rotation happens at quantum boundaries only

    def __init__(self, quantum: float = 0.001) -> None:
        if quantum <= 0:
            raise ConfigurationError("quantum must be positive")
        self.quantum = quantum
        self._rotation: List[int] = []  # job ids in round-robin order

    def pick(self, ready: List[Job], now: float) -> Optional[Job]:
        if not ready:
            return None
        known = {j.job_id for j in ready}
        self._rotation = [jid for jid in self._rotation if jid in known]
        for job in sorted(ready, key=lambda j: (j.release_time, j.job_id)):
            if job.job_id not in self._rotation:
                self._rotation.append(job.job_id)
        head = self._rotation[0]
        for job in ready:
            if job.job_id == head:
                return job
        return None  # pragma: no cover - rotation always matches ready

    def on_quantum_expired(self, job: Job, ready: List[Job]) -> None:
        if self._rotation and self._rotation[0] == job.job_id:
            self._rotation.append(self._rotation.pop(0))


class BudgetServer:
    """A deferrable-server budget: ``capacity`` seconds per ``period``.

    Non-deterministic jobs consume the budget while they execute; the
    budget replenishes to full at every period boundary.  This caps NDA
    interference on the core while guaranteeing NDAs a minimum share.
    """

    def __init__(self, capacity: float, period: float) -> None:
        if capacity <= 0 or period <= 0 or capacity > period:
            raise ConfigurationError(
                f"invalid budget server: capacity={capacity}, period={period}"
            )
        self.capacity = capacity
        self.period = period
        self._budget = capacity
        self._last_replenish = 0.0

    def refresh(self, now: float) -> None:
        """Apply any replenishments due by ``now``."""
        if now - self._last_replenish >= self.period:
            periods = int((now - self._last_replenish) / self.period)
            self._last_replenish += periods * self.period
            self._budget = self.capacity

    def available(self, now: float) -> float:
        self.refresh(now)
        return self._budget

    def consume(self, amount: float, now: float) -> None:
        self.refresh(now)
        self._budget = max(0.0, self._budget - amount)

    def next_replenish(self, now: float) -> float:
        self.refresh(now)
        return self._last_replenish + self.period

    @property
    def utilization(self) -> float:
        return self.capacity / self.period


class MixedCriticalityPolicy(SchedulingPolicy):
    """Deterministic tasks at fixed priority; NDAs inside a budget server.

    Selection rule:

    1. any ready deterministic job (rate-monotonic among themselves) wins;
    2. otherwise a non-deterministic job runs round-robin **iff** the
       budget server has budget left; its execution time is charged to
       the budget by the slicing machinery (quantum = min(policy quantum,
       remaining budget), checked at each dispatch).

    With ``server=None``, NDAs run in background (pure idle-time) mode:
    full deterministic protection, but NDAs may starve.
    """

    preemptive = True

    def __init__(
        self,
        server: Optional[BudgetServer] = None,
        nda_quantum: float = 0.001,
    ) -> None:
        self.server = server
        self.nda_quantum = nda_quantum
        self.quantum: Optional[float] = None  # set per dispatch
        self._rr = FairSharePolicy(quantum=nda_quantum)
        self._last_pick_nda = False
        self._last_dispatch_time: Optional[float] = None

    def pick(self, ready: List[Job], now: float) -> Optional[Job]:
        # invariant: _last_dispatch_time is None unless the last pick was
        # an NDA, so every other pick starts from the cleared state
        if self._last_pick_nda:
            self._charge_previous(now)
        if not ready:
            return None
        det = [j for j in ready if j.task.criticality is _DETERMINISTIC]
        if det:
            self.quantum = None
            if len(det) == 1:
                return det[0]
            return min(det, key=_fixed_priority_key)
        # criticality is two-valued: with no deterministic job ready,
        # every ready job is an NDA
        if self.server is not None:
            budget = self.server.available(now)
            if budget <= 1e-12:
                return None
            self.quantum = min(self.nda_quantum, budget)
        else:
            self.quantum = self.nda_quantum
        choice = self._rr.pick(ready, now)
        if choice is not None:
            self._last_pick_nda = True
            self._last_dispatch_time = now
        return choice

    def _charge_previous(self, now: float) -> None:
        """Charge the budget for the NDA execution since the last dispatch
        and clear the last-pick state."""
        if (
            self.server is not None
            and self._last_pick_nda
            and self._last_dispatch_time is not None
        ):
            elapsed = now - self._last_dispatch_time
            if elapsed > 0:
                self.server.consume(elapsed, now)
        self._last_dispatch_time = None
        self._last_pick_nda = False

    def on_quantum_expired(self, job: Job, ready: List[Job]) -> None:
        self._rr.on_quantum_expired(job, ready)

    def next_wakeup(self, now: float) -> Optional[float]:
        if self.server is None:
            return None
        if self.server.available(now) > 1e-12:
            return None
        return self.server.next_replenish(now)
