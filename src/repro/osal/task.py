"""Task and job model.

A :class:`TaskSpec` describes a recurring activity the way the paper's
Section 3.1 characterises deterministic applications: "fixed activation
intervals and computation deadlines".  WCETs are given for the 200 MHz
reference core and scaled by the hosting ECU's speed factor.

A :class:`Job` is a single activation of a task inside the simulation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from ..errors import ConfigurationError


class Criticality(Enum):
    """Application category from the paper's application model (§3.1)."""

    DETERMINISTIC = "deterministic"
    NON_DETERMINISTIC = "non_deterministic"


@dataclass(frozen=True)
class TaskSpec:
    """A periodic (or sporadic) task.

    Attributes:
        name: unique task identifier.
        period: activation interval in seconds.  For non-deterministic
            tasks this is the *average* inter-arrival time.
        wcet: worst-case execution time on the 200 MHz reference core.
        deadline: relative deadline; defaults to the period (the
            resulting value is ``effective_deadline``).
        offset: release offset of the first activation.
        jitter_tolerance: maximum tolerated start-time jitter for
            deterministic tasks (used by the runtime monitor).
        criticality: deterministic or non-deterministic.
        priority: optional fixed priority (lower number = more important);
            ``None`` lets the scheduler derive one (rate-monotonic).
        memory_kib: RAM footprint of the task's process share.
    """

    name: str
    period: float
    wcet: float
    deadline: Optional[float] = None
    offset: float = 0.0
    jitter_tolerance: float = float("inf")
    criticality: Criticality = Criticality.DETERMINISTIC
    priority: Optional[int] = None
    memory_kib: float = 16.0
    #: relative deadline: ``deadline``, or the period without one.  Set
    #: by ``__post_init__``; a field, not a property, because a core
    #: reads it for every job it builds
    effective_deadline: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "effective_deadline",
                           self.period if self.deadline is None else self.deadline)
        if self.period <= 0:
            raise ConfigurationError(f"task {self.name!r}: period must be positive")
        if self.wcet <= 0:
            raise ConfigurationError(f"task {self.name!r}: wcet must be positive")
        if self.effective_deadline <= 0:
            raise ConfigurationError(f"task {self.name!r}: deadline must be positive")
        if self.wcet > self.period:
            raise ConfigurationError(
                f"task {self.name!r}: wcet {self.wcet} exceeds period {self.period}"
            )
        if self.offset < 0:
            raise ConfigurationError(f"task {self.name!r}: negative offset")

    @property
    def utilization(self) -> float:
        """Reference-core utilization ``wcet / period``."""
        return self.wcet / self.period

    def scaled_utilization(self, speed_factor: float) -> float:
        """Utilization on a core ``speed_factor`` times the reference."""
        return self.utilization / speed_factor

    @property
    def is_deterministic(self) -> bool:
        return self.criticality is Criticality.DETERMINISTIC


# Fallback id source for standalone Job construction only.  Production
# paths pass ``job_id=sim.next_job_id()`` explicitly: job ids appear in
# the trace, and a process-global counter would make forked worlds
# diverge from their parent's traces.
_job_ids = itertools.count(1)


@dataclass
class Job:
    """One activation of a task on a specific core.

    ``remaining`` is the *scaled* execution demand still owed, in seconds
    of core time on the hosting ECU.
    """

    task: TaskSpec
    release_time: float
    absolute_deadline: float
    remaining: float
    job_id: int = field(default_factory=lambda: next(_job_ids))
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    preemptions: int = 0

    @property
    def started(self) -> bool:
        return self.start_time is not None

    @property
    def finished(self) -> bool:
        return self.finish_time is not None

    @property
    def response_time(self) -> float:
        if self.finish_time is None:
            raise ConfigurationError(f"job {self.job_id} not finished")
        return self.finish_time - self.release_time

    @property
    def start_jitter(self) -> float:
        """Delay between release and first execution."""
        if self.start_time is None:
            raise ConfigurationError(f"job {self.job_id} never started")
        return self.start_time - self.release_time

    @property
    def missed_deadline(self) -> bool:
        if self.finish_time is None:
            return False
        return self.finish_time > self.absolute_deadline + 1e-12


def hyperperiod(tasks: List[TaskSpec], resolution: float = 1e-6) -> float:
    """Least common multiple of task periods, computed on an integer grid.

    Periods are quantised to ``resolution`` before the LCM; this keeps
    floating-point periods (e.g. 0.005 s) well behaved.
    """
    if not tasks:
        raise ConfigurationError("hyperperiod of empty task set")
    ticks = []
    for task in tasks:
        quantised = round(task.period / resolution)
        if quantised <= 0:
            raise ConfigurationError(
                f"task {task.name!r}: period below resolution {resolution}"
            )
        ticks.append(quantised)
    lcm = ticks[0]
    for t in ticks[1:]:
        lcm = lcm * t // math.gcd(lcm, t)
    return lcm * resolution


def total_utilization(tasks: List[TaskSpec]) -> float:
    """Sum of reference-core utilizations."""
    return sum(t.utilization for t in tasks)
