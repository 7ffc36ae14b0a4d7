"""Schedulability analysis.

Offline tests used by admission control (Section 3.1 / references [6] and
[19]: "a compositional analysis approach is used to check whether there is
enough resources to satisfy the timing requirements"):

* Liu & Layland utilization bound and exact response-time analysis (RTA)
  for preemptive fixed-priority scheduling;
* the density test and exact utilization condition for EDF;
* a feasibility wrapper for time-triggered tables (delegating to
  :func:`repro.osal.timetable.synthesize_table`).

All tests accept a ``speed_factor`` so the same reference task set can be
checked against any ECU in the catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import SchedulingError
from .task import TaskSpec, total_utilization


def scaled_utilization(tasks: List[TaskSpec], speed_factor: float) -> float:
    """Total utilization of ``tasks`` on a core of ``speed_factor``."""
    if speed_factor <= 0:
        raise SchedulingError("speed factor must be positive")
    return total_utilization(tasks) / speed_factor


def liu_layland_bound(n: int) -> float:
    """The rate-monotonic utilization bound for ``n`` tasks."""
    if n <= 0:
        raise SchedulingError("need at least one task")
    return n * (2 ** (1.0 / n) - 1.0)


def _priority_level(task: TaskSpec) -> float:
    """Effective priority: explicit if set, else rate-monotonic (the
    period); lower is more important."""
    return task.priority if task.priority is not None else task.period


def rm_priority_order(tasks: List[TaskSpec]) -> List[TaskSpec]:
    """Tasks ordered by effective priority (explicit, else rate-monotonic)."""
    return sorted(tasks, key=lambda t: (_priority_level(t), t.name))


def response_time_analysis(
    tasks: List[TaskSpec],
    speed_factor: float = 1.0,
    *,
    max_iterations: int = 1000,
) -> Dict[str, float]:
    """Exact worst-case response times under preemptive fixed priority.

    The recurrence R = C + sum_{hp} (floor(R / T_j) + 1) * C_j, iterated
    to fixpoint per task, counts every release of ``hp`` in the closed
    window [0, R].  ``hp`` is every other task of the same or a higher
    priority level: the scheduler serves equal priorities in release
    order, so an equal-priority job released first runs first.  The
    window is closed because activations run before completions at one
    instant, so a job released exactly as this one would finish preempts
    it; the classic ``ceil(R / T_j)`` misses that job.  Returns ``{task
    name: response time}``; a task whose recurrence exceeds its deadline
    gets ``float('inf')``.
    """
    ordered = rm_priority_order(tasks)
    levels = [_priority_level(task) for task in ordered]
    results: Dict[str, float] = {}
    for index, task in enumerate(ordered):
        c_i = task.wcet / speed_factor
        higher = [
            other for j, other in enumerate(ordered)
            if j != index and levels[j] <= levels[index]
        ]
        response = c_i
        for _ in range(max_iterations):
            # the tolerance counts a release that float rounding puts a
            # hair past R, as the simulated clock may
            interference = sum(
                (math.floor(response / hp.period + 1e-9) + 1)
                * (hp.wcet / speed_factor)
                for hp in higher
            )
            new_response = c_i + interference
            if new_response > task.effective_deadline + 1e-12:
                response = float("inf")
                break
            if abs(new_response - response) < 1e-12:
                response = new_response
                break
            response = new_response
        else:
            response = float("inf")
        results[task.name] = response
    return results


def is_schedulable_fp(tasks: List[TaskSpec], speed_factor: float = 1.0) -> bool:
    """Exact fixed-priority schedulability via RTA."""
    if not tasks:
        return True
    if scaled_utilization(tasks, speed_factor) > 1.0 + 1e-12:
        return False
    return all(
        math.isfinite(r)
        for r in response_time_analysis(tasks, speed_factor).values()
    )


def is_schedulable_edf(tasks: List[TaskSpec], speed_factor: float = 1.0) -> bool:
    """EDF schedulability.

    Exact (U <= 1) for implicit deadlines; the sufficient density test
    otherwise (sum of wcet/min(D, T) <= 1).
    """
    if not tasks:
        return True
    implicit = all(
        t.deadline is None or t.deadline >= t.period - 1e-12 for t in tasks
    )
    if implicit:
        return scaled_utilization(tasks, speed_factor) <= 1.0 + 1e-12
    density = sum(
        (t.wcet / speed_factor) / min(t.effective_deadline, t.period)
        for t in tasks
    )
    return density <= 1.0 + 1e-12


def is_schedulable_tt(tasks: List[TaskSpec], speed_factor: float = 1.0) -> bool:
    """Feasibility of a time-triggered table for ``tasks``."""
    from .timetable import synthesize_table

    try:
        synthesize_table(tasks, speed_factor)
    except SchedulingError:
        return False
    return True


@dataclass(frozen=True)
class AnalysisReport:
    """Summary produced by :func:`analyse_task_set` for admission decisions."""

    utilization: float
    schedulable_fp: bool
    schedulable_edf: bool
    response_times: Dict[str, float]
    bound_rm: float

    @property
    def schedulable(self) -> bool:
        return self.schedulable_fp or self.schedulable_edf


def analyse_task_set(
    tasks: List[TaskSpec], speed_factor: float = 1.0
) -> AnalysisReport:
    """Run the full analysis battery over one core's task set."""
    if not tasks:
        return AnalysisReport(0.0, True, True, {}, 1.0)
    return AnalysisReport(
        utilization=scaled_utilization(tasks, speed_factor),
        schedulable_fp=is_schedulable_fp(tasks, speed_factor),
        schedulable_edf=is_schedulable_edf(tasks, speed_factor),
        response_times=response_time_analysis(tasks, speed_factor),
        bound_rm=liu_layland_bound(len(tasks)),
    )


def first_fit_partition(
    tasks: List[TaskSpec],
    core_speeds: List[float],
    *,
    test=is_schedulable_fp,
) -> Optional[List[List[TaskSpec]]]:
    """Partition ``tasks`` onto cores first-fit-decreasing by utilization.

    Returns one task list per core, or ``None`` if the set does not fit.
    """
    bins: List[List[TaskSpec]] = [[] for _ in core_speeds]
    for task in sorted(tasks, key=lambda t: t.utilization, reverse=True):
        placed = False
        for i, speed in enumerate(core_speeds):
            if test(bins[i] + [task], speed):
                bins[i].append(task)
                placed = True
                break
        if not placed:
            return None
    return bins
