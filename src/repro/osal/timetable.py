"""Time-triggered (table-driven) scheduling.

The paper's preferred mechanism for deterministic applications: "With the
scheduling approaches (time- or priority-based) existent in RTOSs, this can
be achieved" (Section 3.1) — and the schedule-management framework [21]
synthesises exactly such tables in the backend.

Two pieces:

* :func:`synthesize_table` — offline EDF-ordered placement of one
  hyperperiod of jobs into a :class:`TimeTable`; raises
  :class:`~repro.errors.SchedulingError` if the set is infeasible.
* :class:`TimeTriggeredExecutive` — runs a table cyclically inside the
  simulation, serving released jobs in their slots, with optional
  background (idle-time) execution of non-deterministic jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import SchedulingError
from ..sim import Simulator
from .task import Criticality, Job, TaskSpec, hyperperiod


@dataclass(frozen=True)
class TableSlot:
    """One table entry: run ``task_name`` at ``offset`` for ``duration``."""

    offset: float
    duration: float
    task_name: str

    def __post_init__(self) -> None:
        if self.offset < 0 or self.duration <= 0:
            raise SchedulingError(
                f"invalid slot for {self.task_name!r}: "
                f"offset={self.offset}, duration={self.duration}"
            )

    @property
    def end(self) -> float:
        return self.offset + self.duration


class TimeTable:
    """A cyclic schedule table over one hyperperiod."""

    def __init__(self, slots: List[TableSlot], cycle: float) -> None:
        if cycle <= 0:
            raise SchedulingError("table cycle must be positive")
        ordered = sorted(slots, key=lambda s: s.offset)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.offset < earlier.end - 1e-12:
                raise SchedulingError(
                    f"overlapping slots: {earlier.task_name!r} "
                    f"[{earlier.offset}, {earlier.end}) and "
                    f"{later.task_name!r} [{later.offset}, {later.end})"
                )
        if ordered and ordered[-1].end > cycle + 1e-12:
            raise SchedulingError("slot extends past the table cycle")
        self.slots = ordered
        self.cycle = cycle

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def utilization(self) -> float:
        """Fraction of the cycle occupied by slots."""
        return sum(s.duration for s in self.slots) / self.cycle

    def slots_for(self, task_name: str) -> List[TableSlot]:
        return [s for s in self.slots if s.task_name == task_name]

    def idle_windows(self) -> List[Tuple[float, float]]:
        """Gaps (start, end) inside the cycle not covered by any slot."""
        windows = []
        cursor = 0.0
        for slot in self.slots:
            if slot.offset > cursor + 1e-12:
                windows.append((cursor, slot.offset))
            cursor = max(cursor, slot.end)
        if cursor < self.cycle - 1e-12:
            windows.append((cursor, self.cycle))
        return windows


def synthesize_table(
    tasks: List[TaskSpec],
    speed_factor: float = 1.0,
    *,
    work_factor_out: Optional[List[int]] = None,
) -> TimeTable:
    """Build a feasible time table for deterministic ``tasks``.

    EDF-ordered placement of every job in one hyperperiod: jobs are sorted
    by absolute deadline and placed at the earliest instant that is both
    after their release and after the previously placed work.  EDF order is
    optimal for independent jobs on one core, so failure to meet a deadline
    here proves infeasibility.

    Args:
        tasks: deterministic task set (offsets honoured).
        speed_factor: hosting core's speed relative to the reference.
        work_factor_out: optional single-element list that receives the
            number of elementary placement steps — used by the C2
            benchmark to compare backend vs on-ECU synthesis cost.

    Raises:
        SchedulingError: if any job would miss its deadline.
    """
    if not tasks:
        raise SchedulingError("cannot synthesize a table for zero tasks")
    non_det = [t.name for t in tasks if t.criticality is not Criticality.DETERMINISTIC]
    if non_det:
        raise SchedulingError(
            f"time tables host deterministic tasks only, got {non_det}"
        )
    cycle = hyperperiod(tasks)
    # all job releases within one hyperperiod
    releases: List[Tuple[float, float, float, str]] = []  # (release, deadline, wcet, name)
    for task in tasks:
        scaled = task.wcet / speed_factor
        k = 0
        while True:
            release = task.offset + k * task.period
            if release >= cycle - 1e-12:
                break
            releases.append(
                (release, release + task.effective_deadline, scaled, task.name)
            )
            k += 1
    releases.sort()
    # simulate preemptive EDF over the hyperperiod, recording execution
    # slices; preemptive EDF is optimal on one core, so any deadline miss
    # here proves infeasibility.
    steps = 0
    slices: List[Tuple[float, float, str]] = []  # (start, duration, name)
    pending: List[List] = []  # [deadline, seq, remaining, name]
    release_index = 0
    now = 0.0
    seq = 0
    while release_index < len(releases) or pending:
        while (
            release_index < len(releases)
            and releases[release_index][0] <= now + 1e-12
        ):
            release, deadline, wcet, name = releases[release_index]
            pending.append([deadline, seq, wcet, name])
            seq += 1
            release_index += 1
        if not pending:
            now = releases[release_index][0]
            continue
        pending.sort()
        job = pending[0]
        next_release = (
            releases[release_index][0]
            if release_index < len(releases)
            else float("inf")
        )
        run = min(job[2], max(next_release - now, 0.0))
        if run <= 0.0:
            run = job[2]
        steps += 1
        slices.append((now, run, job[3]))
        job[2] -= run
        now += run
        if job[2] <= 1e-12:
            pending.pop(0)
            if now > job[0] + 1e-9:
                raise SchedulingError(
                    f"task set infeasible: job of {job[3]!r} cannot meet "
                    f"deadline {job[0]:.6f} (finishes {now:.6f})"
                )
    # merge adjacent slices of the same task into single slots
    slots: List[TableSlot] = []
    for start, duration, name in slices:
        if (
            slots
            and slots[-1].task_name == name
            and abs(slots[-1].end - start) < 1e-12
        ):
            merged = TableSlot(
                offset=slots[-1].offset,
                duration=slots[-1].duration + duration,
                task_name=name,
            )
            slots[-1] = merged
        else:
            slots.append(TableSlot(offset=start, duration=duration, task_name=name))
    if work_factor_out is not None:
        work_factor_out.append(steps + len(releases))
    return TimeTable(slots, cycle)


class TimeTriggeredExecutive:
    """Cyclic executor of a :class:`TimeTable` with background NDA service.

    Deterministic jobs are queued per task and served in that task's slots.
    Released non-deterministic jobs run in the idle windows (background),
    preempted at slot boundaries — full freedom from interference for the
    table, best-effort progress for the rest.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        table: TimeTable,
        *,
        serve_background: bool = True,
    ) -> None:
        self.sim = sim
        self.name = name
        self.table = table
        self.serve_background = serve_background
        self._det_queues: Dict[str, List[Job]] = {}
        self._background: List[Job] = []
        self.completed_jobs: List[Job] = []
        self.skipped_slots = 0
        self._running = True
        sim.process(self._loop(), name=f"{name}.tt")

    # -- job intake ------------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Queue a released job (deterministic → its slot; else background)."""
        if job.task.criticality is Criticality.DETERMINISTIC:
            if not self.table.slots_for(job.task.name):
                raise SchedulingError(
                    f"{self.name}: no slot in table for task {job.task.name!r}"
                )
            self._det_queues.setdefault(job.task.name, []).append(job)
        else:
            self._background.append(job)
        if self.sim.tracer.enabled:
            self.sim.trace(
                "os.release",
                core=self.name,
                task=job.task.name,
                job=job.job_id,
                deadline=job.absolute_deadline,
            )

    def stop(self) -> None:
        """Shut the executive down at the next slot boundary."""
        self._running = False

    # -- engine ------------------------------------------------------------------

    def _loop(self):
        cycle_index = int(self.sim.now // self.table.cycle)
        while self._running:
            base = cycle_index * self.table.cycle
            for slot in self.table.slots:
                slot_start = base + slot.offset
                slot_end = slot_start + slot.duration
                if slot_end <= self.sim.now + 1e-12:
                    continue  # slot entirely in the past (mid-cycle start)
                yield from self._idle_until(slot_start)
                if not self._running:
                    return
                yield from self._serve_slot(slot, slot_end)
            cycle_end = base + self.table.cycle
            yield from self._idle_until(cycle_end)
            cycle_index += 1

    def _serve_slot(self, slot: TableSlot, slot_end: float):
        queue = self._det_queues.get(slot.task_name)
        if not queue and slot_end - self.sim.now > 2e-9:
            # a release scheduled for exactly this instant may sit a float
            # ulp later in the event queue; absorb that with 1 ns of grace
            yield 1e-9
            queue = self._det_queues.get(slot.task_name)
        if not queue:
            self.skipped_slots += 1
            # the slot stays reserved; background may borrow it
            yield from self._idle_until(slot_end)
            return
        job = queue.pop(0)
        if job.start_time is None:
            job.start_time = self.sim.now
        run = min(job.remaining, max(slot_end - self.sim.now, 0.0))
        if run > 0:
            yield run
        job.remaining -= run
        # the boundary grace may have eaten up to 1 ns of the slot; treat a
        # residue of up to 2 ns as completed rather than burning a new slot
        if job.remaining <= 2e-9:
            job.remaining = 0.0
            self._finish(job)
        else:
            # needs another slot instance of this task to complete
            queue.insert(0, job)
        yield from self._idle_until(slot_end)

    def _idle_until(self, when: float):
        """Fill [now, when) with background jobs, in small preemptible steps."""
        while self.sim.now < when - 1e-12:
            if not self.serve_background or not self._background:
                yield when - self.sim.now
                return
            job = self._background[0]
            if job.start_time is None:
                job.start_time = self.sim.now
            run = min(job.remaining, when - self.sim.now)
            yield run
            job.remaining -= run
            if job.remaining <= 1e-12:
                self._background.pop(0)
                self._finish(job)
            else:
                # round-robin: rotate so other background jobs progress
                self._background.append(self._background.pop(0))

    def _finish(self, job: Job) -> None:
        job.finish_time = self.sim.now
        self.completed_jobs.append(job)
        if self.sim.tracer.enabled:
            self.sim.trace(
                "os.done",
                core=self.name,
                task=job.task.name,
                job=job.job_id,
                response=job.response_time,
                missed=job.missed_deadline,
                jitter=job.start_jitter,
            )
