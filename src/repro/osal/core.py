"""Single-core preemptive CPU model with pluggable scheduling policy.

The :class:`Core` executes :class:`~repro.osal.task.Job` objects under a
:class:`SchedulingPolicy`.  It handles the mechanics every policy shares —
release queues, preemption accounting, quantum expiry, completion tracing —
while the policy only decides *which* ready job runs next.

Multicore ECUs are modelled as one :class:`Core` per hardware core with a
partitioned task assignment (the standard approach in automotive
multicore deployments).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import SchedulingError
from ..sim import PRIORITY_URGENT, ScheduledCall, Simulator
from .task import Job, TaskSpec


class SchedulingPolicy:
    """Chooses the next job to run.  Stateless unless a subclass says so."""

    #: Whether an arriving higher-priority job may preempt a running one.
    preemptive = True

    #: Round-robin time slice; ``None`` disables slicing.
    quantum: Optional[float] = None

    def pick(self, ready: List[Job], now: float) -> Optional[Job]:
        """Return the job that should occupy the core, or ``None``."""
        raise NotImplementedError

    def on_quantum_expired(self, job: Job, ready: List[Job]) -> None:
        """Hook invoked when a sliced job exhausts its quantum."""

    def next_wakeup(self, now: float) -> Optional[float]:
        """If ``pick`` returned ``None`` despite ready jobs, when to retry.

        Lets budget-style policies park the core until replenishment.
        """
        return None

    def describe(self) -> str:
        return type(self).__name__


class Core:
    """One processing core of an ECU."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        speed_factor: float,
        policy: SchedulingPolicy,
    ) -> None:
        if speed_factor <= 0:
            raise SchedulingError(f"core {name!r}: speed factor must be positive")
        self.sim = sim
        self.name = name
        self.speed_factor = speed_factor
        self.policy = policy
        self.ready: List[Job] = []
        self.current: Optional[Job] = None
        self._completion: Optional[ScheduledCall] = None
        self._quantum_call: Optional[ScheduledCall] = None
        self._run_started_at = 0.0
        self.completed_jobs: List[Job] = []
        #: optional cap on retained finished jobs.  ``None`` keeps the
        #: full history (analysis and tests read it); long-running worlds
        #: that only need recent jobs set a limit so memory — and
        #: snapshot size — stays constant regardless of run length.
        #: Aggregates (busy_time, response histogram, miss counter) are
        #: unaffected by trimming.
        self.job_history_limit: Optional[int] = None
        self.busy_time = 0.0
        self._completion_listeners: List[Callable[[Job], None]] = []
        self.halted = False
        self._parked_until: Optional[float] = None
        #: fault-injection hook consulted per activation.  ``None`` (the
        #: default) keeps the hot path at one attribute test.  When set,
        #: called as ``hook(task, scaled_wcet)`` and returns the possibly
        #: perturbed ``(scaled_wcet, release_delay)`` pair: an execution
        #: overrun stretches the wcet, release jitter delays the release
        #: while the deadline stays anchored at the nominal activation.
        self.fault_perturb: Optional[
            Callable[[TaskSpec, float], "tuple[float, float]"]
        ] = None
        #: relative clock drift of this core's timer hardware (e.g. 1e-4
        #: means periods run 0.01% long).  Applied by PeriodicSource to
        #: activation instants later than ``clock_drift_since``.
        self.clock_drift = 0.0
        self.clock_drift_since = 0.0
        # cached per-core instruments; no-ops while metrics are disabled
        metrics = sim.metrics
        self._m_releases = metrics.counter("os.releases", core=name)
        self._m_misses = metrics.counter("os.deadline_misses", core=name)
        self._m_preemptions = metrics.counter("os.preemptions", core=name)
        self._m_response = metrics.histogram("os.response", core=name)

    # -- public API ----------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Release ``job`` on this core."""
        if self.halted:
            return
        self.ready.append(job)
        self._m_releases.inc()
        sim = self.sim
        # guarded like every per-event trace: no kwargs dict when off
        if sim.tracer.enabled:
            sim.trace(
                "os.release",
                core=self.name,
                task=job.task.name,
                job=job.job_id,
                deadline=job.absolute_deadline,
            )
        self._reschedule()

    def submit_task_activation(self, task: TaskSpec, scaled_wcet: float) -> Job:
        """Create and release a job for ``task`` at the current instant."""
        release_delay = 0.0
        perturb = self.fault_perturb
        if perturb is not None:
            scaled_wcet, release_delay = perturb(task, scaled_wcet)
        sim = self.sim
        now = sim.now
        job = Job(task, now, now + task.effective_deadline, scaled_wcet,
                  sim.next_job_id())
        if release_delay > 0.0:
            # the deadline stays anchored at the nominal activation, so
            # injected release jitter produces genuine deadline pressure
            sim.schedule(release_delay, self.submit, job)
        else:
            self.submit(job)
        return job

    def set_clock_drift(self, drift: float) -> None:
        """Set (or clear, with ``0.0``) this core's relative clock drift.

        Drift takes effect from the current instant: activation times
        earlier than now are unaffected, later ones are stretched by
        ``(1 + drift)`` around the onset point.
        """
        self.clock_drift = drift
        self.clock_drift_since = self.sim.now

    def on_completion(self, listener: Callable[[Job], None]) -> None:
        """Register a callback invoked for every finished job."""
        self._completion_listeners.append(listener)

    def halt(self) -> None:
        """Stop the core (ECU failure): drop all work, accept nothing new."""
        self.halted = True
        self._cancel_timers()
        self.current = None
        self.ready.clear()

    def resume(self) -> None:
        """Bring a halted core back (ECU recovery)."""
        self.halted = False
        self._reschedule()

    def cancel_jobs_of(self, task_name: str) -> int:
        """Remove queued/running jobs of one task (app stop). Returns count."""
        removed = [j for j in self.ready if j.task.name == task_name]
        self.ready = [j for j in self.ready if j.task.name != task_name]
        count = len(removed)
        if self.current is not None and self.current.task.name == task_name:
            self._cancel_timers()
            self.current = None
            count += 1
            self._reschedule()
        return count

    @property
    def load_snapshot(self) -> int:
        """Jobs in the system right now (ready + running)."""
        return len(self.ready) + (1 if self.current is not None else 0)

    def utilization_observed(self) -> float:
        """Fraction of elapsed simulated time the core was busy."""
        if self.sim.now == 0:
            return 0.0
        busy = self.busy_time
        if self.current is not None:
            busy += self.sim.now - self._run_started_at
        return busy / self.sim.now

    # -- engine ----------------------------------------------------------------

    def _reschedule(self) -> None:
        if self.halted:
            return
        current = self.current
        ready = self.ready
        candidates = list(ready)
        if current is not None:
            self._sync_current()
            candidates.append(current)
        policy = self.policy
        now = self.sim.now
        choice = policy.pick(candidates, now)
        if choice is not None and choice is current:
            if self._completion is None and self._quantum_call is None:
                self._start_running(current)
            return
        if current is not None:
            if not policy.preemptive:
                return  # let the running job finish
            self._preempt_current()
        if choice is not None:
            # the newest release is the usual winner: pop it rather than
            # scan (and compare field by field) from the front
            if ready and ready[-1] is choice:
                ready.pop()
            elif choice in ready:
                ready.remove(choice)
            self.current = choice
            self._start_running(choice)
        else:
            self.current = None
            if ready:
                wake_at = policy.next_wakeup(now)
                if wake_at is not None and wake_at > now:
                    if self._parked_until is None or wake_at < self._parked_until:
                        self._parked_until = wake_at
                        self.sim.at(wake_at, self._unpark)

    def _sync_current(self) -> None:
        """Charge the running job for time elapsed since dispatch."""
        if self.current is None:
            return
        if self._completion is None and self._quantum_call is None:
            return  # not actually executing (mid-transition)
        elapsed = self.sim.now - self._run_started_at
        if elapsed > 0:
            self.current.remaining = max(0.0, self.current.remaining - elapsed)
            self.busy_time += elapsed
            self._run_started_at = self.sim.now

    def _preempt_current(self) -> None:
        job = self.current
        assert job is not None
        self._cancel_timers()
        if job.start_time is not None and job.start_time == self.sim.now:
            # dispatched and preempted within the same instant: the job
            # never actually executed, so it has not "started" yet
            job.start_time = None
        job.preemptions += 1
        self._m_preemptions.inc()
        self.ready.append(job)
        self.current = None
        self.sim.trace(
            "os.preempt", core=self.name, task=job.task.name, job=job.job_id
        )

    def _start_running(self, job: Job) -> None:
        sim = self.sim
        now = sim.now
        if job.start_time is None:
            job.start_time = now
        self._run_started_at = now
        run_for = job.remaining
        quantum = self.policy.quantum
        if self._completion is not None or self._quantum_call is not None:
            self._cancel_timers()
        if quantum is not None and quantum < run_for:
            self._quantum_call = sim.schedule(quantum, self._quantum_expired)
        else:
            self._completion = sim.schedule(run_for, self._complete)

    def _cancel_timers(self) -> None:
        # the core holds the only reference to these handles, so a
        # cancelled timer is provably dead and returns to the event
        # queue's free list once its heap entry surfaces
        if self._completion is not None:
            self._completion.pooled = True
            self._completion.cancel()
            self._completion = None
        if self._quantum_call is not None:
            self._quantum_call.pooled = True
            self._quantum_call.cancel()
            self._quantum_call = None

    def _unpark(self) -> None:
        self._parked_until = None
        if not self.halted and self.current is None:
            self._reschedule()

    def _quantum_expired(self) -> None:
        job = self.current
        if job is None:
            return
        elapsed = self.sim.now - self._run_started_at
        job.remaining = max(0.0, job.remaining - elapsed)
        self.busy_time += elapsed
        if self._quantum_call is not None:
            # currently dispatching and about to be dropped: recycle it
            self._quantum_call.pooled = True
            self._quantum_call = None
        self.current = None
        if job.remaining <= 1e-12:
            self._finish_job(job)
        else:
            self.ready.append(job)
            self.policy.on_quantum_expired(job, self.ready)
        self._reschedule()

    def _complete(self) -> None:
        job = self.current
        if job is None:
            return
        self.busy_time += self.sim.now - self._run_started_at
        job.remaining = 0.0
        completion = self._completion
        if completion is not None:
            completion.pooled = True
            self._completion = None
        self.current = None
        self._finish_job(job)
        self._reschedule()

    def _finish_job(self, job: Job) -> None:
        sim = self.sim
        now = sim.now
        job.finish_time = now
        completed = self.completed_jobs
        completed.append(job)
        limit = self.job_history_limit
        if limit is not None and len(completed) > limit:
            del completed[: len(completed) - limit]
        # the Job.response_time / Job.missed_deadline formulas, computed once
        response = now - job.release_time
        missed = now > job.absolute_deadline + 1e-12
        self._m_response.observe(response)
        if missed:
            self._m_misses.inc()
        if sim.tracer.enabled:
            sim.trace(
                "os.done",
                core=self.name,
                task=job.task.name,
                job=job.job_id,
                response=response,
                missed=missed,
                jitter=job.start_jitter,
            )
        for listener in self._completion_listeners:
            listener(job)


class PeriodicSource:
    """Releases jobs of a task periodically onto a core.

    Optional activation jitter models imperfect timers; the draw comes from
    the simulator-independent RNG stream supplied by the caller so runs stay
    reproducible.
    """

    def __init__(
        self,
        sim: Simulator,
        core: Core,
        task: TaskSpec,
        *,
        scaled_wcet: Optional[float] = None,
        activation_jitter: float = 0.0,
        jitter_draw: Optional[Callable[[], float]] = None,
        horizon: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.core = core
        self.task = task
        self.scaled_wcet = (
            scaled_wcet if scaled_wcet is not None else task.wcet / core.speed_factor
        )
        self.activation_jitter = activation_jitter
        self.jitter_draw = jitter_draw
        self.horizon = horizon
        self.jobs: List[Job] = []
        #: total jobs released, including any trimmed out of ``jobs``
        #: under the core's ``job_history_limit``
        self.released = 0
        # finished jobs folded out of ``jobs`` by trimming; miss_count()
        # and miss_ratio() stay exact, finished_jobs()/response_times()
        # cover only the retained window
        self._folded_finished = 0
        self._folded_misses = 0
        self.stopped = False
        self._activation_index = 0
        self._epoch = sim.now
        self._schedule_activation()

    def stop(self) -> None:
        """Cease releasing new jobs (running/queued jobs are unaffected)."""
        self.stopped = True

    def _schedule_activation(self) -> None:
        # Activation instants are computed as absolute offsets from the
        # epoch (offset + k * period) — no cumulative float drift — and
        # fire at urgent priority so a job released at instant T is visible
        # to any scheduling decision (e.g. a TT slot start) at T.
        when = self._epoch + self.task.offset + self._activation_index * self.task.period
        drift = self.core.clock_drift
        if drift:
            # stretch nominal instants after the drift onset: the local
            # timer ticks (1 + drift) slower/faster than the true clock
            since = self.core.clock_drift_since
            if when > since:
                when = since + (when - since) * (1.0 + drift)
        # nobody keeps the handle (stop() is a flag, not a cancel), so
        # release it to the event queue's free list once it has fired
        self.sim.at(
            max(when, self.sim.now), self._activate, priority=PRIORITY_URGENT
        ).pooled = True

    def _activate(self) -> None:
        if self.stopped:
            return
        if self.horizon is not None and self.sim.now >= self.horizon:
            return
        extra = 0.0
        if self.activation_jitter > 0 and self.jitter_draw is not None:
            extra = self.activation_jitter * self.jitter_draw()
        if extra > 0:
            self.sim.schedule(extra, self._release_job)
        else:
            self._release_job()
        self._activation_index += 1
        self._schedule_activation()

    def _release_job(self) -> None:
        if self.stopped:
            return
        job = self.core.submit_task_activation(self.task, self.scaled_wcet)
        self.jobs.append(job)
        self.released += 1
        limit = self.core.job_history_limit
        if limit is not None and len(self.jobs) > limit:
            self._trim(limit)

    def _trim(self, limit: int) -> None:
        # fold the oldest *finished* jobs into aggregate counters;
        # unfinished jobs are never dropped, so
        # unfinished_past_deadline() stays exact too
        jobs = self.jobs
        keep_from = 0
        excess = len(jobs) - limit
        while keep_from < excess and jobs[keep_from].finished:
            if jobs[keep_from].missed_deadline:
                self._folded_misses += 1
            self._folded_finished += 1
            keep_from += 1
        if keep_from:
            del jobs[:keep_from]

    # -- metrics ---------------------------------------------------------------

    def finished_jobs(self) -> List[Job]:
        """Finished jobs in the retained window (trimming drops oldest)."""
        return [j for j in self.jobs if j.finished]

    def miss_count(self) -> int:
        """Total deadline misses — exact even when history is trimmed."""
        return self._folded_misses + sum(
            1 for j in self.finished_jobs() if j.missed_deadline
        )

    def unfinished_past_deadline(self, now: float) -> int:
        """Jobs still incomplete although their deadline has passed."""
        return sum(
            1
            for j in self.jobs
            if not j.finished and j.absolute_deadline < now - 1e-12
        )

    def miss_ratio(self, now: Optional[float] = None) -> float:
        """Deadline-miss ratio over all released jobs."""
        if not self.released:
            return 0.0
        misses = self.miss_count()
        if now is not None:
            misses += self.unfinished_past_deadline(now)
        return misses / self.released

    def response_times(self) -> List[float]:
        return [j.response_time for j in self.finished_jobs()]

    def max_response_time(self) -> float:
        times = self.response_times()
        return max(times) if times else 0.0
