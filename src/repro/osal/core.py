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

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SchedulingError
from ..obs.metrics import Identity, Instrument, identity
from ..sim import PRIORITY_NORMAL, PRIORITY_URGENT, ScheduledCall, Simulator
from .task import Job, TaskSpec


class SchedulingPolicy:
    """Chooses the next job to run.  Stateless unless a subclass says so."""

    __slots__ = ()

    #: Whether an arriving higher-priority job may preempt a running one.
    preemptive = True

    #: Round-robin time slice; ``None`` disables slicing.
    quantum: Optional[float] = None

    def pick(self, ready: List[Job], now: float) -> Optional[Job]:
        """Return the job that should occupy the core, or ``None``."""
        raise NotImplementedError

    def on_quantum_expired(self, job: Job, ready: List[Job]) -> None:
        """Hook invoked when a sliced job exhausts its quantum."""

    def pick_sole(self, job: Job, now: float) -> Optional[Job]:
        """``pick([job], now)`` for an idle core with nothing else ready.

        :meth:`Core.submit` asks this instead of building a candidate
        list.  An override must return what ``pick([job], now)`` would
        and leave the policy in the same state.
        """
        return self.pick([job], now)

    def idle(self, now: float) -> None:
        """``pick([], now)`` for a core left with no job at all.

        :meth:`Core._finish_current` calls this instead of
        ``_reschedule`` when the finished job leaves the ready list
        empty; an override must leave the policy in the state
        ``pick([], now)`` would.
        """
        self.pick([], now)

    def next_wakeup(self, now: float) -> Optional[float]:
        """If ``pick`` returned ``None`` despite ready jobs, when to retry.

        Lets budget-style policies park the core until replenishment.
        """
        return None

    def describe(self) -> str:
        return type(self).__name__


#: a core's instruments: handle attribute -> (kind, name), labelled by core
_CORE_METRICS = {
    "_m_releases": ("counter", "os.releases"),
    "_m_misses": ("counter", "os.deadline_misses"),
    "_m_preemptions": ("counter", "os.preemptions"),
    "_m_response": ("histogram", "os.response"),
}
#: core name -> handle attribute -> canonical key of the instrument
_CORE_KEYS: Dict[str, Dict[str, Identity]] = {}


def _core_keys(name: str) -> Dict[str, Identity]:
    keys = _CORE_KEYS.get(name)
    if keys is None:
        keys = _CORE_KEYS[name] = {
            attr: identity(kind, metric, core=name)
            for attr, (kind, metric) in _CORE_METRICS.items()
        }
    return keys


class Core:
    """One processing core of an ECU.

    A job takes one path.  It is dispatched by :meth:`_start_running`,
    whether it arrives on an idle core, wins a ``_reschedule`` or
    resumes after a preemption or a quantum, and it finishes through
    :meth:`_finish_current`.  ``_start_running`` arms one timer per
    dispatch: a quantum cut if the policy slices the job; else the
    completion, held back from the event queue when nothing can observe
    it (``run()`` is dispatching, nothing else is ready, no completion
    listener, tracer off, no sanitizer); else the completion event.
    Every public entry settles a held completion first
    (:meth:`settle_deferred`).
    """

    #: finish instant of a completion held back from the event queue (see
    #: :meth:`settle_deferred`), and its reserved sequence number.  Class
    #: defaults: a core that never holds one back carries neither, so
    #: building and snapshotting idle cores costs nothing extra.
    #: ``_due_seq`` is ``None`` until the first one.
    _due: Optional[float] = None
    _due_seq: Optional[int] = None

    #: per-core instrument handles, ``None`` until first used: the core
    #: reserves its instruments at construction and :meth:`_materialise`
    #: makes one private when it first counts, so a core that never
    #: releases a job, misses or is preempted owns no instrument.  The
    #: handles are no-ops while metrics are disabled.
    _m_releases = None
    _m_misses = None
    _m_preemptions = None
    _m_response = None

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
        #: completion callbacks.  The shared empty tuple until the first
        #: :meth:`on_completion`, so a listener-free core carries no
        #: container of its own; an instance attribute, not a class
        #: default, because it is read per job and CPython 3.11 does not
        #: specialise loads that fall through to the class
        self._completion_listeners: Tuple[Callable[[Job], None], ...] = ()
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
        sim.metrics.reserve(_core_keys(name).values())

    # -- public API ----------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Release ``job`` on this core."""
        if self.halted:
            return
        sim = self.sim
        if self._due is not None:
            # _touch, inlined on the per-job path
            call = sim.dispatching
            self.settle_deferred(call.time, call.priority, call.seq)
        (self._m_releases or self._materialise("_m_releases")).inc()
        # guarded like every per-event trace: no kwargs dict when off
        if sim.tracer.enabled:
            sim.trace(
                "os.release",
                core=self.name,
                task=job.task.name,
                job=job.job_id,
                deadline=job.absolute_deadline,
            )
        ready = self.ready
        if self.current is None and not ready:
            # idle core: ``job`` is the only candidate, so the policy is
            # asked about it alone, without a candidate list
            if self.policy.pick_sole(job, sim.now) is job:
                self.current = job
                self._start_running(job)
                return
            # declined (an exhausted budget): queue it and let the
            # general path park the core
        ready.append(job)
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
            sim.post(release_delay, self.submit, job)
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
        self._touch()
        self._completion_listeners += (listener,)

    def halt(self) -> None:
        """Stop the core (ECU failure): drop all work, accept nothing new."""
        self._touch()
        # the dropped job ran until now: charge that time before dropping
        self._sync_current()
        self.halted = True
        self._cancel_timers()
        self.current = None
        self.ready.clear()

    def resume(self) -> None:
        """Bring a halted core back (ECU recovery)."""
        self._touch()
        self.halted = False
        self._reschedule()

    def cancel_jobs_of(self, task_name: str) -> int:
        """Remove queued/running jobs of one task (app stop). Returns count."""
        self._touch()
        removed = [j for j in self.ready if j.task.name == task_name]
        self.ready = [j for j in self.ready if j.task.name != task_name]
        count = len(removed)
        if self.current is not None and self.current.task.name == task_name:
            self._sync_current()
            self._cancel_timers()
            self.current = None
            count += 1
            self._reschedule()
        return count

    @property
    def load_snapshot(self) -> int:
        """Jobs in the system right now (ready + running)."""
        self._touch()
        return len(self.ready) + (1 if self.current is not None else 0)

    def utilization_observed(self) -> float:
        """Fraction of elapsed simulated time the core was busy."""
        self._touch()
        if self.sim.now == 0:
            return 0.0
        busy = self.busy_time
        if self.current is not None:
            busy += self.sim.now - self._run_started_at
        return busy / self.sim.now

    # -- deferred completion ---------------------------------------------------

    def settle_deferred(self, time: float, priority: int, seq: int) -> bool:
        """Resolve a held-back completion against the event key
        ``(time, priority, seq)`` (the kernel's settler protocol).

        If the completion sorts before that key, it would already have
        been dispatched, and nothing has looked at the core since: finish
        the job in place, at its due instant, through the helper
        :meth:`_complete` uses.  Otherwise push the completion event with
        its reserved sequence number and return ``True``.
        """
        due = self._due
        if due is None:
            return False
        self._due = None
        if due < time or (due == time and (PRIORITY_NORMAL, self._due_seq)
                          < (priority, seq)):
            self.sim.events_counter.inc()
            self._finish_current(due)
            return False
        self._completion = self.sim.queue.push(
            due, self._complete, (), PRIORITY_NORMAL, self._due_seq)
        return True

    def _materialise(self, attr: str) -> Instrument:
        """Make the reserved instrument behind handle ``attr`` private in
        the core's registry, keep the handle and return it."""
        instrument = self.sim.metrics.materialise(_core_keys(self.name)[attr])
        setattr(self, attr, instrument)
        return instrument

    def _touch(self) -> None:
        """Resolve a held-back completion against the event in dispatch,
        before anything reads or changes the core."""
        if self._due is not None:
            call = self.sim.dispatching
            self.settle_deferred(call.time, call.priority, call.seq)

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
            return  # it keeps running, its timer armed
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
                        self.sim.at(wake_at, self._unpark).pooled = True

    def _sync_current(self) -> None:
        """Charge the running job for time elapsed since dispatch."""
        if self.current is None:
            return
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
        (self._m_preemptions or self._materialise("_m_preemptions")).inc()
        self.ready.append(job)
        self.current = None
        if self.sim.tracer.enabled:
            self.sim.trace(
                "os.preempt", core=self.name, task=job.task.name, job=job.job_id
            )

    def _start_running(self, job: Job) -> None:
        """Dispatch ``job`` and arm its one timer: a quantum cut if the
        policy slices it, else its completion, held back while nothing
        can observe the finish (see :meth:`settle_deferred`)."""
        sim = self.sim
        now = sim.now
        if job.start_time is None:
            job.start_time = now
        self._run_started_at = now
        run_for = job.remaining
        quantum = self.policy.quantum
        # straight onto the queue: sim.schedule's sign test is moot for a
        # non-negative demand, and now + 0.0 == now
        if quantum is not None and quantum < run_for:
            self._quantum_call = sim.queue.push(
                now + quantum, self._quantum_expired)
        elif (not self.ready
              and sim.dispatching is not None
              and not self._completion_listeners
              and not sim.tracer.enabled
              and sim.sanitizer is None):
            # nothing else is ready and nothing can observe the finish:
            # hold the completion back, keeping its place in the event
            # order, and settle it when something next touches the core
            if self._due_seq is None:
                sim.add_settler(self)  # the first one it holds
            self._due = now + run_for
            self._due_seq = sim.queue.reserve()
        else:
            self._completion = sim.queue.push(now + run_for, self._complete)

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
        self._touch()
        self._parked_until = None
        if not self.halted and self.current is None:
            self._reschedule()

    def _quantum_expired(self) -> None:
        # currently dispatching and about to be dropped: recycle it
        self._quantum_call.pooled = True
        self._quantum_call = None
        job = self.current
        now = self.sim.now
        elapsed = now - self._run_started_at
        remaining = job.remaining - elapsed
        if remaining <= 1e-12:
            self._finish_current(now)
            return
        job.remaining = remaining
        self.busy_time += elapsed
        self.current = None
        ready = self.ready
        ready.append(job)
        self.policy.on_quantum_expired(job, ready)
        self._reschedule()

    def _complete(self) -> None:
        # currently dispatching and about to be dropped: recycle it
        self._completion.pooled = True
        self._completion = None
        self._finish_current(self.sim.now)

    def _finish_current(self, now: float) -> None:
        """Finish the running job at ``now`` and choose what runs next.

        The one completion path: for a completion event, a held
        completion settled in place and a quantum cut that leaves no
        demand alike.
        """
        job = self.current
        self.busy_time += now - self._run_started_at
        job.remaining = 0.0
        self.current = None
        job.finish_time = now
        completed = self.completed_jobs
        completed.append(job)
        limit = self.job_history_limit
        if limit is not None and len(completed) > limit:
            del completed[: len(completed) - limit]
        # the Job.response_time / Job.missed_deadline formulas, computed once
        response = now - job.release_time
        missed = now > job.absolute_deadline + 1e-12
        (self._m_response or self._materialise("_m_response")).observe(response)
        if missed:
            (self._m_misses or self._materialise("_m_misses")).inc()
        sim = self.sim
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
        if self.current is None and not self.ready and not self.halted:
            # nothing left to choose from (a completion listener may have
            # released or halted): _reschedule would only run pick([])
            self.policy.idle(now)
        else:
            self._reschedule()


class PeriodicSource:
    """Releases jobs of a task periodically onto a core.

    Optional activation jitter models imperfect timers; the draw comes from
    the simulator-independent RNG stream supplied by the caller so runs stay
    reproducible.

    Each activation is an urgent event.  A dispatched activation goes on
    to run the source's next ones in place, an *activation train*, for as
    long as each is exactly the event the kernel would dispatch next
    (:meth:`Simulator.dispatch_in_place`); it pushes the first one that
    is not.  That one comparison ends the train at a completion event or
    a delayed release it pushed itself, at another source's activation
    and at ``run``'s ``until`` alike.
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
        self._push_activation(self._next_activation())

    def stop(self) -> None:
        """Cease releasing new jobs (running/queued jobs are unaffected)."""
        self.stopped = True

    def _next_activation(self) -> float:
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
        # never in the past, so sim.at's check is moot on the push
        return max(when, self.sim.now)

    def _push_activation(self, when: float) -> None:
        # nobody keeps the handle (stop() is a flag, not a cancel), so
        # release it to the event queue's free list once it has fired
        self.sim.queue.push(when, self._activate, (), PRIORITY_URGENT).pooled = True

    def _activate(self) -> None:
        """Release one job per activation of the train (see the class
        docstring) and push the activation that ends it."""
        sim = self.sim
        while True:
            if self.stopped:
                return
            if self.horizon is not None and sim.now >= self.horizon:
                return
            extra = 0.0
            if self.activation_jitter > 0 and self.jitter_draw is not None:
                extra = self.activation_jitter * self.jitter_draw()
            if extra > 0:
                sim.post(extra, self._release_job)
            else:
                self._release_job()
            self._activation_index += 1
            when = self._next_activation()
            if not sim.dispatch_in_place(when, PRIORITY_URGENT):
                self._push_activation(when)
                return

    def _release_job(self) -> None:
        if self.stopped:
            return
        core = self.core
        jobs = self.jobs
        jobs.append(core.submit_task_activation(self.task, self.scaled_wcet))
        self.released += 1
        limit = core.job_history_limit
        if limit is None:
            return
        # fold the oldest *finished* jobs beyond the limit into aggregate
        # counters (Job.finished / Job.missed_deadline, read as plain
        # fields); unfinished jobs are never dropped, so
        # unfinished_past_deadline() stays exact too
        excess = len(jobs) - limit
        keep_from = 0
        misses = 0
        while keep_from < excess:
            job = jobs[keep_from]
            finish = job.finish_time
            if finish is None:
                break
            if finish > job.absolute_deadline + 1e-12:
                misses += 1
            keep_from += 1
        if keep_from:
            self._folded_finished += keep_from
            self._folded_misses += misses
            del jobs[:keep_from]

    # -- metrics ---------------------------------------------------------------

    def finished_jobs(self) -> List[Job]:
        """Finished jobs in the retained window (trimming drops oldest)."""
        self.core._touch()
        return [j for j in self.jobs if j.finished]

    def miss_count(self) -> int:
        """Total deadline misses — exact even when history is trimmed."""
        return self._folded_misses + sum(
            1 for j in self.finished_jobs() if j.missed_deadline
        )

    def unfinished_past_deadline(self, now: float) -> int:
        """Jobs still incomplete although their deadline has passed."""
        self.core._touch()
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
