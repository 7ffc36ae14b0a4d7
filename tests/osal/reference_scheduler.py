"""A reference scheduler for one core, written from the scheduling rules.

:func:`reference_schedule` maps a task set, a policy configuration, a
release horizon and optional perturbations, halt window and
completion-listener rule to the job table a single core must produce.
It is the oracle for :class:`repro.osal.core.Core` and shares no code
with it, nor with ``repro.osal.policies`` or ``repro.sim``: it has no
held completions, no idle-core shortcut and no kernel.  Every
activation, release, completion and quantum cut is one entry of its own
event heap, and each of them asks the policy again.  Only the plain task
record (:class:`~repro.osal.task.TaskSpec`) is shared.

The rules it encodes:

* events at one instant run activations first, then everything else,
  each group in the order it was scheduled;
* the running job competes with the ready ones at every decision; a
  preemptive policy preempts it, a non-preemptive one lets it finish;
* a job preempted at the instant it was dispatched has not started, but
  its preemption counts;
* a sliced job runs at most one quantum per dispatch, then rotates;
* the budget server charges an NDA slice at the next decision and
  replenishes to full at each whole period; a core whose only ready jobs
  wait for budget sleeps until the next replenishment.
"""

import heapq
import itertools

#: the six policy configurations, as data: ``("fp",)``, ``("edf",)``,
#: ``("fifo",)``, ``("fair", quantum)`` and ``("mc", nda_quantum,
#: server_capacity, server_period)``, with no server when the capacity
#: is ``None``
CONFIGS = {
    "fixed_priority": ("fp",),
    "edf": ("edf",),
    "fifo": ("fifo",),
    "fair_share": ("fair", 0.001),
    "mixed_background": ("mc", 0.001, None, None),
    "mixed_server": ("mc", 0.001, 0.003, 0.01),
}

#: event classes at one instant: activations before everything else
ACTIVATION, OTHER = 0, 1
EPS = 1e-12


class RefJob:
    __slots__ = ("id", "task", "release", "deadline", "remaining", "start",
                 "finish", "preemptions")

    def __init__(self, job_id, task, release, demand):
        self.id = job_id
        self.task = task
        self.release = release
        self.deadline = release + task.effective_deadline
        self.remaining = demand
        self.start = None
        self.finish = None
        self.preemptions = 0

    def row(self):
        return (self.id, self.task.name, self.release, self.deadline,
                self.start, self.finish, self.preemptions, self.remaining)


def priority_key(job):
    """Explicit priority, else rate-monotonic; then release, then id."""
    level = job.task.priority
    return (job.task.period if level is None else float(level),
            job.release, job.id)


class RefPolicy:
    """Which job runs, and for how long before a quantum cut."""

    def __init__(self, config):
        self.kind = config[0]
        self.preemptive = self.kind in ("fp", "edf", "mc")
        self.quantum = config[1] if self.kind == "fair" else None
        self.rotation = []  # round-robin order, by job id
        if self.kind == "mc":
            self.nda_quantum, self.capacity, self.period = config[1:]
            self.budget = self.capacity
            self.replenished = 0.0
            self.nda_since = None  # dispatch instant of the last NDA pick

    def pick(self, jobs, now):
        if self.kind == "mc":
            return self.pick_mixed(jobs, now)
        if not jobs:
            return None
        if self.kind == "fp":
            return min(jobs, key=priority_key)
        if self.kind == "edf":
            return min(jobs, key=lambda j: (j.deadline, j.release, j.id))
        if self.kind == "fifo":
            return min(jobs, key=lambda j: (j.release, j.id))
        return self.round_robin(jobs)

    def round_robin(self, jobs):
        ids = {j.id for j in jobs}
        self.rotation = [i for i in self.rotation if i in ids]
        for job in sorted(jobs, key=lambda j: (j.release, j.id)):
            if job.id not in self.rotation:
                self.rotation.append(job.id)
        return next(j for j in jobs if j.id == self.rotation[0])

    def pick_mixed(self, jobs, now):
        if self.nda_since is not None:
            elapsed = now - self.nda_since
            self.nda_since = None
            if self.capacity is not None and elapsed > 0:
                self.budget = max(0.0, self.available(now) - elapsed)
        if not jobs:
            return None
        det = [j for j in jobs if j.task.is_deterministic]
        if det:
            self.quantum = None
            return min(det, key=priority_key)
        if self.capacity is None:
            self.quantum = self.nda_quantum
        else:
            budget = self.available(now)
            if budget <= EPS:
                return None
            self.quantum = min(self.nda_quantum, budget)
        self.nda_since = now
        return self.round_robin(jobs)

    def available(self, now):
        if now - self.replenished >= self.period:
            periods = int((now - self.replenished) / self.period)
            self.replenished += periods * self.period
            self.budget = self.capacity
        return self.budget

    def rotate(self, job):
        if self.rotation and self.rotation[0] == job.id:
            self.rotation.append(self.rotation.pop(0))

    def wakeup(self, now):
        """When an exhausted budget is back, or ``None``."""
        if self.kind != "mc" or self.capacity is None:
            return None
        if self.available(now) > EPS:
            return None
        return self.replenished + self.period


class RefCore:
    """One core of speed 1 and its own event heap."""

    def __init__(self, tasks, config, horizon, perturb, listener, extra):
        self.tasks = tasks
        self.policy = RefPolicy(config)
        self.horizon = horizon
        self.perturb = perturb
        self.listener = listener
        self.extra = extra
        self.heap = []
        self.seq = itertools.count()
        self.ids = itertools.count(1)
        self.draws = itertools.count()
        self.activations = [0] * len(tasks)
        self.jobs = []
        self.ready = []
        self.current = None
        self.timer = None
        self.started = 0.0
        self.halted = False
        self.parked = None
        self.finished = 0
        self.now = 0.0

    def push(self, time, cls, kind, arg=None):
        entry = [time, cls, next(self.seq), kind, arg]
        heapq.heappush(self.heap, entry)
        return entry

    def run(self, until):
        while self.heap and self.heap[0][0] <= until:
            self.now, _, _, kind, arg = heapq.heappop(self.heap)
            if kind is not None:  # a cancelled timer has none
                getattr(self, kind)(*(() if arg is None else (arg,)))

    # -- releases --------------------------------------------------------

    def schedule_activation(self, index):
        task = self.tasks[index]
        when = task.offset + self.activations[index] * task.period
        self.push(max(when, self.now), ACTIVATION, "activate", index)

    def activate(self, index):
        if self.now >= self.horizon:
            return
        task = self.tasks[index]
        self.release(task, task.wcet)
        self.activations[index] += 1
        self.schedule_activation(index)

    def release(self, task, demand):
        delay = 0.0
        if self.perturb is not None:
            overruns, delays = self.perturb
            draw = next(self.draws)
            demand *= 1.0 + overruns[draw % len(overruns)]
            delay = delays[draw % len(delays)]
        job = RefJob(next(self.ids), task, self.now, demand)
        self.jobs.append(job)
        if delay > 0.0:
            self.push(self.now + delay, OTHER, "submit", job)
        else:
            self.submit(job)

    def submit(self, job):
        if not self.halted:
            self.ready.append(job)
            self.decide()

    # -- decisions -------------------------------------------------------

    def decide(self):
        if self.halted:
            return
        running = self.current
        if running is not None:
            self.charge()
        choice = self.policy.pick(
            self.ready + ([] if running is None else [running]), self.now)
        if choice is not None and choice is running:
            return
        if running is not None:
            if not self.policy.preemptive:
                return
            self.cancel_timer()
            if running.start == self.now:
                running.start = None
            running.preemptions += 1
            self.ready.append(running)
            self.current = None
        if choice is not None:
            self.ready.remove(choice)
            self.dispatch(choice)
        elif self.ready:
            wake = self.policy.wakeup(self.now)
            if wake is not None and wake > self.now and (
                    self.parked is None or wake < self.parked):
                self.parked = wake
                self.push(wake, OTHER, "unpark")

    def dispatch(self, job):
        self.current = job
        if job.start is None:
            job.start = self.now
        self.started = self.now
        quantum = self.policy.quantum
        if quantum is not None and quantum < job.remaining:
            self.timer = self.push(self.now + quantum, OTHER, "slice")
        else:
            self.timer = self.push(self.now + job.remaining, OTHER, "done")

    def charge(self):
        """Take the running job's time since the last charge off its
        demand; every decision charges first."""
        elapsed = self.now - self.started
        if elapsed > 0:
            self.current.remaining = max(0.0, self.current.remaining - elapsed)
            self.started = self.now

    def cancel_timer(self):
        if self.timer is not None:
            self.timer[3] = None
            self.timer = None

    # -- timers and the outside world --------------------------------------

    def done(self):
        job, self.current, self.timer = self.current, None, None
        job.remaining = 0.0
        self.finish(job)
        self.decide()

    def slice(self):
        job = self.current
        left = job.remaining - (self.now - self.started)
        if left <= EPS:  # the cut found no demand left
            self.done()
            return
        self.current, self.timer = None, None
        job.remaining = left
        self.ready.append(job)
        self.policy.rotate(job)
        self.decide()

    def finish(self, job):
        job.finish = self.now
        self.finished += 1
        if self.listener is None or self.finished % 3:
            return
        if self.listener == "halt":
            self.halt()
            self.push(self.now + 0.001, OTHER, "resume")
        else:
            self.release(self.extra, self.extra.wcet)

    def halt(self):
        if self.current is not None:
            self.charge()
        self.halted = True
        self.cancel_timer()
        self.current = None
        self.ready.clear()

    def resume(self):
        self.halted = False
        self.decide()

    def unpark(self):
        self.parked = None
        if self.current is None:
            self.decide()


def reference_schedule(tasks, config, horizon, until, perturb=None,
                       halt=None, listener=None, extra=None):
    """The job table of ``tasks`` on one core of speed 1 under ``config``.

    Each task activates at ``offset + k * period`` while the activation
    instant is before ``horizon``; the core runs to ``until``.
    ``perturb`` is ``(overruns, delays)``: activation ``i`` (counted over
    all tasks) stretches its demand by ``1 + overruns[i % len]`` and
    delays its release by ``delays[i % len]``, its deadline still
    anchored at the activation.  ``halt`` is ``(at, duration)``: the
    core drops all work and accepts none in between.  ``listener``, on
    every third finished job, either halts the core for 1 ms
    (``"halt"``) or releases a job of the task ``extra`` (``"release"``).
    Rows are ``(id, task, release, deadline, start, finish, preemptions,
    remaining)`` in id order; ``start`` and ``finish`` are ``None`` for
    a job that never ran or never finished.
    """
    core = RefCore(tasks, config, horizon, perturb, listener, extra)
    for index in range(len(tasks)):
        core.schedule_activation(index)
    if halt is not None:
        core.push(halt[0], OTHER, "halt")
        core.push(halt[0] + halt[1], OTHER, "resume")
    core.run(until)
    return [job.row() for job in core.jobs]
