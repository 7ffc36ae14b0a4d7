"""Differential test: completions settled in place against completions
always pushed as events.

A job dispatched onto an idle core, with nothing able to observe its
finish, costs no completion event: the core holds the finish back and
settles it when something next touches the core.  A no-op completion
listener makes a core push every completion instead, as before the
shortcut existed.  Both worlds run the same task set and the same
mid-run readers — ``load_snapshot``, ``utilization_observed``,
``halt``, ``resume``, ``cancel_jobs_of``, the ``PeriodicSource`` miss
counts, a late completion listener — at random instants and
priorities.  What the readers saw, the job table, the core and policy
state, the metrics (``sim.events`` included) and the sequence numbers
taken must agree.
"""

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry
from repro.osal import Core, FixedPriorityPolicy, PeriodicSource, TaskSpec
from repro.osal.task import Job
from repro.sim import PRIORITY_LATE, PRIORITY_NORMAL, PRIORITY_URGENT, Simulator, Tracer

from .worlds import (
    CASES,
    POLICIES,
    Perturb,
    build_tasks,
    perturbations,
    state_of,
    task_params,
)

PRIORITIES = (PRIORITY_URGENT, PRIORITY_NORMAL, PRIORITY_LATE)
KINDS = ("load", "util", "halt", "resume", "cancel", "misses", "listen")

#: reader instants: the 0.5 ms grid meets release and finish instants
#: exactly, the floats land anywhere
instants = st.one_of(
    st.integers(min_value=0, max_value=130).map(lambda k: k * 0.0005),
    st.floats(min_value=0.0, max_value=0.065),
)

readers = st.lists(
    st.tuples(
        instants,
        st.sampled_from(PRIORITIES),
        st.sampled_from(KINDS),
        # scheduled before the run (a low sequence number) or from an
        # event 1 ms earlier (a sequence number taken mid-run)
        st.booleans(),
        st.integers(min_value=0, max_value=4),   # task index / resume gap
    ),
    max_size=8,
)


def noop(job):
    pass


class Reader:
    """One mid-run read or action on the core, logged as it saw it."""

    def __init__(self, sim, core, sources, log, kind, priority, arg):
        self.sim = sim
        self.core = core
        self.sources = sources
        self.log = log
        self.kind = kind
        self.priority = priority
        self.arg = arg

    def read(self):
        sim, core, kind, log = self.sim, self.core, self.kind, self.log
        now = sim.now
        if kind == "load":
            log.append((now, kind, core.load_snapshot))
        elif kind == "util":
            log.append((now, kind, core.utilization_observed()))
        elif kind == "halt":
            core.halt()
            sim.post(0.0005 * self.arg, core.resume, priority=self.priority)
        elif kind == "resume":
            core.resume()  # on a core that need not be halted
        elif kind == "cancel":
            name = self.sources[self.arg % len(self.sources)].task.name
            log.append((now, kind, core.cancel_jobs_of(name)))
        elif kind == "misses":
            log.append((now, kind, [(s.miss_count(),
                                     s.unfinished_past_deadline(now))
                                    for s in self.sources]))
        else:
            core.on_completion(self.done)

    def done(self, job):
        self.log.append((self.sim.now, "done", job.job_id))


def add_reader(sim, core, sources, log, when, priority, kind, relay, arg):
    read = Reader(sim, core, sources, log, kind, priority, arg).read
    if relay and when >= 0.001:
        sim.at(when - 0.001, partial(sim.at, when, read, priority=priority))
    else:
        sim.at(when, read, priority=priority)


def simulate(policy_name, tasks, perturb=None, reads=(), split=None,
             always_push=False):
    sim = Simulator(metrics=MetricsRegistry())
    policy = POLICIES[policy_name]()
    core = Core(sim, "core0", 1.0, policy)
    if always_push:
        core.on_completion(noop)
    if perturb is not None:
        core.fault_perturb = Perturb(*perturb)
    sources = [PeriodicSource(sim, core, task, horizon=0.05) for task in tasks]
    log = []
    for read in reads:
        add_reader(sim, core, sources, log, *read)
    if split is not None:
        sim.run(until=split)
        # nothing is held back between runs
        assert core._due is None
    sim.run(until=0.07)
    stats = sim.queue.stats()
    jobs = sorted((j for s in sources for j in s.jobs), key=lambda j: j.job_id)
    return {
        "jobs": [
            (j.job_id, j.release_time, j.absolute_deadline, j.start_time,
             j.finish_time, j.preemptions, j.remaining)
            for j in jobs
        ],
        "log": log,
        "busy_time": core.busy_time,
        "current": None if core.current is None else core.current.job_id,
        "ready": [j.job_id for j in core.ready],
        "parked_until": core._parked_until,
        "completed": [j.job_id for j in core.completed_jobs],
        "policy": state_of(policy),
        "metrics": sim.metrics.snapshot(),
        "seq": sim.queue.reserve(),
        "now": sim.now,
    }, stats["pool_reuses"] + stats["pool_creations"]


class TestDeferralMatchesAlwaysPush:
    @given(
        st.sampled_from(sorted(POLICIES)),
        st.lists(task_params, min_size=1, max_size=5),
        perturbations,
        readers,
        st.one_of(st.none(), instants),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_worlds(self, policy_name, params, perturb, reads, split):
        tasks = build_tasks(params)
        args = (policy_name, tasks, perturb, reads, split)
        deferred, pushes = simulate(*args)
        pushed, all_pushes = simulate(*args, always_push=True)
        assert deferred == pushed
        assert pushes <= all_pushes

    def test_fixed_cases_under_every_configuration(self):
        reads = (
            (0.0105, PRIORITY_NORMAL, "halt", False, 3),
            (0.02, PRIORITY_LATE, "util", True, 0),
            (0.0255, PRIORITY_URGENT, "misses", False, 0),
            (0.031, PRIORITY_NORMAL, "cancel", True, 1),
            (0.04, PRIORITY_NORMAL, "load", False, 0),
            (0.045, PRIORITY_URGENT, "listen", True, 0),
        )
        for params in CASES:
            tasks = build_tasks(params)
            for policy_name in POLICIES:
                for perturb in (None, ([0.0, 2.0], [0.0, 0.0013])):
                    for split in (None, 0.0125):
                        args = (policy_name, tasks, perturb, reads, split)
                        deferred, pushes = simulate(*args)
                        pushed, all_pushes = simulate(*args, always_push=True)
                        assert deferred == pushed, args
                        assert deferred["completed"], args
                        assert pushes <= all_pushes, args
                        if policy_name in ("fixed_priority", "edf", "fifo"):
                            # no quantum cuts a job under these policies
                            assert pushes < all_pushes, args

    def test_reads_between_the_finish_and_the_next_release(self):
        # job 1 finishes at 2 ms, misses nothing, and is past its 3 ms
        # deadline at 5 ms: nothing but the readers touches the core
        # before the next release at 10 ms
        tasks = build_tasks([(0.01, 0.2, False, 0.0, 0.3, None)])
        seen = {}
        for kind in ("misses", "util", "load", "resume"):
            reads = ((0.005, PRIORITY_NORMAL, kind, False, 0),)
            deferred, pushes = simulate("fixed_priority", tasks, None, reads)
            pushed, all_pushes = simulate("fixed_priority", tasks, None, reads,
                                          always_push=True)
            assert deferred == pushed, kind
            assert pushes < all_pushes, kind
            seen[kind] = deferred["log"]
        assert seen == {
            "misses": [(0.005, "misses", [(0, 0)])],
            "util": [(0.005, "util", 0.4)],
            "load": [(0.005, "load", 0)],
            "resume": [],
        }


LOOP = TaskSpec("loop", period=0.01, wcet=0.004, priority=2)
HI = TaskSpec("hi", period=0.01, wcet=0.001, priority=1)


def tie_world(early, always_push=False):
    """``loop`` is released at 0 and due at 4 ms; a NORMAL-priority
    release of ``hi`` lands exactly on 4 ms.  ``early`` posts it before
    the run, so its sequence number is below the one ``loop``'s
    completion reserved; otherwise an event at 1 ms posts it, above."""
    sim = Simulator(metrics=MetricsRegistry())
    core = Core(sim, "core0", 1.0, FixedPriorityPolicy())
    if always_push:
        core.on_completion(noop)
    source = PeriodicSource(sim, core, LOOP, horizon=0.005)
    job = Job(HI, 0.004, 0.014, HI.wcet, 99)
    if early:
        sim.at(0.004, core.submit, job)
    else:
        sim.at(0.001, partial(sim.at, 0.004, core.submit, job))
    sim.run(until=0.02)
    first = source.jobs[0]
    table = [(j.job_id, j.start_time, j.finish_time, j.preemptions)
             for j in (first, job)]
    stats = sim.queue.stats()
    return (table, core.busy_time, sim.metrics.snapshot(),
            sim.queue.reserve()), stats["pool_reuses"] + stats["pool_creations"]


class TestExactTies:
    def test_release_with_lower_seq_sees_the_running_job(self):
        # the release sorts before the completion: hi preempts loop,
        # which has no time left, and loop finishes after hi
        deferred, pushes = tie_world(early=True)
        pushed, all_pushes = tie_world(early=True, always_push=True)
        assert deferred == pushed
        assert deferred[0] == [(1, 0.0, 0.005, 1), (99, 0.004, 0.005, 0)]
        # loop's held completion had to be pushed, but loop resumes
        # after hi with nothing else ready, so its finish is held again
        assert pushes < all_pushes

    def test_release_with_higher_seq_finds_the_core_idle(self):
        # the completion sorts first: loop finishes at 4 ms and hi is
        # dispatched onto the idle core
        deferred, pushes = tie_world(early=False)
        pushed, all_pushes = tie_world(early=False, always_push=True)
        assert deferred == pushed
        assert deferred[0] == [(1, 0.0, 0.004, 0), (99, 0.004, 0.005, 0)]
        assert pushes < all_pushes


class TestDroppedJobKeepsItsBusyTime:
    """``halt`` and ``cancel_jobs_of`` charge the running job for the
    time it ran before they drop it."""

    def run_to_mid_job(self):
        sim = Simulator()
        core = Core(sim, "core0", 1.0, FixedPriorityPolicy())
        PeriodicSource(sim, core, TaskSpec("t", period=0.010, wcet=0.004))
        sim.run(until=0.012)
        # 4 ms of job 1 and 2 ms of job 2 in 12 ms
        assert core.utilization_observed() == 0.5
        return core

    def test_halt(self):
        core = self.run_to_mid_job()
        core.halt()
        assert core.current is None
        assert core.utilization_observed() == 0.5

    def test_cancel_jobs_of(self):
        core = self.run_to_mid_job()
        assert core.cancel_jobs_of("t") == 1
        assert core.utilization_observed() == 0.5


#: a light mixed set: its deterministic jobs mostly run alone
LIGHT = [(0.005, 0.2, False, 0.0, None, None),
         (0.01, 0.15, True, 0.0025, None, None),
         (0.02, 0.1, False, 0.004, 0.5, 1)]


def soak_world(tasks=LIGHT, policy_name="mixed_server", tracer=None):
    sim = Simulator(tracer, metrics=MetricsRegistry())
    core = Core(sim, "core0", 1.0, POLICIES[policy_name]())
    sources = [PeriodicSource(sim, core, task, horizon=0.05)
               for task in build_tasks(tasks)]
    sim.adopt("core", core)
    sim.adopt("sources", sources)
    return sim


def outcome(sim):
    core = sim.world["core"]
    jobs = sorted((j for s in sim.world["sources"] for j in s.jobs),
                  key=lambda j: j.job_id)
    return ([(j.job_id, j.start_time, j.finish_time, j.preemptions)
             for j in jobs],
            core.busy_time, state_of(core.policy), sim.metrics.snapshot(),
            sim.queue.reserve(), sim.now)


#: 10.5 ms: the deterministic job released at 10 ms runs alone, its
#: completion held back during the first run
MID_JOB = 0.0105


class TestSnapshotTracerAndStep:
    def test_mid_job_snapshot_restores_to_the_same_world(self):
        straight = soak_world()
        straight.run(until=0.07)
        sim = soak_world()
        sim.run(until=MID_JOB)
        core = sim.world["core"]
        # the job was dispatched on release onto an idle core, and its
        # held completion was pushed when run() returned
        job = core.current
        assert job.start_time == job.release_time and not core.ready
        assert core._completion is not None and core._due is None
        restored = sim.snapshot().restore()
        restored.run(until=0.07)
        sim.run(until=0.07)
        expected = outcome(straight)
        assert outcome(restored) == expected
        assert outcome(sim) == expected

    def test_tracer_enabled_between_runs(self):
        traced = soak_world(tracer=Tracer())
        traced.run(until=0.07)
        sim = soak_world()
        sim.run(until=MID_JOB)
        sim.tracer = Tracer()
        sim.run(until=0.07)
        expected = [e for e in traced.tracer.entries if e.time > MID_JOB]
        assert list(sim.tracer.entries) == expected
        # the job running at MID_JOB finishes in the traced run
        assert any(e.category == "os.done" and e.time < MID_JOB + 0.002
                   for e in sim.tracer.entries)
        assert outcome(sim) == outcome(traced)

    def test_step_dispatches_every_completion(self):
        def steps(always_push):
            sim = soak_world()
            if always_push:
                sim.world["core"].on_completion(noop)
            seen = []
            while sim.queue.peek_time() is not None and sim.now < 0.07:
                call = sim.queue.peek_call()
                seen.append((call.time, call.priority, call.seq,
                             call.callback.__name__))
                sim.step()
            return seen, outcome(sim)

        # step() holds nothing back: every completion is a dispatched event
        stepped = steps(always_push=False)
        assert stepped == steps(always_push=True)
        assert any(name == "_complete" for *_key, name in stepped[0])
