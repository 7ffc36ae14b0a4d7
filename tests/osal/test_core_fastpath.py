"""Differential test: the idle-core release and empty-ready completion
shortcuts of :class:`Core` against the general scheduling path.

``GeneralPathCore`` sends every release through ``ready.append`` +
``_reschedule`` and every completion through ``_reschedule`` — the
algorithm before the shortcuts existed.  Both cores run the same random
task set under the same policy configuration; everything observable
must agree: the job table, the core and policy state, the metrics, the
trace and the number of events pushed and dispatched.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry
from repro.osal import (
    BudgetServer,
    Core,
    Criticality,
    EdfPolicy,
    FairSharePolicy,
    FifoPolicy,
    FixedPriorityPolicy,
    MixedCriticalityPolicy,
    PeriodicSource,
    TaskSpec,
)
from repro.osal.task import Job
from repro.sim import Simulator, Tracer


class GeneralPathCore(Core):
    """A core whose every decision goes through ``_reschedule``."""

    def submit(self, job):
        if self.halted:
            return
        self.ready.append(job)
        (self._m_releases or self._materialise("_m_releases")).inc()
        sim = self.sim
        if sim.tracer.enabled:
            sim.trace(
                "os.release",
                core=self.name,
                task=job.task.name,
                job=job.job_id,
                deadline=job.absolute_deadline,
            )
        self._reschedule()

    def _complete(self):
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
        self._finish_job(job, self.sim.now)
        self._reschedule()


#: the six policy configurations of TestPinnedSchedules
POLICIES = {
    "fixed_priority": FixedPriorityPolicy,
    "edf": EdfPolicy,
    "fifo": FifoPolicy,
    "fair_share": lambda: FairSharePolicy(quantum=0.001),
    "mixed_background": lambda: MixedCriticalityPolicy(server=None),
    "mixed_server": lambda: MixedCriticalityPolicy(
        server=BudgetServer(capacity=0.003, period=0.01)
    ),
}


class Perturb:
    """A deterministic ``Core.fault_perturb``: cycles through overrun
    stretches and release delays, one pair per activation."""

    def __init__(self, overruns, delays):
        self.overruns = overruns
        self.delays = delays
        self.calls = 0

    def __call__(self, task, scaled_wcet):
        i = self.calls
        self.calls += 1
        return (scaled_wcet * (1.0 + self.overruns[i % len(self.overruns)]),
                self.delays[i % len(self.delays)])


#: sporadic task a completion listener releases in "release" mode
EXTRA = TaskSpec(name="extra", period=0.01, wcet=0.0007,
                 criticality=Criticality.NON_DETERMINISTIC)


class Listener:
    """A completion listener acting on every third finished job: it halts
    the core (resumed 1 ms later) or releases an extra job, so the
    completion path meets a halted core or a busy one."""

    def __init__(self, core, mode):
        self.core = core
        self.mode = mode
        self.seen = 0

    def __call__(self, job):
        self.seen += 1
        if self.seen % 3:
            return
        core = self.core
        if self.mode == "halt":
            core.halt()
            core.sim.post(0.001, core.resume)
        else:
            core.submit_task_activation(EXTRA, EXTRA.wcet)


UNSET = "<unset slot>"


def state_of(obj):
    """Every attribute of a policy, from its slots and its ``__dict__``
    alike, with its type and its server / round-robin helper expanded
    (job ids are sim-local, so rotations compare directly)."""
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.update((slots,) if isinstance(slots, str) else slots)
    names -= {"__dict__", "__weakref__"}
    out = {"__class__": type(obj).__qualname__}
    for key in sorted(names):
        value = getattr(obj, key, UNSET)
        if isinstance(value, (BudgetServer, FairSharePolicy)):
            value = state_of(value)
        out[key] = value
    return out


def simulate(core_cls, policy_name, tasks, perturb=None, halt=None,
             listener=None, trace=True):
    sim = Simulator(Tracer(enabled=trace), metrics=MetricsRegistry())
    policy = POLICIES[policy_name]()
    core = core_cls(sim, "core0", 1.0, policy)
    if perturb is not None:
        core.fault_perturb = Perturb(*perturb)
    if listener is not None:
        core.on_completion(Listener(core, listener))
    sources = [PeriodicSource(sim, core, task, horizon=0.05) for task in tasks]
    if halt is not None:
        sim.at(halt[0], core.halt)
        sim.at(halt[0] + halt[1], core.resume)
    sim.run(until=0.07)
    jobs = sorted((j for s in sources for j in s.jobs), key=lambda j: j.job_id)
    return {
        "jobs": [
            (j.job_id, j.release_time, j.absolute_deadline, j.start_time,
             j.finish_time, j.preemptions, j.remaining)
            for j in jobs
        ],
        "busy_time": core.busy_time,
        "current": None if core.current is None else core.current.job_id,
        "ready": [j.job_id for j in core.ready],
        "parked_until": core._parked_until,
        "completed": [j.job_id for j in core.completed_jobs],
        "policy": state_of(policy),
        "metrics": sim.metrics.snapshot(),
        "trace": list(sim.tracer.entries),
        "pushed": next(sim.queue._counter),
        "now": sim.now,
    }


PERIODS = (0.002, 0.004, 0.005, 0.008, 0.01, 0.02)

task_params = st.tuples(
    st.sampled_from(PERIODS),
    # utilization: grid values make a job drain the budget server
    # exactly, the case where an idle core's release is declined
    st.one_of(st.sampled_from((0.1, 0.2, 0.25, 0.5)),
              st.floats(min_value=0.05, max_value=0.6)),
    st.booleans(),                                    # non-deterministic
    st.sampled_from((0.0, 0.0, 0.001, 0.0025, 0.004)),  # offset
    st.one_of(st.none(), st.floats(min_value=0.3, max_value=1.0)),  # deadline
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),    # priority
)


def build_tasks(params):
    tasks = []
    for i, (period, util, nda, offset, deadline, priority) in enumerate(params):
        tasks.append(TaskSpec(
            name=f"t{i}",
            period=period,
            wcet=period * util,
            deadline=None if deadline is None else period * deadline,
            offset=offset,
            priority=priority,
            criticality=(Criticality.NON_DETERMINISTIC if nda
                         else Criticality.DETERMINISTIC),
        ))
    return tasks


perturbations = st.one_of(
    st.none(),
    st.tuples(
        st.lists(st.sampled_from((0.0, 0.0, 0.5, 2.0)), min_size=1, max_size=5),
        st.lists(st.sampled_from((0.0, 0.0, 0.0005, 0.0013)),
                 min_size=1, max_size=5),
    ),
)

halts = st.one_of(
    st.none(),
    st.tuples(st.sampled_from((0.0, 0.004, 0.0105, 0.02, 0.0333)),
              st.sampled_from((0.0, 0.001, 0.006, 0.015))),
)


listeners = st.sampled_from((None, None, "halt", "release"))

#: fixed task sets run under every configuration: a busy mixed set, and
#: one whose NDA jobs each drain the 3 ms budget exactly
CASES = (
    [(0.005, 0.3, False, 0.0, None, None),
     (0.01, 0.25, True, 0.001, None, None),
     (0.004, 0.2, True, 0.0025, 0.8, 2),
     (0.02, 0.3, False, 0.004, 0.5, 1)],
    [(0.005, 0.6, True, 0.0, None, None),
     (0.02, 0.1, False, 0.001, None, None)],
)


def make_job(task, job_id, now):
    return Job(task, now, now + task.effective_deadline, task.wcet, job_id)


class TestPolicyHooks:
    """``pick_sole`` ≡ ``pick([job])`` and ``idle`` ≡ ``pick([])``, from
    any policy state reached through a random sequence of picks."""

    @given(
        st.sampled_from(sorted(POLICIES)),
        st.lists(task_params, min_size=1, max_size=4),
        st.lists(st.tuples(st.lists(st.integers(0, 3), max_size=4),
                           st.sampled_from((0.0, 0.0005, 0.001, 0.004))),
                 max_size=8),
        st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_hooks_match_pick(self, policy_name, params, picks, sole):
        tasks = build_tasks(params)
        policy = POLICIES[policy_name]()
        now = 0.0
        job_id = 0
        for chosen, step in picks:
            now += step
            ready = []
            for index in chosen:
                job_id += 1
                ready.append(make_job(tasks[index % len(tasks)], job_id, now))
            policy.pick(ready, now)
        now += 0.0005
        job = make_job(tasks[sole % len(tasks)], job_id + 1, now)
        self.check_hooks(policy, job, now)

    def test_hooks_after_each_kind_of_pick(self):
        # the states random picks reach rarely: a pending NDA slice (with
        # and without a server), an exhausted budget, a deterministic pick
        tasks = build_tasks(CASES[0])
        for policy_name in POLICIES:
            for last in ([1], [0], [1, 2], [], [1, 1, 1, 1, 1, 1]):
                policy = POLICIES[policy_name]()
                now = 0.0
                for job_id, index in enumerate(last, start=1):
                    policy.pick([make_job(tasks[index], job_id, now)], now)
                    now += 0.001
                for index, task in enumerate(tasks):
                    self.check_hooks(policy, make_job(task, 100 + index, now), now)

    @staticmethod
    def check_hooks(policy, job, now):
        fast, general = copy.deepcopy(policy), copy.deepcopy(policy)
        assert fast.pick_sole(job, now) is general.pick([job], now)
        assert state_of(fast) == state_of(general)
        fast, general = copy.deepcopy(policy), copy.deepcopy(policy)
        assert fast.idle(now) is None
        assert general.pick([], now) is None
        assert state_of(fast) == state_of(general)


class TestFastPathMatchesGeneralPath:
    @given(
        st.sampled_from(sorted(POLICIES)),
        st.lists(task_params, min_size=1, max_size=5),
        perturbations,
        halts,
        listeners,
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_task_sets(self, policy_name, params, perturb, halt,
                              listener, trace):
        tasks = build_tasks(params)
        args = (policy_name, tasks, perturb, halt, listener, trace)
        assert simulate(Core, *args) == simulate(GeneralPathCore, *args)

    def test_fixed_cases_under_every_configuration(self):
        # each configuration runs here even when hypothesis draws few
        # examples for it
        for params in CASES:
            tasks = build_tasks(params)
            for policy_name in POLICIES:
                for perturb in (None, ([0.0, 2.0], [0.0, 0.0013])):
                    for halt in (None, (0.0105, 0.006)):
                        for listener in (None, "halt", "release"):
                            args = (policy_name, tasks, perturb, halt, listener)
                            fast = simulate(Core, *args)
                            assert fast == simulate(GeneralPathCore, *args), args
                            assert fast["completed"], args
