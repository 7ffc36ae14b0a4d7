"""Single-core worlds shared by the OSAL differential tests: the policy
configurations, the hypothesis task-set generator, deterministic
perturbations and completion listeners, and the job table a
:class:`Core` produces for them."""

from functools import partial

from hypothesis import strategies as st

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
from repro.sim import Simulator, Tracer

from .reference_scheduler import CONFIGS

#: release horizon and run length of every world
HORIZON = 0.05
UNTIL = 0.07


def make_policy(config):
    """The ``repro.osal`` policy of one :data:`CONFIGS` entry."""
    kind = config[0]
    if kind == "fp":
        return FixedPriorityPolicy()
    if kind == "edf":
        return EdfPolicy()
    if kind == "fifo":
        return FifoPolicy()
    if kind == "fair":
        return FairSharePolicy(quantum=config[1])
    nda_quantum, capacity, period = config[1:]
    server = None if capacity is None else BudgetServer(capacity, period)
    return MixedCriticalityPolicy(server=server, nda_quantum=nda_quantum)


#: the six policy configurations of TestPinnedSchedules, as factories
POLICIES = {name: partial(make_policy, config)
            for name, config in CONFIGS.items()}


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
    completion path meets a halted core or a busy one.  Released jobs
    collect in ``extra``."""

    def __init__(self, core, mode):
        self.core = core
        self.mode = mode
        self.seen = 0
        self.extra = []

    def __call__(self, job):
        self.seen += 1
        if self.seen % 3:
            return
        core = self.core
        if self.mode == "halt":
            core.halt()
            core.sim.post(0.001, core.resume)
        else:
            self.extra.append(core.submit_task_activation(EXTRA, EXTRA.wcet))


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


def core_table(config, tasks, perturb=None, halt=None, listener=None,
               trace=False, horizon=HORIZON, until=UNTIL):
    """Run ``tasks`` on one :class:`Core` and return the job table in
    :func:`~.reference_scheduler.reference_schedule`'s row format."""
    sim = Simulator(Tracer(enabled=trace))
    core = Core(sim, "core0", 1.0, make_policy(config))
    if perturb is not None:
        core.fault_perturb = Perturb(*perturb)
    extra = []
    if listener is not None:
        hook = Listener(core, listener)
        extra = hook.extra
        core.on_completion(hook)
    sources = [PeriodicSource(sim, core, task, horizon=horizon)
               for task in tasks]
    if halt is not None:
        sim.at(halt[0], core.halt)
        sim.at(halt[0] + halt[1], core.resume)
    sim.run(until=until)
    jobs = sorted([j for s in sources for j in s.jobs] + extra,
                  key=lambda j: j.job_id)
    return [(j.job_id, j.task.name, j.release_time, j.absolute_deadline,
             j.start_time, j.finish_time, j.preemptions, j.remaining)
            for j in jobs]


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
        # 4.5 ms outlasts the shorter periods: a delayed release can land
        # after the next activation of its own task
        st.lists(st.sampled_from((0.0, 0.0, 0.0005, 0.0013, 0.0045)),
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
