"""Differential test: activation trains against a ``step()`` loop.

A dispatched periodic activation runs its source's next activations in
place for as long as each is the event the kernel would dispatch next
(``Simulator.dispatch_in_place``): an activation train.  ``step()``
makes no train and holds no completion, so the same world driven by a
``step()`` loop pushes and dispatches every event: the oracle.  Worlds
put several sources on one or two cores, with activation jitter,
overruns and delayed releases, clock drift, a halt and resume, a late
completion listener, the tracer, and ``run()`` split in two.  The job
tables, the core and policy state, the metrics (``sim.events``
included), the trace records and the sequence numbers taken must agree.

The pinned cases end a train at each thing that can end one: another
source's activation at the same instant, a pushed completion, a delayed
release, ``until``, and a snapshot of a world whose run ended mid-train.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry
from repro.osal import Core, FixedPriorityPolicy, PeriodicSource, TaskSpec
from repro.sim import PRIORITY_NORMAL, PRIORITY_URGENT, Simulator, Tracer

from .worlds import (
    CASES,
    HORIZON,
    POLICIES,
    UNTIL,
    Perturb,
    build_tasks,
    halts,
    perturbations,
    state_of,
    task_params,
)

#: instants on the 0.5 ms grid, where releases and finishes land exactly
grid = st.integers(min_value=0, max_value=130).map(lambda k: k * 0.0005)
instants = st.one_of(grid, st.floats(min_value=0.0, max_value=0.065))

jitters = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from((0.0005, 0.003)),
        st.lists(st.sampled_from((0.0, 0.0, 0.3, 1.0)), min_size=1,
                 max_size=4),
    ),
)

drifts = st.one_of(
    st.none(),
    st.tuples(instants, st.sampled_from((1e-3, -2e-3, 0.05))),
)


class Draws:
    """A deterministic ``jitter_draw``: cycles through ``values``."""

    def __init__(self, values):
        self.values = values
        self.calls = 0

    def __call__(self):
        value = self.values[self.calls % len(self.values)]
        self.calls += 1
        return value


def build(policy_name, params, n_cores=1, jitter=None, perturb=None,
          drift=None, halt=None, late=None, trace=False):
    """One world: ``params``' tasks dealt round-robin over ``n_cores``
    cores, the even-numbered sources jittered, and core 0 perturbed,
    halted and given a late completion listener that logs."""
    sim = Simulator(Tracer(enabled=trace), metrics=MetricsRegistry())
    cores = [Core(sim, f"core{i}", 1.0, POLICIES[policy_name]())
             for i in range(n_cores)]
    if perturb is not None:
        cores[0].fault_perturb = Perturb(*perturb)
    sources = []
    for i, task in enumerate(build_tasks(params)):
        options = {}
        if jitter is not None and i % 2 == 0:
            options = {"activation_jitter": jitter[0],
                       "jitter_draw": Draws(jitter[1])}
        sources.append(PeriodicSource(sim, cores[i % n_cores], task,
                                      horizon=HORIZON, **options))
    if drift is not None:
        sim.at(drift[0], cores[-1].set_clock_drift, drift[1])
    if halt is not None:
        sim.at(halt[0], cores[0].halt)
        sim.at(halt[0] + halt[1], cores[0].resume)
    log = []
    if late is not None:
        def done(job):
            log.append((sim.now, job.job_id))
        sim.at(late, cores[0].on_completion, done)
    sim.adopt("cores", cores)
    sim.adopt("sources", sources)
    sim.adopt("log", log)
    return sim


def step_until(sim, until):
    """What ``run(until=until)`` does, one ``step()`` per event."""
    while True:
        time = sim.queue.peek_time()
        if time is None or time > until:
            break
        sim.step()
    if until > sim.now:
        sim.now = until


def outcome(sim):
    cores = sim.world["cores"]
    sources = sim.world["sources"]
    jobs = sorted((j for s in sources for j in s.jobs), key=lambda j: j.job_id)
    return {
        "jobs": [(j.job_id, j.task.name, j.release_time, j.absolute_deadline,
                  j.start_time, j.finish_time, j.preemptions, j.remaining)
                 for j in jobs],
        "released": [s.released for s in sources],
        "cores": [(c.busy_time,
                   None if c.current is None else c.current.job_id,
                   [j.job_id for j in c.ready],
                   [j.job_id for j in c.completed_jobs],
                   c._parked_until, c.halted, state_of(c.policy))
                  for c in cores],
        "log": list(sim.world["log"]),
        "trace": list(sim.tracer.entries),
        "metrics": sim.metrics.snapshot(),
        "seq": sim.queue.reserve(),
        "now": sim.now,
    }


def pushes(sim):
    stats = sim.queue.stats()
    return stats["pool_reuses"] + stats["pool_creations"]


def compare(world, split=None):
    """Drive ``world()`` by ``run()`` and by a ``step()`` loop; return
    both outcomes and heap pushes."""
    ends = (UNTIL,) if split is None else (split, UNTIL)
    ran, stepped = world(), world()
    for until in ends:
        ran.run(until=until)
        step_until(stepped, until)
    return outcome(ran), pushes(ran), outcome(stepped), pushes(stepped)


#: a 1 ms DA task and a 5 ms NDA one: the DA jobs mostly run alone
LIGHT = [(0.001, 0.2, False, 0.0, None, None),
         (0.005, 0.3, True, 0.0005, None, None)]


class TestTrainsMatchStepping:
    @given(
        st.sampled_from(sorted(POLICIES)),
        st.lists(task_params, min_size=1, max_size=5),
        st.integers(min_value=1, max_value=2),
        jitters,
        perturbations,
        drifts,
        halts,
        st.one_of(st.none(), instants),
        st.booleans(),
        st.one_of(st.none(), instants),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_worlds(self, policy_name, params, n_cores, jitter,
                           perturb, drift, halt, late, trace, split):
        def world():
            return build(policy_name, params, n_cores, jitter, perturb,
                         drift, halt, late, trace)

        ran, ran_pushes, stepped, stepped_pushes = compare(world, split)
        assert ran == stepped
        assert ran_pushes <= stepped_pushes

    def test_fixed_cases_under_every_configuration(self):
        options = (
            {},
            {"n_cores": 2, "jitter": (0.003, [0.0, 1.0, 0.3]),
             "drift": (0.0125, 1e-3), "late": 0.03, "trace": True},
            {"perturb": ([0.0, 2.0], [0.0, 0.0013]), "halt": (0.0105, 0.006),
             "late": 0.02},
        )
        for params in CASES + (LIGHT,):
            for policy_name in POLICIES:
                for extra in options:
                    for split in (None, 0.0125):
                        def world():
                            return build(policy_name, params, **extra)

                        ran, ran_pushes, stepped, stepped_pushes = compare(
                            world, split)
                        case = (policy_name, extra, split)
                        assert ran == stepped, case
                        assert ran["jobs"], case
                        assert ran_pushes <= stepped_pushes, case
                        if params is LIGHT and not extra.get("trace"):
                            # a traced core pushes every completion, and
                            # each one ends the train it falls in
                            assert ran_pushes < stepped_pushes, case


def answers(sim):
    """Record every ``dispatch_in_place`` answer the world gets as
    ``(time, yes)``."""
    log = []
    inner = sim.dispatch_in_place

    def dispatch_in_place(time, priority):
        yes = inner(time, priority)
        log.append((round(time, 9), yes))
        return yes

    sim.dispatch_in_place = dispatch_in_place
    return log


def source_world(specs, n_cores=1, listener=None, jitter=None):
    """One source per spec, source ``i`` on core ``i % n_cores``, in
    order (the first has the lowest sequence numbers)."""
    sim = Simulator(metrics=MetricsRegistry())
    cores = [Core(sim, f"core{i}", 1.0, FixedPriorityPolicy())
             for i in range(n_cores)]
    if listener is not None:
        cores[0].on_completion(listener)
    options = {} if jitter is None else {
        "activation_jitter": jitter, "jitter_draw": Draws([1.0])}
    sources = [PeriodicSource(sim, cores[i % n_cores], task, **options)
               for i, task in enumerate(specs)]
    return sim, sources


FAST = TaskSpec("fast", period=0.001, wcet=0.0002, priority=1)
SLOW = TaskSpec("slow", period=0.004, wcet=0.001, priority=2)


class TestTrainEnds:
    def test_at_a_tie_with_an_earlier_pushed_activation(self):
        # slow's activations were pushed first: at 4 ms the heap head
        # (4 ms, URGENT, lower seq) sorts before fast's next activation
        sim, (slow, fast) = source_world([SLOW, FAST], n_cores=2)
        seen = answers(sim)
        sim.run(until=0.0085)
        assert seen == [
            (0.004, False),                       # slow's train at 0
            (0.001, True), (0.002, True), (0.003, True), (0.004, False),
            (0.008, False),                       # slow's at 4 ms
            (0.005, True), (0.006, True), (0.007, True), (0.008, False),
            (0.012, False),                       # slow's at 8 ms
            (0.009, False),                       # fast's at 8 ms: until
        ]
        assert (slow.released, fast.released) == (3, 9)

    def test_at_a_pushed_completion_due_first(self):
        # a completion listener makes the core push every completion,
        # and each is due 0.2 ms after its release, before the next one
        sim, (fast,) = source_world([FAST], listener=lambda job: None)
        seen = answers(sim)
        sim.run(until=0.0035)
        assert seen == [(0.001, False), (0.002, False), (0.003, False),
                        (0.004, False)]
        assert [j.finish_time for j in fast.jobs] == pytest.approx(
            [0.0002, 0.0012, 0.0022, 0.0032])

    def test_at_a_delayed_release(self):
        # each release is posted 0.5 ms after its activation
        sim, (fast,) = source_world([FAST], jitter=0.0005)
        seen = answers(sim)
        sim.run(until=0.0025)
        assert seen == [(0.001, False), (0.002, False), (0.003, False)]
        assert [j.release_time for j in fast.jobs] == pytest.approx(
            [0.0005, 0.0015, 0.0025])

    def test_at_until(self):
        sim, (fast,) = source_world([FAST])
        seen = answers(sim)
        sim.run(until=0.0035)
        # one train, from 0 to 3 ms; the 4 ms activation is pushed
        assert seen == [(0.001, True), (0.002, True), (0.003, True),
                        (0.004, False)]
        assert sim.now == 0.0035 and len(sim.queue) == 1
        assert sim.queue.peek_time() == 0.004
        # four activations and four completions, as if all were pushed
        assert sim.metrics.counter("sim.events").value == 8
        assert fast.released == 4
        sim.run(until=0.0065)
        assert seen[4:] == [(0.005, True), (0.006, True), (0.007, False)]
        assert fast.released == 7

    def test_snapshot_of_a_run_that_ended_mid_train(self):
        def world():
            sim, sources = source_world([SLOW, FAST, FAST], n_cores=2)
            sim.adopt("cores", [sources[0].core, sources[1].core])
            sim.adopt("sources", sources)
            sim.adopt("log", [])
            return sim

        straight = world()
        straight.run(until=0.02)
        sim = world()
        sim.run(until=0.0065)
        restored = sim.snapshot().restore()
        restored.run(until=0.02)
        sim.run(until=0.02)
        stepped = world()
        step_until(stepped, 0.02)
        expected = outcome(stepped)
        assert outcome(straight) == expected
        assert outcome(restored) == expected
        assert outcome(sim) == expected


class TestKernelContract:
    def test_step_makes_no_train(self):
        sim, (fast,) = source_world([FAST])
        seen = answers(sim)
        while len(seen) < 4:
            sim.step()
        assert seen == [(0.001, False), (0.002, False), (0.003, False),
                        (0.004, False)]

    def test_a_sanitizer_makes_no_train(self):
        from repro.analysis import KernelSanitizer

        sim, (fast,) = source_world([FAST])
        KernelSanitizer(sim).attach()
        seen = answers(sim)
        sim.run(until=0.0035)
        assert [yes for _time, yes in seen] == [False] * 4

    def test_yes_rekeys_the_call_and_no_touches_nothing(self):
        sim = Simulator(metrics=MetricsRegistry())
        asker = Asker(sim, [(0.001, PRIORITY_NORMAL),
                            (0.0005, PRIORITY_NORMAL)])
        sim.post(0.001, asker.idle)  # the heap head: (1 ms, NORMAL, 0)
        sim.post(0.0, asker.ask, priority=PRIORITY_URGENT)
        sim.run()
        assert asker.seen == [
            # an equal (time, priority) takes a later sequence number
            (False, (0.0, PRIORITY_URGENT, 1), 0.0),
            (True, (0.0005, PRIORITY_NORMAL, 2), 0.0005),
        ]
        # two heap dispatches and one in place
        assert sim.metrics.counter("sim.events").value == 3

    def test_no_train_past_until(self):
        sim = Simulator()
        asker = Asker(sim, [(0.0011, PRIORITY_NORMAL),
                            (0.001, PRIORITY_NORMAL)])
        sim.post(0.0, asker.ask)
        sim.run(until=0.001)
        assert [yes for yes, _key, _now in asker.seen] == [False, True]


class Asker:
    """A callback that asks ``dispatch_in_place`` about each key in
    turn and logs the answer, the dispatching key and the clock."""

    def __init__(self, sim, keys):
        self.sim = sim
        self.keys = keys
        self.seen = []

    def idle(self):
        pass

    def ask(self):
        sim = self.sim
        call = sim.dispatching
        for time, priority in self.keys:
            yes = sim.dispatch_in_place(time, priority)
            self.seen.append((yes, (call.time, call.priority, call.seq),
                              sim.now))
