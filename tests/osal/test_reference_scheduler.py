"""Differential test: :class:`Core` against the reference scheduler.

Both run the same generated task set under each of the six policy
configurations, with overrun and release-delay perturbations, a halt
window, a completion listener that halts the core or releases extra
work, and the tracer on or off (which decides whether completions may be
held back).  The job tables must agree row for row: release, deadline,
start, finish, preemptions and the demand left.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.osal import (
    Criticality,
    TaskSpec,
    is_schedulable_edf,
    is_schedulable_fp,
    response_time_analysis,
)

from .reference_scheduler import CONFIGS, reference_schedule
from .worlds import (
    CASES,
    EXTRA,
    HORIZON,
    UNTIL,
    build_tasks,
    core_table,
    halts,
    listeners,
    perturbations,
    task_params,
)


def check(policy_name, params, perturb=None, halt=None, listener=None,
          trace=False):
    config = CONFIGS[policy_name]
    tasks = build_tasks(params)
    expected = reference_schedule(tasks, config, HORIZON, UNTIL, perturb,
                                  halt, listener, EXTRA)
    assert core_table(config, tasks, perturb, halt, listener, trace) == expected
    return expected


class TestCoreMatchesReference:
    @given(
        st.sampled_from(sorted(CONFIGS)),
        st.lists(task_params, min_size=1, max_size=5),
        perturbations,
        halts,
        listeners,
        st.booleans(),
    )
    # a job held on release is due at 4 ms, the instant a halt posted
    # before the run (a lower sequence number) drops it: the halt wins
    @example(policy_name="fixed_priority",
             params=[(0.008, 0.5, False, 0.0, None, None)],
             perturb=None, halt=(0.004, 0.001), listener=None, trace=False)
    # t0's job is held on release, due at 4 ms.  t1's activation at 2 ms
    # delays its release past 4 ms and schedules the next activation at
    # 4 ms, after the hold took its sequence number.  That activation
    # still runs first: t1 preempts t0's job, which has no time left
    @example(policy_name="fixed_priority",
             params=[(0.01, 0.4, False, 0.0, None, None),
                     (0.002, 0.1, False, 0.002, None, None)],
             perturb=([0.0], [0.0, 0.0045, 0.0]), halt=None, listener=None,
             trace=False)
    @settings(max_examples=200, deadline=None)
    def test_random_task_sets(self, policy_name, params, perturb, halt,
                              listener, trace):
        check(policy_name, params, perturb, halt, listener, trace)

    def test_fixed_cases_under_every_policy(self):
        # each configuration runs here even when hypothesis draws few
        # examples for it
        for params in CASES:
            for policy_name in CONFIGS:
                for perturb in (None, ([0.0, 2.0], [0.0, 0.0013])):
                    for halt in (None, (0.0105, 0.006)):
                        for listener in (None, "halt", "release"):
                            for trace in (False, True):
                                args = (policy_name, params, perturb, halt,
                                        listener, trace)
                                table = check(*args)
                                assert any(row[5] is not None
                                           for row in table), args


def finished_within_deadline(table):
    return all(row[5] is not None and row[5] <= row[3] + 1e-12
               for row in table)


#: task sets released synchronously at 0 (the critical instant)
synchronous_params = st.lists(task_params, min_size=1, max_size=5).map(
    lambda params: [p[:3] + (0.0,) + p[4:] for p in params])


class TestAnalyticBounds:
    """The schedulability tests of ``repro.osal.analysis`` hold on the
    simulated core: what they call schedulable misses nothing."""

    @given(st.lists(task_params, min_size=1, max_size=5))
    # equal priorities, served in release order: b's job released at 0
    # waits for a's, and a's job released at 2 ms for b's
    @example([(0.002, 0.1, False, 0.0, None, 1),
              (0.004, 0.1, False, 0.0, None, 1)])
    # t1 has run its 1.6 ms at 4.5 ms, as t0's next job is released:
    # the release runs first, preempts it, and t1 ends at 4.9 ms
    @example([(0.002, 0.2, False, 0.0025, None, None),
              (0.008, 0.2, False, 0.0025, None, None)])
    @settings(max_examples=200, deadline=None)
    def test_fp_response_times_bound_every_job(self, params):
        tasks = build_tasks(params)
        assume(is_schedulable_fp(tasks))
        bounds = response_time_analysis(tasks)
        table = core_table(CONFIGS["fixed_priority"], tasks)
        assert finished_within_deadline(table)
        for _id, name, release, _deadline, _start, finish, *_rest in table:
            assert finish - release <= bounds[name] + 1e-9, name

    @given(synchronous_params)
    # t1 would finish at 2 ms, as t0's second job is released: R_t1 is
    # 3 ms, not the 2 ms of the classic recurrence
    @example([(0.002, 0.5, False, 0.0, None, None),
              (0.01, 0.1, False, 0.0, None, None)])
    @settings(max_examples=200, deadline=None)
    def test_fp_bound_met_at_critical_instant(self, params):
        tasks = build_tasks(params)
        levels = [t.priority if t.priority is not None else t.period
                  for t in tasks]
        assume(len(set(levels)) == len(levels))
        assume(is_schedulable_fp(tasks))
        bounds = response_time_analysis(tasks)
        worst = {}
        for _id, name, release, _deadline, _start, finish, *_rest in \
                core_table(CONFIGS["fixed_priority"], tasks):
            worst[name] = max(worst.get(name, 0.0), finish - release)
        assert worst == pytest.approx(bounds, abs=1e-9)

    @given(st.lists(task_params, min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_edf_schedulable_sets_miss_nothing(self, params):
        tasks = build_tasks(params)
        assume(is_schedulable_edf(tasks))
        assert finished_within_deadline(core_table(CONFIGS["edf"], tasks))


def scaled(value, k):
    return None if value is None else value * k


class TestMetamorphic:
    @given(
        st.sampled_from(sorted(CONFIGS)),
        st.lists(task_params, min_size=1, max_size=5),
        perturbations,
        halts,
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_scaling_time_by_two_scales_every_job(self, policy_name, params,
                                                   perturb, halt, trace):
        k = 2.0
        config = CONFIGS[policy_name]
        tasks = build_tasks(params)
        base = core_table(config, tasks, perturb, halt, trace=trace)
        big_tasks = [
            TaskSpec(name=t.name, period=t.period * k, wcet=t.wcet * k,
                     deadline=scaled(t.deadline, k), offset=t.offset * k,
                     priority=t.priority, criticality=t.criticality)
            for t in tasks
        ]
        big_config = config[:1] + tuple(scaled(v, k) for v in config[1:])
        big_perturb = None if perturb is None else (
            perturb[0], [d * k for d in perturb[1]])
        big_halt = None if halt is None else (halt[0] * k, halt[1] * k)
        big = core_table(big_config, big_tasks, big_perturb, big_halt,
                         trace=trace, horizon=HORIZON * k, until=UNTIL * k)
        assert big == [
            (job, name, release * k, deadline * k, scaled(start, k),
             scaled(finish, k), preemptions, remaining * k)
            for job, name, release, deadline, start, finish, preemptions,
            remaining in base
        ]

    @given(
        st.sampled_from(("mixed_background", "mixed_server")),
        st.lists(task_params, min_size=1, max_size=4),
        task_params,
    )
    # t3's releases split the running DA job's demand bookkeeping, so
    # t1 finishes 2e-18 s earlier
    @example(policy_name="mixed_background",
             params=[(0.004, 0.1, False, 0.0, None, None),
                     (0.004, 0.1, False, 0.0, None, 1),
                     (0.02, 0.5, False, 0.0, None, None)],
             added=(0.002, 0.1, True, 0.0, None, None))
    @settings(max_examples=200, deadline=None)
    def test_added_nda_task_leaves_da_jobs_alone(self, policy_name, params,
                                                 added):
        nda = added[:2] + (True,) + added[3:]
        self.check_unchanged(policy_name, params, nda, lambda t: (
            t.criticality is Criticality.DETERMINISTIC))

    @given(st.lists(task_params, min_size=1, max_size=4), task_params)
    # the same rounding: t1 finishes 1e-18 s later with t2 beside it
    @example(params=[(0.005, 0.1, False, 0.0, None, None),
                     (0.008, 0.59375, False, 0.0, None, None)],
             added=(0.002, 0.1, False, 0.0, None, None))
    @settings(max_examples=200, deadline=None)
    def test_lowest_priority_task_leaves_others_alone(self, params, added):
        # explicit priority 5 ranks below every generated level: 1 to 4,
        # or a period (rate-monotonic) below 1 s
        lowest = added[:5] + (5,)
        self.check_unchanged("fixed_priority", params, lowest,
                             lambda t: True)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3 (Core._sync_current charges the running job at "
        "every scheduling decision): beside the added task, one t2 job's "
        "preemption count goes from 1 to 0"))
    def test_lowest_priority_task_counterexample_seed_11(self):
        # what --hypothesis-seed=11 draws for the test above
        params = [(0.002, 0.1, False, 0.001, None, None),
                  (0.02, 0.5, False, 0.001, None, None),
                  (0.002, 0.2, False, 0.001, None, 1)]
        added = (0.002, 0.1, False, 0.0, None, None)
        self.check_unchanged("fixed_priority", params, added[:5] + (5,),
                             lambda t: True)

    @staticmethod
    def check_unchanged(policy_name, params, added, watched):
        tasks = build_tasks(params)
        more = build_tasks(params + [added])
        names = {t.name for t in tasks if watched(t)}
        config = CONFIGS[policy_name]

        def watched_jobs(table):
            # ids shift when another task's releases interleave
            return [row[1:] for row in table if row[1] in names]

        alone = watched_jobs(core_table(config, tasks))
        beside = watched_jobs(core_table(config, more))
        assert len(beside) == len(alone)
        for got, want in zip(beside, alone):
            # task, release, deadline and preemptions exactly.  Start,
            # finish and demand left up to float rounding: each decision
            # the added task causes charges the running job for the time
            # since the last one, so its demand is taken off in other
            # pieces, which may round differently
            assert got[:3] + got[5:6] == want[:3] + want[5:6]
            for a, b in zip(got[3:5] + got[6:], want[3:5] + want[6:]):
                assert a == b or (a is not None and b is not None
                                  and abs(a - b) <= 1e-12), (got, want)
