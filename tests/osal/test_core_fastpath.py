"""The policy hooks behind :class:`Core`'s idle-core shortcuts:
``pick_sole`` must match ``pick([job])`` and ``idle`` must match
``pick([])``, state included.  Whole schedules are checked against the
reference scheduler in ``test_reference_scheduler.py``."""

import copy

from hypothesis import given, settings, strategies as st

from repro.osal.task import Job

from .worlds import CASES, POLICIES, build_tasks, state_of, task_params


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
