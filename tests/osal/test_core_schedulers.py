"""Tests for the preemptive core model and scheduling policies."""

import pytest

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
from repro.sim import Simulator


def det_task(name, period, wcet, **kw):
    return TaskSpec(name=name, period=period, wcet=wcet, **kw)


def nda_task(name, period, wcet, **kw):
    kw.setdefault("criticality", Criticality.NON_DETERMINISTIC)
    return TaskSpec(name=name, period=period, wcet=wcet, **kw)


def make_core(policy, speed=1.0):
    sim = Simulator()
    core = Core(sim, "core0", speed, policy)
    return sim, core


class TestFixedPriority:
    def test_single_job_runs_to_completion(self):
        sim, core = make_core(FixedPriorityPolicy())
        t = det_task("a", 0.01, 0.003)
        job = core.submit_task_activation(t, 0.003)
        sim.run()
        assert job.finished
        assert job.finish_time == pytest.approx(0.003)

    def test_higher_priority_preempts(self):
        sim, core = make_core(FixedPriorityPolicy())
        low = det_task("low", 0.1, 0.01)
        high = det_task("high", 0.01, 0.002)
        low_job = core.submit_task_activation(low, 0.01)
        high_jobs = []
        sim.schedule(0.005, lambda: high_jobs.append(
            core.submit_task_activation(high, 0.002)))
        sim.run()
        assert high_jobs[0].finish_time == pytest.approx(0.007)
        # low resumed and finished late by exactly the preemption time
        assert low_job.finish_time == pytest.approx(0.012)
        assert low_job.preemptions == 1

    def test_rate_monotonic_default_order(self):
        sim, core = make_core(FixedPriorityPolicy())
        slow = det_task("slow", 0.1, 0.01)
        fast = det_task("fast", 0.01, 0.001)
        core.submit_task_activation(slow, 0.01)
        fast_job = core.submit_task_activation(fast, 0.001)
        sim.run()
        # fast (shorter period) ran first despite arriving second
        assert fast_job.finish_time == pytest.approx(0.001)

    def test_explicit_priority_overrides_rm(self):
        sim, core = make_core(FixedPriorityPolicy())
        a = det_task("a", 0.01, 0.001, priority=5)
        b = det_task("b", 0.1, 0.001, priority=1)
        job_a = core.submit_task_activation(a, 0.001)
        job_b = core.submit_task_activation(b, 0.001)
        sim.run()
        assert job_b.finish_time < job_a.finish_time

    def test_speed_factor_scales_execution(self):
        sim, core = make_core(FixedPriorityPolicy(), speed=2.0)
        t = det_task("a", 0.01, 0.004)
        source = PeriodicSource(sim, core, t, horizon=0.005)
        sim.run(until=0.02)
        assert source.finished_jobs()[0].response_time == pytest.approx(0.002)

    def test_utilization_observed(self):
        sim, core = make_core(FixedPriorityPolicy())
        t = det_task("a", 0.01, 0.005)
        PeriodicSource(sim, core, t, horizon=0.1)
        sim.run(until=0.1)
        assert core.utilization_observed() == pytest.approx(0.5, abs=0.05)


class TestEdf:
    def test_earliest_deadline_runs_first(self):
        sim, core = make_core(EdfPolicy())
        tight = det_task("tight", 0.02, 0.001, deadline=0.003)
        loose = det_task("loose", 0.02, 0.001, deadline=0.02)
        loose_job = core.submit_task_activation(loose, 0.001)
        tight_job = core.submit_task_activation(tight, 0.001)
        sim.run()
        assert tight_job.finish_time < loose_job.finish_time

    def test_edf_meets_full_utilization(self):
        """EDF schedules U=1.0 sets that RM cannot."""
        sim, core = make_core(EdfPolicy())
        t1 = det_task("t1", 0.010, 0.005)
        t2 = det_task("t2", 0.020, 0.010)
        s1 = PeriodicSource(sim, core, t1, horizon=0.2)
        s2 = PeriodicSource(sim, core, t2, horizon=0.2)
        sim.run(until=0.25)
        assert s1.miss_count() == 0
        assert s2.miss_count() == 0


class TestFifo:
    def test_no_preemption(self):
        sim, core = make_core(FifoPolicy())
        long = det_task("long", 0.1, 0.01)
        urgent = det_task("urgent", 0.005, 0.001)
        long_job = core.submit_task_activation(long, 0.01)
        urgent_jobs = []
        sim.schedule(0.001, lambda: urgent_jobs.append(
            core.submit_task_activation(urgent, 0.001)))
        sim.run()
        assert long_job.preemptions == 0
        assert urgent_jobs[0].finish_time == pytest.approx(0.011)


class TestFairShare:
    def test_round_robin_interleaves(self):
        sim, core = make_core(FairSharePolicy(quantum=0.001))
        a = nda_task("a", 1.0, 0.003)
        b = nda_task("b", 1.0, 0.003)
        ja = core.submit_task_activation(a, 0.003)
        jb = core.submit_task_activation(b, 0.003)
        sim.run()
        # both finish around the same time: the core was shared
        assert ja.finish_time == pytest.approx(0.005)
        assert jb.finish_time == pytest.approx(0.006)

    def test_deterministic_task_gets_no_privilege(self):
        """The C1 claim: a GPOS scheduler delays DA tasks under load."""
        sim, core = make_core(FairSharePolicy(quantum=0.001))
        da = det_task("da", 0.01, 0.001, deadline=0.002)
        for i in range(8):
            core.submit_task_activation(nda_task(f"bulk{i}", 1.0, 0.01), 0.01)
        da_job = core.submit_task_activation(da, 0.001)
        sim.run()
        assert da_job.missed_deadline

    def test_invalid_quantum(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            FairSharePolicy(quantum=0.0)


class TestMixedCriticality:
    def test_da_protected_from_nda_load(self):
        """The F2 claim: with the platform policy, DA deadlines hold."""
        sim, core = make_core(MixedCriticalityPolicy())
        da = det_task("ctl", 0.01, 0.002, deadline=0.005)
        src = PeriodicSource(sim, core, da, horizon=0.5)
        for i in range(4):
            PeriodicSource(
                sim, core, nda_task(f"bulk{i}", 0.02, 0.015), horizon=0.5
            )
        sim.run(until=0.6)
        assert src.miss_count() == 0
        assert src.miss_ratio(sim.now) == 0.0

    def test_background_nda_starves_without_server(self):
        sim, core = make_core(MixedCriticalityPolicy(server=None))
        da = det_task("ctl", 0.01, 0.0099)  # ~99% DA load
        PeriodicSource(sim, core, da, horizon=0.3)
        nda = core.submit_task_activation(nda_task("app", 1.0, 0.05), 0.05)
        sim.run(until=0.3)
        assert not nda.finished  # starved

    def test_budget_server_guarantees_nda_progress(self):
        server = BudgetServer(capacity=0.004, period=0.01)
        sim, core = make_core(MixedCriticalityPolicy(server=server))
        da = det_task("ctl", 0.01, 0.005)
        src = PeriodicSource(sim, core, da, horizon=0.5)
        nda = core.submit_task_activation(nda_task("app", 1.0, 0.05), 0.05)
        sim.run(until=0.5)
        assert src.miss_count() == 0
        assert nda.finished  # got its budget share

    def test_budget_server_caps_nda_interference(self):
        server = BudgetServer(capacity=0.002, period=0.01)
        sim, core = make_core(MixedCriticalityPolicy(server=server))
        # saturating NDA load, but budget caps it at 20%
        PeriodicSource(
            sim, core, nda_task("bulk", 0.01, 0.009), horizon=0.5
        )
        sim.run(until=0.5)
        assert core.utilization_observed() <= 0.25

    def test_invalid_budget_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            BudgetServer(capacity=0.02, period=0.01)
        with pytest.raises(ConfigurationError):
            BudgetServer(capacity=0.0, period=0.01)


class TestCoreLifecycle:
    def test_halt_drops_work(self):
        sim, core = make_core(FixedPriorityPolicy())
        job = core.submit_task_activation(det_task("a", 0.01, 0.005), 0.005)
        sim.schedule(0.001, core.halt)
        sim.run()
        assert not job.finished
        assert core.halted

    def test_halted_core_rejects_jobs(self):
        sim, core = make_core(FixedPriorityPolicy())
        core.halt()
        core.submit_task_activation(det_task("a", 0.01, 0.001), 0.001)
        sim.run()
        assert core.completed_jobs == []

    def test_resume_after_halt(self):
        sim, core = make_core(FixedPriorityPolicy())
        core.halt()
        core.resume()
        job = core.submit_task_activation(det_task("a", 0.01, 0.001), 0.001)
        sim.run()
        assert job.finished

    def test_cancel_jobs_of_task(self):
        sim, core = make_core(FixedPriorityPolicy())
        job1 = core.submit_task_activation(det_task("x", 0.1, 0.01), 0.01)
        job2 = core.submit_task_activation(det_task("x", 0.1, 0.01), 0.01)
        removed = core.cancel_jobs_of("x")
        assert removed == 2
        sim.run()
        assert not job1.finished and not job2.finished

    def test_completion_listener_invoked(self):
        sim, core = make_core(FixedPriorityPolicy())
        seen = []
        core.on_completion(lambda j: seen.append(j.task.name))
        core.submit_task_activation(det_task("z", 0.01, 0.001), 0.001)
        sim.run()
        assert seen == ["z"]


class TestPeriodicSource:
    def test_releases_every_period(self):
        sim, core = make_core(FixedPriorityPolicy())
        src = PeriodicSource(sim, core, det_task("a", 0.01, 0.001), horizon=0.05)
        sim.run(until=0.1)
        assert len(src.jobs) == 5

    def test_offset_honoured(self):
        sim, core = make_core(FixedPriorityPolicy())
        t = det_task("a", 0.01, 0.001, offset=0.003)
        src = PeriodicSource(sim, core, t, horizon=0.05)
        sim.run(until=0.06)
        assert src.jobs[0].release_time == pytest.approx(0.003)

    def test_stop_ceases_releases(self):
        sim, core = make_core(FixedPriorityPolicy())
        src = PeriodicSource(sim, core, det_task("a", 0.01, 0.001))
        sim.schedule(0.025, src.stop)
        sim.run(until=0.1)
        assert len(src.jobs) == 3

    def test_activation_jitter_applied(self):
        sim, core = make_core(FixedPriorityPolicy())
        src = PeriodicSource(
            sim, core, det_task("a", 0.01, 0.001),
            activation_jitter=0.001, jitter_draw=lambda: 0.5, horizon=0.05,
        )
        sim.run(until=0.1)
        assert src.jobs[0].release_time == pytest.approx(0.0005)

    def test_metrics_helpers(self):
        sim, core = make_core(FixedPriorityPolicy())
        src = PeriodicSource(sim, core, det_task("a", 0.01, 0.002), horizon=0.05)
        sim.run(until=0.1)
        assert src.miss_count() == 0
        assert src.miss_ratio(sim.now) == 0.0
        assert src.max_response_time() == pytest.approx(0.002)


class TestHistoryTrimming:
    """job_history_limit bounds retained jobs without losing aggregates."""

    def test_core_completed_jobs_capped(self):
        sim, core = make_core(FixedPriorityPolicy())
        core.job_history_limit = 4
        PeriodicSource(sim, core, det_task("a", 0.01, 0.002), horizon=0.2)
        sim.run(until=0.25)
        assert len(core.completed_jobs) == 4
        # aggregates still cover the whole run, not just the window
        assert core.busy_time == pytest.approx(20 * 0.002)

    def test_source_metrics_exact_across_trim(self):
        sim, core = make_core(FixedPriorityPolicy())
        core.job_history_limit = 4
        # wcet > deadline: every single job misses
        missing = det_task("m", 0.01, 0.004, deadline=0.003)
        src = PeriodicSource(sim, core, missing, horizon=0.2)
        sim.run(until=0.25)
        assert len(src.jobs) <= 5  # trimmed on release, one may be in flight
        assert src.released == 20
        assert src.miss_count() == 20
        assert src.miss_ratio(sim.now) == pytest.approx(1.0)

    def test_unlimited_by_default(self):
        sim, core = make_core(FixedPriorityPolicy())
        src = PeriodicSource(sim, core, det_task("a", 0.01, 0.002), horizon=0.2)
        sim.run(until=0.25)
        assert core.job_history_limit is None
        assert len(src.jobs) == 20
        assert len(core.completed_jobs) == 20
        assert src.released == 20


class TestPinnedSchedules:
    """One mixed task set under every policy, pinned job by job.

    The set mixes deterministic and non-deterministic tasks, forces
    preemptions, and exhausts the budget server, so any change to a
    scheduling decision — not just to an aggregate — shows up here.
    """

    TASKS = (
        det_task("ctl", 0.01, 0.002, deadline=0.008),
        det_task("slow", 0.025, 0.006),
        nda_task("bulk", 0.02, 0.007),
        nda_task("media", 0.05, 0.012, offset=0.001),
    )

    #: (job_id, start, finish, preemptions) per policy
    EXPECTED = {
        "fixed_priority": [
            (1, 0.0, 0.002, 0), (2, 0.009, 0.017, 1), (3, 0.002, 0.009, 0),
            (4, 0.017, 0.055, 2), (5, 0.01, 0.012, 0), (6, 0.022, 0.029, 1),
            (7, 0.02, 0.022, 0), (8, 0.029, 0.037, 1), (9, 0.03, 0.032, 0),
            (10, 0.042, 0.049, 1), (11, 0.04, 0.042, 0),
        ],
        "edf": [
            (1, 0.0, 0.002, 0), (2, 0.009, 0.017, 1), (3, 0.002, 0.009, 0),
            (4, 0.017, 0.048, 2), (5, 0.01, 0.012, 0), (6, 0.022, 0.029, 1),
            (7, 0.02, 0.022, 0), (8, 0.029, 0.037, 1), (9, 0.03, 0.032, 0),
            (10, 0.048, 0.055, 0), (11, 0.04, 0.042, 0),
        ],
        "fifo": [
            (1, 0.0, 0.002, 0), (2, 0.002, 0.008, 0), (3, 0.008, 0.015, 0),
            (4, 0.015, 0.027, 0), (5, 0.027, 0.029, 0), (6, 0.029, 0.036, 0),
            (7, 0.036, 0.038, 0), (8, 0.038, 0.044, 0), (9, 0.044, 0.046, 0),
            (10, 0.046, 0.053, 0), (11, 0.053, 0.055, 0),
        ],
        "fair_share": [
            (1, 0.0, 0.005, 0), (2, 0.001, 0.02, 0), (3, 0.002, 0.025, 0),
            (4, 0.003, 0.046, 0), (5, 0.012, 0.017, 0), (6, 0.022, 0.047, 0),
            (7, 0.023, 0.028, 0), (8, 0.028, 0.05, 0), (9, 0.032, 0.037, 0),
            (10, 0.042, 0.055, 0), (11, 0.043, 0.049, 0),
        ],
        "mixed_background": [
            (1, 0.0, 0.002, 0), (2, 0.002, 0.008, 0), (3, 0.008, 0.035, 1),
            (4, 0.009, 0.049, 2), (5, 0.01, 0.012, 0), (6, 0.024, 0.05, 1),
            (7, 0.02, 0.022, 0), (8, 0.025, 0.033, 1), (9, 0.03, 0.032, 0),
            (10, 0.044, 0.055, 0), (11, 0.04, 0.042, 0),
        ],
        # the server's 3 ms / 10 ms budget runs dry: three NDA jobs are
        # still unfinished when the run ends
        "mixed_server": [
            (1, 0.0, 0.002, 0), (2, 0.002, 0.008, 0), (3, 0.008, None, 0),
            (4, 0.009, None, 3), (5, 0.01, 0.012, 0), (6, 0.024, None, 0),
            (7, 0.02, 0.022, 0), (8, 0.025, 0.033, 1), (9, 0.03, 0.032, 0),
            (10, 0.05, None, 0), (11, 0.04, 0.042, 0),
        ],
    }

    @staticmethod
    def schedule(policy):
        sim, core = make_core(policy)
        sources = [
            PeriodicSource(sim, core, task, horizon=0.05)
            for task in TestPinnedSchedules.TASKS
        ]
        sim.run(until=0.06)

        def at(t):
            return None if t is None else round(t, 12)

        jobs = sorted((j for s in sources for j in s.jobs), key=lambda j: j.job_id)
        return sim, [
            (j.job_id, at(j.start_time), at(j.finish_time), j.preemptions)
            for j in jobs
        ]

    @pytest.mark.parametrize("name, make", [
        ("fixed_priority", FixedPriorityPolicy),
        ("edf", EdfPolicy),
        ("fifo", FifoPolicy),
        ("fair_share", lambda: FairSharePolicy(quantum=0.001)),
        ("mixed_background", lambda: MixedCriticalityPolicy(server=None)),
    ])
    def test_schedule_pinned(self, name, make):
        _sim, got = self.schedule(make())
        assert got == self.EXPECTED[name]

    def test_budget_server_schedule_pinned(self):
        server = BudgetServer(capacity=0.003, period=0.01)
        sim, got = self.schedule(MixedCriticalityPolicy(server=server))
        assert got == self.EXPECTED["mixed_server"]
        assert server.available(sim.now) == 0.0

    # -- boundary schedules: the cases where an idle-core release or an
    # empty-ready completion meets parking, halting or a same-instant event

    @staticmethod
    def boundary(policy, tasks, *, horizon, until, calls=()):
        """Run ``tasks`` on one core; ``calls`` are ``(time, method)``
        pairs of core methods (``halt``, ``resume``) fired mid-run."""
        sim, core = make_core(policy)
        sources = [PeriodicSource(sim, core, task, horizon=horizon)
                   for task in tasks]
        for when, method in calls:
            sim.at(when, getattr(core, method))
        parked = []

        def probe():
            parked.append(core._parked_until)

        for when in (0.006, 0.013):
            sim.at(when, probe)
        sim.run(until=until)

        def at(t):
            return None if t is None else round(t, 12)

        jobs = sorted((j for s in sources for j in s.jobs), key=lambda j: j.job_id)
        table = [(j.job_id, at(j.start_time), at(j.finish_time), j.preemptions)
                 for j in jobs]
        return sim, core, table, parked

    def test_nda_release_on_idle_core_with_exhausted_budget(self):
        # job 1 spends the whole 2 ms budget and leaves the core idle;
        # job 2 arrives at 5 ms, is declined, and the core parks until
        # the replenishment at 10 ms
        server = BudgetServer(capacity=0.002, period=0.01)
        _sim, core, got, parked = self.boundary(
            MixedCriticalityPolicy(server=server),
            (nda_task("bulk", 0.005, 0.002),),
            horizon=0.02, until=0.03,
        )
        assert got == [
            (1, 0.0, 0.002, 0), (2, 0.01, 0.021, 0), (3, 0.011, 0.022, 0),
            (4, None, None, 0),
        ]
        assert parked == [0.01, 0.02]
        assert core._parked_until is None
        assert server._last_replenish == 0.02
        assert server._budget <= 1e-12

    def test_release_onto_parked_core(self):
        # "late" (7 ms) joins a core parked since 5 ms; "ctl" (8 ms) is
        # deterministic and runs at once although the core is parked
        server = BudgetServer(capacity=0.002, period=0.01)
        _sim, _core, got, parked = self.boundary(
            MixedCriticalityPolicy(server=server),
            (nda_task("bulk", 0.005, 0.002),
             nda_task("late", 0.01, 0.001, offset=0.007),
             det_task("ctl", 0.01, 0.001, offset=0.008)),
            horizon=0.02, until=0.04,
        )
        assert got == [
            (1, 0.0, 0.002, 0), (2, 0.01, 0.022, 0), (3, 0.011, 0.012, 0),
            (4, 0.008, 0.009, 0), (5, 0.02, None, 0), (6, None, None, 0),
            (7, None, None, 0), (8, 0.018, 0.019, 0),
        ]
        assert parked == [0.01, 0.02]
        assert server._last_replenish == 0.02

    def test_release_while_halted_then_resume(self):
        # halted mid-job 2; job 3 (20 ms) is dropped; job 4 runs after
        # the resume at 25 ms on an idle core
        _sim, core, got, _parked = self.boundary(
            FixedPriorityPolicy(), (det_task("t", 0.01, 0.002),),
            horizon=0.05, until=0.06,
            calls=((0.011, "halt"), (0.025, "resume")),
        )
        assert got == [
            (1, 0.0, 0.002, 0), (2, 0.01, None, 0), (3, None, None, 0),
            (4, 0.03, 0.032, 0), (5, 0.04, 0.042, 0),
        ]
        # jobs 1, 4 and 5 ran 2 ms each, and job 2 ran 1 ms before the halt
        assert round(core.busy_time, 12) == 0.007

    def test_release_at_completion_instant(self):
        # "hi" is released (urgent priority) at 4 ms, the instant "lo"
        # completes: it preempts "lo" with nothing left to run, and "lo"
        # finishes right after it
        _sim, core, got, _parked = self.boundary(
            FixedPriorityPolicy(),
            (det_task("lo", 0.02, 0.004),
             det_task("hi", 0.004, 0.001, offset=0.004)),
            horizon=0.02, until=0.03,
        )
        assert got == [
            (1, 0.0, 0.005, 1), (2, 0.004, 0.005, 0), (3, 0.008, 0.009, 0),
            (4, 0.012, 0.013, 0), (5, 0.016, 0.017, 0),
        ]
        assert core.current is None and not core.ready

    def test_fair_share_quantum_on_idle_core(self):
        # job 2 starts a 1 ms quantum on an idle core at 10 ms; job 3
        # arrives mid-quantum and waits for the boundary
        _sim, _core, got, _parked = self.boundary(
            FairSharePolicy(quantum=0.001),
            (det_task("a", 0.01, 0.0025),
             nda_task("b", 0.02, 0.0015, offset=0.0105)),
            horizon=0.03, until=0.04,
        )
        assert got == [
            (1, 0.0, 0.0025, 0), (2, 0.01, 0.014, 0), (3, 0.011, 0.0135, 0),
            (4, 0.02, 0.0225, 0),
        ]
