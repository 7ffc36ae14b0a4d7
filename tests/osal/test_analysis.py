"""Tests for schedulability analysis, including agreement with simulation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError
from repro.osal import (
    Core,
    FixedPriorityPolicy,
    PeriodicSource,
    TaskSpec,
    analyse_task_set,
    first_fit_partition,
    hyperperiod,
    is_schedulable_edf,
    is_schedulable_fp,
    is_schedulable_tt,
    liu_layland_bound,
    response_time_analysis,
    rm_priority_order,
    scaled_utilization,
)
from repro.sim import Simulator


def task(name, period, wcet, **kw):
    return TaskSpec(name=name, period=period, wcet=wcet, **kw)


class TestBounds:
    def test_liu_layland_values(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)
        assert liu_layland_bound(2) == pytest.approx(0.8284, abs=1e-3)
        assert liu_layland_bound(1000) == pytest.approx(math.log(2), abs=1e-3)

    def test_invalid_n(self):
        with pytest.raises(SchedulingError):
            liu_layland_bound(0)

    def test_scaled_utilization(self):
        tasks = [task("a", 0.01, 0.005)]
        assert scaled_utilization(tasks, 2.0) == pytest.approx(0.25)
        with pytest.raises(SchedulingError):
            scaled_utilization(tasks, 0.0)


class TestRta:
    def test_classic_example(self):
        # Well-known 3-task RTA example (periods 100/175/350ms scaled to s)
        tasks = [
            task("t1", 0.100, 0.035),
            task("t2", 0.175, 0.040),
            task("t3", 0.350, 0.100),
        ]
        r = response_time_analysis(tasks)
        assert r["t1"] == pytest.approx(0.035)
        assert r["t2"] == pytest.approx(0.075)
        # t3: 100 + interference; fixpoint = 100+2*35+2*40 = 250? iterate:
        # R0=100 -> I = ceil(100/100)*35 + ceil(100/175)*40 = 75 -> 175
        # R=175 -> I = 2*35 + 1*40 = 110 -> 210
        # R=210 -> I = 3*35+2*40 = 185 -> 285
        # R=285 -> I = 3*35+2*40 = 185 -> 285 fixpoint
        assert r["t3"] == pytest.approx(0.285)

    def test_unschedulable_marked_inf(self):
        tasks = [task("a", 0.01, 0.006), task("b", 0.015, 0.009)]
        r = response_time_analysis(tasks)
        assert math.isinf(r["b"])

    def test_equal_priorities_interfere_both_ways(self):
        # equal priorities run in release order: a's job at 0 waits for
        # nothing, but its job at 2 ms may wait for b's released at 0
        tasks = [task("a", 0.002, 0.0002, priority=1),
                 task("b", 0.004, 0.0004, priority=1)]
        r = response_time_analysis(tasks)
        assert r["a"] == pytest.approx(0.0006)
        assert r["b"] == pytest.approx(0.0006)

    def test_release_at_the_finish_instant_interferes(self):
        # slow would finish at 2 ms, as fast's second job is released;
        # activations run first, so fast preempts it and it ends at 3 ms
        tasks = [task("fast", 0.002, 0.001), task("slow", 0.010, 0.001)]
        assert response_time_analysis(tasks)["slow"] == pytest.approx(0.003)

    def test_priority_order_helper(self):
        tasks = [task("slow", 0.1, 0.001), task("fast", 0.01, 0.001)]
        assert [t.name for t in rm_priority_order(tasks)] == ["fast", "slow"]

    def test_rta_matches_simulation(self):
        """Analysis worst case must bound (and for synchronous release,
        match) the simulated worst response time."""
        tasks = [
            task("t1", 0.010, 0.002),
            task("t2", 0.020, 0.006),
            task("t3", 0.040, 0.008),
        ]
        predicted = response_time_analysis(tasks)
        sim = Simulator()
        core = Core(sim, "c", 1.0, FixedPriorityPolicy())
        sources = {
            t.name: PeriodicSource(sim, core, t, horizon=hyperperiod(tasks) * 2)
            for t in tasks
        }
        sim.run(until=hyperperiod(tasks) * 2 + 0.05)
        for name, source in sources.items():
            observed = source.max_response_time()
            assert observed <= predicted[name] + 1e-9
            # synchronous release: the critical instant occurs at t=0
            assert observed == pytest.approx(predicted[name], rel=1e-6)


class TestSchedulabilityTests:
    def test_fp_rejects_overload(self):
        tasks = [task("a", 0.01, 0.008), task("b", 0.01, 0.008)]
        assert not is_schedulable_fp(tasks)

    def test_fp_accepts_light_load(self):
        tasks = [task("a", 0.01, 0.002), task("b", 0.02, 0.002)]
        assert is_schedulable_fp(tasks)

    def test_edf_exact_at_full_utilization(self):
        # non-harmonic periods at U=1.0: EDF fine, RM fails
        tasks = [task("a", 0.01, 0.005), task("b", 0.014, 0.007)]
        assert is_schedulable_edf(tasks)
        assert not is_schedulable_fp(tasks)  # RM misses at U=1

    def test_edf_density_with_constrained_deadlines(self):
        tasks = [task("a", 0.01, 0.004, deadline=0.005)]
        assert is_schedulable_edf(tasks)
        tasks2 = [
            task("a", 0.01, 0.004, deadline=0.005),
            task("b", 0.01, 0.004, deadline=0.005),
        ]
        assert not is_schedulable_edf(tasks2)

    def test_tt_feasibility(self):
        tasks = [task("a", 0.01, 0.003), task("b", 0.02, 0.004)]
        assert is_schedulable_tt(tasks)
        assert not is_schedulable_tt([task("x", 0.01, 0.009), task("y", 0.01, 0.009)])

    def test_empty_sets_schedulable(self):
        assert is_schedulable_fp([])
        assert is_schedulable_edf([])

    def test_analyse_task_set_report(self):
        report = analyse_task_set([task("a", 0.01, 0.002)])
        assert report.schedulable
        assert report.utilization == pytest.approx(0.2)
        assert report.response_times["a"] == pytest.approx(0.002)

    def test_faster_core_rescues_unschedulable_set(self):
        tasks = [task("a", 0.01, 0.008), task("b", 0.01, 0.008)]
        assert not is_schedulable_fp(tasks, speed_factor=1.0)
        assert is_schedulable_fp(tasks, speed_factor=2.0)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.005, 0.01, 0.02, 0.05, 0.1]),
                st.floats(min_value=0.05, max_value=0.5),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_liu_layland_implies_rta(self, raw):
        """Any set under the Liu-Layland bound must pass exact RTA."""
        tasks = [
            task(f"t{i}", period, round(period * u_frac, 9))
            for i, (period, u_frac) in enumerate(raw)
        ]
        tasks = [t for t in tasks if t.wcet > 0]
        if not tasks:
            return
        if sum(t.utilization for t in tasks) <= liu_layland_bound(len(tasks)):
            assert is_schedulable_fp(tasks)

    @given(st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_property_speed_scaling_monotone(self, speed):
        """If a set is schedulable at speed s, it stays schedulable at
        any s' >= s."""
        tasks = [task("a", 0.01, 0.004), task("b", 0.02, 0.007)]
        if is_schedulable_fp(tasks, speed):
            assert is_schedulable_fp(tasks, speed * 1.5)


class TestPartitioning:
    def test_fits_on_enough_cores(self):
        tasks = [task(f"t{i}", 0.01, 0.004) for i in range(4)]  # U=1.6 total
        bins = first_fit_partition(tasks, [1.0, 1.0])
        assert bins is not None
        assert sum(len(b) for b in bins) == 4
        for i, b in enumerate(bins):
            assert is_schedulable_fp(b, 1.0)

    def test_returns_none_when_impossible(self):
        tasks = [task(f"t{i}", 0.01, 0.008) for i in range(4)]
        assert first_fit_partition(tasks, [1.0, 1.0]) is None

    def test_heterogeneous_cores(self):
        tasks = [task(f"t{i}", 0.01, 0.006) for i in range(4)]
        assert first_fit_partition(tasks, [1.0]) is None
        assert first_fit_partition(tasks, [4.0]) is not None
