"""Tests for the ParallelExecutor job machinery itself."""

import os

import pytest

from repro.errors import ExecutionError
from repro.exec import (
    FunctionJob,
    ParallelExecutor,
    SimJob,
    derive_job_seed,
)
from repro.exec.recovery import run_campaign_jobs
from repro.obs.report import merge_digests


def echo_seed(ctx, tag):
    """Module-level so it pickles by reference."""
    ctx.metrics.counter("test.runs").inc()
    ctx.metrics.histogram("test.values").observe(float(len(tag)))
    return (tag, ctx.seed, ctx.rng().uniform("u", 0.0, 1.0))


class CrashingJob(SimJob):
    """Raises until the given attempt number is reached."""

    def __init__(self, job_id, succeed_on_attempt):
        self.job_id = job_id
        self.succeed_on_attempt = succeed_on_attempt

    def run(self, ctx):
        if ctx.attempt < self.succeed_on_attempt:
            raise RuntimeError(f"injected crash (attempt {ctx.attempt})")
        return ("recovered", ctx.seed, ctx.attempt)


class CrashThenKillJob(SimJob):
    """Raises on its first attempt, kills its worker once on a later
    one, and succeeds after that."""

    def __init__(self, job_id, marker):
        self.job_id = job_id
        self.marker = marker

    def run(self, ctx):
        if ctx.attempt == 0:
            raise RuntimeError("injected crash")
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os._exit(19)
        return ("survived", ctx.attempt)


def make_jobs(n=8):
    return [FunctionJob(f"job{i}", echo_seed, f"tag{i}") for i in range(n)]


class TestSeedDerivation:
    def test_seed_depends_on_master_and_id_only(self):
        a = derive_job_seed(1, "x")
        assert a == derive_job_seed(1, "x")
        assert a != derive_job_seed(2, "x")
        assert a != derive_job_seed(1, "y")

    def test_job_seeds_never_collide_with_stream_seeds(self):
        from repro.sim.rng import _derive_seed

        assert derive_job_seed(0, "a") != _derive_seed(0, "a")


class TestExecutorBasics:
    def test_empty_batch(self):
        with ParallelExecutor(workers=1) as ex:
            assert ex.run_jobs([]).values == []

    def test_results_in_job_order(self):
        with ParallelExecutor(workers=2, master_seed=5) as ex:
            values = ex.run_jobs(make_jobs()).values
        assert [v[0] for v in values] == [f"tag{i}" for i in range(8)]

    def test_duplicate_job_ids_rejected(self):
        jobs = [FunctionJob("same", echo_seed, "a"),
                FunctionJob("same", echo_seed, "b")]
        with ParallelExecutor(workers=1) as ex:
            with pytest.raises(ExecutionError, match="duplicate"):
                ex.run_jobs(jobs)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ExecutionError):
            ParallelExecutor(workers=0)
        with pytest.raises(ExecutionError):
            ParallelExecutor(workers=1, retries=-1)

    def test_parallel_workers_use_other_processes(self):
        with ParallelExecutor(workers=2, chunk_size=1) as ex:
            report = ex.run_jobs(make_jobs(4))
        assert all(r.worker_pid != 0 for r in report.results)
        assert any(r.worker_pid != os.getpid() for r in report.results)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_values_identical_across_worker_counts(self, workers):
        jobs = make_jobs(10)
        with ParallelExecutor(workers=1, master_seed=42) as ex:
            serial = ex.run_jobs(jobs).values
        with ParallelExecutor(workers=workers, master_seed=42) as ex:
            parallel = ex.run_jobs(jobs).values
        assert serial == parallel

    def test_chunking_never_affects_values(self):
        jobs = make_jobs(9)
        outputs = []
        for chunk_size in (1, 4, 100):
            with ParallelExecutor(workers=2, master_seed=7,
                                  chunk_size=chunk_size) as ex:
                outputs.append(ex.run_jobs(jobs).values)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_master_seed_changes_values(self):
        jobs = make_jobs(3)
        with ParallelExecutor(workers=1, master_seed=1) as ex:
            a = ex.run_jobs(jobs).values
        with ParallelExecutor(workers=1, master_seed=2) as ex:
            b = ex.run_jobs(jobs).values
        assert a != b


class TestRetry:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_once_recovers_with_same_seed(self, workers):
        jobs = [CrashingJob("flaky", 1), FunctionJob("ok", echo_seed, "x")]
        with ParallelExecutor(workers=workers, master_seed=9, retries=1) as ex:
            report = ex.run_jobs(jobs)
        assert report.failed == 0
        assert report.retried == 1
        flaky = report.results[0]
        assert flaky.attempts == 2
        assert flaky.value == ("recovered", derive_job_seed(9, "flaky"), 1)

    def test_retry_budget_exhausted_reports_error(self):
        with ParallelExecutor(workers=1, retries=1) as ex:
            report = ex.run_jobs([CrashingJob("doomed", 5)])
        assert report.failed == 1
        assert "injected crash" in report.results[0].error
        with ParallelExecutor(workers=1, retries=1) as ex:
            with pytest.raises(ExecutionError, match="doomed"):
                run_campaign_jobs([CrashingJob("doomed", 5)], executor=ex)

    def test_crash_does_not_poison_chunk_mates(self):
        jobs = [FunctionJob("a", echo_seed, "a"), CrashingJob("bad", 99),
                FunctionJob("b", echo_seed, "b")]
        with ParallelExecutor(workers=1, retries=0) as ex:
            report = ex.run_jobs(jobs)
        assert [r.ok for r in report.results] == [True, False, True]


class TestOneBudget:
    def test_raise_and_lost_worker_spend_one_budget(self, tmp_path):
        """A raise and a lost worker each spend one attempt of the one
        ``retries`` budget."""
        job = CrashThenKillJob("both", str(tmp_path / "killed2"))
        with ParallelExecutor(workers=2, retries=2) as ex:
            report = ex.run_jobs([job])
        assert report.failed == 0
        assert report.values == [("survived", 2)]
        assert report.results[0].attempts == 3
        # the raise is a retry; the lost worker is a redispatch only
        assert report.retried == 1
        assert ex.supervisor.redispatches.value == 1

        job = CrashThenKillJob("both", str(tmp_path / "killed1"))
        with ParallelExecutor(workers=2, retries=1) as ex:
            report = ex.run_jobs([job])
        assert report.failed == 1
        assert report.results[0].attempts == 2
        assert "worker pid=" in report.results[0].error
        assert "died" in report.results[0].error


class TestDigestMerging:
    def test_counters_sum_across_jobs(self):
        with ParallelExecutor(workers=2, master_seed=0) as ex:
            report = ex.run_jobs(make_jobs(6))
        digest = report.merged_digest()
        assert digest["exec"]["jobs"] == 6
        assert digest["metrics"]["counter"]["test.runs"]["value"] == 6.0

    def test_histograms_merge_counts_and_extremes(self):
        with ParallelExecutor(workers=1, master_seed=0) as ex:
            report = ex.run_jobs(make_jobs(4))
        hist = report.merged_digest()["metrics"]["histogram"]["test.values"]
        assert hist["count"] == 4
        assert hist["min"] == 4.0  # len("tag0")
        assert "p95" not in hist  # quantiles cannot be merged exactly

    def test_merge_digests_handles_empty(self):
        merged = merge_digests([], jobs=0)
        assert merged["metrics"] == {}
        assert merged["exec"]["digests_merged"] == 0

    def test_gauges_take_max(self):
        merged = merge_digests([
            {"metrics": {"gauge": {"depth": {"value": 3.0}}}},
            {"metrics": {"gauge": {"depth": {"value": 7.0}}}},
            {"metrics": {"gauge": {"depth": {"value": 5.0}}}},
        ])
        assert merged["metrics"]["gauge"]["depth"]["value"] == 7.0
