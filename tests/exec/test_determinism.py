"""Parallelism must never change results (the Menard et al. bar).

For each fan-out site — DSE engines, fleet-campaign sweeps, XiL scenario
batteries — the same master seed must yield identical results for
workers in {1, 2, 4}, including when a worker crash forces a retry.
"""

import pytest

from repro.core import CampaignSpec
from repro.dse import (
    MappingProblem,
    annealing_search,
    genetic_search,
    random_search,
)
from repro.exec import ParallelExecutor
from repro.fleet import CampaignJob, sweep_campaigns
from repro.hw import BusSpec, EcuSpec, OsClass, Topology
from repro.model import AppModel, Asil, SystemModel
from repro.osal import TaskSpec
from repro.sim import RngStreams
from repro.xil import ScenarioSpec, run_battery

WORKER_COUNTS = [1, 2, 4]


def make_model(n_apps=4, n_ecus=3):
    topo = Topology()
    topo.add_bus(BusSpec("eth", "ethernet", 1e9, tsn_capable=True))
    for i in range(n_ecus):
        topo.add_ecu(EcuSpec(
            f"e{i}", cpu_mhz=800, cores=2, memory_kib=1 << 18,
            flash_kib=1 << 20, has_mmu=True, os_class=OsClass.POSIX_RT,
            ports=(("eth0", "ethernet"),), unit_cost=50.0 + 10 * i,
        ))
        topo.attach(f"e{i}", "eth0", "eth")
    model = SystemModel(topo)
    for i in range(n_apps):
        model.add_app(AppModel(
            name=f"app{i}",
            tasks=(TaskSpec(name=f"t{i}", period=0.01, wcet=0.002),),
            asil=Asil.C, memory_kib=64, image_kib=64,
        ))
    return model


def archive_fingerprint(result):
    """Canonical, order-sensitive view of a search outcome."""
    return (
        result.engine,
        result.evaluations,
        result.best.genome,
        result.best.evaluation,
        [(c.genome, c.evaluation) for c in result.archive.members],
    )


class TestDseDeterminism:
    def run_engine(self, fn, workers, **kwargs):
        problem = MappingProblem(make_model())
        if workers == 0:
            return archive_fingerprint(fn(problem, RngStreams(21), **kwargs))
        with ParallelExecutor(workers=workers, master_seed=0) as executor:
            return archive_fingerprint(
                fn(problem, RngStreams(21), executor=executor, **kwargs)
            )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_random_search_matches_plain_serial(self, workers):
        reference = self.run_engine(random_search, 0, budget=40)
        assert self.run_engine(random_search, workers, budget=40) == reference

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_ga_matches_plain_serial(self, workers):
        kwargs = dict(population=10, generations=4)
        reference = self.run_engine(genetic_search, 0, **kwargs)
        assert self.run_engine(genetic_search, workers, **kwargs) == reference

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_sa_neighbourhood_matches_plain_serial(self, workers):
        kwargs = dict(budget=40, neighbourhood=4)
        reference = self.run_engine(annealing_search, 0, **kwargs)
        assert self.run_engine(annealing_search, workers, **kwargs) == reference

    def test_sa_neighbourhood_one_unchanged_from_legacy_sequence(self):
        """neighbourhood=1 must replay the historical SA trajectory
        (same stream draws in the same order)."""
        a = annealing_search(
            MappingProblem(make_model()), RngStreams(3), budget=60
        )
        b = annealing_search(
            MappingProblem(make_model()), RngStreams(3), budget=60,
            neighbourhood=1,
        )
        assert archive_fingerprint(a) == archive_fingerprint(b)


CAMPAIGN_SPEC = CampaignSpec(
    fleet_size=2,
    soak_time=0.3,
    target_wcet=0.004,
    target_wcet_jitter=0.004,
    target_deadline=0.002,
)


class TestCampaignDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_sweep_outcomes_identical(self, workers):
        reference = sweep_campaigns(
            CAMPAIGN_SPEC, replications=4, master_seed=17
        )
        with ParallelExecutor(workers=workers, master_seed=17) as executor:
            swept = sweep_campaigns(
                CAMPAIGN_SPEC, replications=4, executor=executor
            )
        assert swept.outcomes == reference.outcomes
        assert repr(swept.outcomes) == repr(reference.outcomes)

    def test_replications_differ_from_each_other(self):
        """The jitter stream actually diversifies replications."""
        result = sweep_campaigns(CAMPAIGN_SPEC, replications=4, master_seed=17)
        wcets = {o.target_wcet for o in result.outcomes}
        assert len(wcets) == 4

    def test_merged_digest_covers_all_replications(self):
        result = sweep_campaigns(CAMPAIGN_SPEC, replications=3, master_seed=1)
        assert result.digest["exec"]["jobs"] == 3
        events = result.digest["metrics"]["counter"]["sim.events"]["value"]
        assert events > 0


SCENARIOS = [
    ScenarioSpec(name="nominal", duration=8.0, max_settling_time=None,
                 max_steady_state_error=30.0),
    ScenarioSpec(name="sil", level="SiL", duration=4.0,
                 max_settling_time=None, max_steady_state_error=30.0),
    ScenarioSpec(name="dropout", duration=8.0,
                 sensor_dropout_window=(2.0, 3.0),
                 max_settling_time=None, max_steady_state_error=30.0),
    ScenarioSpec(name="stuck", duration=8.0, actuator_stuck_at=0.2,
                 max_settling_time=None, max_steady_state_error=0.01),
]


class TestXilDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_battery_verdicts_identical(self, workers):
        reference = run_battery(SCENARIOS)
        with ParallelExecutor(workers=workers) as executor:
            battery = run_battery(SCENARIOS, executor=executor)
        assert battery.verdicts == reference.verdicts
        assert repr(battery.verdicts) == repr(reference.verdicts)

    def test_battery_distinguishes_pass_and_fail(self):
        result = run_battery(SCENARIOS)
        by_name = {v.name: v for v in result.verdicts}
        assert by_name["stuck"].passed is False  # impossible SSE bound
        assert result.failures >= 1


class TestWarmPoolMatrixDeterminism:
    """workers x chunk_size x warm-pool reuse, at the fan-out-site level."""

    @pytest.mark.parametrize("chunk_size", [1, 3, None])
    def test_sweep_digests_identical_across_matrix(self, chunk_size):
        reference = sweep_campaigns(
            CAMPAIGN_SPEC, replications=4, master_seed=17
        )
        for workers in WORKER_COUNTS:
            with ParallelExecutor(workers=workers, master_seed=17,
                                  chunk_size=chunk_size) as executor:
                first = sweep_campaigns(
                    CAMPAIGN_SPEC, replications=4, executor=executor
                )
                # second batch reuses the same warm pool (and, with
                # chunk_size=None, a trained cost model)
                second = sweep_campaigns(
                    CAMPAIGN_SPEC, replications=4, executor=executor
                )
            assert first.outcomes == reference.outcomes
            assert second.outcomes == reference.outcomes
            assert first.digest == reference.digest
            assert second.digest == reference.digest


class FlakyCampaignJob(CampaignJob):
    """Crashes on its first attempt — exercises retry under fan-out."""

    def run(self, ctx):
        if ctx.attempt == 0:
            raise RuntimeError("injected worker crash")
        return super().run(ctx)


class TestCrashRetryDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_retried_replication_matches_clean_run(self, workers):
        clean_jobs = [
            CampaignJob(f"campaign.rep{i}", CAMPAIGN_SPEC) for i in range(3)
        ]
        flaky_jobs = [
            CampaignJob("campaign.rep0", CAMPAIGN_SPEC),
            FlakyCampaignJob("campaign.rep1", CAMPAIGN_SPEC),
            CampaignJob("campaign.rep2", CAMPAIGN_SPEC),
        ]
        with ParallelExecutor(workers=1, master_seed=17) as executor:
            reference = executor.run(clean_jobs)
        with ParallelExecutor(workers=workers, master_seed=17,
                              retries=1) as executor:
            report = executor.run_jobs(flaky_jobs)
        assert report.failed == 0
        assert report.retried == 1
        assert report.values == reference
