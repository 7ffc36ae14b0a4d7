"""VerifyCache must change verification cost, never its verdicts."""

import pickle

from repro.hw import centralized_topology
from repro.sim import RngStreams
from repro.model import Deployment, VerifyCache, verify
from repro.model.verification import estimate_latency
from repro.osal.analysis import scaled_utilization
from repro.osal.task import Criticality
from repro.workloads import reference_system

from .test_dse import make_model
from repro.dse import MappingProblem
from repro.dse.problem import Evaluation


def random_deployments(problem, n, seed=3):
    rng = RngStreams(seed).stream("test.dse.deployments")
    bounds = problem.genome_bounds()
    return [problem.decode([rng.randrange(b) for b in bounds])
            for _ in range(n)]


def evaluate_cold(problem, deployment):
    """The scoring path as it was before ``VerifyCache``: uncached
    ``verify`` plus a latency loop that re-derives routes, payload sizes
    and bandwidths on every call.  The reference ``evaluate`` must match."""
    model = problem.model
    result = verify(model, deployment)
    cost = sum(
        model.topology.ecu(name).unit_cost for name in deployment.used_ecus()
    )
    latency = 0.0
    for producer, consumer, interface in model.communication_pairs():
        if deployment.is_placed(producer) and deployment.is_placed(consumer):
            latency += estimate_latency(
                model,
                deployment.ecu_of(producer),
                deployment.ecu_of(consumer),
                interface.payload_bytes,
            )
    utilizations = []
    for ecu_name in deployment.used_ecus():
        spec = model.topology.ecu(ecu_name)
        for core in range(spec.cores):
            tasks = [
                t
                for a in deployment.apps_on_core(ecu_name, core)
                for t in model.app(a).tasks
                if t.criticality is Criticality.DETERMINISTIC
            ]
            if tasks:
                utilizations.append(
                    scaled_utilization(tasks, spec.speed_factor)
                )
    imbalance = (max(utilizations) - min(utilizations)
                 if len(utilizations) > 1 else 0.0)
    return Evaluation(
        feasible=result.ok,
        cost=cost,
        latency=latency,
        imbalance=imbalance,
        violations=len(result.errors),
    )


class TestVerifyCacheEquivalence:
    def test_cached_verify_matches_uncached_exactly(self):
        model = reference_system(centralized_topology())
        problem = MappingProblem(model)
        cache = VerifyCache(model)
        for deployment in random_deployments(problem, 40):
            cold = verify(model, deployment)
            warm = verify(model, deployment, cache=cache)
            # identical Violation objects in identical order
            assert cold.violations == warm.violations
        assert cache.stats()["routes"] > 0
        assert cache.stats()["latencies"] > 0

    def test_cached_evaluate_matches_cold_reference(self):
        problem = MappingProblem(reference_system(centralized_topology()))
        deployments = random_deployments(problem, 200, seed=13)
        cold = [evaluate_cold(problem, d) for d in deployments]
        assert [problem.evaluate(d) for d in deployments] == cold
        assert len({(e.cost, e.latency, e.imbalance) for e in cold}) > 1

    def test_cache_handles_missing_routes(self):
        # a deployment naming an unknown ECU exercises the no-route path
        model = make_model(n_apps=2, n_ecus=2)
        cache = VerifyCache(model)
        deployment = Deployment()
        deployment.place("app0", "e0", 0)
        deployment.place("app1", "e1", 0)
        cold = verify(model, deployment)
        warm = verify(model, deployment, cache=cache)
        assert cold.violations == warm.violations

    def test_problem_owns_a_cache_and_uses_it(self):
        problem = MappingProblem(make_model())
        genome = [0] * problem.genome_length()
        problem.evaluate_genome(genome)
        assert problem.cache.stats()["structural"] == 1

    def test_warm_cache_survives_pickling(self):
        # the problem (cache included) ships to executor workers
        model = reference_system(centralized_topology())
        problem = MappingProblem(model)
        deployments = random_deployments(problem, 10)
        local = [problem.evaluate(d) for d in deployments]
        clone = pickle.loads(pickle.dumps(problem))
        remote = [clone.evaluate(d) for d in deployments]
        assert local == remote

    def test_memoisation_is_stable_across_repeats(self):
        model = reference_system(centralized_topology())
        problem = MappingProblem(model)
        deployment = random_deployments(problem, 1)[0]
        first = verify(model, deployment, cache=problem.cache)
        second = verify(model, deployment, cache=problem.cache)
        assert first.violations == second.violations
