"""The mapping problem for design space exploration (Section 2.3).

"The design space exploration can operate on the output of the model and
use simulation or verification approaches to guarantee parameters in all
possible combinations, as well as define the optimal approach for every
combination of functions, parameters and hardware."

A :class:`MappingProblem` fixes the system model and the candidate
placements per app; an :class:`Evaluation` scores one deployment on
feasibility (via the verification engine) and the objective vector
(hardware cost, estimated communication latency, load imbalance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..exec.recovery import run_campaign_jobs
from ..jobs import JobContext, SimJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.pool import ParallelExecutor
from ..model.deployment import Deployment
from ..model.system import SystemModel
from ..model.verification import VerifyCache, verify
from ..osal.analysis import scaled_utilization
from ..osal.task import Criticality


@dataclass(frozen=True)
class Evaluation:
    """Result of scoring one deployment."""

    feasible: bool
    cost: float            # total unit cost of ECUs used
    latency: float         # summed estimated latency over comm pairs (s)
    imbalance: float       # max-min core utilization spread
    violations: int

    @property
    def objectives(self) -> Tuple[float, float, float]:
        return (self.cost, self.latency, self.imbalance)

    def dominates(self, other: "Evaluation") -> bool:
        """Pareto dominance on (cost, latency, imbalance); infeasible
        solutions are dominated by any feasible one."""
        if self.feasible and not other.feasible:
            return True
        if not self.feasible:
            return False
        no_worse = all(a <= b + 1e-12 for a, b in zip(self.objectives, other.objectives))
        better = any(a < b - 1e-12 for a, b in zip(self.objectives, other.objectives))
        return no_worse and better

    def weighted_score(
        self, weights: Tuple[float, float, float] = (1.0, 1000.0, 10.0)
    ) -> float:
        """Scalarised score (lower is better); infeasible gets a penalty
        proportional to the violation count so search can climb out."""
        base = sum(w * o for w, o in zip(weights, self.objectives))
        if not self.feasible:
            base += 1e6 + 1e4 * self.violations
        return base


class MappingProblem:
    """App-to-ECU mapping with per-app candidate sets."""

    def __init__(
        self,
        model: SystemModel,
        *,
        candidates: Optional[Dict[str, List[Tuple[str, int]]]] = None,
    ) -> None:
        self.model = model
        if candidates is None:
            candidates = self._default_candidates()
        self.candidates = candidates
        self.app_names = sorted(candidates)
        missing = [a.name for a in model.apps if a.name not in candidates]
        if missing:
            raise ConfigurationError(f"no candidates for apps: {missing}")
        for app, options in candidates.items():
            if not options:
                raise ConfigurationError(f"empty candidate set for {app!r}")
        self.evaluations = 0
        # deployment-independent verification facts (structural checks,
        # redundancy counts, routes, latency estimates) are computed once
        # and reused across every evaluate() call; the cache pickles with
        # the problem, so executor workers receive it warm
        self.cache = VerifyCache(model)

    def _default_candidates(self) -> Dict[str, List[Tuple[str, int]]]:
        """Every app may go on every (ECU, core) pair that could host it."""
        out: Dict[str, List[Tuple[str, int]]] = {}
        for app in self.model.apps:
            options = []
            for ecu in self.model.topology.ecus:
                if app.has_deterministic_tasks and not ecu.os_class.supports_deterministic:
                    continue
                if app.needs_gpu and not ecu.has_gpu:
                    continue
                if app.memory_kib > ecu.memory_kib:
                    continue
                for core in range(ecu.cores):
                    options.append((ecu.name, core))
            out[app.name] = options or [
                (self.model.topology.ecus[0].name, 0)
            ]
        return out

    # -- genotype handling ---------------------------------------------------------

    def genome_length(self) -> int:
        return len(self.app_names)

    def genome_bounds(self) -> List[int]:
        """Number of candidate options per gene position."""
        return [len(self.candidates[a]) for a in self.app_names]

    def decode(self, genome: List[int]) -> Deployment:
        """Turn an index vector into a deployment."""
        if len(genome) != len(self.app_names):
            raise ConfigurationError("genome length mismatch")
        deployment = Deployment()
        for app_name, gene in zip(self.app_names, genome):
            options = self.candidates[app_name]
            ecu, core = options[gene % len(options)]
            deployment.place(app_name, ecu, core)
        return deployment

    # -- scoring --------------------------------------------------------------------

    def evaluate(self, deployment: Deployment) -> Evaluation:
        """Verify and score one deployment."""
        self.evaluations += 1
        result = verify(self.model, deployment, cache=self.cache)
        cost = sum(
            self.model.topology.ecu(name).unit_cost
            for name in deployment.used_ecus()
        )
        latency = 0.0
        for pair in self.cache.communication_pairs():
            if deployment.is_placed(pair.producer) and deployment.is_placed(pair.consumer):
                latency += self.cache.estimate_latency(
                    deployment.ecu_of(pair.producer),
                    deployment.ecu_of(pair.consumer),
                    pair.payload_bytes,
                )
        utilizations: List[float] = []
        for ecu_name in deployment.used_ecus():
            try:
                spec = self.model.topology.ecu(ecu_name)
            except ConfigurationError:
                continue
            for core in range(spec.cores):
                tasks = [
                    t
                    for a in deployment.apps_on_core(ecu_name, core)
                    for t in self.model.app(a).tasks
                    if t.criticality is Criticality.DETERMINISTIC
                ]
                if tasks:
                    utilizations.append(
                        scaled_utilization(tasks, spec.speed_factor)
                    )
        imbalance = (max(utilizations) - min(utilizations)) if len(utilizations) > 1 else 0.0
        return Evaluation(
            feasible=result.ok,
            cost=cost,
            latency=latency,
            imbalance=imbalance,
            violations=len(result.errors),
        )

    def evaluate_genome(self, genome: List[int]) -> Evaluation:
        return self.evaluate(self.decode(genome))


class GenomeBatchJob(SimJob):
    """Picklable evaluation entry point for parallel DSE.

    Carries only a chunk of genomes; the problem (with its full system
    model) travels separately as the batch's **shared context** — pickled
    once per worker and cached there, so a GA running many generations
    against one warm pool ships the model ``workers`` times total, not
    ``workers × generations`` times.  Evaluation is pure (verification +
    analytic objectives, no RNG), so results are identical wherever the
    chunk runs.
    """

    def __init__(self, job_id: str, genomes: List[List[int]]) -> None:
        self.job_id = job_id
        self.genomes = genomes

    def run(self, ctx: JobContext) -> List[Evaluation]:
        problem: MappingProblem = ctx.shared
        evaluated = ctx.metrics.counter("dse.evaluations")
        evaluated.inc(len(self.genomes))
        return [problem.evaluate_genome(g) for g in self.genomes]


def evaluate_genomes(
    problem: MappingProblem,
    genomes: List[List[int]],
    executor: Optional["ParallelExecutor"] = None,
    *,
    tag: str = "batch",
) -> List[Evaluation]:
    """Evaluate a batch of genomes, serially or through an executor.

    With ``executor=None`` this is a plain in-process loop; otherwise the
    batch is split into one :class:`GenomeBatchJob` per executor worker
    slot and run through the campaign spine's strict batch runner.  Both
    paths return evaluations in genome order and produce identical
    results — the search engines call this at every fan-out point so
    parallelism never changes a trajectory.
    """
    if executor is None or executor.workers <= 1 or len(genomes) <= 1:
        return [problem.evaluate_genome(g) for g in genomes]
    # the problem ships once per worker as shared context; jobs carry
    # only genomes, so one job per worker is enough — over-splitting
    # into workers*2 jobs just multiplies dispatch round-trips
    chunk = -(-len(genomes) // min(executor.workers, len(genomes)))
    jobs = [
        GenomeBatchJob(f"dse.{tag}.{i}", genomes[i:i + chunk])
        for i in range(0, len(genomes), chunk)
    ]
    report = run_campaign_jobs(jobs, executor=executor, context=problem)
    evaluations: List[Evaluation] = []
    for batch in report.values:
        evaluations.extend(batch)
    # worker-side copies of the problem counted their own evaluations;
    # mirror the count on the caller's instance
    problem.evaluations += len(genomes)
    return evaluations
