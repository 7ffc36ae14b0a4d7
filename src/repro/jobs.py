"""Job abstractions for deterministic parallel experiment execution.

A :class:`SimJob` is a *picklable* specification of one independent
simulation run: it travels to a worker process, builds a fresh
:class:`~repro.sim.kernel.Simulator` (and whatever model it needs) there,
and returns a picklable result.  Jobs never share live simulator state —
that is what makes fan-out trivially safe.

Layering note
-------------
This module is the *protocol* between job producers (``dse``,
``faults``, ``fleet``, ``xil``) and the executor that runs them
(:mod:`repro.exec`).  It deliberately lives at the bottom of the layer
DAG — depending only on :mod:`repro.obs` and :mod:`repro.sim` — so a
layer can define jobs without importing the executor machinery.

Determinism contract
--------------------
Every job receives a :class:`JobContext` whose ``seed`` is derived from
the executor's master seed and the job's ``job_id`` alone — never from
the worker that happens to run it, the submission chunk, or the
completion order.  A job that draws all randomness from
``ctx.rng()`` therefore produces byte-identical results whether the
batch runs serially or on any number of workers, and a retried job
replays the exact same draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .obs.metrics import MetricsRegistry
from .sim.rng import RngStreams, _derive_seed


def derive_job_seed(master_seed: int, job_id: str) -> int:
    """Stable 64-bit seed for ``job_id`` under ``master_seed``.

    Uses the same SHA-256 derivation as :class:`~repro.sim.rng.RngStreams`
    sub-streams, namespaced so job seeds never collide with stream seeds.
    """
    return _derive_seed(master_seed, f"exec.job:{job_id}")


def derive_item_seed(master_seed: int, namespace: str, index: int) -> int:
    """Stable 64-bit seed for item ``index`` of a sharded collection.

    Sharded fan-out sites (the fleet backend) must give every item — a
    vehicle, a scenario — a seed that depends only on the master seed and
    the item's own index, **never** on which shard or worker the item
    landed in.  That is what makes outcomes byte-identical across any
    shard count × worker count combination.  ``namespace`` keeps
    different collections (e.g. two campaigns in one process) from
    colliding.
    """
    return _derive_seed(master_seed, f"exec.item:{namespace}:{index}")


@dataclass
class JobContext:
    """Everything the framework hands a job at run time."""

    job_id: str
    seed: int
    #: 0 on the first run, incremented on each retry
    attempt: int
    #: fresh per-job registry; attach it to the job's Simulator and the
    #: executor will fold its digest into the merged batch report
    metrics: MetricsRegistry
    #: the batch's shared context, if one was passed to ``run_jobs``:
    #: pickled once per worker and cached there across batches, so jobs
    #: that all read one heavy object (a DSE problem with its system
    #: model) don't each ship a private copy
    shared: Any = None

    def rng(self) -> RngStreams:
        """Fresh deterministic stream registry seeded for this job."""
        return RngStreams(self.seed)


class SimJob:
    """Base class for one independent unit of simulation work.

    Subclasses must be picklable (plain attributes, no live simulators,
    no lambdas) and override :meth:`run`.  ``job_id`` must be unique
    within a batch — it names the job in reports and pins its RNG seed.
    """

    job_id: str = "job"

    #: optional estimate of this job's wall-clock runtime in seconds.
    #: When set, it seeds the executor's cost model before the first
    #: measurement arrives, so the very first round already dispatches
    #: well-sized chunks instead of single-job probes.  Purely advisory:
    #: it can never affect results, only chunk sizing.
    cost_hint: Optional[float] = None

    def run(self, ctx: JobContext) -> Any:
        """Execute the job and return a picklable result."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.job_id!r}>"


class FunctionJob(SimJob):
    """Adapter running a module-level function as a job.

    ``fn(ctx, *args, **kwargs)`` must be defined at module top level so
    it pickles by reference; lambdas and closures will not survive the
    trip to a worker process.
    """

    def __init__(self, job_id: str, fn, *args: Any, **kwargs: Any) -> None:
        self.job_id = job_id
        self.fn = fn
        self.args = args
        self.kwargs = kwargs

    def run(self, ctx: JobContext) -> Any:
        return self.fn(ctx, *self.args, **self.kwargs)


@dataclass
class JobResult:
    """Outcome of one job, successful or not."""

    index: int
    job_id: str
    seed: int
    #: total runs attempted (1 = first try succeeded)
    attempts: int
    value: Any = None
    #: ``repro.obs`` digest of the job's metrics registry (None if the
    #: job recorded nothing)
    digest: Optional[Dict[str, Any]] = None
    #: ``repr`` of the terminal exception, or None on success
    error: Optional[str] = None
    #: pid of the worker that produced the final attempt (0 = inline)
    worker_pid: int = 0
    #: wall-clock seconds of the final attempt (informational only —
    #: never part of the determinism contract)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchReport:
    """Aggregate view over one executed batch."""

    results: list = field(default_factory=list)
    retried: int = 0
    failed: int = 0

    @property
    def values(self) -> list:
        return [r.value for r in self.results]

    def merged_digest(self) -> Dict[str, Any]:
        from .obs.report import merge_digests

        return merge_digests(
            [r.digest for r in self.results if r.digest is not None],
            jobs=len(self.results),
            failed=self.failed,
            retried=self.retried,
        )
