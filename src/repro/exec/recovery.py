"""Crash recovery for the execution substrate: checkpoints and chaos.

The campaign harness itself is a single point of failure — one worker
OOM or a host preemption discards hours of sharded simulation.  This
module makes sharded campaigns **preemption-tolerant**:

* :class:`CheckpointSpec` / :class:`CheckpointStore` — durable,
  schema-versioned, integrity-hashed persistence of completed shard
  summaries.  Every record is written atomically (write-to-temp +
  fsync + rename), so a crash at any instant leaves either the old
  state or the new state on disk, never a torn record.
* :func:`run_jobs_checkpointed` — a drop-in wrapper around
  :meth:`~repro.exec.pool.ParallelExecutor.run_jobs` that loads
  completed jobs from the store, runs only the missing ones, and
  persists fresh completions **as they finish** (via the executor's
  ``on_result`` hook), so a crash mid-batch loses only the unflushed
  tail.
* :func:`resume_campaign` — restarts an interrupted fleet campaign,
  fault campaign or campaign sweep from its checkpoint directory alone.
  Because every shard digest is a pure function of
  ``(plan, master_seed, index)`` and the reducers are exact mergeable
  summaries, a resumed campaign's digest is **byte-identical** to an
  uninterrupted run's — including mid-wave resume, halt decisions and
  rollback, which are all recomputed deterministically from the spec.
* :class:`ExecChaos` / :class:`FaultPoints` — a seeded chaos harness
  for the executor itself (SIGKILL a random busy worker every N
  chunks, inject pipe EOFs) and crash hooks inside the checkpoint
  write path, used by the soak test and ``benchmarks/bench_recovery.py``
  to prove the recovery guarantees under fire.

Determinism note: checkpoint file names and digests are pure functions
of the plan and shard keys — no wall-clock, pid or hostname ever leaks
into the on-disk format, so two runs of the same plan produce
interchangeable stores.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import signal
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..jobs import BatchReport, JobContext, JobResult, SimJob, derive_job_seed
from ..obs.metrics import MetricsRegistry
from ..sim import Simulator
from ..sim.rng import RngStreams
from .pool import _DIE, get_inline_executor

#: on-disk layout version; bump on any incompatible format change
CHECKPOINT_SCHEMA = 1

#: manifest file name inside a checkpoint directory
MANIFEST_NAME = "manifest.json"

#: suffix of a finished (renamed-into-place) shard record
RECORD_SUFFIX = ".ckpt"

#: characters allowed verbatim in a record file name
_SAFE_KEY = re.compile(r"[^A-Za-z0-9._-]")


class CheckpointCrash(RuntimeError):
    """Raised by an armed :class:`FaultPoints` hook to simulate a crash.

    Deliberately *not* an :class:`ExecutionError`: recovery tests must
    be able to catch exactly the injected crash without masking real
    execution failures.
    """


class FaultPoints:
    """Named crash hooks threaded through the checkpoint write path.

    Tests and the chaos benchmark arm a point —
    ``fp.arm("checkpoint.record_written", after=3)`` — and the third
    time execution passes that point, :class:`CheckpointCrash` is
    raised, simulating a harness crash at a byte-exact stage of the
    atomic-write protocol.  Unarmed points only count hits.

    Points the store exposes, in write order:

    * ``checkpoint.header_written`` — header line written to the temp
      file, payload not yet (a torn write if the rename never happens);
    * ``checkpoint.tmp_written`` — temp file complete and fsynced, not
      yet renamed (the record must be invisible to a resume);
    * ``checkpoint.record_written`` — rename done, record durable;
    * ``checkpoint.flush`` — a flush batch completed.
    """

    def __init__(self) -> None:
        self.hits: Dict[str, int] = {}
        self._armed: Dict[str, int] = {}

    def arm(self, point: str, *, after: int = 0) -> "FaultPoints":
        """Crash on the ``after + 1``-th hit of ``point`` (0 = first)."""
        if after < 0:
            raise ExecutionError(f"after must be >= 0, got {after}")
        self._armed[point] = after
        return self

    def disarm(self, point: str) -> None:
        self._armed.pop(point, None)

    def hit(self, point: str) -> None:
        """Record one pass through ``point``; crash if armed and due."""
        count = self.hits.get(point, 0)
        self.hits[point] = count + 1
        due = self._armed.get(point)
        if due is not None and count >= due:
            del self._armed[point]
            raise CheckpointCrash(
                f"injected crash at fault point {point!r} (hit #{count + 1})"
            )


@dataclass(frozen=True)
class CheckpointSpec:
    """Where and how often a campaign persists completed shards.

    Args:
        dir: checkpoint directory (created on first use; one campaign
            per directory — the manifest pins the plan).
        every_n_shards: flush granularity — completed shard records are
            buffered and written in batches of this size (the final
            flush writes any remainder).  ``1`` persists every shard
            immediately; larger values trade crash-window size for
            fewer fsyncs.
    """

    dir: str
    every_n_shards: int = 1

    def __post_init__(self) -> None:
        if not self.dir:
            raise ExecutionError("CheckpointSpec needs a directory")
        if self.every_n_shards < 1:
            raise ExecutionError(
                f"every_n_shards must be >= 1, got {self.every_n_shards}"
            )


def plan_key(kind: str, plan: Any) -> str:
    """Content hash pinning a checkpoint directory to one exact plan.

    A resume against a directory whose manifest records a different
    ``plan_key`` fails loudly instead of silently merging shards from
    two different campaigns.
    """
    blob = pickle.dumps((kind, plan), protocol=4)
    return hashlib.sha256(blob).hexdigest()


def _record_name(key: str) -> str:
    """Deterministic, filesystem-safe record file name for ``key``.

    The sanitized key keeps records human-greppable; the appended hash
    of the raw key keeps distinct keys from colliding after
    sanitization.  No wall-clock, counter or pid enters the name.
    """
    safe = _SAFE_KEY.sub("_", key)[:80]
    tag = hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]
    return f"{safe}.{tag}{RECORD_SUFFIX}"


def load_manifest(directory: str) -> Dict[str, Any]:
    """Read and validate a checkpoint directory's manifest."""
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ExecutionError(
            f"no checkpoint manifest in {directory!r} — nothing to resume"
        ) from None
    except (OSError, ValueError) as exc:
        raise ExecutionError(
            f"unreadable checkpoint manifest {path!r}: {exc!r}"
        ) from exc
    if manifest.get("schema") != CHECKPOINT_SCHEMA:
        raise ExecutionError(
            f"checkpoint schema {manifest.get('schema')!r} in {path!r} not "
            f"supported (expected {CHECKPOINT_SCHEMA})"
        )
    for field in ("kind", "plan_key", "plan_hex"):
        if field not in manifest:
            raise ExecutionError(
                f"checkpoint manifest {path!r} is missing {field!r}"
            )
    return manifest


class CheckpointStore:
    """Durable map of shard key → completed shard summary.

    On-disk layout (one directory per campaign):

    * ``manifest.json`` — schema version, campaign ``kind``, the
      ``plan_key`` content hash, the pickled plan itself (hex, so a
      resume can rebuild the campaign from the directory alone) and
      free-form ``meta``.
    * ``<key>.<hash12>.ckpt`` — one record per completed shard: a
      JSON header line (schema, raw key, plan_key, payload sha256)
      followed by the pickled payload.  Records are written to
      ``*.tmp`` first, fsynced, then renamed into place; loaders skip
      ``*.tmp`` files, verify the header and the payload hash, and
      silently discard anything torn or foreign — a discarded shard
      is merely recomputed.
    """

    def __init__(
        self,
        spec: CheckpointSpec,
        *,
        kind: str,
        plan: Any,
        meta: Optional[Dict[str, Any]] = None,
        fault_points: Optional[FaultPoints] = None,
    ) -> None:
        self.spec = spec
        self.kind = kind
        self.plan = plan
        self.plan_key = plan_key(kind, plan)
        self.fault_points = fault_points
        #: records buffered since the last flush (key → payload)
        self._buffer: List[Tuple[str, Any]] = []
        #: load/write accounting for reports and benchmarks
        self.loaded = 0
        self.written = 0
        self.discarded = 0
        os.makedirs(spec.dir, exist_ok=True)
        self._init_manifest(meta or {})

    # -- manifest --------------------------------------------------------

    def _init_manifest(self, meta: Dict[str, Any]) -> None:
        path = os.path.join(self.spec.dir, MANIFEST_NAME)
        if os.path.exists(path):
            manifest = load_manifest(self.spec.dir)
            if manifest["plan_key"] != self.plan_key:
                raise ExecutionError(
                    f"checkpoint dir {self.spec.dir!r} belongs to a "
                    f"different campaign (manifest plan_key "
                    f"{manifest['plan_key'][:12]}…, this plan "
                    f"{self.plan_key[:12]}…); refusing to mix shards"
                )
            return
        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "kind": self.kind,
            "plan_key": self.plan_key,
            "plan_hex": pickle.dumps(self.plan, protocol=4).hex(),
            "meta": meta,
        }
        blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
        self._atomic_write(path, blob)

    # -- the atomic-write protocol ---------------------------------------

    def _atomic_write(self, path: str, blob: bytes) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._fsync_dir()

    def _fsync_dir(self) -> None:
        """Make the rename itself durable (directory entry fsync)."""
        try:
            fd = os.open(self.spec.dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fs without dir-fsync
            pass
        finally:
            os.close(fd)

    def _write_record(self, key: str, payload: Any) -> None:
        fp = self.fault_points
        path = os.path.join(self.spec.dir, _record_name(key))
        blob = pickle.dumps(payload, protocol=4)
        header = json.dumps({
            "schema": CHECKPOINT_SCHEMA,
            "key": key,
            "plan_key": self.plan_key,
            "sha256": hashlib.sha256(blob).hexdigest(),
        }, sort_keys=True).encode("utf-8")
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(header + b"\n")
            if fp is not None:
                fp.hit("checkpoint.header_written")
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        if fp is not None:
            fp.hit("checkpoint.tmp_written")
        os.replace(tmp, path)
        self.written += 1
        if fp is not None:
            fp.hit("checkpoint.record_written")

    # -- public API ------------------------------------------------------

    def add(self, key: str, payload: Any) -> None:
        """Buffer one completed shard; auto-flush at the batch size."""
        self._buffer.append((key, payload))
        if len(self._buffer) >= self.spec.every_n_shards:
            self.flush()

    def flush(self) -> None:
        """Persist every buffered record (atomic per record)."""
        if not self._buffer:
            return
        # a crash mid-loop loses only the unwritten tail — written
        # records are already durable, a resume recomputes the rest
        buffered, self._buffer = self._buffer, []
        for key, payload in buffered:
            self._write_record(key, payload)
        self._fsync_dir()
        if self.fault_points is not None:
            self.fault_points.hit("checkpoint.flush")

    def load(self) -> Dict[str, Any]:
        """Read every valid record; torn/foreign records are discarded."""
        records: Dict[str, Any] = {}
        try:
            names = sorted(os.listdir(self.spec.dir))
        except FileNotFoundError:
            return records
        for name in names:
            if not name.endswith(RECORD_SUFFIX):
                continue  # manifest, *.tmp leftovers, foreign files
            path = os.path.join(self.spec.dir, name)
            try:
                with open(path, "rb") as fh:
                    header_line = fh.readline()
                    blob = fh.read()
                header = json.loads(header_line.decode("utf-8"))
                if (header.get("schema") != CHECKPOINT_SCHEMA
                        or header.get("plan_key") != self.plan_key
                        or header.get("sha256")
                        != hashlib.sha256(blob).hexdigest()):
                    self.discarded += 1
                    continue
                records[header["key"]] = pickle.loads(blob)
            except (OSError, ValueError, KeyError, pickle.PickleError,
                    EOFError):
                self.discarded += 1  # torn or corrupt — recompute it
                continue
        self.loaded = len(records)
        return records


# -- checkpointed batch execution ----------------------------------------


def run_jobs_checkpointed(
    jobs: Sequence[SimJob],
    *,
    executor,
    master_seed: int,
    context: Any = None,
    store: Optional[CheckpointStore] = None,
) -> BatchReport:
    """:meth:`run_jobs` with durable skip-and-persist semantics.

    Jobs whose ``job_id`` already has a valid record in ``store`` are
    **not re-executed** — their stored ``(value, digest)`` is replayed
    into the report (marked ``attempts=0``).  The remaining jobs run
    normally, and each successful result is handed to the store as it
    completes, so even a crash mid-batch preserves every flushed shard.
    Without a store this is exactly ``executor.run_jobs``.

    Correctness rests on the executor's seed contract: a job's seed
    derives from ``(master_seed, job_id)`` alone, so a stored value is
    bit-for-bit what re-execution would produce — skipping is
    unobservable in the merged summary.
    """
    jobs = list(jobs)
    if store is None:
        return executor.run_jobs(jobs, master_seed=master_seed,
                                 context=context)
    records = store.load()
    fresh = [job for job in jobs if job.job_id not in records]
    fresh_report = BatchReport()
    if fresh:
        fresh_report = executor.run_jobs(
            fresh, master_seed=master_seed, context=context,
            on_result=lambda r: store.add(r.job_id, (r.value, r.digest)),
        )
    store.flush()
    by_id = {r.job_id: r for r in fresh_report.results}
    results: List[JobResult] = []
    for index, job in enumerate(jobs):
        if job.job_id in records:
            value, digest = records[job.job_id]
            results.append(JobResult(
                index=index, job_id=job.job_id,
                seed=derive_job_seed(master_seed, job.job_id),
                attempts=0, value=value, digest=digest,
            ))
        else:
            result = by_id[job.job_id]
            result.index = index
            results.append(result)
    report = BatchReport(results=results, retried=fresh_report.retried)
    report.failed = sum(1 for r in results if not r.ok)
    return report


# -- the campaign spine --------------------------------------------------


@dataclass(frozen=True)
class ReplicationKind:
    """One kind of replicated campaign, as the spine runs it.

    ``build_base(sim, spec)`` builds the deterministic, RNG-free world
    every replication shares and registers its handles under
    ``sim.world[world]``.  ``replicate(sim, base, spec, job_id, rng)``
    runs one replication on that base and returns its picklable outcome,
    counting into ``sim.metrics``.  Replication ``i`` is the job
    ``{prefix}.rep{i}``; its checkpoints carry ``name`` as their kind,
    and a failed replication raises ``error``.
    """

    name: str
    prefix: str
    world: str
    build_base: Callable[..., Any]
    replicate: Callable[..., Any]
    error: type


class ReplicationJob(SimJob):
    """One replication of a :class:`ReplicationKind`.

    With a base snapshot as ``ctx.shared`` the job forks it; without one
    it rebuilds the base on ``Simulator(metrics=ctx.metrics)``.  Rebuild
    is the same code with the snapshot step skipped, and because the
    base is RNG-free both paths give byte-identical outcomes and digests.
    """

    def __init__(self, kind: ReplicationKind, job_id: str, spec: Any) -> None:
        self.kind = kind
        self.job_id = job_id
        self.spec = spec

    def run(self, ctx: JobContext) -> Any:
        kind = self.kind
        snap = ctx.shared
        if snap is None:
            sim = Simulator(metrics=ctx.metrics)
            base = kind.build_base(sim, self.spec)
        else:
            sim = snap.restore()
            base = sim.world[kind.world]
        outcome = kind.replicate(sim, base, self.spec, self.job_id, ctx.rng())
        if snap is not None:
            # the fork counted into its own registry (base counts
            # included); the job registry is still empty here, so this
            # is the flat-copy absorb
            ctx.metrics.absorb(sim.metrics)
        return outcome


def base_snapshot(kind: ReplicationKind, spec: Any) -> Any:
    """Build ``kind``'s base world once and return its snapshot.

    The base world gets its own enabled metrics registry: forks inherit
    it with the base counts in and keep counting through the
    replication, so the merged digest equals the rebuild path's.
    """
    sim = Simulator(metrics=MetricsRegistry())
    kind.build_base(sim, spec)
    return sim.snapshot()


def resolve_seed(master_seed: Optional[int], executor: Any) -> int:
    """The given seed, else the executor's, else ``0``."""
    if master_seed is not None:
        return master_seed
    return executor.master_seed if executor is not None else 0


def open_store(checkpoint: Optional[CheckpointSpec], kind: str, plan: Any,
               fault_points: Optional[FaultPoints] = None
               ) -> Optional[CheckpointStore]:
    """The campaign's checkpoint store (``None`` without a checkpoint)."""
    if checkpoint is None:
        return None
    return CheckpointStore(
        checkpoint, kind=kind, plan=plan,
        meta={"every_n_shards": checkpoint.every_n_shards},
        fault_points=fault_points,
    )


def run_campaign_jobs(
    jobs: Sequence[SimJob],
    *,
    executor: Any = None,
    master_seed: Optional[int] = None,
    context: Any = None,
    store: Optional[CheckpointStore] = None,
    error: type = ExecutionError,
    what: str = "jobs",
) -> BatchReport:
    """The tail every campaign runs its jobs through.

    Resolves the seed (:func:`resolve_seed`), falls back to the shared
    inline executor, runs through :func:`run_jobs_checkpointed` and
    raises ``error`` naming the first failures if any job failed.
    """
    seed = resolve_seed(master_seed, executor)
    if executor is None:
        executor = get_inline_executor()
    report = run_jobs_checkpointed(
        jobs, executor=executor, master_seed=seed, context=context,
        store=store,
    )
    failed = [r for r in report.results if not r.ok]
    if failed:
        detail = "; ".join(f"{r.job_id}: {r.error}" for r in failed[:5])
        raise error(
            f"{len(failed)}/{len(report.results)} {what} failed ({detail})"
        )
    return report


def run_replications(
    kind: ReplicationKind,
    spec: Any,
    *,
    replications: int,
    executor: Any = None,
    master_seed: Optional[int] = None,
    fork: bool = True,
    checkpoint: Optional[CheckpointSpec] = None,
    fault_points: Optional[FaultPoints] = None,
) -> BatchReport:
    """Run ``replications`` independent replications of ``kind``.

    Replication ``i`` is seeded from the resolved master seed and its
    job id alone, so outcomes are byte-identical for any worker count.
    With ``fork`` the base world is built once and forked per
    replication; without, every replication rebuilds it.  The
    checkpoint plan is ``(spec, replications, seed)``, so
    :func:`resume_campaign` can rerun the campaign from its directory.
    """
    if replications < 1:
        raise kind.error(f"{kind.name} needs at least one replication")
    seed = resolve_seed(master_seed, executor)
    store = open_store(checkpoint, kind.name, (spec, replications, seed),
                       fault_points)
    jobs = [ReplicationJob(kind, f"{kind.prefix}.rep{i}", spec)
            for i in range(replications)]
    return run_campaign_jobs(
        jobs, executor=executor, master_seed=seed,
        context=base_snapshot(kind, spec) if fork else None, store=store,
        error=kind.error, what=f"{kind.prefix} replications",
    )


# -- resume --------------------------------------------------------------

#: checkpoint kind -> ``rerun(plan, *, executor, fork, checkpoint,
#: fault_points)``; every campaign module registers its kind at import
KINDS: Dict[str, Callable[..., Any]] = {}


def resume_campaign(
    directory: str,
    *,
    executor: Any = None,
    fork: bool = True,
    fault_points: Optional[FaultPoints] = None,
) -> Any:
    """Resume an interrupted campaign from its checkpoint directory.

    Reads the manifest, rebuilds the campaign spec pinned there, and
    re-runs the campaign **against the same store**: shards already on
    disk are loaded instead of simulated, missing ones (including the
    mid-wave tail that was in flight at the crash) are recomputed with
    their original seeds, and every wave digest, halt decision and
    rollback is re-derived deterministically — so the resumed campaign
    digest is byte-identical to an uninterrupted run's.

    The manifest's ``kind`` names the rerun function in :data:`KINDS`:
    ``fleet_campaign`` (:func:`repro.fleet.service.run_fleet_campaign`),
    ``fault_campaign`` (:func:`repro.faults.campaign.run_fault_campaign`)
    and ``campaign_sweep`` (:func:`repro.fleet.sweep.sweep_campaigns`).
    """
    manifest = load_manifest(directory)
    kind = manifest["kind"]
    rerun = KINDS.get(kind)
    if rerun is None:
        raise ExecutionError(
            f"cannot resume checkpoint of unknown kind {kind!r} "
            f"(directory {directory!r})"
        )
    plan = pickle.loads(bytes.fromhex(manifest["plan_hex"]))
    meta = manifest.get("meta") or {}
    checkpoint = CheckpointSpec(
        dir=directory, every_n_shards=int(meta.get("every_n_shards", 1))
    )
    return rerun(plan, executor=executor, fork=fork, checkpoint=checkpoint,
                 fault_points=fault_points)


# -- executor-level chaos ------------------------------------------------


class ExecChaos:
    """Seeded chaos harness for the executor substrate itself.

    Plugged into :class:`~repro.exec.pool.ParallelExecutor` via
    ``chaos=``; after every chunk dispatch the pool calls
    :meth:`on_dispatch`, which — on a deterministic, seeded schedule —
    SIGKILLs a random *busy* worker (``kill_every``) or orders a worker
    to exit without replying, producing a clean pipe EOF
    (``eof_every``).  Both failure shapes exercise the supervision
    paths: death detection, surgical rebuild and idempotent chunk
    re-dispatch.  Victim choice draws from seeded
    :class:`~repro.sim.rng.RngStreams`, so a chaos soak is replayable.

    The harness never touches results — determinism of outcomes *under*
    chaos is exactly what the soak test asserts.
    """

    def __init__(self, seed: int = 0, *, kill_every: int = 0,
                 eof_every: int = 0) -> None:
        if kill_every < 0 or eof_every < 0:
            raise ExecutionError("chaos periods must be >= 0 (0 disables)")
        self.kill_every = kill_every
        self.eof_every = eof_every
        self._rng = RngStreams(seed)
        #: chunks dispatched since the harness was armed
        self.chunks = 0
        self.kills = 0
        self.eofs = 0

    def on_dispatch(self, handle, executor) -> None:
        """Pool hook: maybe harm a worker after this dispatch."""
        self.chunks += 1
        if self.kill_every and self.chunks % self.kill_every == 0:
            victims = [h for h in executor._handles
                       if h.chunk is not None and h.proc.pid]
            victim = (self._rng.choice("exec.chaos.kill", victims)
                      if victims else handle)
            try:
                os.kill(victim.proc.pid, signal.SIGKILL)
                self.kills += 1
            except (ProcessLookupError, OSError):  # pragma: no cover
                pass
        if self.eof_every and self.chunks % self.eof_every == 0:
            try:
                handle.conn.send_bytes(_DIE)
                self.eofs += 1
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass


__all__ = [
    "CHECKPOINT_SCHEMA",
    "KINDS",
    "CheckpointCrash",
    "CheckpointSpec",
    "CheckpointStore",
    "ExecChaos",
    "FaultPoints",
    "ReplicationJob",
    "ReplicationKind",
    "base_snapshot",
    "load_manifest",
    "open_store",
    "plan_key",
    "resolve_seed",
    "resume_campaign",
    "run_campaign_jobs",
    "run_jobs_checkpointed",
    "run_replications",
]
