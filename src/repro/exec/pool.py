"""A deterministic multi-process executor for independent simulation runs.

:class:`ParallelExecutor` fans a batch of :class:`~repro.jobs.SimJob`
specs out over a pool of **persistent warm worker processes** and returns
results **in job order**, no matter which workers finished first.

Architecture (why parallel wins):

* **Warm persistent pool** — workers are plain long-lived processes
  joined to the parent by duplex pipes.  Each worker imports :mod:`repro`
  once and then serves many chunks, batches and campaigns; the fork/spawn
  and import cost is paid once per executor, not once per batch.  Use
  :meth:`warm_up` to pay it before a timed region.
* **Cost-model chunking** — with ``chunk_size=None`` the executor sizes
  chunks from measured per-job runtime (an EMA over every completed job,
  seeded by the optional ``SimJob.cost_hint``): each chunk targets
  ``target_chunk_seconds`` of work so one IPC round-trip is amortised
  over many short sims, while a fair-share cap keeps every worker busy.
  Until the first measurement arrives, single-job probe chunks run.
* **Overlapped dispatch/collection** — the parent tops up every idle
  worker before draining ready pipes, so submission of chunk *k+1*
  overlaps execution of chunk *k*; workers reply with one pre-pickled
  bytes blob per chunk (compact tuples + metric digests, no rich result
  objects cross the pipe).
* **Surgical failure recovery** — a chunk that exceeds its deadline
  (``job_timeout * len(chunk) + grace``) fails only its own jobs;
  **only that worker** is killed and respawned, the rest of the warm
  pool keeps serving.  Failed jobs retry (same seed) on healthy workers
  up to ``retries`` times.
* **Worker supervision** — workers heartbeat over their duplex pipe
  while a chunk is executing, so the parent distinguishes a *slow* job
  (still beating) from a *hung or dead* worker (beats stopped, or pipe
  EOF).  A hung worker is escalated SIGTERM → SIGKILL under a bounded
  grace budget and surgically rebuilt, and its in-flight chunk is
  **re-dispatched** to a healthy worker — safe because per-job seeds
  derive from ``(master_seed, job_id)`` alone, a retried job replays
  the identical draws, and a result is recorded at most once, so
  redispatch can neither diverge nor double-count.  Supervision health
  is published through :mod:`repro.obs` as
  ``pool.supervisor.{restarts,hangs,redispatches,escalations}``.

Guarantees:

* **Determinism** — each job's RNG seed is derived from the master seed
  and the job id only, so results are byte-identical to serial execution
  for any worker count, chunking, cost-model state, or completion order.
* **Bounded failure handling** — a job that raises is retried up to
  ``retries`` times (the retry replays the same seed).
* **Merged observability** — each job runs against a fresh
  :class:`~repro.obs.metrics.MetricsRegistry`; per-job digests are folded
  into one :mod:`repro.obs` batch report.

With ``workers=1`` the batch runs inline through the *same* chunk-runner
code path — that is the reference serial execution all parallel runs
must match, and the right mode when jobs are too short (microseconds)
for any fan-out to pay for its IPC.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
from collections import deque
from multiprocessing import connection as _mp_connection
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..obs.metrics import MetricsRegistry
from ..jobs import BatchReport, JobContext, JobResult, SimJob, derive_job_seed

#: (index, job, seed, attempt) — what travels to a worker per job
_Payload = Tuple[int, SimJob, int, int]

#: explicit preference order — ``fork`` is cheapest (inherits the warm
#: parent), ``forkserver`` next, ``spawn`` is the portable fallback
_START_METHODS = ("fork", "forkserver", "spawn")

#: EMA weight for new per-job runtime observations
_COST_ALPHA = 0.2

#: control frames on the worker pipe (never valid pickles)
_STOP = b"\x00stop"
_PING = b"\x00ping"
_PONG = b"\x00pong"
#: heartbeat frame a busy worker emits every ``heartbeat_period`` seconds
_BEAT = b"\x00beat"
#: chaos frame: the worker exits without replying (clean pipe EOF)
_DIE = b"\x00die"


def _pick_start_method(requested: Optional[str]) -> str:
    available = multiprocessing.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise ExecutionError(
                f"start_method {requested!r} not available on this platform "
                f"(available: {available})"
            )
        return requested
    for method in _START_METHODS:
        if method in available:
            return method
    raise ExecutionError(
        f"no supported multiprocessing start method: tried "
        f"{list(_START_METHODS)}, platform offers {available}"
    )


def _run_chunk(payload: Sequence[_Payload],
               shared: Any = None) -> List[tuple]:
    """Execute a chunk of jobs in this process (worker entry point).

    Per-job exceptions are caught and reported as data so one bad job
    neither loses its chunk-mates' completed work nor kills the worker.
    """
    out = []
    pid = os.getpid()
    for index, job, seed, attempt in payload:
        registry = MetricsRegistry()
        ctx = JobContext(job_id=job.job_id, seed=seed, attempt=attempt,
                         metrics=registry, shared=shared)
        start = perf_counter()
        try:
            value = job.run(ctx)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            out.append((index, False, repr(exc), None, pid,
                        perf_counter() - start))
        else:
            digest: Optional[Dict[str, Any]] = None
            if len(registry):
                digest = {"metrics": registry.snapshot()}
            out.append((index, True, value, digest, pid,
                        perf_counter() - start))
    return out


def _heartbeat_loop(conn, send_lock, busy, stopped, period: float) -> None:
    """Worker-side supervision thread: beat while a chunk is executing.

    Beats are only emitted while the main loop is inside a chunk, so an
    idle worker writes nothing (the pipe buffer of a long-idle pool can
    never fill with stale beats) and the parent can read a missing beat
    on a *busy* worker as "this process is hung or gone", not merely
    "this job is slow" — a slow job still beats, because the beats come
    from this thread, not from job code.
    """
    while not stopped.wait(period):
        if not busy.is_set():
            continue
        with send_lock:
            if not busy.is_set():
                continue
            try:
                conn.send_bytes(_BEAT)
            except (BrokenPipeError, OSError):
                return


def _worker_main(conn, heartbeat_period: float = 0.0) -> None:
    """Long-lived worker loop: recv a pickled chunk, reply with bytes.

    The worker imports :mod:`repro` once (a no-op under ``fork``, the
    real warm-up under ``spawn``/``forkserver``) and then serves chunks
    until it receives the stop frame or its pipe closes.  Replies travel
    as one pre-pickled blob per chunk — compact tuples, not rich result
    objects.  With ``heartbeat_period > 0`` a daemon thread beats on the
    pipe while a chunk executes (see :func:`_heartbeat_loop`).
    """
    import repro  # noqa: F401 - warm the module cache once per worker

    send_lock = threading.Lock()
    busy = threading.Event()
    stopped = threading.Event()
    if heartbeat_period > 0:
        threading.Thread(
            target=_heartbeat_loop,
            args=(conn, send_lock, busy, stopped, heartbeat_period),
            daemon=True,
        ).start()

    def send(blob: bytes) -> None:
        with send_lock:
            conn.send_bytes(blob)

    shared_token: Optional[int] = None
    shared_obj: Any = None
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            break
        if blob == _STOP:
            break
        if blob == _DIE:
            os._exit(3)  # chaos: vanish without a reply (pipe EOF)
        if blob == _PING:
            send(_PONG)
            continue
        token, ctx_blob, payload = pickle.loads(blob)
        if token is None:
            shared = None
        elif token == shared_token:
            shared = shared_obj  # context cached from an earlier chunk
        elif ctx_blob is not None:
            shared_obj = pickle.loads(ctx_blob)
            shared_token = token
            shared = shared_obj
        else:  # pragma: no cover - parent/worker token desync
            out = [(index, False,
                    f"shared context token {token} unknown to worker",
                    None, os.getpid(), 0.0)
                   for (index, _job, _seed, _attempt) in payload]
            send(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
            continue
        busy.set()
        try:
            out = _run_chunk(payload, shared)
        finally:
            busy.clear()
        try:
            reply = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - unpicklable job value
            out = [(index, False,
                    f"job value not picklable: {exc!r}", None,
                    os.getpid(), 0.0)
                   for (index, _job, _seed, _attempt) in payload]
            reply = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        try:
            send(reply)
        except (BrokenPipeError, OSError):
            break
    stopped.set()
    try:
        conn.close()
    except OSError:  # pragma: no cover - already torn down
        pass


class PoolSupervisor:
    """Health counters for the warm pool, published via :mod:`repro.obs`.

    The supervisor state machine is: ``HEALTHY`` → (missed heartbeat
    budget) → ``HUNG`` → SIGTERM → (grace expired) → SIGKILL →
    ``REBUILT`` — and every transition increments one of these counters,
    so a campaign can report how much surgery its substrate needed.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        #: workers surgically rebuilt (any cause: death, hang, poison)
        self.restarts = self.metrics.counter("pool.supervisor.restarts")
        #: busy workers whose heartbeats stopped (hung, not merely slow)
        self.hangs = self.metrics.counter("pool.supervisor.hangs")
        #: jobs re-dispatched to a healthy worker after their worker
        #: died or hung mid-chunk (idempotent: same seed, recorded once)
        self.redispatches = self.metrics.counter(
            "pool.supervisor.redispatches"
        )
        #: teardowns that had to escalate SIGTERM -> SIGKILL
        self.escalations = self.metrics.counter(
            "pool.supervisor.escalations"
        )

    def snapshot(self) -> Dict[str, Any]:
        """Machine-readable counter state (a ``repro.obs`` snapshot)."""
        return self.metrics.snapshot()


class _WorkerHandle:
    """One persistent worker process plus its duplex pipe."""

    __slots__ = ("proc", "conn", "chunk", "deadline", "ctx_token",
                 "last_beat")

    def __init__(self, ctx, heartbeat_period: float = 0.0) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_main,
                                args=(child_conn, heartbeat_period),
                                daemon=True)
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        #: payload list currently in flight on this worker (None = idle)
        self.chunk: Optional[List[_Payload]] = None
        #: absolute perf_counter deadline for the in-flight chunk
        self.deadline: Optional[float] = None
        #: token of the shared context this worker has cached
        self.ctx_token: Optional[int] = None
        #: perf_counter instant of the last heartbeat (or dispatch)
        self.last_beat: float = perf_counter()

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def ping(self) -> bool:
        """Round-trip the pipe once (forces import/warm-up to finish).

        Stale heartbeat frames left over from a previous chunk are
        drained and skipped — only the pong answers the ping.
        """
        try:
            self.conn.send_bytes(_PING)
            for _ in range(64):
                reply = self.conn.recv_bytes()
                if reply == _PONG:
                    return True
                if reply != _BEAT:  # pragma: no cover - protocol desync
                    return False
            return False  # pragma: no cover - beat flood
        except (EOFError, OSError):
            return False

    def request_stop(self) -> None:
        """Ask the worker to exit (non-blocking; pair with join/kill)."""
        try:
            self.conn.send_bytes(_STOP)
        except (BrokenPipeError, OSError):
            pass

    def join_until(self, deadline: float) -> bool:
        """Join with an absolute perf_counter deadline; True if reaped."""
        self.proc.join(timeout=max(0.0, deadline - perf_counter()))
        return not self.proc.is_alive()

    def close_conn(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def stop(self, grace: float = 2.0) -> bool:
        """Ask the worker to exit and reap it within a bounded budget.

        Escalates stop-frame → SIGTERM → SIGKILL, waiting ``grace``
        seconds between steps, so a worker that ignores both the frame
        and SIGTERM can stall teardown for at most ``~2 * grace``
        seconds before being killed outright.  Returns True if the
        SIGKILL escalation was needed.
        """
        self.request_stop()
        self.proc.join(timeout=grace)
        return self.kill(grace)

    def kill(self, grace: float = 2.0) -> bool:
        """Hard-stop the worker: SIGTERM, then SIGKILL after ``grace``.

        Returns True if the worker ignored SIGTERM and had to be
        SIGKILLed (the escalation the supervisor counts).  SIGKILL
        cannot be caught or ignored — a stopped (SIGSTOP) or
        signal-masking worker still dies here.
        """
        escalated = False
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=grace)
        if self.proc.is_alive():
            self.proc.kill()
            escalated = True
            self.proc.join(timeout=2.0)
        self.close_conn()
        return escalated


class ParallelExecutor:
    """Runs batches of :class:`SimJob` across a warm worker-process pool.

    Workers are created lazily (or eagerly via :meth:`warm_up`) and
    persist across :meth:`run_jobs` calls — a GA evaluating one
    population per generation, or a benchmark running three campaigns
    back to back, pays the spawn/import cost once.  Use as a context
    manager or call :meth:`close` when done; crashed workers are
    respawned transparently on the next run.

    Args:
        workers: worker-process count; ``1`` executes inline (the
            serial reference path).  Defaults to the machine's CPU count.
        master_seed: root of all per-job seed derivation (a per-run
            override can be passed to :meth:`run_jobs`).
        retries: extra attempts granted to a failed job (same seed).
        job_timeout: wall-clock budget **per job** in seconds; a chunk's
            deadline is ``job_timeout * len(chunk) + grace``.  ``None``
            waits forever.
        grace: fixed slack in seconds added to every chunk deadline to
            absorb dispatch/unpickle latency (default ``1.0``).
        chunk_size: fixed jobs per worker submission; ``None`` (default)
            enables cost-model chunking (see ``target_chunk_seconds``).
        target_chunk_seconds: desired wall-clock duration of one chunk
            under cost-model chunking; chunks are sized to
            ``target_chunk_seconds / estimated_job_seconds``, capped to
            a fair share of the remaining jobs so workers never starve.
        start_method: multiprocessing start method; defaults to the
            first available of ``fork``, ``forkserver``, ``spawn``.
        heartbeat_period: seconds between worker heartbeats while a
            chunk is executing (``0`` disables the beat thread).
        heartbeat_timeout: if set, a busy worker that has not beaten
            for this many seconds is declared **hung** — killed with
            SIGTERM→SIGKILL escalation, rebuilt, and its in-flight
            chunk re-dispatched to a healthy worker.  Must exceed
            ``heartbeat_period``.  ``None`` (default) disables hung
            detection (the per-chunk deadline still applies).
        max_redispatches: how many times one job may be re-dispatched
            after its worker died or hung mid-chunk before the job is
            failed outright (a poison-pill backstop).
        shutdown_grace: per-escalation-step teardown budget in seconds;
            :meth:`close` escalates stop-frame → SIGTERM → SIGKILL so a
            SIGTERM-ignoring worker can stall interpreter shutdown for
            at most ``~2 * shutdown_grace`` seconds.
        chaos: optional chaos harness (see
            :class:`repro.exec.recovery.ExecChaos`) whose
            ``on_dispatch(handle, executor)`` hook fires after every
            chunk dispatch; ``None`` (default) keeps the hot path at a
            single attribute test.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        master_seed: int = 0,
        retries: int = 1,
        job_timeout: Optional[float] = None,
        grace: float = 1.0,
        chunk_size: Optional[int] = None,
        target_chunk_seconds: float = 0.05,
        start_method: Optional[str] = None,
        heartbeat_period: float = 0.5,
        heartbeat_timeout: Optional[float] = None,
        max_redispatches: int = 2,
        shutdown_grace: float = 2.0,
        chaos: Any = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ExecutionError(f"retries must be >= 0, got {retries}")
        if grace < 0:
            raise ExecutionError(f"grace must be >= 0, got {grace}")
        if chunk_size is not None and chunk_size < 1:
            raise ExecutionError(f"chunk_size must be >= 1, got {chunk_size}")
        if target_chunk_seconds <= 0:
            raise ExecutionError(
                f"target_chunk_seconds must be > 0, got {target_chunk_seconds}"
            )
        if heartbeat_period < 0:
            raise ExecutionError(
                f"heartbeat_period must be >= 0, got {heartbeat_period}"
            )
        if heartbeat_timeout is not None:
            if heartbeat_period <= 0:
                raise ExecutionError(
                    "heartbeat_timeout requires heartbeat_period > 0 "
                    "(workers must beat for the parent to miss beats)"
                )
            if heartbeat_timeout <= heartbeat_period:
                raise ExecutionError(
                    f"heartbeat_timeout ({heartbeat_timeout}) must exceed "
                    f"heartbeat_period ({heartbeat_period})"
                )
        if max_redispatches < 0:
            raise ExecutionError(
                f"max_redispatches must be >= 0, got {max_redispatches}"
            )
        if shutdown_grace < 0:
            raise ExecutionError(
                f"shutdown_grace must be >= 0, got {shutdown_grace}"
            )
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.master_seed = master_seed
        self.retries = retries
        self.job_timeout = job_timeout
        self.grace = grace
        self.chunk_size = chunk_size
        self.target_chunk_seconds = target_chunk_seconds
        self.start_method = _pick_start_method(start_method)
        self.heartbeat_period = heartbeat_period
        self.heartbeat_timeout = heartbeat_timeout
        self.max_redispatches = max_redispatches
        self.shutdown_grace = shutdown_grace
        self.chaos = chaos
        self.supervisor = PoolSupervisor()
        self._ctx = None
        self._handles: List[_WorkerHandle] = []
        #: EMA of per-job wall-clock seconds (the cost model)
        self._cost_ema: Optional[float] = None
        #: (object, token, pickled bytes) of the last shared context
        self._context_cache: Optional[Tuple[Any, int, bytes]] = None
        self._context_seq = 0

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def warm_up(self) -> None:
        """Spawn the full pool now and wait until every worker answers.

        Call before a timed region so fork/spawn and the workers'
        one-time ``import repro`` happen outside the measurement.
        Idempotent; a no-op for ``workers=1``.
        """
        if self.workers <= 1:
            return
        for handle in self._ensure_workers():
            if not handle.ping():
                raise ExecutionError(
                    f"worker pid={handle.proc.pid} failed its warm-up ping"
                )

    def close(self, grace: Optional[float] = None) -> None:
        """Shut the worker pool down (idempotent, bounded).

        Teardown escalates pool-wide: every worker gets the stop frame
        at once, then the whole pool shares one ``grace`` join window,
        then stragglers get SIGTERM and one more shared window, then
        SIGKILL.  Total wall time is bounded by ``~2 * grace`` no matter
        how many workers ignore SIGTERM — a single sleep-forever worker
        can no longer stall interpreter exit (this runs from an atexit
        hook for shared pools).  Each SIGKILL escalation is counted in
        ``supervisor.escalations``.
        """
        handles, self._handles = self._handles, []
        if not handles:
            return
        if grace is None:
            grace = self.shutdown_grace
        for handle in handles:
            handle.request_stop()
        deadline = perf_counter() + grace
        stragglers = [h for h in handles if not h.join_until(deadline)]
        for handle in stragglers:
            if handle.proc.is_alive():
                handle.proc.terminate()
        deadline = perf_counter() + grace
        for handle in stragglers:
            if not handle.join_until(deadline) and handle.proc.is_alive():
                handle.proc.kill()
                self.supervisor.escalations.inc()
                handle.proc.join(timeout=2.0)
        for handle in handles:
            handle.close_conn()

    def _discard_workers(self) -> None:
        """Hard-drop every worker (hung, poisoned, or unknown state)."""
        handles, self._handles = self._handles, []
        for handle in handles:
            if handle.kill(self.shutdown_grace):
                self.supervisor.escalations.inc()

    def _context(self):
        if self._ctx is None:
            self._ctx = multiprocessing.get_context(self.start_method)
        return self._ctx

    def _ensure_workers(self) -> List[_WorkerHandle]:
        """Top the pool up to ``workers`` live processes.

        Dead handles (worker crashed between runs, or killed after a
        poisoned chunk) are replaced individually — the warm survivors
        are never torn down.
        """
        ctx = self._context()
        kept = []
        for handle in self._handles:
            if handle.alive:
                kept.append(handle)
            else:
                handle.kill(self.shutdown_grace)
        while len(kept) < self.workers:
            kept.append(_WorkerHandle(ctx, self.heartbeat_period))
        self._handles = kept
        return self._handles

    def _replace_worker(self, handle: _WorkerHandle) -> _WorkerHandle:
        """Kill one poisoned worker and swap a fresh one into its slot."""
        if handle.kill(self.shutdown_grace):
            self.supervisor.escalations.inc()
        self.supervisor.restarts.inc()
        fresh = _WorkerHandle(self._context(), self.heartbeat_period)
        for i, existing in enumerate(self._handles):
            if existing is handle:
                self._handles[i] = fresh
                break
        else:  # pragma: no cover - handle always registered
            self._handles.append(fresh)
        return fresh

    # -- execution -------------------------------------------------------

    def run(self, jobs: Sequence[SimJob], *,
            master_seed: Optional[int] = None,
            context: Any = None) -> List[Any]:
        """Execute ``jobs``; return their values in job order.

        Raises :class:`ExecutionError` if any job still fails after its
        retry budget.  Use :meth:`run_jobs` for non-strict execution.
        """
        report = self.run_jobs(jobs, master_seed=master_seed,
                               context=context)
        if report.failed:
            bad = [r for r in report.results if not r.ok]
            detail = "; ".join(f"{r.job_id}: {r.error}" for r in bad[:5])
            raise ExecutionError(
                f"{report.failed}/{len(report.results)} jobs failed "
                f"after {self.retries} retries ({detail})"
            )
        return report.values

    def run_jobs(self, jobs: Sequence[SimJob], *,
                 master_seed: Optional[int] = None,
                 context: Any = None,
                 on_result: Any = None) -> BatchReport:
        """Execute ``jobs``; return a :class:`BatchReport` in job order.

        Failed jobs (after retries) appear as :class:`JobResult` entries
        with ``error`` set — the caller decides whether that is fatal.

        ``master_seed`` overrides the executor's configured seed for
        this batch only, so one warm pool can serve many differently
        seeded campaigns without rebuilding.

        ``context`` is an optional picklable object every job of the
        batch reads through ``ctx.shared``.  It is pickled once per
        distinct object and shipped once per worker (workers cache it
        across batches), so a heavy model shared by hundreds of jobs
        crosses each pipe exactly once — not once per job.  It must be
        treated as read-only: worker-side mutations are invisible to
        the parent and to jobs on other workers.

        ``on_result`` is an optional callback fired once per
        **successful** :class:`JobResult` in completion order, as soon
        as the result is recorded — the durability hook checkpoint
        stores use to persist completed shards mid-batch, so a crash
        partway through a batch loses only the unflushed tail.  On a
        pool it runs after the worker that returned the result has been
        handed its next chunk, so a slow hook (an fsync) never idles a
        worker.  An exception raised by the callback aborts the batch
        (workers are discarded, the exception propagates).
        """
        jobs = list(jobs)
        seen: Dict[str, int] = {}
        for index, job in enumerate(jobs):
            if job.job_id in seen:
                raise ExecutionError(
                    f"duplicate job_id {job.job_id!r} (indices "
                    f"{seen[job.job_id]} and {index}): seed derivation "
                    f"requires unique ids"
                )
            seen[job.job_id] = index
        report = BatchReport()
        if not jobs:
            return report
        seed_root = self.master_seed if master_seed is None else master_seed
        pending: List[_Payload] = [
            (i, job, derive_job_seed(seed_root, job.job_id), 0)
            for i, job in enumerate(jobs)
        ]
        results: Dict[int, JobResult] = {}
        try:
            for round_no in range(self.retries + 1):
                failed = self._run_round(pending, results, context,
                                         on_result)
                if not failed or round_no == self.retries:
                    break
                report.retried += len(failed)
                # completion order is timing-dependent; re-sort so retry
                # rounds dispatch deterministically
                pending = sorted(
                    ((i, job, seed, attempt + 1)
                     for (i, job, seed, attempt) in failed),
                    key=lambda p: p[0],
                )
        except BaseException:
            # error escaping mid-batch (dispatch bug, KeyboardInterrupt):
            # workers may hold half-submitted chunks — drop them all so
            # no orphan processes outlive the failed call; the next run
            # rebuilds transparently
            self._discard_workers()
            raise
        report.results = [results[i] for i in range(len(jobs))]
        report.failed = sum(1 for r in report.results if not r.ok)
        return report

    def _run_round(
        self, payloads: List[_Payload], results: Dict[int, JobResult],
        context: Any = None, on_result: Any = None,
    ) -> List[_Payload]:
        """Run one attempt round; record outcomes; return failed payloads."""
        by_index = {p[0]: p for p in payloads}
        failed: List[_Payload] = []

        def record(raw: tuple) -> None:
            index, ok, value, digest, pid, elapsed = raw
            _, job, seed, attempt = by_index[index]
            result = JobResult(
                index=index, job_id=job.job_id, seed=seed,
                attempts=attempt + 1, worker_pid=pid, elapsed=elapsed,
            )
            if ok:
                result.value = value
                result.digest = digest
            else:
                result.error = value
                failed.append(by_index[index])
            results[index] = result
            if ok and on_result is not None:
                on_result(result)

        if self.workers == 1:
            for raw in _run_chunk(payloads, context):
                record(raw)
            return failed

        token, ctx_blob = self._context_frame(context)
        self._seed_cost_model(payloads)
        pending = deque(payloads)
        idle = deque(self._ensure_workers())
        busy: Dict[Any, _WorkerHandle] = {}
        #: per-job redispatch count this round (worker death/hang only)
        redispatched: Dict[int, int] = {}

        def fail_chunk(handle: _WorkerHandle, reason: str) -> None:
            pid = handle.proc.pid or 0
            for p in handle.chunk or ():
                record((p[0], False, reason, None, pid, 0.0))
            idle.append(self._replace_worker(handle))

        def requeue(handle: _WorkerHandle, reason: str, *,
                    hang: bool = False) -> None:
            """Rebuild a dead/hung worker; re-dispatch its chunk.

            Re-dispatch is idempotent: each payload carries its derived
            seed, so the retried job replays identical draws, and
            ``record`` runs at most once per (index, round).  A
            per-round budget of ``max_redispatches`` per job stops a
            poison-pill chunk from killing workers forever — past the
            budget its jobs fail with the last ``reason``.
            """
            if hang:
                self.supervisor.hangs.inc()
            chunk = handle.chunk or []
            pid = handle.proc.pid or 0
            idle.append(self._replace_worker(handle))
            retriable = []
            for p in chunk:
                count = redispatched.get(p[0], 0)
                if count < self.max_redispatches:
                    redispatched[p[0]] = count + 1
                    retriable.append(p)
                else:
                    record((p[0], False,
                            f"{reason} (gave up after {count} redispatches)",
                            None, pid, 0.0))
            if retriable:
                pending.extendleft(reversed(retriable))
                self.supervisor.redispatches.inc(len(retriable))

        #: replies received but not yet recorded (see below)
        completed: List[tuple] = []
        while True:
            # dispatch first: every idle worker gets its next chunk
            # before we block collecting, overlapping submission with
            # execution and drain
            while pending and idle:
                handle = idle.popleft()
                chunk = self._carve(pending)
                # ship the shared context only to workers that don't
                # already cache this batch's token
                ship_ctx = (token is not None
                            and handle.ctx_token != token)
                frame = (token, ctx_blob if ship_ctx else None, chunk)
                try:
                    blob = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
                    handle.conn.send_bytes(blob)
                except (BrokenPipeError, OSError):
                    # pipe died between runs: replace the worker and
                    # put the chunk back for the next idle one
                    pending.extendleft(reversed(chunk))
                    idle.append(self._replace_worker(handle))
                    continue
                except Exception as exc:  # noqa: BLE001 - unpicklable job
                    for p in chunk:
                        record((p[0], False,
                                f"job not picklable: {exc!r}", None, 0, 0.0))
                    idle.append(handle)
                    continue
                if ship_ctx:
                    handle.ctx_token = token
                handle.chunk = chunk
                handle.last_beat = perf_counter()
                if self.job_timeout is not None:
                    handle.deadline = (perf_counter()
                                       + self.job_timeout * len(chunk)
                                       + self.grace)
                busy[handle.conn] = handle
                if self.chaos is not None:
                    self.chaos.on_dispatch(handle, self)
            # result hooks (``on_result`` may fsync a checkpoint record)
            # run only now, while the workers that returned them are
            # already busy on their next chunks
            for raw in completed:
                record(raw)
            completed.clear()
            if not busy:
                break  # nothing in flight and nothing dispatchable
            deadlines = [h.deadline for h in busy.values()
                         if h.deadline is not None]
            if self.heartbeat_timeout is not None:
                deadlines += [h.last_beat + self.heartbeat_timeout
                              for h in busy.values()]
            timeout = None
            if deadlines:
                timeout = max(0.0, min(deadlines) - perf_counter())
            ready = _mp_connection.wait(list(busy), timeout)
            for conn in ready:
                handle = busy[conn]
                try:
                    blob = handle.conn.recv_bytes()
                except (EOFError, OSError) as exc:
                    del busy[conn]
                    requeue(handle, f"worker died mid-chunk: {exc!r}")
                    continue
                if blob == _BEAT:
                    # still executing — refresh liveness, stay busy
                    handle.last_beat = perf_counter()
                    continue
                del busy[conn]
                raws = pickle.loads(blob)
                # fold the cost model now: the next chunk's size depends
                # on it, and records must not delay that dispatch
                for raw in raws:
                    self._observe_cost(raw)
                completed.extend(raws)
                handle.chunk = None
                handle.deadline = None
                idle.append(handle)
            # deadline sweep — a hung worker only poisons its own slot.
            # Deadline overrun keeps fail semantics (the job *ran* too
            # long); only death/missed-heartbeat paths re-dispatch.
            now = perf_counter()
            for conn in [c for c, h in busy.items()
                         if h.deadline is not None and h.deadline <= now]:
                handle = busy.pop(conn)
                n = len(handle.chunk or ())
                budget = (self.job_timeout or 0.0) * n + self.grace
                fail_chunk(
                    handle,
                    f"TimeoutError: chunk of {n} jobs exceeded its "
                    f"{budget:.3f}s deadline "
                    f"(job_timeout={self.job_timeout}, grace={self.grace})",
                )
            # heartbeat sweep — a busy worker whose beats stopped is
            # hung (SIGSTOPped, deadlocked, or livelocked in C code):
            # a merely slow job would still beat, because beats come
            # from the worker's supervision thread, not from job code
            if self.heartbeat_timeout is not None:
                now = perf_counter()
                for conn in [c for c, h in busy.items()
                             if h.last_beat + self.heartbeat_timeout <= now]:
                    handle = busy.pop(conn)
                    silent = now - handle.last_beat
                    requeue(
                        handle,
                        f"worker hung: no heartbeat for {silent:.3f}s "
                        f"(heartbeat_timeout={self.heartbeat_timeout})",
                        hang=True,
                    )
        return failed

    def _context_frame(self, context: Any) -> Tuple[Optional[int],
                                                    Optional[bytes]]:
        """``(token, blob)`` transport frame for a batch's shared context.

        The blob is pickled once per distinct context object and reused
        across retry rounds, consecutive batches and worker respawns —
        workers that already cache the token receive only the token.
        """
        if context is None:
            return None, None
        cached = self._context_cache
        if cached is not None and cached[0] is context:
            return cached[1], cached[2]
        self._context_seq += 1
        blob = pickle.dumps(context, pickle.HIGHEST_PROTOCOL)
        self._context_cache = (context, self._context_seq, blob)
        return self._context_seq, blob

    # -- cost model ------------------------------------------------------

    def _seed_cost_model(self, payloads: Sequence[_Payload]) -> None:
        """Prime the runtime estimate from job-declared ``cost_hint``s."""
        if self._cost_ema is not None:
            return
        hints = [job.cost_hint for _, job, _, _ in payloads
                 if getattr(job, "cost_hint", None)]
        if hints:
            self._cost_ema = sum(hints) / len(hints)

    def _observe_cost(self, raw: tuple) -> None:
        """Fold one completed job's measured runtime into the EMA."""
        ok, elapsed = raw[1], raw[5]
        if not ok or elapsed <= 0:
            return
        if self._cost_ema is None:
            self._cost_ema = elapsed
        else:
            self._cost_ema += _COST_ALPHA * (elapsed - self._cost_ema)

    def _carve(self, pending: deque) -> List[_Payload]:
        """Pop the next chunk off ``pending``, sized by the cost model.

        Fixed ``chunk_size`` wins if set.  Otherwise: no estimate yet →
        single-job probe chunks (the first round of measurements);
        with an estimate → ``target_chunk_seconds`` worth of jobs,
        capped at a fair share of what remains so the tail of a batch
        still spreads across all workers.
        """
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            est = self._cost_ema
            if est is None or est <= 0.0:
                size = 1
            else:
                size = max(1, int(self.target_chunk_seconds / est))
                fair = -(-len(pending) // max(1, self.workers * 2))
                size = max(1, min(size, fair))
        size = min(size, len(pending))
        return [pending.popleft() for _ in range(size)]

    # -- planning helpers for heavy-context jobs -------------------------

    def plan_batches(self, n_items: int) -> int:
        """How many jobs a heavy-context batch of ``n_items`` should form.

        For fan-out sites whose jobs each carry an expensive pickled
        context (e.g. a DSE problem with its full system model), fewer
        jobs mean fewer copies of that context on the wire.  One job per
        worker is the floor; the executor's own chunking cannot split a
        job, so this is also the unit of load balancing.
        """
        if n_items <= 0:
            return 0
        return max(1, min(self.workers, n_items))

    def plan_shards(
        self, n_items: int, *, shard_size: Optional[int] = None
    ) -> List[Tuple[int, int]]:
        """Split ``n_items`` into contiguous ``(start, stop)`` shards.

        Default shard size aims at a few shards per worker so the cost
        model can still balance load, without shrinking shards so far
        that per-shard overhead (one snapshot restore, one merged
        summary) dominates.  The partition depends only on ``n_items``
        and ``shard_size`` — never on worker count — so per-item seeds
        derived from global indices keep results shard-layout-proof.
        """
        if n_items <= 0:
            return []
        if shard_size is None:
            shard_size = max(1, -(-n_items // max(1, self.workers * 4)))
        return plan_shards(n_items, shard_size)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<ParallelExecutor workers={self.workers} "
            f"seed={self.master_seed} retries={self.retries} "
            f"warm={len(self._handles)}>"
        )


def plan_shards(n_items: int, shard_size: int) -> List[Tuple[int, int]]:
    """Partition ``range(n_items)`` into contiguous ``(start, stop)`` runs.

    Every shard except possibly the last holds exactly ``shard_size``
    items.  The layout is a pure function of its arguments, so two runs
    that agree on ``n_items`` and ``shard_size`` agree on every shard
    boundary regardless of executor configuration.
    """
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    return [
        (start, min(start + shard_size, n_items))
        for start in range(0, max(0, n_items), shard_size)
    ]


# -- shared executors ----------------------------------------------------

_INLINE_EXECUTOR: Optional[ParallelExecutor] = None
_WARM_EXECUTORS: Dict[tuple, ParallelExecutor] = {}


def get_inline_executor() -> ParallelExecutor:
    """Process-wide ``workers=1`` executor for serial fallback paths.

    Call sites that accept ``executor=None`` share this instance instead
    of constructing a fresh one per call; it owns no worker processes,
    and callers pass their seed per run via
    ``run_jobs(..., master_seed=...)``.
    """
    global _INLINE_EXECUTOR
    if _INLINE_EXECUTOR is None:
        _INLINE_EXECUTOR = ParallelExecutor(workers=1)
    return _INLINE_EXECUTOR


def warm_executor(workers: Optional[int] = None, **kwargs: Any
                  ) -> ParallelExecutor:
    """Process-wide warm executor shared across campaigns.

    Returns (creating on first use) a cached :class:`ParallelExecutor`
    keyed by ``(workers, start_method)``; its pool stays warm between
    calls and is shut down at interpreter exit.  Per-campaign seeds go
    through ``run_jobs(..., master_seed=...)`` — do not pass
    ``master_seed`` here.
    """
    if "master_seed" in kwargs:
        raise ExecutionError(
            "warm_executor() is shared across campaigns; pass master_seed "
            "per run (run_jobs(jobs, master_seed=...)) instead"
        )
    resolved = workers if workers is not None else (os.cpu_count() or 1)
    key = (resolved, kwargs.get("start_method"))
    executor = _WARM_EXECUTORS.get(key)
    if executor is None:
        executor = ParallelExecutor(resolved, **kwargs)
        _WARM_EXECUTORS[key] = executor
    return executor


@atexit.register
def _shutdown_shared_executors() -> None:  # pragma: no cover - exit hook
    for executor in list(_WARM_EXECUTORS.values()):
        executor.close()
    _WARM_EXECUTORS.clear()
