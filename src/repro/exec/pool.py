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
  ``_TARGET_CHUNK_SECONDS`` of work so one IPC round-trip is amortised
  over many short sims, while a fair-share cap keeps every worker busy.
  Until the first measurement arrives, single-job probe chunks run.
* **Overlapped dispatch/collection** — the parent tops up every idle
  worker before draining ready pipes, so submission of chunk *k+1*
  overlaps execution of chunk *k*; workers reply with one pre-pickled
  bytes blob per chunk (compact tuples + metric digests, no rich result
  objects cross the pipe).
* **One supervision rule** — a worker beats over its duplex pipe from
  the moment it receives a chunk until its reply is sent.  A busy
  worker is *lost* when its pipe hits EOF (on send or on receive) or
  when it has not beaten for ``_HEARTBEAT_TIMEOUT`` seconds (hung:
  SIGSTOPped, deadlocked, livelocked in C code); a slow job still
  beats, because the beats come from a thread, not from job code.  A
  lost worker is killed (SIGTERM, then SIGKILL), respawned into its
  slot, and its chunk re-queued at the front of the batch — safe
  because per-job seeds derive from ``(master_seed, job_id)`` alone, a
  re-run replays the identical draws, and a result is recorded at most
  once.  Supervision health is published through :mod:`repro.obs` as
  ``pool.supervisor.{restarts,hangs,redispatches,escalations}``.

Guarantees:

* **Determinism** — each job's RNG seed is derived from the master seed
  and the job id only, so results are byte-identical to serial execution
  for any worker count, chunking, cost-model state, completion order or
  recovery.
* **One attempt budget** — a job that raises and a job whose worker was
  lost each spend one attempt; a job gets ``retries + 1`` attempts and
  then fails with its last cause.
* **Merged observability** — each job runs against a fresh
  :class:`~repro.obs.metrics.MetricsRegistry`; per-job digests are folded
  into one :mod:`repro.obs` batch report.

With ``workers=1`` the batch runs inline through the *same* chunk-runner
code path — that is the reference serial execution all parallel runs
must match, and the right mode when jobs are too short (microseconds)
for any fan-out to pay for its IPC.
"""

from __future__ import annotations

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
#: desired wall-clock seconds of one chunk under cost-model chunking
_TARGET_CHUNK_SECONDS = 0.05

#: seconds between beats of a busy worker
_HEARTBEAT_PERIOD = 0.5
#: a busy worker silent this long is hung; must exceed the period by
#: many beats so a loaded host never reads a slow beat as a hang
_HEARTBEAT_TIMEOUT = 10.0
#: seconds each teardown step (stop frame, SIGTERM) waits before the
#: next one; SIGKILL ends the escalation
_SHUTDOWN_GRACE = 2.0

#: control frames on the worker pipe (never valid pickles)
_STOP = b"\x00stop"
_PING = b"\x00ping"
_PONG = b"\x00pong"
#: heartbeat frame a busy worker emits every ``_HEARTBEAT_PERIOD`` seconds
_BEAT = b"\x00beat"
#: chaos frame: the worker exits without replying (clean pipe EOF)
_DIE = b"\x00die"


def _pick_start_method() -> str:
    available = multiprocessing.get_all_start_methods()
    for method in _START_METHODS:
        if method in available:
            return method
    raise ExecutionError(
        f"no supported multiprocessing start method: tried "
        f"{list(_START_METHODS)}, platform offers {available}"
    )


def _check_unique_ids(jobs: Sequence[SimJob]) -> None:
    """Reject a batch in which two jobs share an id (seeds derive from it)."""
    seen: Dict[str, int] = {}
    for index, job in enumerate(jobs):
        if job.job_id in seen:
            raise ExecutionError(
                f"duplicate job_id {job.job_id!r} (indices "
                f"{seen[job.job_id]} and {index}): seed derivation "
                f"requires unique ids"
            )
        seen[job.job_id] = index


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
    """Worker-side supervision thread: beat while a chunk is in hand.

    Beats are only emitted while the main loop holds a chunk, so an
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


def _serve(blob: bytes, cache: list) -> bytes:
    """Run one chunk frame; return the pickled reply.

    ``cache`` is the worker's ``[token, shared object]`` of the last
    shared context it received, reused across chunks and batches.
    """
    token, ctx_blob, payload = pickle.loads(blob)
    shared = None
    if token is not None:
        if token != cache[0] and ctx_blob is not None:
            cache[:] = [token, pickle.loads(ctx_blob)]
        if token != cache[0]:  # pragma: no cover - parent/worker desync
            return _failed_reply(
                payload, f"shared context token {token} unknown to worker")
        shared = cache[1]
    out = _run_chunk(payload, shared)
    try:
        return pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - unpicklable job value
        return _failed_reply(payload, f"job value not picklable: {exc!r}")


def _failed_reply(payload: Sequence[_Payload], error: str) -> bytes:
    out = [(index, False, error, None, os.getpid(), 0.0)
           for (index, _job, _seed, _attempt) in payload]
    return pickle.dumps(out, pickle.HIGHEST_PROTOCOL)


def _worker_main(conn, period: float) -> None:
    """Long-lived worker loop: recv a pickled chunk, reply with bytes.

    The worker imports :mod:`repro` once (a no-op under ``fork``, the
    real warm-up under ``spawn``/``forkserver``) and then serves chunks
    until it receives the stop frame or its pipe closes.  Replies travel
    as one pre-pickled blob per chunk — compact tuples, not rich result
    objects.  A daemon thread beats on the pipe from the moment a chunk
    frame arrives until its reply is sent (see :func:`_heartbeat_loop`),
    so unpickling the shared context and pickling the result are never
    read as silence.
    """
    import repro  # noqa: F401 - warm the module cache once per worker

    send_lock = threading.Lock()
    busy = threading.Event()
    stopped = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        args=(conn, send_lock, busy, stopped, period),
        daemon=True,
    ).start()
    cache: list = [None, None]
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
            with send_lock:
                conn.send_bytes(_PONG)
            continue
        busy.set()
        reply = _serve(blob, cache)
        with send_lock:
            # cleared under the lock, so no beat can follow the reply
            busy.clear()
            try:
                conn.send_bytes(reply)
            except (BrokenPipeError, OSError):
                break
    stopped.set()
    try:
        conn.close()
    except OSError:  # pragma: no cover - already torn down
        pass


class PoolSupervisor:
    """Health counters for the warm pool, published via :mod:`repro.obs`.

    The supervisor state machine is: ``BUSY`` → (pipe EOF, or no beat
    for ``_HEARTBEAT_TIMEOUT``) → ``LOST`` → SIGTERM → (grace expired)
    → SIGKILL → ``RESPAWNED`` — and every transition increments one of
    these counters, so a campaign can report how much surgery its
    substrate needed.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        #: workers respawned (any cause: death, hang, death between runs)
        self.restarts = self.metrics.counter("pool.supervisor.restarts")
        #: busy workers whose heartbeats stopped (hung, not merely slow)
        self.hangs = self.metrics.counter("pool.supervisor.hangs")
        #: jobs re-queued after their worker was lost mid-chunk
        #: (idempotent: same seed, recorded once)
        self.redispatches = self.metrics.counter(
            "pool.supervisor.redispatches"
        )
        #: kills that had to escalate SIGTERM -> SIGKILL
        self.escalations = self.metrics.counter(
            "pool.supervisor.escalations"
        )

    def snapshot(self) -> Dict[str, Any]:
        """Machine-readable counter state (a ``repro.obs`` snapshot)."""
        return self.metrics.snapshot()


class _WorkerHandle:
    """One persistent worker process plus its duplex pipe."""

    __slots__ = ("proc", "conn", "chunk", "ctx_token", "last_beat")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        # the period is read here, in the parent, so a worker beats at
        # the parent's value under every start method
        self.proc = ctx.Process(target=_worker_main,
                                args=(child_conn, _HEARTBEAT_PERIOD),
                                daemon=True)
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        #: payload list currently in flight on this worker (None = idle)
        self.chunk: Optional[List[_Payload]] = None
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

    def kill(self) -> bool:
        """Hard-stop the worker: SIGTERM, then SIGKILL after
        ``_SHUTDOWN_GRACE`` seconds.

        Returns True if the worker ignored SIGTERM and had to be
        SIGKILLed (the escalation the supervisor counts).  SIGKILL
        cannot be caught or ignored — a stopped (SIGSTOP) or
        signal-masking worker still dies here.
        """
        escalated = False
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=_SHUTDOWN_GRACE)
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
        retries: extra attempts granted to a job (same seed).  A job
            that raises and a job whose worker was lost mid-chunk each
            spend one; past the budget the job fails with its last
            cause, so a poison pill cannot kill workers forever.
        chunk_size: fixed jobs per worker submission; ``None`` (default)
            sizes chunks from measured job runtime, each targeting
            ``_TARGET_CHUNK_SECONDS`` of work, capped to a fair share of
            the remaining jobs so workers never starve.
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
        chunk_size: Optional[int] = None,
        chaos: Any = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ExecutionError(f"retries must be >= 0, got {retries}")
        if chunk_size is not None and chunk_size < 1:
            raise ExecutionError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.master_seed = master_seed
        self.retries = retries
        self.chunk_size = chunk_size
        self.start_method = _pick_start_method()
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

    def close(self) -> None:
        """Shut the worker pool down (idempotent, bounded).

        Teardown escalates pool-wide: every worker gets the stop frame
        at once, then the whole pool shares one ``_SHUTDOWN_GRACE`` join
        window, then stragglers get SIGTERM and one more shared window,
        then SIGKILL.  Total wall time is bounded by ``~2 *
        _SHUTDOWN_GRACE`` no matter how many workers ignore SIGTERM.
        Each SIGKILL escalation is counted in ``supervisor.escalations``.
        """
        handles, self._handles = self._handles, []
        if not handles:
            return
        for handle in handles:
            handle.request_stop()
        deadline = perf_counter() + _SHUTDOWN_GRACE
        stragglers = [h for h in handles if not h.join_until(deadline)]
        for handle in stragglers:
            if handle.proc.is_alive():
                handle.proc.terminate()
        deadline = perf_counter() + _SHUTDOWN_GRACE
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
            if handle.kill():
                self.supervisor.escalations.inc()

    def _context(self):
        if self._ctx is None:
            self._ctx = multiprocessing.get_context(self.start_method)
        return self._ctx

    def _ensure_workers(self) -> List[_WorkerHandle]:
        """Top the pool up to ``workers`` live processes.

        A worker that died between runs is respawned into its slot — the
        warm survivors are never torn down.
        """
        for handle in list(self._handles):
            if not handle.alive:
                self._respawn(handle)
        while len(self._handles) < self.workers:
            self._handles.append(_WorkerHandle(self._context()))
        return self._handles

    def _respawn(self, handle: _WorkerHandle) -> _WorkerHandle:
        """Kill one worker and start a fresh one in its slot."""
        if handle.kill():
            self.supervisor.escalations.inc()
        self.supervisor.restarts.inc()
        fresh = _WorkerHandle(self._context())
        self._handles[self._handles.index(handle)] = fresh
        return fresh

    # -- execution -------------------------------------------------------

    def run_jobs(self, jobs: Sequence[SimJob], *,
                 master_seed: Optional[int] = None,
                 context: Any = None,
                 on_result: Any = None) -> BatchReport:
        """Execute ``jobs``; return a :class:`BatchReport` in job order.

        Failed jobs (after retries) appear as :class:`JobResult` entries
        with ``error`` set — the caller decides whether that is fatal.
        ``report.retried`` counts the re-runs of jobs that raised; a
        re-run after a lost worker is counted only in
        ``supervisor.redispatches``, so recovery never moves a merged
        digest.

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
        _check_unique_ids(jobs)
        report = BatchReport()
        if not jobs:
            return report
        seed_root = self.master_seed if master_seed is None else master_seed
        payloads: List[_Payload] = [
            (i, job, derive_job_seed(seed_root, job.job_id), 0)
            for i, job in enumerate(jobs)
        ]
        #: 0-based attempt number of each job's latest run
        attempts = [0] * len(jobs)
        results: Dict[int, JobResult] = {}

        def record(raw: tuple, lost: bool = False) -> Optional[_Payload]:
            """Settle one attempt; return the job's next payload if it
            failed with budget left, else record its result."""
            index, ok, value, digest, pid, elapsed = raw
            _, job, seed, _ = payloads[index]
            attempt = attempts[index]
            if not ok and attempt < self.retries:
                attempts[index] = attempt + 1
                if not lost:
                    report.retried += 1
                return (index, job, seed, attempt + 1)
            result = JobResult(
                index=index, job_id=job.job_id, seed=seed,
                attempts=attempt + 1, worker_pid=pid, elapsed=elapsed,
            )
            if ok:
                result.value = value
                result.digest = digest
            else:
                result.error = value
            results[index] = result
            if ok and on_result is not None:
                on_result(result)
            return None

        if self.workers == 1:
            pending = payloads
            while pending:
                pending = [p for p in map(record, _run_chunk(pending, context))
                           if p is not None]
        else:
            token, ctx_blob = self._context_frame(context)
            self._seed_cost_model(payloads)
            pending = deque(payloads)
            idle: deque = deque()
            busy: Dict[Any, _WorkerHandle] = {}
            #: replies received but not yet recorded (see below)
            completed: List[tuple] = []

            def requeue(payload: Optional[_Payload]) -> None:
                if payload is not None:
                    pending.appendleft(payload)

            def lose(handle: _WorkerHandle, reason: str,
                     hang: bool = False) -> None:
                """Kill a lost worker, respawn its slot and re-queue its
                chunk at the front of ``pending``.

                Every job of the chunk spends one attempt: the parent
                cannot tell which of them took the worker down, and the
                budget is what stops a poison pill from killing workers
                forever.
                """
                if hang:
                    self.supervisor.hangs.inc()
                pid = handle.proc.pid or 0
                idle.append(self._respawn(handle))
                for p in reversed(handle.chunk):
                    retry = record((p[0], False, reason, None, pid, 0.0),
                                   lost=True)
                    if retry is not None:
                        requeue(retry)
                        self.supervisor.redispatches.inc()

            try:
                idle.extend(self._ensure_workers())
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
                        except Exception as exc:  # noqa: BLE001 - unpicklable
                            for p in chunk:
                                requeue(record((p[0], False,
                                                f"job not picklable: {exc!r}",
                                                None, 0, 0.0)))
                            idle.append(handle)
                            continue
                        handle.chunk = chunk
                        try:
                            handle.conn.send_bytes(blob)
                        except (BrokenPipeError, OSError) as exc:
                            lose(handle, f"worker pid={handle.proc.pid} died "
                                         f"before its chunk was sent: {exc!r}")
                            continue
                        if ship_ctx:
                            handle.ctx_token = token
                        handle.last_beat = perf_counter()
                        busy[handle.conn] = handle
                        if self.chaos is not None:
                            self.chaos.on_dispatch(handle, self)
                    # result hooks (``on_result`` may fsync a checkpoint
                    # record) run only now, while the workers that returned
                    # them are already busy on their next chunks
                    for raw in completed:
                        requeue(record(raw))
                    completed.clear()
                    if pending and idle:
                        continue  # a failed job was re-queued; dispatch it
                    if not busy:
                        break  # nothing in flight and nothing dispatchable
                    oldest = min(h.last_beat for h in busy.values())
                    timeout = max(0.0, oldest + _HEARTBEAT_TIMEOUT
                                  - perf_counter())
                    for conn in _mp_connection.wait(list(busy), timeout):
                        handle = busy[conn]
                        try:
                            blob = conn.recv_bytes()
                        except (EOFError, OSError) as exc:
                            del busy[conn]
                            lose(handle, f"worker pid={handle.proc.pid} died "
                                         f"mid-chunk: {exc!r}")
                            continue
                        if blob == _BEAT:
                            # still executing — refresh liveness, stay busy
                            handle.last_beat = perf_counter()
                            continue
                        del busy[conn]
                        raws = pickle.loads(blob)
                        # fold the cost model now: the next chunk's size
                        # depends on it, and records must not delay that
                        # dispatch
                        for raw in raws:
                            self._observe_cost(raw)
                        completed.extend(raws)
                        handle.chunk = None
                        idle.append(handle)
                    # a busy worker whose beats stopped is hung: a merely
                    # slow job would still beat, because beats come from the
                    # worker's supervision thread, not from job code
                    now = perf_counter()
                    for conn in [c for c, h in busy.items()
                                 if now - h.last_beat >= _HEARTBEAT_TIMEOUT]:
                        handle = busy.pop(conn)
                        silent = now - handle.last_beat
                        lose(handle, f"worker pid={handle.proc.pid} hung: no "
                                     f"heartbeat for {silent:.3f}s", hang=True)
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

    def _context_frame(self, context: Any) -> Tuple[Optional[int],
                                                    Optional[bytes]]:
        """``(token, blob)`` transport frame for a batch's shared context.

        The blob is pickled once per distinct context object and reused
        across retries, consecutive batches and worker respawns —
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
        with an estimate → ``_TARGET_CHUNK_SECONDS`` worth of jobs,
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
                size = max(1, int(_TARGET_CHUNK_SECONDS / est))
                fair = -(-len(pending) // max(1, self.workers * 2))
                size = max(1, min(size, fair))
        size = min(size, len(pending))
        return [pending.popleft() for _ in range(size)]

    # -- shard planning --------------------------------------------------

    def default_shard_size(self, n_items: int) -> int:
        """The shard size :meth:`plan_shards` picks for ``n_items``.

        It aims at a few shards per worker so the cost model can still
        balance load, without shrinking shards so far that per-shard
        overhead (one snapshot restore, one merged summary) dominates.
        """
        return max(1, -(-n_items // max(1, self.workers * 4)))

    def plan_shards(
        self, n_items: int, *, shard_size: Optional[int] = None
    ) -> List[Tuple[int, int]]:
        """Split ``n_items`` into contiguous ``(start, stop)`` shards.

        With ``shard_size`` the partition depends only on ``n_items`` and
        ``shard_size``.  Without it the size is
        :meth:`default_shard_size`, which depends on the worker count.
        Results never do, since per-item seeds derive from global
        indices, but anything keyed by shard range does: a checkpointed
        campaign must pin the resolved size in its plan, or a resume on
        another executor finds none of its records.
        """
        if n_items <= 0:
            return []
        if shard_size is None:
            shard_size = self.default_shard_size(n_items)
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


# -- shared executor ----------------------------------------------------

_INLINE_EXECUTOR: Optional[ParallelExecutor] = None


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
