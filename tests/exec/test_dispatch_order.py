"""Dispatch before result hooks.

When a chunk reply arrives, the pool folds its cost observations, hands
the worker its next chunk, and only then runs ``on_result`` for the
reply's results — so a slow hook (a checkpoint fsync) never idles a
worker.  These tests record the pool's dispatches through the
``chaos.on_dispatch`` hook next to the ``on_result`` calls and pin the
interleaving, plus the hook's count, order and failure semantics.
"""

import time

import pytest

from repro.exec import FunctionJob, ParallelExecutor

N_JOBS = 16
CHUNK = 2


def nap(ctx, x):
    time.sleep(0.005)
    return x * x


class Recorder:
    """Logs every dispatch and every ``on_result`` call, in order."""

    def __init__(self, fail_at=None):
        self.events = []
        self.fail_at = fail_at

    def on_dispatch(self, handle, executor):
        indices = tuple(p[0] for p in handle.chunk)
        self.events.append(("dispatch", handle.proc.pid, indices))

    def on_result(self, result):
        self.events.append(("result", result.worker_pid, result.index))
        results = sum(1 for e in self.events if e[0] == "result")
        if results == self.fail_at:
            raise RuntimeError("hook failed")


def jobs():
    return [FunctionJob(f"j{i}", nap, i) for i in range(N_JOBS)]


def pool(recorder):
    return ParallelExecutor(workers=2, chunk_size=CHUNK, chaos=recorder,
                            shutdown_grace=0.5)


def chunks_by_worker(events):
    """``{pid: [(event position, chunk indices), ...]}`` in dispatch order."""
    out = {}
    for pos, (kind, pid, payload) in enumerate(events):
        if kind == "dispatch":
            out.setdefault(pid, []).append((pos, payload))
    return out


def result_positions(events):
    return {payload: pos for pos, (kind, _, payload) in enumerate(events)
            if kind == "result"}


@pytest.fixture(scope="module")
def recorded():
    recorder = Recorder()
    ex = pool(recorder)
    try:
        ex.run_jobs(jobs(), master_seed=3)
        report = ex.run_jobs(jobs(), master_seed=3,
                             on_result=recorder.on_result)
    finally:
        ex.close()
    # the second batch only: the first warmed the pool
    first = N_JOBS // CHUNK
    return report, recorder.events[first:]


def test_next_chunk_dispatched_before_previous_results(recorded):
    _, events = recorded
    results = result_positions(events)
    by_worker = chunks_by_worker(events)
    assert len(by_worker) == 2, "both workers must take chunks"
    followed = 0
    for chunks in by_worker.values():
        for (_, chunk), (next_pos, _) in zip(chunks, chunks[1:]):
            for index in chunk:
                assert next_pos < results[index], (
                    f"job {index}'s on_result ran before its worker got "
                    f"its next chunk"
                )
            followed += 1
    assert followed >= N_JOBS // CHUNK - 2


def test_results_are_not_held_back(recorded):
    # a reply's hooks run before the same worker's chunk after next is
    # dispatched: dispatch-first defers hooks by one dispatch, no more
    _, events = recorded
    results = result_positions(events)
    for chunks in chunks_by_worker(events).values():
        for (_, chunk), (later_pos, _) in zip(chunks, chunks[2:]):
            for index in chunk:
                assert results[index] < later_pos


def test_on_result_once_per_success_in_completion_order(recorded):
    report, events = recorded
    calls = [(pid, index) for kind, pid, index in events if kind == "result"]
    assert sorted(index for _, index in calls) == list(range(N_JOBS))
    assert report.failed == 0
    assert report.values == [i * i for i in range(N_JOBS)]
    # completion order: each chunk's results arrive together, in job
    # order, from the worker the chunk was dispatched to
    by_chunk = {}
    for _, pid, chunk in (e for e in events if e[0] == "dispatch"):
        for index in chunk:
            by_chunk[index] = (pid, chunk)
    pos = 0
    while pos < len(calls):
        pid, chunk = by_chunk[calls[pos][1]]
        assert calls[pos:pos + len(chunk)] == [(pid, i) for i in chunk]
        pos += len(chunk)
    for index in range(N_JOBS):
        assert report.results[index].worker_pid == by_chunk[index][0]


def test_hook_failure_aborts_batch_without_live_workers():
    recorder = Recorder(fail_at=3)
    ex = pool(recorder)
    try:
        ex.warm_up()
        handles = list(ex._handles)
        with pytest.raises(RuntimeError, match="hook failed"):
            ex.run_jobs(jobs(), master_seed=3, on_result=recorder.on_result)
        assert ex._handles == []
        for handle in handles:
            handle.proc.join(timeout=5.0)
            assert not handle.proc.is_alive()
        # the abort happened mid-batch: later chunks were never recorded
        calls = [e for e in recorder.events if e[0] == "result"]
        assert len(calls) == 3
        # the pool rebuilds transparently for the next batch
        assert ex.run(jobs()[:4], master_seed=3) == [0, 1, 4, 9]
    finally:
        ex.close()
