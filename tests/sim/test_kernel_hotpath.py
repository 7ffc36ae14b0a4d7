"""Ordering regressions for the kernel hot-path optimizations.

The ``sort_key`` precomputation, the ``schedule`` delay=0 fast path, the
batched ``Signal.fire`` waiter drain and the eager cancelled-entry pruning
are all pure performance changes: these tests pin down the observable
contracts — (time, priority, insertion-order) tie-breaking, waiter wake
order, and live-count accounting — that must survive them.
"""

import hashlib

import pytest

from repro.errors import SimulationError
from repro.osal import Core, FixedPriorityPolicy, PeriodicSource, TaskSpec
from repro.sim import Simulator
from repro.sim.events import (
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    EventQueue,
    ScheduledCall,
)


class TestTieBreaking:
    def test_time_then_priority_then_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "late", priority=PRIORITY_LATE)
        sim.schedule(2.0, log.append, "t2")
        sim.schedule(1.0, log.append, "norm-a")
        sim.schedule(1.0, log.append, "urgent", priority=PRIORITY_URGENT)
        sim.schedule(1.0, log.append, "norm-b")
        sim.run()
        assert log == ["urgent", "norm-a", "norm-b", "late", "t2"]

    def test_sort_key_matches_attributes(self):
        call = ScheduledCall(2.5, 7, 42, lambda: None, ())
        assert call.sort_key == (call.time, call.priority, call.seq)

    def test_lt_orders_like_legacy_tuple_comparison(self):
        mk = lambda t, p, s: ScheduledCall(t, p, s, lambda: None, ())  # noqa: E731
        assert mk(1.0, 100, 0) < mk(2.0, 10, 1)  # time dominates
        assert mk(1.0, 10, 5) < mk(1.0, 100, 0)  # then priority
        assert mk(1.0, 100, 0) < mk(1.0, 100, 1)  # then insertion order

    def test_equal_time_events_fire_in_schedule_call_order(self):
        """Many same-instant events — the dominant delay=0 pattern."""
        sim = Simulator()
        log = []
        for i in range(50):
            sim.schedule(0.0, log.append, i)
        sim.run()
        assert log == list(range(50))


class TestZeroDelayFastPath:
    def test_zero_delay_runs_at_current_instant(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.schedule(0.0, lambda: seen.append(sim.now))

        sim.schedule(3.0, outer)
        sim.run()
        assert seen == [3.0]

    def test_negative_delay_still_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1e-9, lambda: None)

    def test_zero_delay_honours_priority(self):
        sim = Simulator()
        log = []
        sim.schedule(0.0, log.append, "normal", priority=PRIORITY_NORMAL)
        sim.schedule(0.0, log.append, "urgent", priority=PRIORITY_URGENT)
        sim.run()
        assert log == ["urgent", "normal"]


class TestSignalFireOrdering:
    def test_waiters_wake_in_registration_order(self):
        sim = Simulator()
        signal = sim.signal("s")
        log = []
        for i in range(5):
            signal.add_callback(lambda v, i=i: log.append((i, v)))
        sim.schedule(1.0, signal.fire, "go")
        sim.run()
        assert log == [(i, "go") for i in range(5)]

    def test_single_waiter_path(self):
        sim = Simulator()
        signal = sim.signal()
        log = []
        signal.add_callback(log.append)
        signal.fire(7)
        sim.run()
        assert log == [7]

    def test_waiter_scheduling_runs_after_remaining_waiters(self):
        """An event scheduled *by* a waiter must not jump ahead of the
        waiters that registered before it — true both for the legacy
        one-push-per-waiter scheme and the batched drain."""
        sim = Simulator()
        signal = sim.signal()
        log = []

        def first(_value):
            log.append("first")
            sim.schedule(0.0, log.append, "spawned", priority=PRIORITY_URGENT)

        signal.add_callback(first)
        signal.add_callback(lambda _v: log.append("second"))
        signal.add_callback(lambda _v: log.append("third"))
        signal.fire()
        sim.run()
        assert log == ["first", "second", "third", "spawned"]

    def test_fire_with_no_waiters_schedules_nothing(self):
        sim = Simulator()
        signal = sim.signal()
        signal.fire()
        assert len(sim.queue) == 0

    def test_late_registration_still_fires_asynchronously(self):
        sim = Simulator()
        signal = sim.signal()
        signal.fire("v")
        log = []
        signal.add_callback(log.append)
        assert log == []  # never synchronous
        sim.run()
        assert log == ["v"]

    def test_interleaved_signals_keep_fire_order(self):
        sim = Simulator()
        a, b = sim.signal("a"), sim.signal("b")
        log = []
        for name, sig in (("a", a), ("b", b)):
            for i in range(3):
                sig.add_callback(lambda _v, n=name, i=i: log.append(f"{n}{i}"))
        sim.schedule(1.0, b.fire)
        sim.schedule(1.0, a.fire)
        sim.run()
        assert log == ["b0", "b1", "b2", "a0", "a1", "a2"]


class TestCancelledPruning:
    def test_len_counts_only_live_calls(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(6)]
        assert len(queue) == 6
        handles[1].cancel()
        handles[1].cancel()  # idempotent
        assert len(queue) == 5

    def test_pruning_preserves_pop_order(self):
        queue = EventQueue()
        keep, drop = [], []
        for i in range(100):
            handle = queue.push(float(i % 10), lambda: None, (), i)
            (drop if i % 2 else keep).append(handle)
        for handle in drop:
            handle.cancel()
        assert len(queue) == len(keep)
        order = [queue.pop() for _ in range(len(queue))]
        assert order == sorted(order, key=lambda c: c.sort_key)
        assert set(order) == set(keep)

    def test_mass_cancel_shrinks_heap(self):
        queue = EventQueue()
        survivor = queue.push(5.0, lambda: None)
        doomed = [queue.push(1.0, lambda: None) for _ in range(200)]
        for handle in doomed:
            handle.cancel()
        # pruning must have physically removed the dead entries
        assert len(queue._heap) < 200
        assert len(queue) == 1
        assert queue.pop() is survivor

    def test_cancel_after_pop_does_not_skew_count(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is first
        popped.cancel()  # already out of the heap
        assert len(queue) == 1
        assert queue.peek_time() == 2.0

    def test_simulation_identical_with_heavy_cancellation(self):
        """End-to-end: a cancel-heavy run matches the analytic schedule."""
        sim = Simulator()
        log = []

        def tick(n):
            log.append((round(sim.now, 6), n))
            decoys = [sim.schedule(10.0, log.append, "never")
                      for _ in range(20)]
            for handle in decoys:
                handle.cancel()
            if n < 30:
                sim.schedule(0.1, tick, n + 1)

        sim.schedule(0.0, tick, 0)
        sim.run()
        assert log == [(round(0.1 * n, 6), n) for n in range(31)]


class TestQueueStats:
    def test_live_len_matches_len(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(6)]
        handles[0].cancel()
        handles[1].cancel()
        assert queue.live_len() == len(queue) == 4
        assert queue.stats()["cancelled_in_heap"] == len(queue._heap) - 4

    def test_stats_track_compactions(self):
        queue = EventQueue()
        before = queue.stats()["compactions"]
        doomed = [queue.push(1.0, lambda: None) for _ in range(50)]
        queue.push(9.0, lambda: None)
        for handle in doomed:
            handle.cancel()
        stats = queue.stats()
        assert stats["compactions"] > before
        assert stats["live_len"] == 1
        # the heap only keeps dead weight below the prune threshold
        # (cancelled * 2 <= heap_len, or heap too small to bother)
        assert stats["heap_len"] < 10
        assert stats["cancelled_in_heap"] == stats["heap_len"] - 1

    def test_clear_uses_the_compaction_path(self):
        queue = EventQueue()
        for i in range(5):
            queue.push(float(i), lambda: None)
        before = queue.stats()["compactions"]
        queue.clear()
        stats = queue.stats()
        assert stats["compactions"] == before + 1
        assert stats["heap_len"] == stats["live_len"] == 0

    def test_sanitizer_style_observer_survives_prune(self):
        """Observers cache the heap *list object*; pruning must rebuild
        it in place, never swap in a fresh list."""
        queue = EventQueue()
        observed_heap = queue._heap
        doomed = [queue.push(1.0, lambda: None) for _ in range(32)]
        queue.push(2.0, lambda: None)
        for handle in doomed:
            handle.cancel()
        assert queue._heap is observed_heap
        assert len(observed_heap) < 10  # pruned in place, not swapped


class TestEventPooling:
    def test_pooled_pushes_reuse_objects(self):
        sim = Simulator()
        counter = {"n": 0}

        def bump():
            counter["n"] += 1
            if counter["n"] < 100:
                sim.post(0.01, bump)

        sim.post(0.0, bump)
        sim.run()
        stats = sim.queue.stats()
        assert counter["n"] == 100
        # steady state: one live pooled call recycled over and over
        assert stats["pool_creations"] <= 2
        assert stats["pool_reuses"] >= 98

    def test_pooled_dispatch_order_matches_unpooled(self):
        def drive(post):
            sim = Simulator()
            log = []
            def tick(n):
                log.append((round(sim.now, 6), n))
                if n < 50:
                    if post:
                        sim.post(0.01, tick, n + 1)
                    else:
                        sim.schedule(0.01, tick, n + 1)
            sim.schedule(0.0, tick, 0)
            sim.run()
            return log

        assert drive(post=True) == drive(post=False)

    def test_recycled_call_is_inert(self):
        queue = EventQueue()
        queue.push_pooled(1.0, lambda: None)
        call = queue.pop()
        queue.recycle(call)
        assert call.callback is None and call.args == ()
        assert not call.cancelled and not call.pooled
        assert call._entry[3] is None  # call<->entry cycle broken
        queue.push_pooled(2.0, lambda: 1)
        assert queue.stats()["pool_reuses"] == 1

    def test_handle_push_reuses_released_calls(self):
        queue = EventQueue()
        queue.push_pooled(1.0, lambda: None)
        queue.recycle(queue.pop())
        handle = queue.push(2.0, lambda: None)
        assert queue.stats()["pool_reuses"] == 1
        assert not handle.pooled  # a handle is held until released
        assert queue.pop() is handle

    def test_core_soak_keeps_free_list_bounded(self):
        """A long soak neither grows the free list nor keeps building
        fresh calls.  A job on an idle core costs no pushed event: its
        activation is dispatched in place by the one before it (an
        activation train) and its completion is settled in place."""
        sim = Simulator()
        core = Core(sim, "c0", 1.0, FixedPriorityPolicy())
        source = PeriodicSource(
            sim, core, TaskSpec("loop", period=0.005, wcet=0.001))
        sim.run(until=2.0)
        before = sim.queue.stats()
        released = source.released
        sim.run(until=8.0)
        stats = sim.queue.stats()
        assert stats["pool_size"] <= 2
        assert stats["pool_creations"] == before["pool_creations"]
        jobs = source.released - released
        assert jobs == round(6.0 / 0.005)
        # the activation past 8.0 that ends the run's one train, plus
        # the completion of the job still running at 8.0, which run()
        # pushes before it returns
        assert stats["pool_reuses"] - before["pool_reuses"] == 2


class TestHandleAfterDispatch:
    """A call that has left the heap is unlinked from its heap entry, so a
    dropped handle dies by refcount; a kept one must stay inert."""

    def test_every_exit_from_the_heap_unlinks_the_entry(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        surfaced = sim.schedule(0.5, lambda: None)
        surfaced.cancel()
        popped = sim.schedule(2.0, lambda: None)
        pruned = [sim.schedule(3.0, lambda: None) for _ in range(16)]
        sim.run(until=1.5)
        assert fired._entry[3] is None and surfaced._entry[3] is None
        assert sim.queue.pop() is popped and popped._entry[3] is None
        for handle in pruned:
            handle.cancel()  # past half the heap: pruned in place
        assert sim.queue.compactions == 1
        heap = sim.queue._heap
        for handle in pruned:
            in_heap = any(entry is handle._entry for entry in heap)
            assert handle._entry[3] is (handle if in_heap else None)
        cleared = sim.schedule(1.0, lambda: None)
        sim.queue.clear()
        assert cleared._entry[3] is None

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, log.append, "first")
        sim.run()
        handle.cancel()
        handle.cancel()
        assert len(sim.queue) == 0
        assert sim.queue.stats()["cancelled_in_heap"] == 0
        sim.schedule(1.0, log.append, "second")
        later = sim.schedule(2.0, log.append, "third")
        assert later is not handle
        sim.run()
        assert log == ["first", "second", "third"]

    def test_release_after_fire_never_frees_twice(self):
        sim = Simulator()
        kept = sim.schedule(1.0, lambda: None)
        sim.run()
        pool_size = sim.queue.stats()["pool_size"]
        kept.pooled = True  # released too late: the kernel never sees it again
        kept.cancel()
        assert sim.queue.stats()["pool_size"] == pool_size
        assert kept not in sim.queue._pool
        fresh = [sim.schedule(1.0, lambda: None) for _ in range(3)]
        assert kept not in fresh

    def test_release_during_own_dispatch_frees_once(self):
        sim = Simulator()
        holder = {}

        def release_self():
            holder["call"].pooled = True

        holder["call"] = sim.schedule(1.0, release_self)
        sim.run()
        call = holder["call"]
        assert sim.queue._pool.count(call) == 1
        call.pooled = True  # a second, late release
        call.cancel()
        sim.run()
        assert sim.queue._pool.count(call) == 1
        # the released call serves exactly one later push
        reused = sim.schedule(1.0, lambda: None)
        assert reused is call
        assert sim.schedule(1.0, lambda: None) is not call


def kernel_workload(sim, *, chains=20, chain_length=60, fanout=4,
                    cancel_every=3):
    """Timer chains whose links fire a fresh signal to ``fanout`` waiters
    and, every ``cancel_every``-th link, schedule a far decoy that is
    cancelled in batches of 64.  Returns (callbacks run, link order)."""
    executed = [0]
    order = []
    decoys = []

    def count(_value):
        executed[0] += 1

    def link(chain_id, depth):
        executed[0] += 1
        order.append((chain_id, depth, sim.now))
        if depth % cancel_every == 0:
            decoys.append(sim.schedule(1e6, count, None))
            if len(decoys) >= 64:
                for handle in decoys:
                    handle.cancel()
                decoys.clear()
        signal = sim.signal()
        for _ in range(fanout):
            signal.add_callback(count)
        signal.fire(depth)
        if depth < chain_length:
            sim.schedule(1e-6 * ((chain_id + depth) % 7 + 1),
                         link, chain_id, depth + 1)

    for chain_id in range(chains):
        sim.schedule(1e-6 * chain_id, link, chain_id, 1)
    sim.run()
    return executed[0], order


class TestKernelWorkload:
    def test_event_count_and_link_order_are_pinned(self):
        """Pinned at commit ``bbdfa5f``, where the frozen pre-optimisation
        kernel (one heap push per signal waiter, tuple comparisons, lazy
        cancellation) gave the same figures: 20 chains x 60 links x (1 + 4
        waiters), plus the 16 decoys of the last, never-cancelled batch,
        with every link at the same instant and in the same order."""
        executed, order = kernel_workload(Simulator())
        assert executed == 6016
        assert len(order) == 1200
        assert hashlib.sha256(repr(order).encode()).hexdigest() == (
            "ee7b6444d03a1a091b6385b860e0092998199f49930b73bed81006d4837b4222")
