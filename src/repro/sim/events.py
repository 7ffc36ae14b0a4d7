"""Event primitives for the discrete-event simulation kernel.

The kernel is organised around a single priority queue of
:class:`ScheduledCall` objects.  Each call fires at a simulated time; ties
are broken first by an integer priority (lower fires first) and then by
insertion order, which makes every simulation run fully deterministic.

Hot-path notes: the heap stores ``[time, priority, seq, call]`` *lists*,
so every sift comparison runs in C and — because ``seq`` is unique —
never falls through to comparing the call objects themselves.  Lists
(not tuples) let a recycled call keep its heap entry across lives: every
push (:meth:`EventQueue.push` and :meth:`EventQueue.push_pooled`) takes
from the free list of released calls first and reuses the call
together with its entry, so the steady-state loop allocates nothing per
event beyond the unavoidable time float and sequence int.  Cancelled
entries are pruned eagerly once they outnumber the live ones, so long
campaigns that cancel many timers keep O(log live) heap operations.

Pooled calls never escape a snapshot: the pool itself is dropped on
deep-copy/pickle (see ``__getstate__``), so a restored world starts with
an empty free list and never resurrects recycled garbage.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional

from ..errors import SimulationError

#: Default priority for scheduled calls.  Most events use this value.
PRIORITY_NORMAL = 100

#: Priority for events that must run before normal events at the same time
#: (e.g. releasing a resource before the next requester polls it).
PRIORITY_URGENT = 10

#: Priority for bookkeeping that must run after all normal events at the
#: same instant (e.g. end-of-slot accounting).
PRIORITY_LATE = 1000


class ScheduledCall:
    """A callback scheduled to run at a fixed simulated time.

    Instances are created through :meth:`repro.sim.kernel.Simulator.schedule`
    and may be cancelled before they fire via :meth:`cancel`.  Calls with
    :attr:`pooled` set are fire-and-forget: no caller holds their handle,
    so the kernel returns them to the queue's free list right after
    dispatch (or when a cancelled one surfaces) and the next push reuses
    the object and its heap entry.  A holder releases a handle it drops
    by setting ``pooled`` itself.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args",
                 "cancelled", "pooled", "_queue", "_entry")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.pooled = False
        self._queue = queue
        #: the [time, priority, seq, call] heap entry, kept across pool
        #: lives so reuse allocates no fresh list
        self._entry: Optional[list] = None

    @property
    def sort_key(self) -> tuple:
        """Ordering key ``(time, priority, seq)`` (allocated on demand)."""
        return (self.time, self.priority, self.seq)

    def cancel(self) -> None:
        """Prevent this call from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()

    def __lt__(self, other: "ScheduledCall") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self.time:.6f} p={self.priority} {state}>"


class EventQueue:
    """Deterministic priority queue of :class:`ScheduledCall` objects."""

    def __init__(self) -> None:
        # [time, priority, seq, call] lists: the unique seq guarantees the
        # ScheduledCall itself is never reached during comparison, and a
        # mutable entry can be recycled together with its pooled call
        self._heap: List[list] = []
        self._counter = itertools.count()
        #: cancelled calls still sitting in the heap awaiting lazy removal
        self._cancelled_in_heap = 0
        #: free list of dispatched fire-and-forget calls awaiting reuse
        self._pool: List[ScheduledCall] = []
        #: number of in-place compaction rebuilds performed (stats)
        self.compactions = 0
        #: pushes served from the free list / calls built fresh
        self.pool_reuses = 0
        self.pool_creations = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) pending calls."""
        return len(self._heap) - self._cancelled_in_heap

    def live_len(self) -> int:
        """Explicit alias of ``len()``: live (non-cancelled) pending calls."""
        return len(self._heap) - self._cancelled_in_heap

    def stats(self) -> Dict[str, int]:
        """Queue health counters (heap size, dead weight, pool traffic)."""
        return {
            "heap_len": len(self._heap),
            "live_len": self.live_len(),
            "cancelled_in_heap": self._cancelled_in_heap,
            "compactions": self.compactions,
            "pool_size": len(self._pool),
            "pool_reuses": self.pool_reuses,
            "pool_creations": self.pool_creations,
        }

    # -- snapshot support --------------------------------------------------

    def __getstate__(self) -> dict:
        # Pool-aware capture: recycled calls belong to *this* world's free
        # list only.  A deep copy or pickle gets an empty pool, so restored
        # worlds can never resurrect pooled garbage that the source world
        # is still reusing.
        state = self.__dict__.copy()
        state["_pool"] = []
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- cancellation & compaction ----------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled_in_heap += 1
        # Eager pruning: once cancelled entries exceed half the heap, one
        # O(n) rebuild is cheaper than letting every push/pop sift through
        # the dead weight.  Amortised cost stays O(1) per cancellation.
        if self._cancelled_in_heap * 2 > len(self._heap) and len(self._heap) >= 8:
            self._prune()

    def _discard(self, call: ScheduledCall) -> None:
        """Account for one cancelled call leaving the heap."""
        call._queue = None
        self._cancelled_in_heap -= 1
        if call.pooled:
            self.recycle(call)

    def _prune(self) -> None:
        """Rebuild the heap without cancelled entries.

        This is the single compaction code path (also used by
        :meth:`clear`): strictly in place, because observers — the kernel
        sanitizer caches the heap *list object* at attach time — must keep
        seeing the live heap after a rebuild.
        """
        live = []
        for entry in self._heap:
            call = entry[3]
            if call.cancelled:
                call._queue = None
                self._cancelled_in_heap -= 1
                if call.pooled:
                    self.recycle(call)
            else:
                live.append(entry)
        heapq.heapify(live)
        self._compact(live)

    def _compact(self, live: List[list]) -> None:
        """Replace the heap contents in place with ``live`` entries."""
        self._heap[:] = live
        self._cancelled_in_heap = 0
        self.compactions += 1

    # -- push / pop --------------------------------------------------------

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
    ) -> ScheduledCall:
        """Insert a call at ``time`` and return a cancellable handle.

        The call comes from the free list when one is there.  A holder
        that drops the handle sets :attr:`ScheduledCall.pooled` first, so
        the queue can reuse it once it has fired or its cancelled entry
        has left the heap.
        """
        seq = next(self._counter)
        pool = self._pool
        if pool:
            call = pool.pop()
            self.pool_reuses += 1
            call.time = time
            call.priority = priority
            call.seq = seq
            call.callback = callback
            call.args = args
            call._queue = self
            entry = call._entry
            entry[0] = time
            entry[1] = priority
            entry[2] = seq
            entry[3] = call
        else:
            call = ScheduledCall(time, priority, seq, callback, args, self)
            entry = [time, priority, seq, call]
            call._entry = entry
            self.pool_creations += 1
        heapq.heappush(self._heap, entry)
        return call

    def push_pooled(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Insert a fire-and-forget call, reusing a recycled object.

        No handle is returned — pooled calls cannot be cancelled by
        callers, which is exactly what makes recycling them after
        dispatch safe.
        """
        self.push(time, callback, args, priority).pooled = True

    def recycle(self, call: ScheduledCall) -> None:
        """Return a dispatched (or dropped-cancelled) pooled call to the
        free list.  Callers must guarantee no live reference to the handle
        survives — the kernel only recycles calls whose handles never
        escaped, or whose holder explicitly released them by setting
        :attr:`ScheduledCall.pooled`."""
        call.callback = None
        call.args = ()
        call.cancelled = False
        call.pooled = False
        call._queue = None
        call._entry[3] = None  # break the call<->entry cycle while pooled
        self._pool.append(call)

    def pop(self) -> ScheduledCall:
        """Remove and return the earliest non-cancelled call.

        Raises:
            SimulationError: if the queue holds no live events.
        """
        heap = self._heap
        while heap:
            call = heapq.heappop(heap)[3]
            if not call.cancelled:
                # detach so a late cancel() cannot skew the live count
                call._queue = None
                return call
            self._discard(call)
        raise SimulationError("event queue is empty")

    def _skip_cancelled_heads(self) -> None:
        """Drop cancelled entries sitting at the heap root."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            self._discard(heapq.heappop(heap)[3])

    def peek_call(self) -> Optional["ScheduledCall"]:
        """Return the next live call without removing it, or ``None``.

        Cancelled heads are pruned on the way, exactly like
        :meth:`peek_time`, so the returned handle is always live.
        """
        self._skip_cancelled_heads()
        heap = self._heap
        return heap[0][3] if heap else None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event, or ``None``."""
        self._skip_cancelled_heads()
        heap = self._heap
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every pending event (same in-place path as compaction)."""
        for entry in self._heap:
            call = entry[3]
            call._queue = None
            if call.pooled:
                self.recycle(call)
        self._compact([])
