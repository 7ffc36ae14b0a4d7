"""Shared-resource primitives built on the kernel.

These model contention points other than the CPU schedulers (which have
their own dedicated models in :mod:`repro.osal`): crypto modules, persistent
memory, middleware queues, etc.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from ..errors import SimulationError
from .kernel import Signal, Simulator


class Resource:
    """A counted resource with FIFO (optionally priority-ordered) waiters.

    Usage from a process::

        grant = resource.request(priority=0)
        yield grant            # resumes once the resource is held
        ...
        resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._seq = 0
        # waiters sorted by (priority, arrival sequence)
        self._waiters: List[Tuple[int, int, Signal]] = []

    def request(self, priority: int = 0) -> Signal:
        """Ask for one unit; the returned signal fires when granted."""
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note_mutation(self, "request", self.name)
        grant = self.sim.signal(name=f"{self.name}.grant")
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            grant.fire()
        else:
            self._seq += 1
            self._waiters.append((priority, self._seq, grant))
            self._waiters.sort(key=lambda w: (w[0], w[1]))
        return grant

    def release(self) -> None:
        """Return one unit, granting it to the best waiter if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note_mutation(self, "release", self.name)
        if self._waiters:
            __, __, grant = self._waiters.pop(0)
            grant.fire()
        else:
            self.in_use -= 1

    @property
    def queue_length(self) -> int:
        """Number of requests currently waiting."""
        return len(self._waiters)


class Store:
    """An unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns a signal that fires with the next
    item (immediately if one is queued).
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note_mutation(self, "put", self.name)
        if self._getters:
            self._getters.popleft().fire(item)
        else:
            self._items.append(item)

    def get(self) -> Signal:
        """Return a signal that fires with the next available item."""
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note_mutation(self, "get", self.name)
        sig = self.sim.signal(name=f"{self.name}.get")
        if self._items:
            sig.fire(self._items.popleft())
        else:
            self._getters.append(sig)
        return sig

    def __len__(self) -> int:
        return len(self._items)

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (oldest first) without consuming them."""
        return list(self._items)


class ThroughputServer:
    """Serialises work through a device with finite throughput.

    Models hardware such as a crypto accelerator or flash controller: jobs
    of a given *size* are processed one at a time at ``rate`` size-units per
    second.  The signal returned by :meth:`submit` fires when the job
    completes.
    """

    def __init__(
        self, sim: Simulator, rate: float, name: str = "", overhead: float = 0.0
    ) -> None:
        if rate <= 0:
            raise SimulationError(f"throughput rate must be positive, got {rate}")
        self.sim = sim
        self.rate = rate
        self.overhead = overhead
        self.name = name
        self._busy_until = 0.0
        self.jobs_done = 0

    def submit(self, size: float, priority: int = 0) -> Signal:
        """Queue a job of ``size`` units; returns its completion signal.

        Jobs are served in submission order (the ``priority`` argument is
        accepted for interface parity with :class:`Resource` but ties are
        rare enough at device level that strict FIFO keeps the model simple
        and deterministic).
        """
        del priority
        if size < 0:
            raise SimulationError(f"job size must be >= 0, got {size}")
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note_mutation(self, "submit", self.name)
        start = max(self.sim.now, self._busy_until)
        duration = self.overhead + size / self.rate
        self._busy_until = start + duration
        done = self.sim.signal(name=f"{self.name}.job")
        self.sim.at(self._busy_until, self._complete, done).pooled = True
        return done

    def _complete(self, done: Signal) -> None:
        self.jobs_done += 1
        done.fire()

    @property
    def backlog_seconds(self) -> float:
        """Seconds of queued work still in front of a new job."""
        return max(0.0, self._busy_until - self.sim.now)
