"""The discrete-event simulation kernel.

The kernel offers two programming styles that interoperate freely:

* **callback style** — :meth:`Simulator.schedule` runs a plain function at a
  later simulated time;
* **process style** — :meth:`Simulator.process` drives a generator that
  ``yield``\\ s :class:`Timeout`, :class:`Signal` or :class:`Process` objects,
  in the spirit of SimPy, which keeps stateful protocol logic readable.

Time is a ``float`` in **seconds**.  Determinism is guaranteed: events at the
same instant fire in (priority, insertion-order) order, and all randomness
must flow through :class:`repro.sim.rng.RngStreams`.

The kernel also owns the **world registry** used by copy-on-write
snapshots (:mod:`repro.sim.snapshot`): components register themselves via
:meth:`Simulator.adopt` so a forked world can look them up, and declare
immutable structure via :meth:`Simulator.share` so forks alias it instead
of copying it.
"""

from __future__ import annotations

import itertools
import math
import weakref
from heapq import heappop
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Union

from ..errors import SimulationError
from ..obs.metrics import MetricsRegistry, identity
from ..obs.profiler import KernelProfiler
from .events import PRIORITY_NORMAL, PRIORITY_URGENT, EventQueue, ScheduledCall
from .trace import Tracer

#: the ``sim.crashes`` counter, reserved by every simulator
_CRASHES = identity("counter", "sim.crashes")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .snapshot import SimSnapshot


class Timeout:
    """Yielded by a process to sleep for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay


class Interrupted(Exception):
    """Raised inside a process that another party interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


def _drain_callbacks(callbacks: List[Callable[[Any], None]], value: Any) -> None:
    """Run a batch of signal waiters back-to-back inside one event.

    Firing a signal with N waiters used to push N urgent events; since the
    waiters were pushed consecutively they always ran consecutively anyway,
    so collapsing them into one drain event preserves ordering exactly
    while cutting N heap operations down to one.
    """
    for cb in callbacks:
        cb(value)


class Signal:
    """A one-shot waitable event carrying an optional value.

    Processes wait on a signal by yielding it; callback code waits by
    registering through :meth:`add_callback`.  Firing an already-fired signal
    raises :class:`SimulationError` — use a fresh signal per occurrence.
    """

    __slots__ = ("sim", "fired", "value", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.fired = False
        self.value: Any = None
        self.name = name
        self._callbacks: List[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        """Fire the signal, waking all waiters at the current instant."""
        if self.fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        callbacks = self._callbacks
        if not callbacks:
            return
        self._callbacks = []
        sim = self.sim
        # fire-and-forget: nobody holds the wakeup's handle, so it comes
        # from (and returns to) the queue's free list
        if len(callbacks) == 1:
            sim.queue.push_pooled(sim.now, callbacks[0], (value,), PRIORITY_URGENT)
        else:
            sim.queue.push_pooled(
                sim.now, _drain_callbacks, (callbacks, value), PRIORITY_URGENT
            )

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` when the signal fires.

        If the signal already fired, the callback runs at the current
        instant (still asynchronously, preserving event ordering).
        """
        if self.fired:
            self.sim.post(0.0, callback, self.value, priority=PRIORITY_URGENT)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "fired" if self.fired else "pending"
        return f"<Signal {self.name!r} {state}>"


#: The kinds of object a process generator may yield.
Yieldable = Union[Timeout, Signal, "Process", float, int]


class Process:
    """A running process driven by the kernel.

    Created via :meth:`Simulator.process`.  A process finishes when its
    generator returns; the return value becomes :attr:`result` and the
    :attr:`done` signal fires with it.  If the generator raises, the
    exception is stored in :attr:`error` and re-raised by the simulator on
    the next :meth:`Simulator.run` unless :attr:`defused` (by some party
    waiting on :attr:`done` at the instant of the crash).

    Snapshot note: a *live* generator cannot be pickled, so
    worlds with alive processes refuse to fork (see
    :func:`repro.sim.snapshot.check_forkable`).  Finished processes drop
    their exhausted generator on capture and snapshot cleanly.
    """

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Signal(sim, name=f"{self.name}.done")
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.alive = True
        #: set on crash when somebody supervised us through :attr:`done`;
        #: a defused crash does not abort the simulation.
        self.defused = False
        # cached at construction: a profiler is attached when the simulator
        # is built, and processes are always created afterwards
        self._profiler = sim.profiler
        self._pending_wait: Optional[ScheduledCall] = None
        self._waiting_on_signal = False

    # -- snapshot support --------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        if not self.alive:
            # exhausted generators refuse to pickle just like live
            # ones; a finished process no longer needs its frame anyway
            state["gen"] = None
        return state

    # -- kernel internals ------------------------------------------------

    def _step(self, send_value: Any = None, throw: Optional[BaseException] = None):
        """Advance the generator by one yield."""
        if not self.alive:
            return
        wait = self._pending_wait
        if wait is not None:
            self._pending_wait = None
            if wait._queue is None and not wait.cancelled:
                # the wait that woke us was just popped for dispatch and
                # this was its only surviving handle — let the kernel
                # recycle it after the callback returns
                wait.pooled = True
        self._waiting_on_signal = False
        profiler = self._profiler
        try:
            if profiler is None:
                if throw is not None:
                    target = self.gen.throw(throw)
                else:
                    target = self.gen.send(send_value)
            else:
                start = perf_counter()
                try:
                    if throw is not None:
                        target = self.gen.throw(throw)
                    else:
                        target = self.gen.send(send_value)
                finally:
                    profiler.account_generator(self.name, perf_counter() - start)
        except StopIteration as stop:
            self.alive = False
            self.result = getattr(stop, "value", None)
            self.done.fire(self.result)
            return
        except Interrupted:
            # Process chose not to handle its interruption: treat as a
            # clean, intentional termination.
            self.alive = False
            self.done.fire(None)
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            self.alive = False
            self.error = exc
            # A party already waiting on `done` is a supervisor: it receives
            # the exception and the crash is defused (see the class docstring).
            self.defused = bool(self.done._callbacks)
            self.sim._crashed_processes.append(self)
            self.done.fire(exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Yieldable) -> None:
        if isinstance(target, (int, float)):
            target = Timeout(float(target))
        if isinstance(target, Timeout):
            self._pending_wait = self.sim.schedule(target.delay, self._step)
        elif isinstance(target, Signal):
            self._waiting_on_signal = True
            target.add_callback(self._on_signal)
        elif isinstance(target, Process):
            self._waiting_on_signal = True
            target.done.add_callback(self._on_signal)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported object {target!r}"
            )

    def _on_signal(self, value: Any) -> None:
        if not self._waiting_on_signal:
            return  # interrupted while waiting; stale wakeup
        if isinstance(value, BaseException):
            self._step(throw=value)
        else:
            self._step(send_value=value)

    # -- public API ------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current instant."""
        if not self.alive:
            return
        wait = self._pending_wait
        if wait is not None:
            self._pending_wait = None
            # releasing the only handle: let the queue recycle it when the
            # cancelled entry surfaces (or is pruned)
            wait.pooled = True
            wait.cancel()
        self._waiting_on_signal = False
        self.sim.post(
            0.0, self._step, None, Interrupted(cause), priority=PRIORITY_URGENT
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """The simulation world: clock, event queue and process registry.

    Observability is opt-in: pass a :class:`~repro.obs.metrics.MetricsRegistry`
    to collect layer metrics (a disabled private registry is created
    otherwise, so cached instrument handles stay valid no-ops) and a
    :class:`~repro.obs.profiler.KernelProfiler` to attribute wall-clock
    time per event callback.  A
    :class:`~repro.analysis.sanitizer.KernelSanitizer` attaches itself
    through :attr:`sanitizer` to detect ordering races.  With none of
    them attached the kernel hot path pays one branch test per optional
    layer per event and allocates nothing.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[KernelProfiler] = None,
    ) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self.profiler = profiler
        #: opt-in :class:`repro.analysis.sanitizer.KernelSanitizer`;
        #: ``None`` keeps the hot path at a single branch per event
        self.sanitizer = None
        #: the ``sim.events`` counter.  A settler that performs a held
        #: event in place counts it here, as its dispatch would have
        self.events_counter = self.metrics.counter("sim.events")
        # reserved: materialised by the first crash only
        self.metrics.reserve((_CRASHES,))
        self._crashed_processes: List[Process] = []
        self._running = False
        #: the call :meth:`run` is dispatching; ``None`` outside ``run()``
        self.dispatching: Optional[ScheduledCall] = None
        #: the ``until`` of the :meth:`run` in progress (``inf`` for none)
        self._until = math.inf
        #: objects that may hold an event back from the heap (see
        #: :meth:`add_settler`)
        self._settlers: List[Any] = []
        #: components registered for post-fork lookup (see :meth:`adopt`)
        self.world: Dict[str, Any] = {}
        #: immutable structure shared by reference across forks
        self._shared: List[Any] = []
        #: weak refs to every process ever started — the snapshot layer
        #: scans these to refuse forking a world with live generators
        self._procs: List[weakref.ref] = []
        #: sim-local middleware session ids (a process-global counter here
        #: would make forked worlds diverge from their parent's traces)
        self._session_ids = itertools.count(1)
        #: sim-local network frame ids, for the same reason
        self._frame_ids = itertools.count(1)
        #: ``next_job_id()`` allocates a sim-local OS job id, for the same
        #: reason (job ids appear in the trace via ``os.release`` /
        #: ``os.done``).  The counter's own ``__next__``: a core builds a
        #: job per activation, and this costs it no Python frame.
        self.next_job_id: Callable[[], int] = itertools.count(1).__next__

    # -- snapshot / world registry ----------------------------------------

    def adopt(self, name: str, obj: Any) -> str:
        """Register ``obj`` under ``name`` in the world registry.

        Adopted objects are reachable from the simulator, so
        :meth:`fork` copies them along with the kernel state and the
        forked world can retrieve its own copy via ``fork.world[name]``.
        Duplicate names get a ``#2``, ``#3``… suffix; the key actually
        used is returned.
        """
        key = name
        n = 2
        while key in self.world:
            key = f"{name}#{n}"
            n += 1
        self.world[key] = obj
        return key

    def share(self, *objs: Any) -> None:
        """Declare objects as immutable structure shared across forks.

        Shared objects are aliased (not copied) by :meth:`fork` and
        :meth:`snapshot` — the copy-on-write boundary.  Only register
        objects that are never mutated after construction (topologies,
        specs, routing graphs); sharing mutable state would leak writes
        between worlds.
        """
        shared = self._shared
        for obj in objs:
            shared.append(obj)

    def add_settler(self, obj: Any) -> None:
        """Register an object that may hold one of its events back.

        During :meth:`run` such an object may keep an event it would
        have pushed, together with a sequence number taken with
        ``EventQueue.reserve()``, as long as nothing can observe the
        event.  It resolves the event itself when anything touches it,
        and :meth:`run` resolves it before it returns.  ``obj`` provides
        ``settle_deferred(key) -> bool``: it performs the held event in
        place if the event sorts before ``key`` (its ``time``,
        ``priority`` and ``seq``), and otherwise pushes it with its
        reserved number and returns ``True``.  Register once, before the
        first event the object holds back.

        The settler in this code base is an OSAL core: it holds a job's
        completion when it dispatches the job with nothing else ready,
        no completion listener, the tracer off and no sanitizer
        attached.
        """
        self._settlers.append(obj)

    def dispatch_in_place(self, time: float, priority: int) -> bool:
        """Dispatch the caller's next event in place, if it is next.

        The callback of the call in dispatch asks this instead of pushing
        its follow-up event at ``(time, priority)``.  The answer is
        ``True`` only when :meth:`run` is dispatching, no sanitizer is
        attached, ``time`` is due by ``run``'s ``until`` and the event,
        with the next sequence number, sorts before the heap head (a
        cancelled head counts; that is conservative).  The kernel would
        then pop that very event next, so it performs the dispatch here:
        it reserves the sequence number, re-keys :attr:`dispatching` to
        ``(time, priority, seq)`` (so settlers resolve what they hold
        against the right key), advances the clock and counts one
        ``sim.events``, and the caller runs the event's work itself.
        ``False`` leaves everything untouched: push the event as usual.

        The call in dispatch must be a fire-and-forget one (nobody else
        holds its handle), since its key changes.  :meth:`step` never
        says yes.  The user in this code base is
        :class:`~repro.osal.core.PeriodicSource`: a run of its
        activations dispatched this way is an *activation train*.
        """
        call = self.dispatching
        if call is None or self.sanitizer is not None or time > self._until:
            return False
        queue = self.queue
        heap = queue._heap
        if heap:
            head = heap[0]
            # every heap entry holds a sequence number taken before the
            # next one, so an equal (time, priority) sorts after the head
            if time > head[0] or (time == head[0] and priority >= head[1]):
                return False
        call.time = time
        call.priority = priority
        call.seq = queue.reserve()
        self.now = time
        m = self.events_counter
        if m._enabled:
            m.value += 1.0
        return True

    def next_session_id(self) -> int:
        """Allocate a sim-local middleware session id."""
        return next(self._session_ids)

    def next_frame_id(self) -> int:
        """Allocate a sim-local network frame id."""
        return next(self._frame_ids)

    def snapshot(self) -> "SimSnapshot":
        """Capture a reusable frozen copy of the whole world.

        See :class:`repro.sim.snapshot.SimSnapshot`; restore with
        ``snap.restore()`` as many times as needed.
        """
        from .snapshot import SimSnapshot

        return SimSnapshot.capture(self)

    def fork(self) -> "Simulator":
        """Return an independent deep copy of this world.

        Shared structure (:meth:`share`) is aliased; everything else —
        clock, event heap, RNG streams, registered components — is
        copied.  Continuing the fork and continuing the original produce
        byte-identical traces that then evolve independently.
        """
        return self.snapshot().restore()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # weakrefs neither pickle nor serve any purpose in a copy: the
        # copied world has no live generators by construction (capture
        # refuses them), so its guard list can start empty
        state["_procs"] = []
        return state

    # -- scheduling ------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> ScheduledCall:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            return self.queue.push(self.now + delay, callback, args, priority)
        # delay == 0 fast path — the dominant case (urgent wakeups, signal
        # fan-out, process starts): skip the sign test and the addition.
        return self.queue.push(self.now, callback, args, priority)

    def post(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, free-list backed.

        Use when the caller will never cancel the event — the scheduled
        call object is recycled right after dispatch, so steady-state
        posting allocates nothing.
        """
        if delay:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            self.queue.push(self.now + delay, callback, args, priority).pooled = True
        else:
            self.queue.push(self.now, callback, args, priority).pooled = True

    def at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> ScheduledCall:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        return self.queue.push(time, callback, args, priority)

    def signal(self, name: str = "") -> Signal:
        """Create a fresh one-shot :class:`Signal`."""
        return Signal(self, name=name)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process and start it at this instant."""
        proc = Process(self, gen, name=name)
        # Track the start event like any other pending wait so that an
        # interrupt before the first step cancels it (otherwise the
        # generator would be stepped twice and `done` would double-fire).
        proc._pending_wait = self.schedule(0.0, proc._step)
        procs = self._procs
        procs.append(weakref.ref(proc))
        if len(procs) > 128:
            self._procs = [ref for ref in procs if ref() is not None]
        return proc

    # -- execution -------------------------------------------------------

    def step(self) -> None:
        """Execute the single next event.

        ``step`` leaves :attr:`dispatching` unset, so no settler (see
        :meth:`add_settler`) holds an event back while stepping.
        """
        call = self.queue.pop()
        t = call.time
        if t < self.now:
            raise SimulationError("event queue time went backwards")
        self.now = t
        san = self.sanitizer
        if san is not None:
            # inline tie screen: only same (time, priority) heads can be
            # order-sensitive, so the sanitizer is called solely for
            # candidate ties and the per-event cost stays at a few loads
            san._current_event = call
            heap = san._heap
            if heap:
                head = heap[0]
                if head[0] == t and head[1] == call.priority:
                    san.on_tie(call, head[3])
        m = self.events_counter
        if m._enabled:
            m.value += 1.0
        profiler = self.profiler
        if profiler is None:
            call.callback(*call.args)
        else:
            start = perf_counter()
            try:
                call.callback(*call.args)
            finally:
                profiler.account(call.callback, perf_counter() - start)
        if call.pooled:
            self.queue.recycle(call)
        self._raise_crashes()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is always advanced to exactly
        ``until`` at the end, even if the queue drained earlier.

        The loop dispatches straight off the heap in batches: cancelled
        heads are skipped inline and pooled calls are recycled right
        after their callback returns, so the steady-state path performs
        one heap pop, one dispatch and zero allocations per event.

        Events a settler (:meth:`add_settler`) held back are resolved
        before ``run`` returns: in place if they sort before the last
        dispatched event, otherwise pushed and dispatched like any other
        when due by ``until``.  Nothing is held back across calls.

        A callback may also perform its own next event in place
        (:meth:`dispatch_in_place`) when that event is the one this loop
        would pop next.  Such events count in ``sim.events`` but not as
        heap dispatches, so a profiler charges them to the callback that
        ran them.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        queue = self.queue
        heap = queue._heap  # queue mutates this list strictly in place
        pool_append = queue._pool.append  # the free list is never rebound
        m = self.events_counter
        self._until = math.inf if until is None else until
        try:
            while True:
                while heap and heap[0][3].cancelled:
                    queue._discard(heappop(heap))
                if not heap or (until is not None and heap[0][0] > until):
                    # resolve what settlers held back; a pushed
                    # remainder may still be due by ``until``
                    if self._settle_deferred():
                        continue
                    break
                entry = heappop(heap)
                t = entry[0]
                call = entry[3]
                # the entry stays with the call for reuse but no longer
                # points back at it: a dropped handle dies by refcount
                entry[3] = None
                call._queue = None
                if t < self.now:
                    raise SimulationError("event queue time went backwards")
                self.now = t
                self.dispatching = call
                san = self.sanitizer
                if san is not None:
                    san._current_event = call
                    if heap:
                        head = heap[0]
                        if head[0] == t and head[1] == call.priority:
                            san.on_tie(call, head[3])
                if m._enabled:
                    m.value += 1.0
                profiler = self.profiler
                if profiler is None:
                    call.callback(*call.args)
                else:
                    start = perf_counter()
                    try:
                        call.callback(*call.args)
                    finally:
                        profiler.account(call.callback, perf_counter() - start)
                if call.pooled:
                    # EventQueue.recycle, inlined: the same resets (the
                    # call's _queue was already cleared when it was popped)
                    call.callback = None
                    call.args = ()
                    call.cancelled = False
                    call.pooled = False
                    pool_append(call)
                if self._crashed_processes:
                    self._raise_crashes()
            if until is not None and until > self.now:
                self.now = until
        except BaseException:
            # resolve what is held against the event that raised
            self._settle_deferred()
            raise
        finally:
            self.dispatching = None
            self._running = False
        self._raise_crashes()

    def _settle_deferred(self) -> bool:
        """Resolve every held-back event against the last dispatched
        call; ``True`` if any of them was pushed onto the heap."""
        call = self.dispatching
        if call is None:
            return False
        # settle against a copy of its key and let go of the call: a
        # settler's push may reuse it from the free list
        key = ScheduledCall(call.time, call.priority, call.seq, None, ())
        self.dispatching = None
        pushed = False
        for settler in self._settlers:
            if settler.settle_deferred(key):
                pushed = True
        return pushed

    def _raise_crashes(self) -> None:
        if not self._crashed_processes:
            return
        # Drain everything: a crash must never resurface on an unrelated
        # later run() call, and defused crashes must not abort anything.
        crashed, self._crashed_processes = self._crashed_processes, []
        self.metrics.materialise(_CRASHES).inc(len(crashed))
        fatal = [p for p in crashed if not p.defused]
        if not fatal:
            return
        first = fatal[0]
        if len(fatal) == 1:
            message = f"process {first.name!r} crashed: {first.error!r}"
        else:
            names = ", ".join(repr(p.name) for p in fatal)
            message = (
                f"{len(fatal)} processes crashed ({names}); "
                f"first error: {first.error!r}"
            )
        raise SimulationError(message) from first.error

    # -- convenience -----------------------------------------------------

    def trace(self, category: str, **fields: Any) -> None:
        """Record a trace entry stamped with the current simulated time."""
        self.tracer.record(self.now, category, fields)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Simulator t={self.now:.6f} pending={len(self.queue)}>"
