"""Copy-on-write snapshots of a running simulation.

A snapshot captures the *complete deterministic state* of a
:class:`~repro.sim.kernel.Simulator` — clock, event heap and sequence
counters, named RNG streams, every component registered in the world
registry (network, platform, monitors, fault injectors …) plus anything
reachable from a pending event callback — as one consistent deep copy.

Copy-on-write boundary
----------------------

Immutable structure declared via :meth:`Simulator.share` (topologies,
ECU/bus specs, routing graphs, schedules, offers) is **aliased**: the
copy machinery stops at each shared object and every fork points at the
same instance.  Two kinds of value are aliased without being declared:

* enum members (singletons, so a copy would resolve to them anyway);
* frozen-dataclass instances (``TaskSpec``, ``EcuSpec``, ``GateEntry``
  …) whose every field holds an atom, an enum member, a tuple or
  frozenset of such values, or another such instance, and which carry
  no instance attribute beyond their fields.

Nothing can change such a value without ``object.__setattr__``, so no
fork can observe another's writes through it.  :meth:`Simulator.share`
stays the one mechanism for mutable types that are never mutated.
Everything else — mutable leaves — is copied.  Internal aliasing inside
the mutable region is preserved (e.g. the kernel sanitizer's cached
heap list stays the *copied* queue's heap).

Mechanically, a same-process fork is a :mod:`pickle` round trip with a
``persistent_id`` hook: shared objects and aliased values serialize as
persistent ids and deserialize back to the *original* instances, so the
copy runs at C speed and the aliased structure is never traversed at
all.

Restore semantics
-----------------

Python offers no way to rewind live objects in place, so ``restore()``
does not mutate an existing world: it materializes a **new** simulator
from the snapshot's frozen blob.  That makes a snapshot reusable —
restore it as many times as you like, each restore is an independent
world — and makes :meth:`Simulator.fork` nothing more than
``snapshot().restore()``.

Pool hygiene: the event queue's free list is dropped on capture
(``EventQueue.__getstate__``), so a restored world starts with an empty
pool and can never resurrect call objects the source world is still
recycling.

Worlds that cannot fork
-----------------------

Live generator processes hold suspended Python frames, which
:mod:`pickle` cannot capture.  Components that participate in snapshots
are therefore written in callback style (bound methods rescheduling
themselves); :func:`check_forkable` rejects worlds with alive generator
processes up front with a clear error naming them.  Similarly,
snapshot-reachable callbacks must be bound methods, module-level
functions or :func:`functools.partial` objects over them: a world that
does not pickle — a pending closure or lambda, a local class, an OS
handle — raises :class:`SnapshotError` with pickle's message naming the
object.  There is no fallback copy: one that treated a closure as an
atom would share its mutable cells between the source world and every
restore.
"""

from __future__ import annotations

import dataclasses
import enum
import io
import pickle
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

__all__ = ["SnapshotError", "check_forkable", "SimSnapshot"]


class SnapshotError(SimulationError):
    """The world cannot be captured in its current state."""


def check_forkable(sim: "Simulator") -> None:
    """Raise :class:`SnapshotError` if ``sim`` cannot be safely copied.

    Two conditions block a capture: the simulator is inside ``run()``
    (the world is mid-event and not at a consistent instant), or alive
    generator processes exist (suspended frames are uncopyable).
    """
    if sim._running:
        raise SnapshotError(
            "cannot snapshot/fork while run() is executing; "
            "capture between run() calls"
        )
    live: List[str] = []
    for ref in sim._procs:
        proc = ref()
        if proc is not None and proc.alive and proc.gen is not None:
            live.append(proc.name)
    if live:
        names = ", ".join(repr(n) for n in sorted(live))
        raise SnapshotError(
            f"cannot snapshot/fork a world with live generator processes "
            f"({names}); rewrite them in callback style or let them finish"
        )


#: exact types whose instances are immutable atoms
_ATOMS = frozenset({type(None), bool, int, float, complex, str, bytes})

#: verdict sentinels of the automatic value rule
_NEVER = object()
_ALWAYS = object()

#: per-type verdict of the automatic value rule: ``_NEVER``,
#: ``_ALWAYS`` (enum members), or a frozen dataclass's
#: ``(field names, field-name set)`` whose instances are checked field
#: by field.  Filled lazily, one ``type`` lookup per object afterwards
_KINDS: Dict[type, Any] = {}


def _kind(cls: type) -> Any:
    kind = _KINDS.get(cls)
    if kind is None:
        params = cls.__dict__.get("__dataclass_params__")
        if issubclass(cls, enum.Enum):
            kind = _ALWAYS
        elif params is not None and params.frozen:
            names = tuple(f.name for f in dataclasses.fields(cls))
            kind = (names, frozenset(names))
        else:
            kind = _NEVER
        _KINDS[cls] = kind
    return kind


def _immutable(obj: object) -> bool:
    """Whether ``obj`` is deeply immutable under the automatic value rule.

    Atoms, enum members, tuples and frozensets of immutable values, and
    instances of a frozen dataclass whose every field holds an immutable
    value and which carry no instance attribute beyond their fields.
    """
    cls = type(obj)
    if cls in _ATOMS:
        return True
    if cls is tuple or cls is frozenset:
        return all(_immutable(item) for item in obj)  # type: ignore[attr-defined]
    kind = _kind(cls)
    if kind is _ALWAYS:
        return True
    if kind is _NEVER:
        return False
    names, name_set = kind
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None and attrs.keys() != name_set:
        return False
    try:
        return all(_immutable(getattr(obj, name)) for name in names)
    except AttributeError:  # an ``init=False`` field never assigned
        return False


def _aliasable(obj: object) -> bool:
    """Whether ``obj`` is a value every fork may alias: an enum member,
    or a deeply immutable frozen-dataclass instance."""
    kind = _kind(type(obj))
    return kind is _ALWAYS or (kind is not _NEVER and _immutable(obj))


class _ForkPickler(pickle.Pickler):
    """Pickler that emits shared objects and aliasable values as
    persistent ids, appending newly met values to ``shared``."""

    def __init__(self, buf: io.BytesIO, shared: List[object]) -> None:
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared = shared
        self._ids = {id(obj): i for i, obj in enumerate(shared)}

    def persistent_id(self, obj: object) -> Optional[int]:
        pid = self._ids.get(id(obj))
        if pid is not None:
            return pid
        # the per-type verdict keeps the common case to one dict lookup
        if _KINDS.get(type(obj)) is _NEVER or not _aliasable(obj):
            return None
        # the shared list keeps ``obj`` alive, so its id stays unique
        pid = len(self._shared)
        self._shared.append(obj)
        self._ids[id(obj)] = pid
        return pid


def _dump_world(sim: "Simulator") -> Tuple[bytes, List[object]]:
    """Serialize ``sim``; return the blob and its persistent-id table
    (the explicitly shared objects, then the aliased values)."""
    buf = io.BytesIO()
    shared = list(sim._shared)
    _ForkPickler(buf, shared).dump(sim)
    return buf.getvalue(), shared


def _load_world(blob: bytes, shared: List[object]) -> "Simulator":
    """Materialize a world from :func:`_dump_world` output, aliasing
    persistent ids back to the *original* instances."""
    unpickler = pickle.Unpickler(io.BytesIO(blob))
    # a C-level lookup per persistent id, no Python frame
    unpickler.persistent_load = shared.__getitem__
    return unpickler.load()


class SimSnapshot:
    """A frozen, reusable copy of a simulation world.

    Obtain one via :meth:`Simulator.snapshot`.  The capture serializes
    the world **once** (shared structure reduced to persistent ids, so
    it is neither traversed nor copied); every :meth:`restore` then only
    pays the C-speed deserialize, so one snapshot fans out to any number
    of independent variants at a fraction of a rebuild.  :meth:`to_bytes`
    / :meth:`from_bytes` give a self-contained frozen form for shipping
    a warmed-up world once per executor worker as shared context.
    """

    __slots__ = ("_blob", "_shared", "_now")

    def __init__(self, blob: bytes, shared: List[object], now: float) -> None:
        self._blob = blob
        self._shared = shared
        self._now = now

    @classmethod
    def capture(cls, sim: "Simulator") -> "SimSnapshot":
        """Snapshot ``sim`` (which keeps running, unaffected).

        Raises :class:`SnapshotError` if the world cannot be pickled.
        """
        check_forkable(sim)
        try:
            blob, shared = _dump_world(sim)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise SnapshotError(f"cannot snapshot/fork this world: {exc}") from exc
        # restores of this snapshot point at the source world's shared
        # instances and aliased values (the CoW boundary)
        return cls(blob, shared, sim.now)

    def restore(self) -> "Simulator":
        """Materialize a new independent world at the captured instant."""
        return _load_world(self._blob, self._shared)

    @property
    def now(self) -> float:
        """Simulated time at which the world was captured."""
        return self._now

    def to_bytes(self) -> bytes:
        """Serialize the frozen world (for cross-process shipping).

        Self-contained: the shared objects are serialized too (they
        cannot be aliased across process boundaries); restores from the
        shipped copy alias the receiving process's copy of them.
        """
        payload = ("blob", self._blob, self._shared, self._now)
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SimSnapshot":
        """Rebuild a snapshot serialized with :meth:`to_bytes`."""
        __, blob, shared, now = pickle.loads(data)
        return cls(blob, shared, now)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<SimSnapshot t={self._now:.6f}>"
