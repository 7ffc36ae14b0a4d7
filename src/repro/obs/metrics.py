"""Counters, gauges and streaming histograms.

The registry is the platform-level telemetry substrate demanded by the
paper's runtime-monitoring story (Section 3.4): every layer of the stack
publishes its health through named instruments instead of ad-hoc state.

Design rules:

* **Instruments are cached handles.**  ``registry.counter("net.frames",
  bus="can0")`` is called once at construction time; the hot path only
  calls ``inc()`` / ``observe()`` on the returned object.
* **Disabling is near-free.**  Every instrument carries its own
  ``_enabled`` flag (kept in sync by the registry), so a disabled
  ``inc()`` is a single attribute test and allocates nothing.
* **Histograms are streaming.**  Quantiles (p50/p95/p99) come from
  log-spaced buckets with a bounded relative error — no per-sample
  storage, so fleet-scale campaigns cannot grow memory without limit.
  A positive observation is only counted into a pending multiset of
  at most :data:`PENDING_LIMIT` distinct values; the first read (or a
  new distinct value past the limit) folds it into the buckets and the
  exact sum once per distinct value.
* **Instruments pickle compactly.**  Each reduces to a module-level
  constructor and a flat state tuple, not copyreg's per-object
  slot-state dict: every snapshot restore rebuilds the world's whole
  registry, and handle aliasing between a component and the registry
  survives through the pickle memo.
* **Identities are interned.**  A registry key ``(kind, name, labels)``
  is one process-wide tuple per distinct identity.  A registry pickles
  as a flat entry list without its keys, and unpickling looks each
  identity up in the intern table and gives the instrument the
  canonical label tuple, so a restored world rebuilds none of its keys
  or label tuples: the ones the unpickler built die by refcount at once.
* **Reserved zeros cost nothing.**  A component that may never count
  (an idle core) reserves its identities instead of creating them: the
  registry holds the identity's shared zero entry, one per identity per
  process, which reports exactly as an eager zero instrument does and
  pickles as its identity alone.  The first handle request materialises
  a private instrument in the entry's place, keeping its position, so
  iteration order, snapshots and merges match the eager registry.
  Shared zeros carry ``_enabled = None``: counting into one is a no-op,
  and the registry never folds into one in place.
"""

from __future__ import annotations

import math
from functools import partial
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

#: Label set normalised to a hashable, order-independent key component.
LabelKey = Tuple[Tuple[str, str], ...]

#: distinct values a histogram keeps pending before it folds them
PENDING_LIMIT = 256

#: a module global, one lookup cheaper than ``math.inf`` in ``observe``
_INF = math.inf


def accumulate_exact(partials: List[float], value: float) -> None:
    """Fold ``value`` into a Shewchuk partials list, without rounding error.

    ``partials`` holds a set of non-overlapping floats whose exact
    (real-number) sum is the exact sum of every value accumulated so far
    — the same error-free transformation :func:`math.fsum` uses
    internally.  Because each step is exact, the represented total is
    independent of accumulation order *and grouping*: folding a million
    observations one by one, or folding per-shard partial sums shard by
    shard, represents the identical real number, and
    :func:`exact_total` rounds it to the identical float.  That is what
    makes sharded metric aggregation byte-identical to an unsharded run.

    The list stays tiny in practice (one to three partials for
    same-magnitude observations), so the cost over ``+=`` is a short
    loop, not a data structure.
    """
    i = 0
    for y in partials:
        if abs(value) < abs(y):
            value, y = y, value
        high = value + y
        low = y - (high - value)
        if low:
            partials[i] = low
            i += 1
        value = high
    del partials[i:]
    partials.append(value)


def exact_total(partials: List[float]) -> float:
    """Correctly rounded float value of a partials list."""
    return math.fsum(partials)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


#: An instrument's registry key: ``(kind, name, labels)``.
Identity = Tuple[str, str, LabelKey]

#: every identity met in this process -> its one canonical key tuple.
#: Bounded like ``_FULL_NAMES``: one entry per distinct identity, however
#: many registries the process builds, restores or collects.
_IDENTITIES: Dict[Identity, Identity] = {}


def _intern(key: Identity) -> Identity:
    return _IDENTITIES.setdefault(key, key)


def identity(kind: str, name: str, **labels: Any) -> Identity:
    """The canonical key of an instrument, for :meth:`MetricsRegistry.reserve`."""
    return _intern((kind, name, _label_key(labels)))


#: (name, labels) -> formatted full name.  A pure function of its key,
#: so every registry in the process can share it.  Instruments are
#: labelled by bus, ECU, core, service and fault kind, so the memo holds
#: one entry per distinct instrument identity, however many worlds,
#: vehicles or replications the process builds and collects.
_FULL_NAMES: Dict[Tuple[str, LabelKey], str] = {}


def _format_name(name: str, labels: LabelKey) -> str:
    key = (name, labels)
    full_name = _FULL_NAMES.get(key)
    if full_name is None:
        if labels:
            inner = ",".join(f"{k}={v}" for k, v in labels)
            full_name = f"{name}{{{inner}}}"
        else:
            full_name = name
        _FULL_NAMES[key] = full_name
    return full_name


class Instrument:
    """Base of all metric instruments.

    ``_enabled`` is ``None`` on a shared zero entry (see the module
    docstring), which no operation changes.
    """

    kind = "instrument"
    __slots__ = ("name", "labels", "_enabled")

    def __init__(self, name: str, labels: LabelKey, enabled: bool) -> None:
        self.name = name
        self.labels = labels
        self._enabled = enabled

    @property
    def full_name(self) -> str:
        return _format_name(self.name, self.labels)

    def snapshot(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.full_name}>"


class Counter(Instrument):
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelKey, enabled: bool) -> None:
        super().__init__(name, labels, enabled)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._enabled:
            return
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}

    def __reduce__(self) -> tuple:
        return _scalar, (Counter, self.name, self.labels, self._enabled,
                         self.value)


class Gauge(Instrument):
    """A value that can go up and down (queue depth, utilisation, ...)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelKey, enabled: bool) -> None:
        super().__init__(name, labels, enabled)
        self.value = 0.0

    def set(self, value: float) -> None:
        if not self._enabled:
            return
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._enabled:
            return
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        if not self._enabled:
            return
        self.value -= amount

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}

    def __reduce__(self) -> tuple:
        return _scalar, (Gauge, self.name, self.labels, self._enabled,
                         self.value)


def _scalar(cls: type, name: str, labels: LabelKey, enabled: bool,
            value: float) -> Instrument:
    """Unpickle a :class:`Counter` or :class:`Gauge` from its flat state."""
    instrument = cls.__new__(cls)
    instrument.name = name
    instrument.labels = labels
    instrument._enabled = enabled
    instrument.value = value
    return instrument


class Histogram(Instrument):
    """Streaming histogram with log-spaced buckets.

    ``observe(v)`` maps positive values onto bucket ``ceil(log_g(v))``
    where ``g`` is the per-bucket growth factor, so quantile estimates
    carry a relative error of at most ``growth - 1`` (10% by default)
    while memory stays proportional to the dynamic range, not the sample
    count.  Non-positive values land in a dedicated zero bucket.

    ``count``, ``min`` and ``max`` are current after every ``observe``.
    A positive value is otherwise only counted into ``_pending`` (value
    -> count); every other read, ``merge`` and pickling first fold the
    pending values into the buckets and the exact sum, once per distinct
    value, and a new distinct value past :data:`PENDING_LIMIT` folds
    them too.  Non-finite values are refused.
    """

    kind = "histogram"
    __slots__ = ("count", "min", "max", "growth", "_log_growth",
                 "_buckets", "_zero_count", "_partials", "_pending")

    def __init__(
        self, name: str, labels: LabelKey, enabled: bool, growth: float = 1.1
    ) -> None:
        super().__init__(name, labels, enabled)
        if growth <= 1.0:
            raise ValueError(f"histogram growth must exceed 1.0, got {growth}")
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        # the running sum is kept exactly (Shewchuk partials), so merging
        # histograms is error-free and grouping-independent: any shard
        # split of the observation stream reports the same total
        self._partials: List[float] = []
        self._pending: Dict[float, int] = {}

    def __setstate__(self, state: tuple) -> None:
        """Load a slot-state pickle, written before histograms pickled
        flat; it carries no pending values."""
        self._pending = {}
        for slot, value in state[1].items():
            setattr(self, slot, value)

    def observe(self, value: float) -> None:
        if not self._enabled:
            return
        if 0.0 < value < _INF:
            pending = self._pending
            n = pending.get(value)
            if n is None:
                if len(pending) >= PENDING_LIMIT:
                    self._fold()
                pending[value] = 1
            else:
                pending[value] = n + 1
        elif -_INF < value <= 0.0:
            accumulate_exact(self._partials, value)
            self._zero_count += 1
        else:
            raise ValueError(
                f"histogram {self.full_name} cannot observe {value!r}")
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def _fold(self) -> None:
        """Fold the pending values into the buckets and the exact sum."""
        pending = self._pending
        if not pending:
            return
        buckets = self._buckets
        partials = self._partials
        log_growth = self._log_growth
        for value, n in pending.items():
            index = math.ceil(math.log(value) / log_growth)
            buckets[index] = buckets.get(index, 0) + n
            # n * value, exactly: one partial per set bit of n, each
            # ``value * 2**k`` by doubling, which rounds nothing
            while True:
                if n & 1:
                    accumulate_exact(partials, value)
                n >>= 1
                if not n:
                    break
                value += value
        pending.clear()

    @property
    def sum(self) -> float:
        """Correctly rounded sum of every observation (exact under merge)."""
        self._fold()
        return exact_total(self._partials)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one, exactly.

        Commutative and associative: ``A.merge(B)`` equals ``B.merge(A)``
        field for field, and merging per-shard histograms reproduces the
        unsharded histogram byte for byte — counts and buckets are
        integers, min/max are order-free, and the sum is accumulated
        without rounding error.  Growth factors must match, otherwise the
        bucket indices describe different geometries.  The other
        histogram's pending values join this one's pending values.
        """
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with different growth factors "
                f"({self.growth} vs {other.growth})"
            )
        if other.count == 0:
            return
        self.count += other.count
        for partial in other._partials:
            accumulate_exact(self._partials, partial)
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self._zero_count += other._zero_count
        for index, bucket_count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + bucket_count
        if other._pending:
            pending = self._pending
            for value, n in other._pending.items():
                pending[value] = pending.get(value, 0) + n
            if len(pending) > PENDING_LIMIT:
                self._fold()

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        self._fold()
        target = q * self.count
        seen = float(self._zero_count)
        if seen >= target:
            return max(self.min, 0.0) if self.min is not math.inf else 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                # upper edge of the bucket, clamped to the observed range
                return min(self.growth ** index, self.max)
        return self.max

    def snapshot(self) -> Dict[str, Any]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __reduce__(self) -> tuple:
        self._fold()
        return _histogram, (self.name, self.labels, self._enabled,
                            self.growth, self.count, self.min, self.max,
                            self._buckets, self._zero_count, self._partials)


def _histogram(name: str, labels: LabelKey, enabled: bool, growth: float,
               count: int, low: float, high: float, buckets: Dict[int, int],
               zero_count: int, partials: List[float]) -> Histogram:
    """Unpickle a :class:`Histogram` from its flat state."""
    hist = Histogram.__new__(Histogram)
    hist.name = name
    hist.labels = labels
    hist._enabled = enabled
    hist.growth = growth
    hist._log_growth = math.log(growth)
    hist.count = count
    hist.min = low
    hist.max = high
    hist._buckets = buckets
    hist._zero_count = zero_count
    hist._partials = partials
    hist._pending = {}
    return hist


def _copy(instrument: Instrument, enabled: bool) -> Instrument:
    """A private instrument with ``instrument``'s identity and state."""
    if instrument.kind == "histogram":
        instrument._fold()
        return _histogram(
            instrument.name, instrument.labels, enabled, instrument.growth,
            instrument.count, instrument.min, instrument.max,
            dict(instrument._buckets), instrument._zero_count,
            list(instrument._partials),
        )
    return _scalar(type(instrument), instrument.name, instrument.labels,
                   enabled, instrument.value)


_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

#: identity -> its shared zero entry, built at the first reservation
_ZEROS: Dict[Identity, Instrument] = {}


def _zero(key: Identity) -> Instrument:
    zero = _ZEROS.get(key)
    if zero is None:
        kind, name, labels = key
        zero = _ZEROS[key] = _CLASSES[kind](name, labels, None)
    return zero


def _registry(enabled: bool, entries: List[Any]) -> "MetricsRegistry":
    """Unpickle a :class:`MetricsRegistry` from its flat entry list:
    instruments, and the bare identities of its shared zero entries."""
    registry = MetricsRegistry.__new__(MetricsRegistry)
    registry._enabled = enabled
    instruments = registry._instruments = {}
    for entry in entries:
        if type(entry) is tuple:
            key = _intern(entry)
            instruments[key] = _zero(key)
        else:
            key = _intern((entry.kind, entry.name, entry.labels))
            entry.labels = key[2]
            instruments[key] = entry
    return registry


class MetricsRegistry:
    """Creates and owns instruments, keyed by ``(name, labels)``.

    Asking twice for the same instrument returns the same object, so
    layers that label by a shared dimension (e.g. two RPC message types
    mapping to the ``message`` paradigm) transparently aggregate.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._instruments: Dict[Identity, Instrument] = {}

    def __reduce__(self) -> tuple:
        return _registry, (self._enabled, [
            instrument if instrument._enabled is not None else key
            for key, instrument in self._instruments.items()
        ])

    # -- lifecycle -------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        """Turn collection on for every existing and future instrument."""
        self._set_enabled(True)

    def disable(self) -> None:
        """Stop collection; cached handles become near-free no-ops."""
        self._set_enabled(False)

    def _set_enabled(self, enabled: bool) -> None:
        self._enabled = enabled
        for instrument in self._instruments.values():
            if instrument._enabled is not None:
                instrument._enabled = enabled

    # -- instrument factories -------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create("gauge", Gauge, name, labels)

    def histogram(
        self, name: str, *, growth: float = 1.1, **labels: Any
    ) -> Histogram:
        return self._get_or_create("histogram", partial(Histogram, growth=growth),
                                   name, labels)

    def _get_or_create(self, kind, cls, name: str, labels: Dict[str, Any]):
        key = (kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            key = _intern(key)
            instrument = cls(name, key[2], self._enabled)
            self._instruments[key] = instrument
        elif instrument._enabled is None:
            instrument = self.materialise(key)
        return instrument

    def reserve(self, keys: Iterable[Identity]) -> None:
        """Register instruments that may never be used, at no cost.

        Each canonical key (from :func:`identity`) not yet registered
        gets its shared zero entry; histograms take the default growth.
        The registry reports a reserved instrument as a zero one until
        :meth:`materialise` or a factory call hands out a private one.
        """
        instruments = self._instruments
        for key in keys:
            if key not in instruments:
                instruments[key] = _zero(key)

    def materialise(self, key: Identity) -> Instrument:
        """The instrument registered under canonical ``key``, made
        private first if it is a reserved zero (or created if absent)."""
        instruments = self._instruments
        instrument = instruments.get(key)
        if instrument is None:
            instrument = _zero(key)
        if instrument._enabled is None:
            instrument = instruments[key] = _copy(instrument, self._enabled)
        return instrument

    def lookup(self, kind: str, name: str, **labels: Any) -> Optional[Instrument]:
        """The instrument registered as ``(kind, name, labels)``, for
        reading: a reserved one is returned as its shared zero entry, and
        nothing is created or materialised.  ``None`` if unregistered."""
        return self._instruments.get((kind, name, _label_key(labels)))

    # -- merging ---------------------------------------------------------

    def absorb(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one (sequential).

        Counters add and histograms merge exactly (see
        :meth:`Histogram.merge`); gauges adopt the other registry's
        latest value — the *absorbed* registry is treated as the newer
        state, which is what forked simulation jobs want when folding a
        restored world's registry into the job context registry.  For an
        order-independent fold (shard aggregation), use :meth:`merge`.
        """
        if self._instruments:
            self._combine(other, gauge_rule="adopt")
            return
        # into an empty registry every instrument is a fresh copy: build
        # it flat, as unpickling does, instead of through __init__ and a
        # fold into zero; a shared zero entry is shared, not copied
        enabled = self._enabled
        instruments = self._instruments
        for key, theirs in other._instruments.items():
            instruments[key] = (theirs if theirs._enabled is None
                                else _copy(theirs, enabled))

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one, commutatively.

        The shard-aggregation merge: counters add, histograms merge
        exactly (integer counts, order-free min/max, error-free sums —
        :meth:`Histogram.merge`), and gauges keep the **maximum** (a
        merged report answers "how high did it get anywhere?", the same
        rule :func:`repro.obs.report.merge_digests` applies).  Merging
        shard A then B therefore equals B then A, and equals the registry
        an unsharded run would have produced, snapshot-byte for
        snapshot-byte.
        """
        self._combine(other, gauge_rule="max")

    def _combine(self, other: "MetricsRegistry", *, gauge_rule: str) -> None:
        instruments = self._instruments
        for key, theirs in other._instruments.items():
            kind, name, labels = key
            mine = instruments.get(key)
            if theirs._enabled is None:
                # a shared zero entry folds in as the zero it reports:
                # where nothing or a zero entry stands, the result is
                # that zero
                if mine is None:
                    instruments[key] = theirs
                    continue
                if mine._enabled is None:
                    continue
            elif mine is not None and mine._enabled is None:
                mine = self.materialise(key)
            if kind == "counter":
                if mine is None:
                    mine = instruments[key] = Counter(name, labels,
                                                      self._enabled)
                mine.value += theirs.value
            elif kind == "gauge":
                # A gauge this registry never set must adopt the incoming
                # value outright: folding into the default 0.0 via max()
                # would invent a phantom zero level (wrong whenever every
                # real observation was negative).
                if mine is None:
                    mine = instruments[key] = Gauge(name, labels,
                                                    self._enabled)
                    mine.value = theirs.value
                elif gauge_rule == "adopt":
                    mine.value = theirs.value
                else:
                    mine.value = max(mine.value, theirs.value)
            else:
                if mine is None:
                    mine = instruments[key] = Histogram(
                        name, labels, self._enabled, growth=theirs.growth
                    )
                mine.merge(theirs)

    # -- inspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def instruments(self, kind: Optional[str] = None) -> List[Instrument]:
        """All instruments, optionally filtered by kind, sorted by name."""
        out = [
            i for i in self._instruments.values()
            if kind is None or i.kind == kind
        ]
        out.sort(key=lambda i: i.full_name)
        return out

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Machine-readable state: ``{kind: {full_name: values}}``."""
        named = [
            (_format_name(name, labels), instrument)
            for (__, name, labels), instrument in self._instruments.items()
        ]
        named.sort(key=itemgetter(0))
        out: Dict[str, Dict[str, Any]] = {}
        for full_name, instrument in named:
            out.setdefault(instrument.kind, {})[full_name] = (
                instrument.snapshot()
            )
        return out

    def render(self) -> str:
        """Human-readable digest, one instrument per line."""
        lines = []
        for counter in self.instruments("counter"):
            lines.append(f"counter   {counter.full_name} = {counter.value:g}")
        for gauge in self.instruments("gauge"):
            lines.append(f"gauge     {gauge.full_name} = {gauge.value:g}")
        for hist in self.instruments("histogram"):
            snap = hist.snapshot()
            lines.append(
                f"histogram {hist.full_name}: n={snap['count']} "
                f"mean={snap['mean']:.6g} p50={snap['p50']:.6g} "
                f"p95={snap['p95']:.6g} p99={snap['p99']:.6g} "
                f"max={snap['max']:.6g}"
            )
        return "\n".join(lines) if lines else "metrics: empty"
