"""Property test: a deferred ``Histogram`` reads as a per-call one.

``Histogram.observe`` only counts a positive value into a pending
multiset; every read, merge and pickle folds the pending values into the
buckets and the Shewchuk partials once per distinct value.  The oracle
here is :class:`ReferenceHistogram`, which does that work on every call
(bucket by the log formula, fold into the partials with
:func:`accumulate_exact`).  After any interleaving of observations,
merges, pickle round trips and registry absorbs, a read of the real
histogram must match the reference: the snapshot floats bit for bit,
the buckets and zero count exactly, and the exact sum of the partials
as a :class:`~fractions.Fraction`.
"""

import math
import pickle
import struct
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry
from repro.obs.metrics import PENDING_LIMIT, Histogram, accumulate_exact

#: zero (both signs), subnormals, ordinary values of either sign and
#: values near ±1e300, where a naive running sum loses everything small
SPECIAL = st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
     1.0, -1.0, 1e-16, 0.1)
)
FINITE = st.floats(min_value=-1e300, max_value=1e300,
                   allow_nan=False, allow_infinity=False)
SUBNORMAL = st.floats(min_value=-2.2250738585072014e-308,
                      max_value=2.2250738585072014e-308)
VALUES = st.one_of(SPECIAL, FINITE, SUBNORMAL)
STREAMS = st.lists(VALUES, max_size=60)

#: histograms in one interleaving, each in its own registry
POOL = 3


class ReferenceHistogram:
    """The histogram with no deferral: every observation is bucketed and
    folded into the exact sum as it arrives."""

    def __init__(self, growth=1.1):
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets = {}
        self._zero_count = 0
        self._partials = []

    def observe(self, value):
        self.count += 1
        accumulate_exact(self._partials, value)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self._zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_growth)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def merge(self, other):
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

    def quantile(self, q):
        target = q * self.count
        seen = float(self._zero_count)
        if seen >= target:
            return max(self.min, 0.0)
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                return min(self.growth ** index, self.max)
        return self.max

    def snapshot(self):
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        total = math.fsum(self._partials)
        return {"count": self.count, "sum": total, "min": self.min,
                "max": self.max, "mean": total / self.count,
                "p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}


def bits(snapshot):
    """Snapshot values with floats as bit patterns, so -0.0 != 0.0."""
    return {key: struct.pack("<d", value) if isinstance(value, float)
            else value for key, value in snapshot.items()}


def exact(partials):
    return sum(map(Fraction, partials), Fraction(0))


def assert_matches(hist, ref):
    assert bits(hist.snapshot()) == bits(ref.snapshot())
    assert hist._buckets == ref._buckets
    assert hist._zero_count == ref._zero_count
    assert exact(hist._partials) == exact(ref._partials)
    assert hist.count == ref.count
    assert not hist._pending


OPS = st.one_of(
    st.tuples(st.just("observe"), st.integers(0, POOL - 1), VALUES),
    st.tuples(st.just("repeat"), st.integers(0, POOL - 1), VALUES,
              st.integers(2, 70)),
    st.tuples(st.just("merge"), st.integers(0, POOL - 1),
              st.integers(0, POOL - 1)),
    st.tuples(st.just("absorb"), st.integers(0, POOL - 1),
              st.integers(0, POOL - 1)),
    st.tuples(st.just("copy"), st.integers(0, POOL - 1)),
    st.tuples(st.just("pickle"), st.integers(0, POOL - 1)),
    st.tuples(st.just("read"), st.integers(0, POOL - 1),
              st.sampled_from(("sum", "mean", "p50", "p99", "snapshot"))),
)

#: the first read of a histogram, by the name of its snapshot field
READERS = {
    "sum": lambda hist: hist.sum,
    "mean": lambda hist: hist.mean,
    "p50": lambda hist: hist.quantile(0.50),
    "p99": lambda hist: hist.quantile(0.99),
}


@given(st.lists(OPS, max_size=40))
@settings(max_examples=300, deadline=None)
def test_observe_matches_accumulate_exact(ops):
    """Random interleavings of observe, merge, registry absorb, copy,
    pickle round trip and read leave every read equal to the per-call
    reference, which folds each value with ``accumulate_exact``."""
    registries = [MetricsRegistry() for _ in range(POOL)]
    refs = [ReferenceHistogram() for _ in range(POOL)]
    for op, i, *args in ops:
        hist = registries[i].histogram("h")
        if op == "observe":
            hist.observe(args[0])
            refs[i].observe(args[0])
        elif op == "repeat":
            value, times = args
            for _ in range(times):
                hist.observe(value)
                refs[i].observe(value)
        elif op in ("merge", "absorb"):
            j = args[0]
            if j == i:
                continue
            if op == "merge":
                hist.merge(registries[j].histogram("h"))
            else:
                registries[i].absorb(registries[j])
            refs[i].merge(refs[j])
        elif op == "copy":
            # absorbing into an empty registry copies the instrument
            fresh = MetricsRegistry()
            fresh.absorb(registries[i])
            registries[i] = fresh
        elif op == "pickle":
            registries[i] = pickle.loads(pickle.dumps(registries[i]))
        else:
            reader = args[0]
            if reader in READERS:
                # each reader folds on its own, before any other read
                assert bits({reader: READERS[reader](hist)}) == bits(
                    {reader: refs[i].snapshot()[reader]})
            assert_matches(hist, refs[i])
    for registry, ref in zip(registries, refs):
        assert_matches(registry.histogram("h"), ref)


@given(STREAMS)
@settings(max_examples=300, deadline=None)
def test_sum_is_correctly_rounded(values):
    hist = Histogram("h", (), True)
    for value in values:
        hist.observe(value)
    assert hist.sum == math.fsum(values)
    assert hist.count == len(values)


@given(st.lists(st.sampled_from((1e300, -1e300, 1.0, -1.0, 5e-324, 0.0)),
                max_size=40))
def test_cancelling_magnitudes(values):
    # huge values that cancel exactly must leave the small ones intact
    hist = Histogram("h", (), True)
    for value in values:
        hist.observe(value)
    assert hist.sum == math.fsum(values)


def test_pending_values_stay_bounded():
    hist = Histogram("h", (), True)
    ref = ReferenceHistogram()
    most = 0
    for i in range(100_000):
        value = 1e-6 * (1 + i) + (i % 7) * 1e-3
        hist.observe(value)
        ref.observe(value)
        most = max(most, len(hist._pending))
    assert most == PENDING_LIMIT
    assert_matches(hist, ref)


def test_merge_past_the_limit_folds():
    left, right = Histogram("h", (), True), Histogram("h", (), True)
    ref_left, ref_right = ReferenceHistogram(), ReferenceHistogram()
    for i in range(PENDING_LIMIT - 1):
        for hist, ref, value in ((left, ref_left, 1.0 + i),
                                 (right, ref_right, 0.5 + i)):
            hist.observe(value)
            ref.observe(value)
    left.merge(right)
    ref_left.merge(ref_right)
    assert len(left._pending) <= PENDING_LIMIT
    assert_matches(left, ref_left)
