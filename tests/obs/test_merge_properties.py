"""Property tests: histogram/registry merge is exact and commutative.

The fleet backend (``repro.fleet``) merges per-shard registries
shard -> wave -> campaign and promises the merged digest is byte-identical
to an unsharded run regardless of how observations were grouped.  That
only holds if :meth:`Histogram.merge` and :meth:`MetricsRegistry.merge`
are exact (error-free float sums) and commutative.  These tests pin that
contract down with hypothesis.
"""

import json
import math
import pickle

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    _ZEROS,
    Histogram,
    MetricsRegistry,
    accumulate_exact,
    exact_total,
    identity,
)

# Finite, non-NaN floats spanning many magnitudes so naive summation
# *would* drift: mixing 1e16 with 1.0 loses the 1.0 unless sums are
# error-free.
VALUES = st.floats(
    min_value=-1e16, max_value=1e16, allow_nan=False, allow_infinity=False
)
VALUE_LISTS = st.lists(VALUES, max_size=60)


def make_hist(growth=1.1):
    return Histogram("h", (), True, growth=growth)


def hist_from(values):
    h = make_hist()
    for v in values:
        h.observe(v)
    return h


def hist_state(h):
    return (h.count, h.min, h.max, h.sum, h._zero_count, dict(h._buckets))


class TestExactAccumulation:
    @given(VALUE_LISTS)
    @settings(max_examples=100, deadline=None)
    def test_total_matches_fsum(self, values):
        import math

        partials = []
        for v in values:
            accumulate_exact(partials, v)
        assert exact_total(partials) == math.fsum(values)

    @given(VALUE_LISTS, st.integers(min_value=0, max_value=60))
    @settings(max_examples=100, deadline=None)
    def test_split_point_does_not_change_total(self, values, cut):
        cut = min(cut, len(values))
        left, right = [], []
        for v in values[:cut]:
            accumulate_exact(left, v)
        for v in values[cut:]:
            accumulate_exact(right, v)
        # Fold right's partials into left, the way Histogram.merge does.
        for y in right:
            accumulate_exact(left, y)
        whole = []
        for v in values:
            accumulate_exact(whole, v)
        assert exact_total(left) == exact_total(whole)


class TestHistogramMerge:
    @given(VALUE_LISTS, VALUE_LISTS)
    @settings(max_examples=100, deadline=None)
    def test_commutative(self, a_values, b_values):
        ab = hist_from(a_values)
        ab.merge(hist_from(b_values))
        ba = hist_from(b_values)
        ba.merge(hist_from(a_values))
        assert hist_state(ab) == hist_state(ba)

    @given(VALUE_LISTS, st.integers(min_value=0, max_value=60))
    @settings(max_examples=100, deadline=None)
    def test_sharded_equals_unsharded(self, values, cut):
        cut = min(cut, len(values))
        sharded = hist_from(values[:cut])
        sharded.merge(hist_from(values[cut:]))
        assert hist_state(sharded) == hist_state(hist_from(values))
        assert sharded.snapshot() == hist_from(values).snapshot()

    @given(st.lists(VALUE_LISTS, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_any_grouping_equals_unsharded(self, shards):
        merged = make_hist()
        for shard in shards:
            merged.merge(hist_from(shard))
        flat = [v for shard in shards for v in shard]
        assert hist_state(merged) == hist_state(hist_from(flat))

    def test_merge_rejects_growth_mismatch(self):
        import pytest

        a = make_hist(growth=1.5)
        b = make_hist(growth=2.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_quantiles_survive_merge(self):
        a = hist_from([1.0, 2.0, 3.0])
        b = hist_from([4.0, 5.0, 6.0])
        a.merge(b)
        whole = hist_from([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert a.quantile(0.5) == whole.quantile(0.5)
        assert a.quantile(0.95) == whole.quantile(0.95)


def registry_from(events, reg=None):
    """Build a registry (or extend ``reg``) from (kind, name, value) event
    tuples."""
    reg = MetricsRegistry() if reg is None else reg
    for kind, name, value in events:
        if kind == "counter":
            reg.counter(name).inc(int(abs(value)) % 1000)
        elif kind == "gauge":
            reg.gauge(name).set(value)
        else:
            reg.histogram(name).observe(value)
    return reg


EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["counter", "gauge", "histogram"]),
        st.sampled_from(["a", "b", "c"]),
        VALUES,
    ),
    max_size=40,
)


class TestRegistryMerge:
    @given(EVENTS, EVENTS)
    @settings(max_examples=100, deadline=None)
    def test_commutative_snapshot(self, a_events, b_events):
        ab = registry_from(a_events)
        ab.merge(registry_from(b_events))
        ba = registry_from(b_events)
        ba.merge(registry_from(a_events))
        assert json.dumps(ab.snapshot(), sort_keys=True) == json.dumps(
            ba.snapshot(), sort_keys=True
        )

    @given(EVENTS, st.integers(min_value=0, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_counter_histogram_shard_identity(self, events, cut):
        """Counters and histograms merge to exactly the unsharded run.

        Gauges are excluded: a merged gauge is the max over shards by
        design, which only equals the sequential run when the last write
        happens to be the largest.
        """
        events = [e for e in events if e[0] != "gauge"]
        cut = min(cut, len(events))
        sharded = registry_from(events[:cut])
        sharded.merge(registry_from(events[cut:]))
        whole = registry_from(events)
        assert json.dumps(sharded.snapshot(), sort_keys=True) == json.dumps(
            whole.snapshot(), sort_keys=True
        )

    def test_gauge_merge_keeps_max(self):
        a = MetricsRegistry()
        a.gauge("g").set(3.0)
        b = MetricsRegistry()
        b.gauge("g").set(7.0)
        a.merge(b)
        assert a.gauge("g").value == 7.0

    @given(EVENTS, EVENTS)
    @settings(max_examples=100, deadline=None)
    def test_absorb_into_empty_equals_the_general_fold(self, events, later):
        """Absorbing into an empty registry copies instruments flat; the
        result must equal folding into it instrument by instrument, and
        the copies must not share state with the absorbed registry."""
        source = registry_from(events)
        source.gauge("neg_zero").set(-0.0)
        source.histogram("empty")
        copied = MetricsRegistry()
        copied.absorb(source)
        folded = MetricsRegistry()
        folded._combine(source, gauge_rule="adopt")
        assert list(copied._instruments) == list(folded._instruments)
        assert repr(copied.snapshot()) == repr(folded.snapshot())
        before = repr(source.snapshot())
        registry_from(later, copied)
        registry_from(later, folded)
        assert repr(copied.snapshot()) == repr(folded.snapshot())
        assert repr(source.snapshot()) == before

    def test_absorb_gauge_adopts_latest(self):
        a = MetricsRegistry()
        a.gauge("g").set(9.0)
        b = MetricsRegistry()
        b.gauge("g").set(2.0)
        a.absorb(b)
        assert a.gauge("g").value == 2.0


# -- reserved instruments ----------------------------------------------------
#
# A registry may hold *reserved* instruments: a shared zero entry per
# identity, materialised into a private instrument at first use.  It must
# be indistinguishable from the eager registry that created every
# instrument up front, and no operation may change a shared zero entry.

DECLS = st.lists(
    st.tuples(
        st.sampled_from(["counter", "gauge", "histogram"]),
        st.sampled_from(["os.releases", "os.response", "x"]),
        st.sampled_from(["c0", "c1", ""]),
        st.booleans(),  # reserved in the lazy registry
    ),
    max_size=12,
)
USES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=11), VALUES, st.booleans()),
    max_size=30,
)


def labels_of(label):
    return {"core": label} if label else {}


def handle(reg, kind, name, label, via_key):
    """The instrument a component would count into; on the lazy side,
    either through the flat key path or through the factory."""
    if via_key:
        return reg.materialise(identity(kind, name, **labels_of(label)))
    if kind == "histogram":
        return reg.histogram(name, **labels_of(label))
    return getattr(reg, kind)(name, **labels_of(label))


def build(decls, uses, lazy):
    reg = MetricsRegistry()
    for kind, name, label, reserved in decls:
        if lazy and reserved:
            reg.reserve([identity(kind, name, **labels_of(label))])
        else:
            handle(reg, kind, name, label, False)
    use(reg, decls, uses, lazy)
    return reg


def use(reg, decls, uses, lazy):
    for index, value, via_key in uses:
        if not decls:
            return
        kind, name, label, _ = decls[index % len(decls)]
        instrument = handle(reg, kind, name, label, lazy and via_key)
        if kind == "counter":
            instrument.inc(int(abs(value)) % 1000)
        elif kind == "gauge":
            instrument.set(value)
        else:
            instrument.observe(value)


def view(reg):
    """Everything a reader can see of a registry, order included."""
    return repr((
        reg.snapshot(),
        reg.render(),
        len(reg),
        [(type(i).__name__, i.full_name, i.snapshot()) for i in reg],
        [[(i.full_name, i.snapshot()) for i in reg.instruments(kind)]
         for kind in (None, "counter", "gauge", "histogram")],
    ))


def assert_zeros_pristine():
    """Every shared zero entry of the process still reads as built."""
    for key, zero in _ZEROS.items():
        assert zero._enabled is None, key
        if zero.kind == "histogram":
            assert (zero.count, zero.min, zero.max, zero.growth, zero._buckets,
                    zero._zero_count, zero._partials) == (
                        0, math.inf, -math.inf, 1.1, {}, 0, []), key
        else:
            assert repr(zero.value) == "0.0", key


class TestReservedEquivalence:
    @given(DECLS, USES, DECLS, USES, USES)
    @settings(max_examples=150, deadline=None)
    def test_reserved_registry_equals_eager(self, decls, uses, other_decls,
                                            other_uses, later):
        def pair(d=decls, u=uses):
            return build(d, u, False), build(d, u, True)

        def others():
            return pair(other_decls, other_uses)

        def same(eager, lazy):
            assert view(lazy) == view(eager)
            assert_zeros_pristine()

        eager, lazy = pair()
        same(eager, lazy)
        # absorb: into an empty registry, into a non-empty one, and
        # another registry into this one
        for target in (lambda: MetricsRegistry(), lambda: build(
                other_decls, other_uses, False)):
            into_eager, into_lazy = target(), target()
            into_eager.absorb(eager)
            into_lazy.absorb(lazy)
            same(into_eager, into_lazy)
            use(into_eager, decls, later, False)
            use(into_lazy, decls, later, True)
            same(into_eager, into_lazy)
        for other_eager, other_lazy in (others(), (MetricsRegistry(),) * 2):
            eager, lazy = pair()
            eager.absorb(other_eager)
            lazy.absorb(other_lazy)
            same(eager, lazy)
        # merge, in both orders
        eager, lazy = pair()
        other_eager, other_lazy = others()
        eager.merge(other_eager)
        lazy.merge(other_lazy)
        same(eager, lazy)
        eager, lazy = pair()
        other_eager, other_lazy = others()
        other_eager.merge(eager)
        other_lazy.merge(lazy)
        same(other_eager, other_lazy)
        same(eager, lazy)
        # disable then enable: a disabled registry counts nothing, and
        # instruments materialised while disabled count once enabled
        eager, lazy = pair()
        eager.disable()
        lazy.disable()
        use(eager, decls, later, False)
        use(lazy, decls, later, True)
        same(eager, lazy)
        eager.enable()
        lazy.enable()
        use(eager, decls, later, False)
        use(lazy, decls, later, True)
        same(eager, lazy)
        # a pickle round trip keeps reserved entries reserved
        eager, lazy = pair()
        eager = pickle.loads(pickle.dumps(eager, pickle.HIGHEST_PROTOCOL))
        restored = pickle.loads(pickle.dumps(lazy, pickle.HIGHEST_PROTOCOL))
        same(eager, restored)
        assert [i._enabled is None for i in restored] == [
            i._enabled is None for i in lazy]
        use(eager, decls, later, False)
        use(restored, decls, later, True)
        same(eager, restored)

    def test_a_reserved_entry_is_shared_until_first_use(self):
        key = identity("counter", "os.releases", core="shared")
        a, b = MetricsRegistry(), MetricsRegistry()
        a.reserve([key])
        b.reserve([key])
        zero = _ZEROS[key]
        assert list(a) == [zero] and list(b) == [zero]
        zero.inc(5)  # a handle on a shared zero counts nothing
        assert a.lookup("counter", "os.releases", core="shared") is zero
        counter = a.counter("os.releases", core="shared")
        assert counter is not zero and counter is a.materialise(key)
        counter.inc(2)
        assert (zero.value, counter.value) == (0.0, 2.0)
        assert list(b) == [zero]
