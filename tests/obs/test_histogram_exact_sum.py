"""Property test: ``Histogram.observe`` keeps the exact running sum.

``observe`` folds a value into its Shewchuk partials inline when the
list holds one partial (the common case) and calls
:func:`accumulate_exact` otherwise.  Either way the partials must be
bit-identical to folding the same stream with ``accumulate_exact``
alone, and ``Histogram.sum`` must be the correctly rounded sum.
"""

import math
import struct

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import Histogram, accumulate_exact

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
STREAMS = st.lists(st.one_of(SPECIAL, FINITE, SUBNORMAL), max_size=60)


def bits(values):
    """The exact bit patterns, so -0.0 and 0.0 differ."""
    return [struct.pack("<d", v) for v in values]


@given(STREAMS)
@settings(max_examples=300, deadline=None)
def test_observe_matches_accumulate_exact(values):
    hist = Histogram("h", (), True)
    partials = []
    for value in values:
        hist.observe(value)
        accumulate_exact(partials, value)
        assert bits(hist._partials) == bits(partials)
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
