"""The per-bus wire-time lookups answer exactly like the formulas.

``CanBus`` tabulates the frame time of every legal payload size at
construction and ``EthernetBus`` memoises the wire time per payload size
on first use; both must return the very floats the formulas give, and
both must keep raising the formulas' errors.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.network import (
    ETH_MAX_PAYLOAD,
    CanBus,
    EthernetBus,
    Frame,
    TsnBus,
    can_frame_bits,
    ethernet_wire_bytes,
)
from repro.sim import Simulator


class TestCanTable:
    @pytest.mark.parametrize("bitrate", [125_000.0, 500_000.0, 1_000_000.0])
    def test_table_is_the_formula_bit_for_bit(self, bitrate):
        bus = CanBus(Simulator(), "can", bitrate)
        for n in range(9):
            expected = can_frame_bits(n) / bitrate
            assert float.hex(bus._durations[n]) == float.hex(expected)

    @pytest.mark.parametrize("bitrate", [125_000.0, 500_000.0, 1_000_000.0])
    def test_completion_time_comes_from_the_table(self, bitrate):
        sim = Simulator()
        bus = CanBus(sim, "can", bitrate)
        done = bus.submit(Frame(src="a", dst=None, payload_bytes=5, priority=1))
        sim.run()
        assert done.value.delivered_at == can_frame_bits(5) / bitrate
        assert bus.transmit_time == can_frame_bits(5) / bitrate

    @pytest.mark.parametrize("size", [9, -1])
    def test_out_of_range_sizes_raise_the_formula_error(self, size):
        with pytest.raises(NetworkError) as formula:
            can_frame_bits(size)
        sim = Simulator()
        bus = CanBus(sim, "can", 500_000.0)
        frame = Frame(src="a", dst=None, payload_bytes=0, priority=1)
        frame.payload_bytes = size  # a fresh Frame refuses negative sizes
        with pytest.raises(NetworkError) as submitted:
            bus.submit(frame)
        assert str(submitted.value) == str(formula.value)
        assert bus.queue_depth == 0 and not sim.queue


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(0, ETH_MAX_PAYLOAD), min_size=1, max_size=12),
    bitrate=st.sampled_from([10e6, 100e6, 1e9]),
    tsn=st.booleans(),
)
def test_ethernet_memo_is_the_formula(sizes, bitrate, tsn):
    sim = Simulator()
    # the TSN bus runs at its default 1 Gbit/s, where every MTU-size
    # frame fits the default gate windows
    bus = TsnBus(sim, "eth") if tsn else EthernetBus(sim, "eth", bitrate)
    for size in sizes:
        bus.submit(Frame(src="a", dst="b", payload_bytes=size, priority=7))
    sim.run()
    assert sorted(bus._durations) == sorted(set(sizes))
    for size, duration in bus._durations.items():
        expected = bus.wire_time(ethernet_wire_bytes(size))
        assert float.hex(duration) == float.hex(expected)


def test_ethernet_transmit_time_sums_the_memo_in_order():
    sim = Simulator()
    bus = EthernetBus(sim, "eth", 100e6)
    sizes = [1, 700, 46, 1500, 700]
    for size in sizes:
        bus.submit(Frame(src="a", dst="b", payload_bytes=size, priority=3))
    sim.run()
    total = 0.0
    for size in sizes:
        total += ethernet_wire_bytes(size) * 8.0 / 100e6
    assert bus.transmit_time == total


def test_oversize_ethernet_frame_raises_and_leaves_no_memo_entry():
    sim = Simulator()
    bus = EthernetBus(sim, "eth", 100e6)
    with pytest.raises(NetworkError, match="exceeds Ethernet MTU"):
        bus.submit(Frame(src="a", dst="b", payload_bytes=ETH_MAX_PAYLOAD + 1))
    assert bus._durations == {}
    # and it keeps raising: a failed size is never stored
    with pytest.raises(NetworkError, match="exceeds Ethernet MTU"):
        bus.submit(Frame(src="a", dst="b", payload_bytes=ETH_MAX_PAYLOAD + 1))
    assert bus._durations == {}
