"""Simulated CAN response times stay within the analytic bound.

An independent oracle for the CAN arbitration model: periodic
single-frame flows on one :class:`CanBus` must never take longer from
release to delivery than the sufficient response-time test of Davis,
Burns, Bril & Lukkien (2007) allows (``can_response_time_bound``).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.network import CanBus, Frame, can_frame_bits, can_response_time_bound
from repro.sim import Simulator

#: worst-case frame time (8 payload bytes) plus interframe space, in bits
FRAME_SLOT_BITS = can_frame_bits(8) + CanBus.IFS_BITS

#: simulated span, in multiples of the longest period
HORIZON_PERIODS = 4


def simulate(flows, phases, bitrate, horizon):
    """Max simulated release-to-delivery time per identifier."""
    sim = Simulator()
    bus = CanBus(sim, "can", bitrate)
    worst = {can_id: 0.0 for can_id, __, __ in flows}

    def record(frame):
        worst[frame.priority] = max(worst[frame.priority], frame.latency)

    def release(can_id, size, period):
        bus.submit(Frame(src=f"n{can_id}", dst=None, payload_bytes=size,
                         priority=can_id, frame_id=sim.next_frame_id())
                   ).add_callback(record)
        if sim.now + period < horizon:
            sim.post(period, release, can_id, size, period)

    for (can_id, size, period), phase in zip(flows, phases):
        sim.post(phase, release, can_id, size, period)
    sim.run()
    return worst


def check(flows, phases, bitrate):
    bounds = can_response_time_bound(flows, bitrate)
    horizon = HORIZON_PERIODS * max(period for __, __, period in flows)
    worst = simulate(flows, phases, bitrate, horizon)
    for can_id, bound in bounds.items():
        if bound != math.inf:
            assert worst[can_id] <= bound * (1 + 1e-9), (can_id, worst, bounds)
    return bounds, worst


@st.composite
def flow_sets(draw):
    bitrate = draw(st.sampled_from([125_000.0, 500_000.0, 1_000_000.0]))
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, 0x7FF), min_size=n, max_size=n,
                        unique=True))
    sizes = [draw(st.integers(0, 8)) for __ in ids]
    slots = [draw(st.integers(2, 40)) for __ in ids]
    utilisation = sum(
        (can_frame_bits(size) + CanBus.IFS_BITS) / FRAME_SLOT_BITS / k
        for size, k in zip(sizes, slots)
    )
    # stretch every period by one integer factor until U <= 0.9
    scale = max(1, math.ceil(utilisation / 0.9))
    slot = FRAME_SLOT_BITS / bitrate
    flows = [(can_id, size, k * scale * slot)
             for can_id, size, k in zip(ids, sizes, slots)]
    # synchronous release (the critical instant) or random offsets
    synchronous = draw(st.booleans())
    phases = [
        0.0 if synchronous else draw(st.integers(0, 1000)) / 1000 * period
        for __, __, period in flows
    ]
    return flows, phases, bitrate


@settings(max_examples=80, deadline=None)
@given(case=flow_sets())
def test_simulated_response_within_bound(case):
    flows, phases, bitrate = case
    bounds, __ = check(flows, phases, bitrate)
    # the top-priority flow always has a finite bound: blocking plus its
    # own frame fit into its period of at least two worst-case slots
    assert bounds[min(bounds)] != math.inf


class TestPinnedCases:
    def test_single_flow_bound_is_blocking_plus_frame(self):
        bitrate = 500_000.0
        bounds = can_response_time_bound([(0x10, 8, 0.01)], bitrate)
        assert bounds == {0x10: 2 * FRAME_SLOT_BITS / bitrate}

    def test_synchronous_release_meets_the_hp_interference(self):
        """Three 8-byte flows released together: the lowest waits out the
        two higher frames, and the bound covers it with its blocking term."""
        bitrate = 500_000.0
        slot = FRAME_SLOT_BITS / bitrate
        flows = [(1, 8, 10 * slot), (2, 8, 10 * slot), (3, 8, 10 * slot)]
        bounds, worst = check(flows, [0.0, 0.0, 0.0], bitrate)
        # the first submitted frame grabs the idle bus; the rest follow by id
        assert worst[3] == pytest.approx(2 * slot + can_frame_bits(8) / bitrate)
        assert bounds[3] == pytest.approx(4 * slot)

    def test_overloaded_flow_gets_no_bound(self):
        bitrate = 500_000.0
        slot = FRAME_SLOT_BITS / bitrate
        bounds = can_response_time_bound(
            [(1, 8, 2 * slot), (2, 8, 2 * slot)], bitrate)
        assert bounds[1] == 2 * slot
        assert bounds[2] == math.inf

    def test_duplicate_identifiers_rejected(self):
        with pytest.raises(NetworkError, match="unique identifiers"):
            can_response_time_bound([(5, 1, 0.01), (5, 2, 0.02)], 500_000.0)
