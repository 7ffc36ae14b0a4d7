"""Property test: the GCL window table answers exactly like an entry scan.

``GateControlList`` tabulates each priority's open windows at
construction.  Over random gate control lists (1–6 entries, random
priority sets, empty ones included) and times spanning several cycles,
window boundaries included, ``next_open`` and ``state_at`` must return
the same floats as a brute-force walk over every entry, and a priority
no entry opens must still raise ``ConfigurationError``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.network.tsn import GateControlList, GateEntry
from repro.sim.rng import RngStreams


def scan_state_at(entries, time):
    cycle = sum(e.duration for e in entries)
    offset = time % cycle
    for entry in entries:
        if offset < entry.duration:
            return entry.open_priorities, entry.duration - offset
        offset -= entry.duration
    return entries[0].open_priorities, entries[0].duration


def scan_next_open(entries, time, priority):
    if not any(priority in e.open_priorities for e in entries):
        raise ConfigurationError(f"priority {priority} never opens in GCL")
    cycle = sum(e.duration for e in entries)
    offset = time % cycle
    base = time - offset
    for lap in range(2):
        cursor = 0.0
        for entry in entries:
            start = base + lap * cycle + cursor
            end = start + entry.duration
            if priority in entry.open_priorities and end > time:
                return max(start, time)
            cursor += entry.duration
    raise AssertionError("scan found no window")


entries_strategy = st.lists(
    st.builds(
        GateEntry,
        open_priorities=st.frozensets(st.integers(0, 7), max_size=8),
        # whole nanoseconds: inexact binary floats, as real GCLs have
        duration=st.integers(1_000, 1_000_000).map(lambda ns: ns * 1e-9),
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def gcl_and_time(draw):
    entries = draw(entries_strategy)
    cycle = sum(e.duration for e in entries)
    laps = draw(st.integers(0, 5))
    if draw(st.booleans()):
        # exactly on a window boundary of some lap
        index = draw(st.integers(0, len(entries)))
        cursor = 0.0
        for entry in entries[:index]:
            cursor += entry.duration
        time = laps * cycle + cursor
    else:
        time = laps * cycle + draw(
            st.floats(min_value=0.0, max_value=cycle, allow_nan=False)
        )
    return entries, time


def check_against_scan(entries, time, priority):
    gcl = GateControlList(entries)
    assert gcl.state_at(time) == scan_state_at(entries, time)
    try:
        expected = scan_next_open(entries, time, priority)
    except ConfigurationError:
        with pytest.raises(ConfigurationError):
            gcl.next_open(time, priority)
    else:
        assert gcl.next_open(time, priority) == expected


@settings(max_examples=500, deadline=None)
@given(gcl_and_time(), st.integers(0, 7))
def test_table_matches_entry_scan(case, priority):
    entries, time = case
    check_against_scan(entries, time, priority)


def test_table_matches_entry_scan_on_a_seeded_sweep():
    # reassociating one float addition changes ~1 % of these answers in
    # the last bit; a fixed sweep of this size catches that on every run
    rng = RngStreams(15).stream("gcl_sweep")
    for _ in range(5_000):
        entries = [
            GateEntry(
                frozenset(rng.sample(range(8), rng.randint(0, 8))),
                rng.uniform(1e-6, 1e-3),
            )
            for _ in range(rng.randint(1, 6))
        ]
        cycle = sum(e.duration for e in entries)
        time = rng.randint(0, 5) * cycle + rng.uniform(0.0, cycle)
        check_against_scan(entries, time, rng.randint(0, 7))


@settings(max_examples=100, deadline=None)
@given(entries_strategy, st.floats(min_value=0.0, max_value=0.1, allow_nan=False))
def test_priority_that_never_opens_raises(entries, time):
    gcl = GateControlList(entries)
    opened = set().union(*(e.open_priorities for e in entries))
    for priority in range(8):
        if priority not in opened:
            with pytest.raises(ConfigurationError):
                gcl.next_open(time, priority)
    # priorities outside 0..7 never open either
    with pytest.raises(ConfigurationError):
        gcl.next_open(time, 8)
