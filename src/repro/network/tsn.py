"""Time-Sensitive Networking (IEEE 802.1Qbv) time-aware shaper.

The paper (Section 5.3): "in the upcoming TSN standards for Ethernet ...
highly critical applications requiring deterministic communication can use
a time-triggered scheme, where non-deterministic applications will use
priority-based communication and the transmission selection on switches
will prevent its interference on deterministic communication."

Model: each egress port runs a periodic **gate control list** (GCL).  Each
GCL entry opens a subset of the eight priority queues for a fixed duration.
A frame may only start transmission if

* its queue's gate is currently open, and
* the frame fits into the remaining open time of the gate (this is the
  *guard band* that protects the next deterministic window from a
  straddling best-effort frame).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim import Simulator
from .ethernet import EgressPort, EthernetBus
from .frame import Frame


@dataclass(frozen=True)
class GateEntry:
    """One GCL entry: the set of open priority classes and its duration."""

    open_priorities: FrozenSet[int]
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("gate entry duration must be positive")
        if any(not 0 <= p <= 7 for p in self.open_priorities):
            raise ConfigurationError("gate priorities must be 0..7")


class GateControlList:
    """A cyclic schedule of :class:`GateEntry` items.

    Construction tabulates each priority's open windows as
    ``(cursor, duration)`` pairs, ``cursor`` being the entry's start
    offset in the cycle, so :meth:`next_open` scans one priority's
    windows instead of every entry.
    """

    def __init__(self, entries: Sequence[GateEntry]) -> None:
        if not entries:
            raise ConfigurationError("gate control list cannot be empty")
        self.entries = list(entries)
        self.cycle = sum(e.duration for e in self.entries)
        windows: Dict[int, List[Tuple[float, float]]] = {}
        cursor = 0.0
        for entry in self.entries:
            for pcp in entry.open_priorities:
                windows.setdefault(pcp, []).append((cursor, entry.duration))
            cursor += entry.duration
        #: priority -> its open windows as (cursor, duration), in cycle order
        self._windows: Dict[int, Tuple[Tuple[float, float], ...]] = {
            pcp: tuple(spans) for pcp, spans in windows.items()
        }

    @classmethod
    def tas_split(
        cls,
        cycle: float,
        critical_window: float,
        critical_priorities: Sequence[int] = (7,),
    ) -> "GateControlList":
        """Classic two-window schedule: a protected critical window followed
        by a best-effort window for all remaining classes."""
        if not 0 < critical_window < cycle:
            raise ConfigurationError("critical window must fit inside the cycle")
        crit = frozenset(critical_priorities)
        rest = frozenset(range(8)) - crit
        return cls(
            [
                GateEntry(crit, critical_window),
                GateEntry(rest, cycle - critical_window),
            ]
        )

    def state_at(self, time: float) -> Tuple[FrozenSet[int], float]:
        """Return (open priority set, seconds until this entry closes)."""
        offset = time % self.cycle
        for entry in self.entries:
            if offset < entry.duration:
                return entry.open_priorities, entry.duration - offset
            offset -= entry.duration
        # floating point edge: treat as start of cycle
        first = self.entries[0]
        return first.open_priorities, first.duration

    def next_open(self, time: float, priority: int) -> float:
        """Earliest time >= ``time`` at which ``priority``'s gate is open.

        Raises:
            ConfigurationError: if the priority is never opened by this GCL.
        """
        windows = self._windows.get(priority)
        if windows is None:
            raise ConfigurationError(f"priority {priority} never opens in GCL")
        offset = time % self.cycle
        base = time - offset
        for lap in range(2):  # at most one full wrap needed
            lap_base = base + lap * self.cycle
            for cursor, duration in windows:
                start = lap_base + cursor
                if start + duration > time:
                    return max(start, time)
        raise ConfigurationError("unreachable: gate scan failed")  # pragma: no cover


class GatedEgressPort(EgressPort):
    """An egress port whose transmission selection honours a GCL."""

    def __init__(self, bus: "TsnBus", dst: str, gcl: GateControlList) -> None:
        super().__init__(bus, dst)
        self.gcl = gcl
        self.gate_deferrals = 0
        self._wakeup_pending = False
        # widest gate window ever open per priority class, precomputed so
        # the can-this-frame-ever-fit admission check is O(1) per enqueue
        self._max_open_window = [0.0] * 8
        for entry in gcl.entries:
            for pcp in entry.open_priorities:
                if entry.duration > self._max_open_window[pcp]:
                    self._max_open_window[pcp] = entry.duration

    def _admit(self, frame: Frame, duration: float) -> None:
        if duration > self._max_open_window[frame.priority] + 1e-12:
            from ..errors import NetworkError

            raise NetworkError(
                f"frame of {frame.payload_bytes} B can never fit a gate window "
                f"open for priority {frame.priority}"
            )

    def _select(self):
        """Strict priority among queues whose gate is open *and* whose head
        frame fits in the remaining open window (guard band).

        ``gate_deferrals`` counts guard-band misses only: each selection
        round adds one per open-gate queue whose head frame does not fit,
        so a frame held across several rounds counts once per round, and
        a frame waiting at a closed gate is never counted.
        """
        queues = self.queues
        if not any(queues):
            return None
        open_set, remaining = self.gcl.state_at(self.bus.sim.now)
        for pcp in range(7, -1, -1):
            queue = queues[pcp]
            if not queue or pcp not in open_set:
                continue
            if queue[0][2] <= remaining + 1e-12:
                return queue.popleft()
            self.gate_deferrals += 1
        self._arm_wakeup()
        return None

    def _arm_wakeup(self) -> None:
        """Re-attempt selection when the earliest relevant gate re-opens."""
        if self._wakeup_pending:
            return
        now = self.bus.sim.now
        next_open = self.gcl.next_open
        wake_at = None
        for pcp, queue in enumerate(self.queues):
            if queue:
                opens = next_open(now, pcp)
                if wake_at is None or opens < wake_at:
                    wake_at = opens
        if wake_at is None:
            return
        if wake_at <= now:
            # gate is open but the head frame does not fit: wake when the
            # current entry closes and the next one begins
            __, remaining = self.gcl.state_at(now)
            wake_at = now + remaining
        # nudge a nanosecond past the boundary so floating-point error can
        # never leave us a denormal-width sliver before the gate change;
        # the time is past now, so push without sim.at's check
        self._wakeup_pending = True
        self.bus.sim.queue.push(
            max(wake_at, now) + 1e-9, self._wakeup, ()
        ).pooled = True

    def _wakeup(self) -> None:
        self._wakeup_pending = False
        if not self.busy:
            self._start_next()

    def _start_next(self) -> None:
        item = self._select()
        if item is None:
            self.busy = False
            return
        frame, done, duration = item
        self.busy = True
        sim = self.bus.sim
        sim.queue.push(
            sim.now + duration, self._finish, (frame, done, duration)
        ).pooled = True


class TsnBus(EthernetBus):
    """Ethernet segment whose egress ports run 802.1Qbv gates."""

    technology = "ethernet"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bitrate_bps: float = 1_000_000_000.0,
        gcl: Optional[GateControlList] = None,
    ) -> None:
        super().__init__(sim, name, bitrate_bps)
        #: Default GCL: 20% protected window for PCP 7 every 500 us.
        self.gcl = gcl or GateControlList.tas_split(
            cycle=0.0005, critical_window=0.0001, critical_priorities=(7,)
        )
        # a GCL is never mutated after construction: forks alias it, so
        # its window table is neither copied nor rebuilt per restore
        sim.share(self.gcl)

    def _make_port(self, dst: str):
        return GatedEgressPort(self, dst, self.gcl)

    def total_gate_deferrals(self) -> int:
        """Guard-band misses across all ports: selection rounds in which an
        open gate's head frame did not fit the remaining window, counted
        once per round (see :meth:`GatedEgressPort._select`).  Frames
        waiting at a closed gate are not counted."""
        return sum(
            port.gate_deferrals
            for port in self._ports.values()
            if isinstance(port, GatedEgressPort)
        )
