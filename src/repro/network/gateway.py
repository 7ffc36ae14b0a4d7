"""Gateway ECU logic and the multi-segment vehicle network.

A :class:`VehicleNetwork` instantiates one bus simulator per
:class:`~repro.hw.topology.BusSpec` in a topology and wires gateway ECUs
(ECUs attached to more than one bus) to forward frames between segments
along the topology's shortest routes.  The result is a single
:meth:`VehicleNetwork.send` primitive with end-to-end delivery signals,
which the middleware builds on.

Routing is cached: the shortest path (and its hop decomposition) for a
``(src, dst)`` pair is computed once per *failure set* and reused for
every subsequent send.  The cache key includes ``frozenset(failed_buses)``,
so :meth:`fail_bus`/:meth:`repair_bus` never serve stale routes — entries
computed under a different failure set simply stop matching, and routes
for a previously seen failure set are reused without recomputation.  A
miss asks :meth:`Topology.route`, whose memo lives on the shared
topology, so a world forked from a healthy base reuses detours an
earlier fork in the same process already computed.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, NetworkError
from ..sim import Signal, Simulator
from ..hw.topology import BusSpec, Topology
from .base import BusModel, Listener
from .can import CanBus
from .ethernet import EthernetBus
from .flexray import FlexRayBus
from .frame import Frame, TrafficClass
from .tsn import GateControlList, TsnBus

#: Per-hop store-and-forward processing delay in a gateway ECU.
GATEWAY_LATENCY = 0.0002

#: One gateway hop: (from_ecu, bus, to_ecu).
Hop = Tuple[str, str, str]


class _SegmentBatch:
    """In-flight state of one batched multi-segment transfer.

    The batch is also the completion sink of every frame it submits:
    buses only ever call ``fire(frame)`` on a sink, and each segment
    frame carries its hop index in :attr:`Frame.hop`, so one object
    forwards intermediate-hop arrivals and counts down final-hop ones
    (only while a caller waits on ``done``; a ``None`` sink skips it) —
    no per-frame :class:`~repro.sim.Signal` and no deferred-dispatch
    event.  A gateway forwards the frame it received: after the
    store-and-forward delay, :meth:`forward` re-addresses that very
    frame to the next hop under a fresh sim-local id.  Nothing above the
    network layer holds a gateway-addressed frame, so one frame object
    carries a segment from its first bus to its last.  Nothing the batch
    holds points back at it, so a finished batch, or one whose segments
    a fault hook dropped, is freed by reference counting alone.  Being a
    plain object (no closures), a snapshot taken mid-transfer copies it,
    countdown included, instead of aliasing the original's mutable state.
    """

    __slots__ = ("net", "hops", "hop_buses", "hop_priorities", "last_hop",
                 "traffic_class", "label", "remaining", "done")

    def __init__(
        self,
        net: "VehicleNetwork",
        hops: Tuple[Hop, ...],
        hop_buses: Tuple[BusModel, ...],
        hop_priorities: Tuple[int, ...],
        traffic_class: TrafficClass,
        label: str,
        n_segments: int,
        done: Optional[Signal],
    ) -> None:
        self.net = net
        self.hops = hops
        self.hop_buses = hop_buses
        self.hop_priorities = hop_priorities
        self.last_hop = len(hops) - 1
        self.traffic_class = traffic_class
        self.label = label
        self.remaining = n_segments
        self.done = done

    def submit(self, payload_bytes: int, payload: object) -> None:
        """Put one segment on the first hop's bus."""
        src, __, dst = self.hops[0]
        frame = Frame(
            src=src,
            dst=dst,
            payload_bytes=payload_bytes,
            priority=self.hop_priorities[0],
            traffic_class=self.traffic_class,
            payload=payload,
            label=self.label,
            frame_id=self.net.sim.next_frame_id(),
        )
        self.hop_buses[0].submit(frame, self)

    def forward(self, frame: Frame) -> None:
        """Put ``frame``, delivered to a gateway, on the next hop's bus.

        Corruption is sticky: the gateway forwards the payload bit for
        bit, so the destination's CRC check discards a frame mangled on
        any hop (as :meth:`Frame.clone_for_segment` does)."""
        index = frame.hop + 1
        frame.src, __, frame.dst = self.hops[index]
        frame.priority = self.hop_priorities[index]
        frame.delivered_at = None
        frame.frame_id = self.net.sim.next_frame_id()
        frame.hop = index
        self.hop_buses[index].submit(frame, self)

    def fire(self, frame: Frame) -> None:
        """Completion of one segment frame on hop ``frame.hop``."""
        if frame.hop == self.last_hop:
            done = self.done
            if done is not None:
                self.remaining -= 1
                if self.remaining == 0:
                    done.fire(frame)
            return
        net = self.net
        net.gateway_forwards += 1
        sim = net.sim
        sim.queue.push(
            sim.now + GATEWAY_LATENCY, self.forward, (frame,)
        ).pooled = True


def build_bus(sim: Simulator, spec: BusSpec, gcl: Optional[GateControlList] = None) -> BusModel:
    """Instantiate the right simulator class for a bus spec."""
    if spec.technology == "can":
        return CanBus(sim, spec.name, spec.bitrate_bps)
    if spec.technology == "flexray":
        return FlexRayBus(sim, spec.name, spec.bitrate_bps)
    if spec.technology == "ethernet":
        if spec.tsn_capable:
            return TsnBus(sim, spec.name, spec.bitrate_bps, gcl=gcl)
        return EthernetBus(sim, spec.name, spec.bitrate_bps)
    raise ConfigurationError(f"no simulator for technology {spec.technology!r}")


class VehicleNetwork:
    """All bus segments of a topology plus gateway forwarding."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        gcl: Optional[GateControlList] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.buses: Dict[str, BusModel] = {
            spec.name: build_bus(sim, spec, gcl) for spec in topology.buses
        }
        #: Bus-node names, frozen once — route filtering must not rebuild
        #: this set per call.
        self._bus_names: FrozenSet[str] = frozenset(self.buses)
        self._receivers: Dict[str, Callable[[Frame], None]] = {}
        self.gateway_forwards = 0
        self._failed_buses: set = set()
        self._failed_key: FrozenSet[str] = frozenset()
        #: (src, dst, frozenset(failed_buses)) -> (route, hops)
        self._route_cache: Dict[
            Tuple[str, str, FrozenSet[str]], Tuple[List[str], Tuple[Hop, ...]]
        ] = {}
        #: Bumped whenever the failure set changes; layers caching derived
        #: route data (e.g. middleware segment plans) key on this.
        self.route_epoch = 0
        self.reroutes = 0
        #: (hops, priority, traffic class value) -> (hop buses, hop priorities)
        self._hop_plans: Dict[tuple, Tuple[tuple, tuple]] = {}
        metrics = sim.metrics
        self._m_cache_hit = metrics.counter("net.route_cache.hit")
        self._m_cache_miss = metrics.counter("net.route_cache.miss")
        for ecu in topology.ecus:
            for bus_spec in topology.buses_of(ecu.name):
                self.buses[bus_spec.name].add_listener(
                    ecu.name, partial(self._dispatch_frame, ecu.name)
                )
        self._auto_assign_flexray_slots()
        # snapshot integration: forks find their copy of the network under
        # sim.world["network"]; the topology and its routing graph are
        # immutable structure shared by reference across forks
        sim.adopt("network", self)
        sim.share(topology, topology.graph)

    def _auto_assign_flexray_slots(self) -> None:
        """Give every ECU on a FlexRay cluster one static slot, in
        attachment order — the minimal viable slot plan; callers needing a
        custom layout can use :meth:`FlexRayBus.assign_slot` directly."""
        for spec in self.topology.buses:
            if spec.technology != "flexray":
                continue
            bus = self.buses[spec.name]
            if not isinstance(bus, FlexRayBus):
                continue  # pragma: no cover - build_bus guarantees this
            for slot, ecu in enumerate(self.topology.ecus_on(spec.name)):
                if slot >= bus.config.static_slots:
                    break
                bus.assign_slot(slot, ecu.name)

    # -- endpoint registration ----------------------------------------------

    def register_receiver(self, ecu_name: str, handler: Callable[[Frame], None]) -> None:
        """Install the ECU-level frame handler (one per ECU)."""
        self.topology.ecu(ecu_name)
        self._receivers[ecu_name] = handler

    def unregister_receiver(self, ecu_name: str) -> None:
        """Remove an ECU's handler (ECU failure or shutdown)."""
        self._receivers.pop(ecu_name, None)

    def _dispatch_frame(self, ecu_name: str, frame: Frame) -> None:
        """Per-ECU segment listener (installed as a bound partial)."""
        if frame.dst is not None and frame.dst != ecu_name:
            return
        handler = self._receivers.get(ecu_name)
        if handler is not None:
            handler(frame)

    # -- bus failure & redundant channels -------------------------------------

    def fail_bus(self, bus_name: str) -> None:
        """Take a bus segment out of service (cable cut / guardian shutdown).

        Subsequent sends route around it when the topology offers a
        redundant channel (the RACE-style ring of Section 5.3); otherwise
        they raise :class:`~repro.errors.ConfigurationError` (no path).
        """
        self.bus(bus_name)  # validate
        if bus_name not in self._failed_buses:
            self._failed_buses.add(bus_name)
            self._failed_key = frozenset(self._failed_buses)
            self.route_epoch += 1

    def repair_bus(self, bus_name: str) -> None:
        """Return a failed segment to service."""
        if bus_name in self._failed_buses:
            self._failed_buses.discard(bus_name)
            self._failed_key = frozenset(self._failed_buses)
            self.route_epoch += 1

    @property
    def failed_buses(self) -> List[str]:
        return sorted(self._failed_buses)

    def invalidate_routes(self) -> None:
        """Drop every cached route (call after mutating the topology)."""
        self._route_cache.clear()
        self.topology.invalidate_routes()
        self.route_epoch += 1

    def _resolve(self, src: str, dst: str) -> Tuple[List[str], Tuple[Hop, ...]]:
        """Cached (route, hops) for the current failure set.

        ``reroutes`` counts every resolution performed while at least one
        bus is failed — i.e. sends routed under degraded conditions —
        whether or not the route came from the cache.
        """
        key = (src, dst, self._failed_key)
        entry = self._route_cache.get(key)
        if entry is None:
            self._m_cache_miss.inc()
            route = self.topology.route(src, dst, self._failed_key)
            # route alternates ecu, bus, ecu, bus, ..., ecu
            hops = tuple(
                (route[i], route[i + 1], route[i + 2])
                for i in range(0, len(route) - 1, 2)
            )
            entry = (route, hops)
            self._route_cache[key] = entry
        else:
            self._m_cache_hit.inc()
        if self._failed_key:
            self.reroutes += 1
        return entry

    def _route(self, src: str, dst: str) -> List[str]:
        """Topology route honouring failed segments."""
        return self._resolve(src, dst)[0]

    # -- sending ------------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        payload_bytes: int,
        *,
        priority: int = 0,
        traffic_class: TrafficClass = TrafficClass.NON_DETERMINISTIC,
        payload: object = None,
        label: str = "",
    ) -> Signal:
        """Send a frame end to end, hopping gateways as needed.

        Returns a signal that fires with the final-segment frame once the
        message reaches ``dst``: a one-segment :meth:`send_segments`.
        Payloads exceeding a CAN segment's frame limit raise
        :class:`NetworkError` — segmentation belongs to the transport
        layer in :mod:`repro.middleware`.
        """
        done = self.sim.signal(name=f"net.{src}->{dst}")
        self._send_segments(src, dst, (payload_bytes,), priority,
                            traffic_class, (payload,), label, done)
        return done

    def send_segments(
        self,
        src: str,
        dst: str,
        sizes: Sequence[int],
        *,
        priority: int = 0,
        traffic_class: TrafficClass = TrafficClass.NON_DETERMINISTIC,
        payloads: Optional[Sequence[object]] = None,
        label: str = "",
    ) -> Signal:
        """Submit ``len(sizes)`` related frames along one route, batched.

        The fast path behind middleware segmentation: the route is resolved
        once for the whole batch, per-hop segment priorities are computed
        once, one batch object is the completion sink of every segment on
        every hop (gateway forward or countdown latch), and the returned
        signal fires with the final segment's frame once *all* segments
        have reached ``dst``.  Per-segment delivery order and timing are
        identical to ``len(sizes)`` individual :meth:`send` calls issued
        back-to-back.
        """
        done = self.sim.signal(name=f"net.{src}->{dst}")
        self._send_segments(src, dst, sizes, priority, traffic_class,
                            payloads, label, done)
        return done

    def _send_segments(
        self,
        src: str,
        dst: str,
        sizes: Sequence[int],
        priority: int,
        traffic_class: TrafficClass,
        payloads: Optional[Sequence[object]],
        label: str,
        done: Optional[Signal],
    ) -> None:
        """The batched submit behind :meth:`send` and :meth:`send_segments`.

        ``done`` is the completion sink (like ``BusModel.submit``'s), fired
        with the final segment's frame; ``None`` means nobody waits, and
        the batch then skips the countdown.  The middleware passes
        ``None``: its segment markers carry their own sink.
        """
        __, hops = self._resolve(src, dst)
        n_segments = len(sizes)
        if n_segments == 0:
            if done is not None:
                self.sim.post(0.0, done.fire, None)
            return
        if payloads is None:
            payloads = [None] * n_segments
        # the enum's value string hashes in C; the member's __hash__ is a
        # Python frame per lookup
        plan_key = (hops, priority, traffic_class._value_)
        plan = self._hop_plans.get(plan_key)
        if plan is None:
            hop_buses = tuple(self.buses[bus_name] for (__, bus_name, __) in hops)
            plan = self._hop_plans[plan_key] = (
                hop_buses,
                tuple(
                    self._segment_priority(bus, priority, traffic_class)
                    for bus in hop_buses
                ),
            )
        hop_buses, hop_priorities = plan
        batch = _SegmentBatch(
            self, hops, hop_buses, hop_priorities, traffic_class, label,
            n_segments, done,
        )
        for size, payload in zip(sizes, payloads):
            batch.submit(size, payload)

    @staticmethod
    def _segment_priority(bus: BusModel, priority: int, traffic_class: TrafficClass) -> int:
        """Map a technology-neutral priority onto the segment's scheme.

        The caller passes CAN-style semantics (lower = more urgent, range
        0..2047).  Ethernet wants PCP 0..7 with higher = more urgent, so we
        invert and clamp; deterministic traffic is pinned to PCP 7 (the
        protected TSN class).
        """
        if isinstance(bus, (EthernetBus,)):
            if traffic_class is TrafficClass.DETERMINISTIC:
                return 7
            pcp = 6 - min(priority // 300, 6)
            return max(0, pcp)
        return priority

    def route_buses(self, src: str, dst: str) -> List[BusSpec]:
        """Bus specs along the live route (failed segments excluded)."""
        bus_names = self._bus_names
        return [
            self.topology.bus(node)
            for node in self._route(src, dst)
            if node in bus_names
        ]

    # -- stats ----------------------------------------------------------------

    def bus(self, name: str) -> BusModel:
        """Access one segment simulator by name."""
        try:
            return self.buses[name]
        except KeyError:
            raise NetworkError(f"unknown bus {name!r}") from None

    def total_frames_delivered(self) -> int:
        return sum(bus.frames_delivered for bus in self.buses.values())
