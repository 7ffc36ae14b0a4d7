"""E/E network topology: ECUs, buses and their interconnection.

A :class:`Topology` is the hardware-architecture half of the paper's
modeling approach (Section 2.2): "all required ECUs, including all
attributes to be checked ... and the communication network interconnecting
them".  It is a plain data structure (backed by a networkx graph) consumed
by the verification engine, the DSE and the simulation builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

import networkx as nx

from ..errors import ConfigurationError
from .ecu import EcuSpec


@dataclass(frozen=True)
class BusSpec:
    """Static description of one communication segment.

    Attributes:
        name: unique bus identifier ("can_body", "eth_backbone", ...).
        technology: one of "can", "flexray", "ethernet".
        bitrate_bps: raw channel bitrate.
        tsn_capable: Ethernet only — whether 802.1Qbv time-aware shaping is
            available on this segment's switches.
    """

    name: str
    technology: str
    bitrate_bps: float
    tsn_capable: bool = False

    _TECHNOLOGIES = ("can", "flexray", "ethernet")

    def __post_init__(self) -> None:
        if self.technology not in self._TECHNOLOGIES:
            raise ConfigurationError(
                f"bus {self.name!r}: unknown technology {self.technology!r}"
            )
        if self.bitrate_bps <= 0:
            raise ConfigurationError(f"bus {self.name!r}: bitrate must be positive")
        if self.tsn_capable and self.technology != "ethernet":
            raise ConfigurationError(
                f"bus {self.name!r}: TSN is only defined for ethernet"
            )

    @property
    def bytes_per_second(self) -> float:
        return self.bitrate_bps / 8.0


class Topology:
    """The vehicle's hardware architecture: ECUs attached to buses.

    The underlying graph is bipartite — ECU nodes and bus nodes — with an
    edge per (ECU port, bus) attachment.  Gateways are simply ECUs attached
    to more than one bus.

    Routes are memoised per ``(src, dst, avoid)``.  A simulation shares
    its topology across forks (``Simulator.share``), so every world
    forked in one process reuses a route the first one computed.  The
    memo is cleared by every mutation method and by
    :meth:`invalidate_routes`, and it is not pickled.
    """

    def __init__(self, name: str = "vehicle") -> None:
        self.name = name
        self.graph = nx.Graph()
        self._ecus: Dict[str, EcuSpec] = {}
        self._buses: Dict[str, BusSpec] = {}
        #: (src, dst, avoided buses) -> route; a pure function of the graph
        self._routes: Dict[Tuple[str, str, FrozenSet[str]], Tuple[str, ...]] = {}

    def __getstate__(self) -> dict:
        # the memo is a cache: a pickled or deep-copied topology starts
        # with an empty one (the same hygiene as the event queue's free list)
        state = self.__dict__.copy()
        state["_routes"] = {}
        return state

    # -- construction ------------------------------------------------------

    def add_ecu(self, spec: EcuSpec) -> EcuSpec:
        """Register an ECU.  Names must be unique across ECUs and buses."""
        self._check_fresh_name(spec.name)
        self._ecus[spec.name] = spec
        self.graph.add_node(spec.name, kind="ecu", spec=spec)
        self._routes.clear()
        return spec

    def add_bus(self, spec: BusSpec) -> BusSpec:
        """Register a bus segment."""
        self._check_fresh_name(spec.name)
        self._buses[spec.name] = spec
        self.graph.add_node(spec.name, kind="bus", spec=spec)
        self._routes.clear()
        return spec

    def attach(self, ecu_name: str, port: str, bus_name: str) -> None:
        """Connect ECU ``ecu_name``'s ``port`` to bus ``bus_name``.

        The port's declared technology must match the bus technology.
        """
        ecu = self.ecu(ecu_name)
        bus = self.bus(bus_name)
        port_tech = ecu.port_technology(port)
        if port_tech != bus.technology:
            raise ConfigurationError(
                f"cannot attach {ecu_name}.{port} ({port_tech}) "
                f"to {bus_name} ({bus.technology})"
            )
        self.graph.add_edge(ecu_name, bus_name, port=port)
        self._routes.clear()

    def invalidate_routes(self) -> None:
        """Forget every memoised route (call after editing :attr:`graph`
        directly)."""
        self._routes.clear()

    def _check_fresh_name(self, name: str) -> None:
        if name in self._ecus or name in self._buses:
            raise ConfigurationError(f"duplicate topology element {name!r}")

    # -- queries -------------------------------------------------------------

    def ecu(self, name: str) -> EcuSpec:
        """Look up an ECU spec by name."""
        try:
            return self._ecus[name]
        except KeyError:
            raise ConfigurationError(f"unknown ECU {name!r}") from None

    def bus(self, name: str) -> BusSpec:
        """Look up a bus spec by name."""
        try:
            return self._buses[name]
        except KeyError:
            raise ConfigurationError(f"unknown bus {name!r}") from None

    @property
    def ecus(self) -> List[EcuSpec]:
        """All ECU specs, in insertion order."""
        return list(self._ecus.values())

    @property
    def buses(self) -> List[BusSpec]:
        """All bus specs, in insertion order."""
        return list(self._buses.values())

    def buses_of(self, ecu_name: str) -> List[BusSpec]:
        """Buses directly reachable from ``ecu_name``."""
        self.ecu(ecu_name)
        return [
            self._buses[nbr]
            for nbr in self.graph.neighbors(ecu_name)
            if self.graph.nodes[nbr]["kind"] == "bus"
        ]

    def ecus_on(self, bus_name: str) -> List[EcuSpec]:
        """ECUs attached to ``bus_name``."""
        self.bus(bus_name)
        return [
            self._ecus[nbr]
            for nbr in self.graph.neighbors(bus_name)
            if self.graph.nodes[nbr]["kind"] == "ecu"
        ]

    def gateways(self) -> List[EcuSpec]:
        """ECUs attached to more than one bus (potential gateways)."""
        return [e for e in self.ecus if len(self.buses_of(e.name)) > 1]

    def route(
        self, src_ecu: str, dst_ecu: str, avoid: FrozenSet[str] = frozenset()
    ) -> List[str]:
        """Shortest communication path between two ECUs.

        Returns the alternating node list ``[src, bus, (gw, bus)*, dst]``
        that never crosses a bus in ``avoid`` (failed segments).  Each
        call returns a fresh list.

        Raises:
            ConfigurationError: if no path exists.
        """
        key = (src_ecu, dst_ecu, avoid)
        path = self._routes.get(key)
        if path is None:
            path = self._routes[key] = tuple(
                self._shortest_path(src_ecu, dst_ecu, avoid)
            )
        return list(path)

    def _shortest_path(
        self, src_ecu: str, dst_ecu: str, avoid: FrozenSet[str]
    ) -> List[str]:
        self.ecu(src_ecu)
        self.ecu(dst_ecu)
        if not avoid:
            try:
                return nx.shortest_path(self.graph, src_ecu, dst_ecu)
            except nx.NetworkXNoPath:
                raise ConfigurationError(
                    f"no communication path from {src_ecu!r} to {dst_ecu!r}"
                ) from None
        graph = self.graph.copy()
        graph.remove_nodes_from(avoid)
        try:
            return nx.shortest_path(graph, src_ecu, dst_ecu)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            raise ConfigurationError(
                f"no surviving path {src_ecu!r} -> {dst_ecu!r} "
                f"(failed buses: {sorted(avoid)})"
            ) from None

    def route_buses(self, src_ecu: str, dst_ecu: str) -> List[BusSpec]:
        """The bus segments a message crosses from ``src_ecu`` to ``dst_ecu``."""
        return [
            self._buses[node]
            for node in self.route(src_ecu, dst_ecu)
            if node in self._buses
        ]

    def hop_count(self, src_ecu: str, dst_ecu: str) -> int:
        """Number of bus segments between two ECUs (0 if same ECU)."""
        if src_ecu == dst_ecu:
            return 0
        return len(self.route_buses(src_ecu, dst_ecu))

    def is_fully_connected(self) -> bool:
        """Whether every ECU can reach every other ECU."""
        if not self._ecus:
            return True
        nodes = set(self._ecus) | {
            b for b in self._buses if list(self.graph.neighbors(b))
        }
        sub = self.graph.subgraph(nodes)
        ecu_nodes = list(self._ecus)
        if len(ecu_nodes) == 1:
            return True
        try:
            return all(
                nx.has_path(sub, ecu_nodes[0], other) for other in ecu_nodes[1:]
            )
        except nx.NodeNotFound:
            return False

    def total_cost(self) -> float:
        """Aggregate unit cost of all ECUs (used by F1/consolidation)."""
        return sum(e.unit_cost for e in self.ecus)

    def describe(self) -> str:
        """Human-readable topology summary."""
        lines = [f"Topology {self.name!r}: {len(self._ecus)} ECUs, {len(self._buses)} buses"]
        for bus in self.buses:
            members = ", ".join(e.name for e in self.ecus_on(bus.name))
            lines.append(
                f"  {bus.name} ({bus.technology}, "
                f"{bus.bitrate_bps / 1e6:g} Mbit/s): {members}"
            )
        return "\n".join(lines)
