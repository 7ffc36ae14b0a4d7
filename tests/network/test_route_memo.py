"""Tests for the per-process route memo on ``Topology``.

``Topology.route(src, dst, avoid)`` memoises each route on the topology,
which a simulation shares across forks.  The memo must answer exactly
like a fresh ``nx.shortest_path`` on a copy of the graph without the
avoided buses, forget everything when the topology changes, stay out of
pickles, and be shared by forks that still count their own route-cache
hits and misses.
"""

import copy
import itertools
import pickle

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.faults.campaign import redundant_ring_topology
from repro.hw import BusSpec, EcuSpec, Topology
from repro.network import VehicleNetwork
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator

from .test_routing_cache import ring_topology


def fresh_path(topo, src, dst, avoid):
    graph = topo.graph.copy()
    graph.remove_nodes_from(avoid)
    try:
        return nx.shortest_path(graph, src, dst)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def failure_sets(topo):
    names = [bus.name for bus in topo.buses]
    for size in range(len(names) + 1):
        for subset in itertools.combinations(names, size):
            yield frozenset(subset)


def cases(topo):
    ecus = [ecu.name for ecu in topo.ecus]
    for avoid in failure_sets(topo):
        for src, dst in itertools.permutations(ecus, 2):
            yield src, dst, avoid


def cache_counts(sim):
    metrics = sim.metrics
    return (
        metrics.counter("net.route_cache.hit").value,
        metrics.counter("net.route_cache.miss").value,
    )


@pytest.mark.parametrize(
    "make_topology", [redundant_ring_topology, ring_topology],
    ids=["chaos_ring", "routing_cache_ring"],
)
def test_memo_matches_fresh_shortest_path(make_topology):
    topo = make_topology()
    reference = make_topology()
    for _ in range(2):  # the second pass answers from the memo
        for src, dst, avoid in cases(topo):
            expected = fresh_path(reference, src, dst, avoid)
            if expected is None:
                with pytest.raises(ConfigurationError):
                    topo.route(src, dst, avoid)
            else:
                assert topo.route(src, dst, avoid) == expected


@pytest.mark.parametrize(
    "make_topology", [redundant_ring_topology, ring_topology],
    ids=["chaos_ring", "routing_cache_ring"],
)
def test_network_routes_match_fresh_shortest_path(make_topology):
    sim = Simulator()
    net = VehicleNetwork(sim, make_topology())
    reference = make_topology()
    for src, dst, avoid in cases(reference):
        for bus in net.failed_buses:
            net.repair_bus(bus)
        for bus in sorted(avoid):
            net.fail_bus(bus)
        expected = fresh_path(reference, src, dst, avoid)
        if expected is None:
            with pytest.raises(ConfigurationError):
                net.route_buses(src, dst)
        else:
            assert net._route(src, dst) == expected


def test_callers_never_get_the_memo_list():
    topo = ring_topology()
    route = topo.route("sensor", "actuator")
    route.append("junk")
    assert topo.route("sensor", "actuator") == [
        "sensor", "can_a", "gw1", "eth_main", "gw2", "can_b", "actuator"
    ]
    assert topo.route("sensor", "actuator") is not topo.route("sensor", "actuator")


def test_topology_mutation_invalidates_memo():
    topo = ring_topology()
    assert len(topo.route("sensor", "actuator")) == 7
    topo.add_bus(BusSpec("can_x", "can", 500_000.0))
    assert topo._routes == {}
    topo.route("sensor", "actuator")
    topo.add_ecu(EcuSpec("spare", ports=(("can0", "can"),)))
    assert topo._routes == {}
    topo.route("sensor", "actuator")
    # a direct CAN link between the two islands' end nodes
    topo.attach("sensor", "can0", "can_x")
    assert topo._routes == {}
    topo.route("sensor", "actuator")
    topo.attach("actuator", "can0", "can_x")
    assert topo.route("sensor", "actuator") == ["sensor", "can_x", "actuator"]


def test_invalidate_routes_clears_topology_memo():
    sim = Simulator()
    topo = ring_topology()
    net = VehicleNetwork(sim, topo)
    assert net._route("sensor", "actuator")[3] == "eth_main"
    # edit the graph behind the topology's back, then tell the network
    topo.graph.remove_edge("gw1", "eth_main")
    assert net._route("sensor", "actuator")[3] == "eth_main"  # stale
    net.invalidate_routes()
    assert topo._routes == {}
    assert net._route("sensor", "actuator")[3] == "eth_alt"


def test_memo_is_dropped_on_pickle_and_deepcopy():
    topo = ring_topology()
    topo.route("sensor", "actuator")
    topo.route("sensor", "actuator", frozenset({"eth_main"}))
    assert len(topo._routes) == 2
    for clone in (pickle.loads(pickle.dumps(topo)), copy.deepcopy(topo)):
        assert clone._routes == {}
        assert clone.route("sensor", "actuator") == topo.route("sensor", "actuator")
    assert len(topo._routes) == 2


def test_forks_share_memo_but_count_their_own_cache(monkeypatch):
    sim = Simulator(metrics=MetricsRegistry(enabled=True))
    topo = ring_topology()
    VehicleNetwork(sim, topo)
    snapshot = sim.snapshot()
    computed = []
    original = Topology._shortest_path

    def counting(self, src, dst, avoid):
        computed.append((src, dst, avoid))
        return original(self, src, dst, avoid)

    monkeypatch.setattr(Topology, "_shortest_path", counting)

    def degraded_send(world):
        net = world.world["network"]
        net.fail_bus("eth_main")
        net.send("sensor", "actuator", 8, priority=0x100)
        net.send("sensor", "actuator", 8, priority=0x100)
        world.run()
        return net

    fork_a = snapshot.restore()
    fork_b = snapshot.restore()
    net_a = degraded_send(fork_a)
    assert computed == [("sensor", "actuator", frozenset({"eth_main"}))]
    assert cache_counts(fork_a) == (1, 1)
    assert cache_counts(fork_b) == (0, 0)

    net_b = degraded_send(fork_b)
    assert net_b.topology is net_a.topology is topo
    assert len(computed) == 1  # fork B reused fork A's detour
    # each world still misses its own route cache once
    assert cache_counts(fork_b) == (1, 1)
    assert cache_counts(fork_a) == (1, 1)
    assert net_a.reroutes == net_b.reroutes == 2
