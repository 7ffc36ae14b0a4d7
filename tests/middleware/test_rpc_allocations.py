"""Allocation guard for the RPC round trip.

A steady-state RPC round trip (request out, response back, result fired)
builds exactly one :class:`~repro.sim.Signal`, the call's result, and
hashes no ``Enum`` member: the endpoint and network tables are keyed by
the enums' value strings, and the request, the response and their
network batches carry no completion signal nobody waits on.  The public
``Endpoint.send`` and ``VehicleNetwork.send_segments`` still return
signals that fire as before.
"""

import cProfile
import enum

import pytest

from repro.faults.campaign import redundant_ring_topology
from repro.middleware import (
    QOS_CONTROL,
    Endpoint,
    Message,
    MessageType,
    RetryPolicy,
    RpcClient,
    RpcServer,
    ServiceRegistry,
)
from repro.network import VehicleNetwork
from repro.sim import Signal, Simulator

from .test_fastpath import bridged_world, msg

SERVICE = 0x500
ROUND_TRIPS = 20


def ring_world():
    sim = Simulator()
    net = VehicleNetwork(sim, redundant_ring_topology(2))
    registry = ServiceRegistry()
    server = Endpoint(sim, net, "platform_0", registry)
    client = Endpoint(sim, net, "platform_1", registry)
    return sim, server, client


def bridged_rpc_world():
    sim, __, endpoints = bridged_world()
    return sim, endpoints["brain"], endpoints["sensor"]


class Caller:
    """Back-to-back calls with a per-attempt timeout and retries."""

    def __init__(self, sim, client: RpcClient, rounds: int) -> None:
        self.sim = sim
        self.client = client
        self.rounds = rounds
        self.responses = []

    def issue(self) -> None:
        result = self.client.call(1, payload_bytes=32, qos=QOS_CONTROL,
                                  timeout=0.05, retry=RetryPolicy())
        result.add_callback(self.on_response)

    def on_response(self, response) -> None:
        self.responses.append(response)
        if len(self.responses) < self.rounds:
            self.sim.post(0.01, self.issue)


def calls_to(stats, function) -> int:
    code = function.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    entry = stats.get(key)
    return entry[1] if entry else 0


@pytest.mark.parametrize("world", [ring_world, bridged_rpc_world],
                         ids=["tsn_ring", "can_gateway_ethernet"])
def test_round_trip_builds_one_signal_and_hashes_no_enum(world):
    sim, server_ep, client_ep = world()
    server = RpcServer(server_ep, SERVICE, provider_app="srv")
    server.register_method(1, lambda request: ("pong", 8))
    client = RpcClient(client_ep, SERVICE, client_app="cli")
    # warm-up: fills the route, send-plan, label and hop-plan tables
    Caller(sim, client, 3).issue()
    sim.run()

    caller = Caller(sim, client, ROUND_TRIPS)
    profiler = cProfile.Profile()
    profiler.enable()
    caller.issue()
    sim.run()
    profiler.disable()
    profiler.create_stats()

    assert len(caller.responses) == ROUND_TRIPS
    assert all(r is not None and r.payload == "pong" for r in caller.responses)
    assert calls_to(profiler.stats, Signal.__init__) == ROUND_TRIPS
    assert calls_to(profiler.stats, enum.Enum.__hash__) == 0


class TestPublicSignals:
    def test_endpoint_send_fires_with_the_message(self):
        sim, __, endpoints = bridged_world()
        received = []
        endpoints["brain"].on_any_message(received.append)
        message = msg(100)  # 116 B over CAN: many segments, one gateway
        done = endpoints["sensor"].send(message)
        assert isinstance(done, Signal)
        sim.run()
        assert done.fired
        assert done.value is message
        assert received == [message]

    def test_local_send_fires_with_the_message(self):
        sim, __, endpoints = bridged_world()
        message = msg(8, dst="sensor")
        done = endpoints["sensor"].send(message)
        sim.run()
        assert done.fired and done.value is message

    def test_send_segments_fires_with_the_final_frame(self):
        sim, net, __ = bridged_world()
        done = net.send_segments("sensor", "brain", [8, 8, 5],
                                 priority=0x100, payloads=["a", "b", "c"],
                                 label="batch")
        assert isinstance(done, Signal)
        sim.run()
        assert done.fired
        assert done.value.payload == "c"
        assert done.value.dst == "brain"
        assert done.value.payload_bytes == 5

    def test_message_type_keys_still_dispatch(self):
        sim, __, endpoints = bridged_world()
        got = []
        endpoints["brain"].on_message(0x42, MessageType.REQUEST, got.append)
        request = Message(service_id=0x42, method_id=1,
                          msg_type=MessageType.REQUEST, payload_bytes=4,
                          src="sensor", dst="brain")
        endpoints["sensor"].send(request)
        endpoints["sensor"].send(msg(4))  # a notification: not handled
        sim.run()
        assert got == [request]
