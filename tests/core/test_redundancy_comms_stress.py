"""Failover under concurrent communication stress.

The primary's node crashes at the same instant the Ethernet backbone
goes down.  The heartbeat supervision must still detect the failure and
promote a standby, while every frame — heartbeat bookkeeping, the
service re-offer, client RPC — is rerouted over the ring segment via the
route-cache epoch invalidation introduced with the comms fast path.
"""

from repro.faults import (
    FaultCampaignSpec,
    FaultPlan,
    FaultSpec,
    build_chaos_scenario,
)
from repro.sim import Simulator

FAULT_TIME = 0.1

STRESS_PLAN = FaultPlan(
    name="crash_plus_backbone_loss",
    faults=(
        # both permanent, both at the same instant: the failover races
        # the reroute
        FaultSpec(kind="ecu_crash", target="platform_0", start=FAULT_TIME),
        FaultSpec(kind="bus_outage", target="eth_backbone", start=FAULT_TIME),
    ),
)


def stressed_world():
    spec = FaultCampaignSpec(plan=STRESS_PLAN, soak_time=0.5)
    sim = Simulator()
    scenario = build_chaos_scenario(sim, spec, 5)
    return sim, spec, scenario


class TestFailoverUnderCommsStress:
    def test_failover_completes_while_backbone_is_down(self):
        sim, spec, scenario = stressed_world()
        sim.run(until=sim.now + spec.soak_time)
        manager = scenario["manager"]
        failovers = manager.all_failovers()
        assert len(failovers) == 1
        event = failovers[0]
        assert event.failed_node == "platform_0"
        assert event.new_primary_node == "platform_1"
        # detection is bounded by the heartbeat period, promotion by the
        # fixed promotion latency — the bus outage must not stretch either
        assert event.detection_time - event.failure_time <= spec.heartbeat_period + 1e-9
        assert event.interruption < 2 * spec.heartbeat_period

    def test_route_epoch_bumped_and_traffic_rerouted(self):
        sim, spec, scenario = stressed_world()
        net = scenario["platform"].network
        probes = {}

        def snapshot():
            probes["epoch"] = net.route_epoch
            probes["ring"] = net.bus("eth_ring").frames_delivered
            probes["backbone"] = net.bus("eth_backbone").frames_delivered

        sim.schedule(FAULT_TIME - 0.001, snapshot)
        sim.run(until=sim.now + spec.soak_time)
        # fail_bus (and the node loss) invalidated every cached route
        assert net.route_epoch > probes["epoch"]
        assert "eth_backbone" in net._failed_buses
        # all post-fault traffic detoured over the ring segment
        assert net.bus("eth_ring").frames_delivered > probes["ring"]
        assert net.bus("eth_backbone").frames_delivered == probes["backbone"]

    def test_service_keeps_answering_after_reroute(self):
        sim, spec, scenario = stressed_world()
        caller = scenario["caller"]
        at_fault = {}
        sim.schedule(FAULT_TIME, lambda: at_fault.setdefault("n", caller.successes))
        sim.run(until=sim.now + spec.soak_time)
        client = scenario["client"]
        # calls before the fault succeeded on the backbone, calls after it
        # on the ring — and the retry policy hid the transition
        assert at_fault["n"] > 5
        assert caller.successes > at_fault["n"] + 10
        assert client.failures == 0
