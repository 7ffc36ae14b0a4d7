"""Fork-per-variant must equal rebuild-per-variant, bit for bit.

Every fan-out site grew a fork path (shared warmed-up snapshot, variants
restore and run only their own half).  These tests pin the tentpole
guarantee: ``fork=True`` and ``fork=False`` produce identical outcomes
AND identical merged digests — same event counts, same metrics — for the
fault campaign, the fleet sweep and the XiL battery.
"""

from repro.core.campaign import CampaignSpec
from repro.faults import FaultCampaignSpec, FaultPlan, FaultSpec
from repro.faults.campaign import run_fault_campaign
from repro.fleet import sweep_campaigns
from repro.xil import ScenarioSpec, run_battery

CHAOS_SPEC = FaultCampaignSpec(
    plan=FaultPlan(
        name="eq",
        faults=(
            FaultSpec(kind="ecu_crash", target="platform_0", start=0.05,
                      duration=0.2),
            FaultSpec(kind="frame_drop", target="eth_backbone", start=0.02,
                      duration=0.2, probability=0.3),
        ),
    ),
    soak_time=0.3,
)

FLEET_SPEC = CampaignSpec(fleet_size=2, soak_time=0.3, target_wcet=0.004,
                          target_wcet_jitter=0.004, target_deadline=0.002)

SCENARIOS = [
    ScenarioSpec(name="nominal", level="SiL", duration=4.0),
    ScenarioSpec(name="dropout", level="SiL", duration=4.0,
                 sensor_dropout_window=(2.5, 3.0)),
    ScenarioSpec(name="stuck", level="SiL", duration=4.0,
                 sensor_stuck_at=10.0),  # ineligible: falls back to rebuild
    ScenarioSpec(name="mil", level="MiL", duration=4.0),
]


class TestFaultCampaignForkEquality:
    def test_outcomes_and_digest_identical(self):
        forked = run_fault_campaign(CHAOS_SPEC, replications=3,
                                    master_seed=11, fork=True)
        rebuilt = run_fault_campaign(CHAOS_SPEC, replications=3,
                                     master_seed=11, fork=False)
        assert forked.outcomes == rebuilt.outcomes
        assert forked.digest["metrics"] == rebuilt.digest["metrics"]


class TestFleetSweepForkEquality:
    def test_outcomes_and_digest_identical(self):
        forked = sweep_campaigns(FLEET_SPEC, replications=3,
                                 master_seed=11, fork=True)
        rebuilt = sweep_campaigns(FLEET_SPEC, replications=3,
                                  master_seed=11, fork=False)
        assert forked.outcomes == rebuilt.outcomes
        assert forked.digest["metrics"] == rebuilt.digest["metrics"]


class TestBatteryForkEquality:
    def test_verdicts_identical_including_ineligible_scenarios(self):
        forked = run_battery(SCENARIOS, master_seed=11, fork=True)
        rebuilt = run_battery(SCENARIOS, master_seed=11, fork=False)
        assert [v.name for v in forked.verdicts] == \
               [v.name for v in rebuilt.verdicts]
        for fv, rv in zip(forked.verdicts, rebuilt.verdicts):
            assert fv == rv  # overshoot/settling/error/samples bitwise equal
