"""Campaign service tests: staged waves, halt/rollback, admission."""

import pytest

from repro.errors import UpdateError
from repro.fleet import (
    CampaignAdmission,
    FleetCampaign,
    FleetCampaignSpec,
    FleetService,
    FleetSpec,
    run_fleet_campaign,
)


def healthy_spec(size=60, **kwargs):
    return FleetCampaignSpec(
        fleet=FleetSpec(size=size, soak_time=0.03, master_seed=2,
                        spike_probability=0.0),
        stages=(0.05, 0.4, 1.0),
        **kwargs,
    )


def buggy_spec(size=60, **kwargs):
    return FleetCampaignSpec(
        fleet=FleetSpec(
            size=size, soak_time=0.03, master_seed=2,
            regression_overrun=30.0,
        ),
        stages=(0.05, 0.4, 1.0),
        **kwargs,
    )


class TestFleetCampaign:
    def test_healthy_rollout_updates_whole_fleet(self):
        result = run_fleet_campaign(healthy_spec())
        assert not result.halted
        assert result.vehicles_updated == 60
        assert [w.wave for w in result.waves] == [1, 2, 3]
        assert result.waves[-1].stop == 60
        assert result.campaign_digest["vehicles"] == 60

    def test_staged_waves_grow_canary_first(self):
        result = run_fleet_campaign(healthy_spec())
        sizes = [w.stop - w.start for w in result.waves]
        assert sizes == [3, 21, 36]  # 5 %, 40 %, 100 % of 60

    def test_regression_halts_at_canary(self):
        """The halt demo: the injected overrun floods the canary wave's
        digest with misses; the campaign halts before the cohort wave and
        rolls the canary back to the old version."""
        result = run_fleet_campaign(buggy_spec())
        assert result.halted and result.rolled_back
        assert result.vehicles_updated == 0
        new_waves = [w for w in result.waves if w.tag == "new"]
        assert len(new_waves) == 1  # only the canary saw the bad version
        assert new_waves[0].halted
        assert new_waves[0].miss_ratio > 0.05
        rollback = [w for w in result.waves if w.tag == "old"]
        assert len(rollback) == 1
        assert rollback[0].miss_ratio <= 0.05  # old version is healthy
        # the campaign digest reflects the restored (rolled-back) state
        assert result.campaign_digest["vehicles"] == (
            new_waves[0].stop - new_waves[0].start
        )

    def test_one_percent_canary_halts_and_spares_the_fleet(self):
        spec = FleetCampaignSpec(
            fleet=FleetSpec(name="halt", size=200, soak_time=0.05,
                            master_seed=20, regression_overrun=30.0),
            stages=(0.01, 0.1, 1.0),
        )
        result = run_fleet_campaign(spec)
        assert result.halted and result.rolled_back
        assert result.vehicles_updated == 0
        assert [(w.tag, w.stop - w.start) for w in result.waves] == [
            ("new", 2), ("old", 2)]

    def test_step_is_incremental(self):
        campaign = FleetCampaign(healthy_spec(size=20))
        outcomes = []
        while not campaign.done:
            outcomes.append(campaign.step())
        assert campaign.step() is None
        assert len(outcomes) == len(campaign.waves)
        assert campaign.result.vehicles_updated == 20

    def test_empty_fleet_rejected(self):
        with pytest.raises(UpdateError):
            FleetCampaign(FleetCampaignSpec(fleet=FleetSpec(size=0)))


class TestAdmission:
    def test_active_queue_reject_progression(self):
        admission = CampaignAdmission(max_active=1, max_queued=1)
        assert admission.admit("a") == "active"
        assert admission.admit("b") == "queued"
        assert admission.admit("c") == "rejected"
        assert admission.rejected == 1

    def test_release_promotes_queued(self):
        admission = CampaignAdmission(max_active=1, max_queued=2)
        admission.admit("a")
        admission.admit("b")
        assert admission.release("a") == "b"
        assert admission.active == ["b"]

    def test_bounds_validated(self):
        with pytest.raises(UpdateError):
            CampaignAdmission(max_active=0)
        with pytest.raises(UpdateError):
            CampaignAdmission(max_queued=-1)

    def test_release_of_unknown_ticket_is_a_noop(self):
        admission = CampaignAdmission(max_active=1, max_queued=1)
        admission.admit("a")
        assert admission.release("ghost") is None
        assert admission.active == ["a"]
        # double release must not free somebody else's slot either
        admission.release("a")
        assert admission.release("a") is None

    def test_release_of_queued_ticket_dequeues_it(self):
        admission = CampaignAdmission(max_active=1, max_queued=2)
        admission.admit("a")
        admission.admit("b")
        assert admission.release("b") is None  # cancelled while queued
        assert list(admission.queued) == []
        assert admission.active == ["a"]


class TestFleetService:
    def small(self, **kwargs):
        return FleetCampaignSpec(
            fleet=FleetSpec(size=8, soak_time=0.02, master_seed=1,
                            spike_probability=0.0, **kwargs),
            stages=(0.25, 1.0),
        )

    def test_concurrent_campaigns_bounded(self):
        service = FleetService(
            admission=CampaignAdmission(max_active=1, max_queued=1)
        )
        t1, s1 = service.submit(self.small())
        t2, s2 = service.submit(self.small())
        t3, s3 = service.submit(self.small())
        assert (s1, s2, s3) == ("active", "queued", "rejected")
        done = service.run_until_idle()
        assert sorted(done) == sorted([t1, t2])
        assert all(r.completed for r in done.values())
        assert t3 not in done

    def test_waves_interleave_across_active_campaigns(self):
        service = FleetService(
            admission=CampaignAdmission(max_active=2, max_queued=0)
        )
        service.submit(self.small())
        service.submit(self.small())
        assert service.step()  # one wave each, both still active
        assert len(service.completed) == 0
        service.run_until_idle()
        assert len(service.completed) == 2

    def test_crashed_campaign_releases_its_admission_slot(self):
        """A campaign that dies with an exception must not shrink the
        admission capacity for everyone else (the slot-leak regression)."""
        service = FleetService(
            admission=CampaignAdmission(max_active=1, max_queued=1)
        )
        t1, s1 = service.submit(self.small())
        t2, s2 = service.submit(self.small())
        assert (s1, s2) == ("active", "queued")

        def explode():
            raise RuntimeError("wave blew up")

        service._campaigns[t1].step = explode
        service.step()
        assert t1 in service.failed
        assert "wave blew up" in service.failed[t1]
        assert t1 not in service._campaigns
        # the queued campaign was promoted into the freed slot and the
        # service still drains to idle at full capacity
        assert service.admission.active == [t2]
        done = service.run_until_idle()
        assert t2 in done and done[t2].completed
        t3, s3 = service.submit(self.small())
        assert s3 == "active", "crashed campaign leaked its slot"
        service.run_until_idle()

    def test_halted_campaign_completes_with_halt_flag(self):
        service = FleetService()
        ticket, state = service.submit(
            FleetCampaignSpec(
                fleet=FleetSpec(
                    size=8, soak_time=0.02, master_seed=1,
                    regression_overrun=30.0,
                ),
                stages=(0.25, 1.0),
            )
        )
        assert state == "active"
        done = service.run_until_idle()
        assert done[ticket].halted and done[ticket].rolled_back
