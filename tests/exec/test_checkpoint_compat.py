"""Checkpoint directories written by older trees must keep resuming.

``data/parent_fleet_campaign`` is a complete checkpoint directory of a
small fleet campaign, written while ``Histogram`` still pickled through
copyreg's per-object slot-state dict.  Such records must keep loading —
``CHECKPOINT_SCHEMA`` stays 1 — and a resume over them must reproduce a
clean run's digest without simulating a single vehicle.

``data/parent_campaign_sweep`` and ``data/parent_fault_campaign`` are
complete directories of the other two campaign kinds, written before
both ran on the :mod:`repro.exec.recovery` campaign spine.  Resuming
them must equal a clean run without simulating a replication, so a
pickled spec or outcome class that moves, or a drifting ``plan_key``,
fails here.
"""

import dataclasses
import json
import os
import pickle
import shutil

import pytest

from repro.exec.recovery import (
    CHECKPOINT_SCHEMA,
    CheckpointSpec,
    CheckpointStore,
    load_manifest,
    resume_campaign,
)
from repro.core.campaign import CampaignSpec
from repro.faults import FaultCampaignSpec, FaultPlan, FaultSpec
from repro.faults import campaign as faults_campaign
from repro.fleet import (
    FleetCampaignSpec,
    FleetSpec,
    run_fleet_campaign,
    sweep_campaigns,
)
from repro.fleet import sweep as fleet_sweep
from repro.obs.metrics import Histogram

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DATA = os.path.join(DATA_DIR, "parent_fleet_campaign")


def compat_spec():
    """The spec the fixture directory was written with."""
    return FleetCampaignSpec(
        fleet=FleetSpec(name="compat", size=12, soak_time=0.02,
                        master_seed=5),
        stages=(0.25, 1.0), shard_size=3,
    )


def canonical(digest):
    return json.dumps(digest, sort_keys=True)


def copy_fixture(tmp_path, source=DATA):
    directory = str(tmp_path / "ckpt")
    shutil.copytree(source, directory)
    return directory


def test_schema_is_unchanged():
    assert CHECKPOINT_SCHEMA == 1
    assert load_manifest(DATA)["schema"] == CHECKPOINT_SCHEMA


def test_fixture_holds_slot_state_histograms():
    # the fixture really is the old wire format: slot names on the wire
    records = [n for n in os.listdir(DATA) if n.endswith(".ckpt")]
    assert len(records) == 4
    for name in records:
        with open(os.path.join(DATA, name), "rb") as fh:
            assert b"_buckets" in fh.read()


def test_old_records_load(tmp_path):
    store = CheckpointStore(
        CheckpointSpec(copy_fixture(tmp_path)), kind="fleet_campaign",
        plan=compat_spec(),
    )
    records = store.load()
    assert store.discarded == 0
    assert store.loaded == len(records) == 4
    for value, _ in records.values():
        hist = value.response
        assert isinstance(hist, Histogram) and hist.count > 0
        # a loaded old-format histogram re-pickles, in the new format, to
        # an equal instrument
        again = pickle.loads(pickle.dumps(hist))
        assert again.snapshot() == hist.snapshot()
        assert again._buckets == hist._buckets
        assert again._partials == hist._partials


def test_resume_over_old_records_equals_clean_run(tmp_path, monkeypatch):
    from repro.fleet import shard as shard_mod

    reference = canonical(run_fleet_campaign(compat_spec()).campaign_digest)
    simulated = []
    real = shard_mod.simulate_vehicle

    def counting(spec_, index, tag, snapshots=None):
        simulated.append((index, tag))
        return real(spec_, index, tag, snapshots)

    monkeypatch.setattr(shard_mod, "simulate_vehicle", counting)
    result = resume_campaign(copy_fixture(tmp_path))
    assert canonical(result.campaign_digest) == reference
    assert simulated == []


def sweep_run(**options):
    """The sweep ``data/parent_campaign_sweep`` was written with."""
    spec = CampaignSpec(fleet_size=2, soak_time=0.2, settle_time=0.1,
                        target_wcet=0.004, target_wcet_jitter=0.004,
                        target_deadline=0.002)
    return sweep_campaigns(spec, replications=3, master_seed=5, **options)


def fault_run(**options):
    """The campaign ``data/parent_fault_campaign`` was written with."""
    plan = FaultPlan(name="compat", faults=(
        FaultSpec(kind="frame_drop", target="eth_backbone", start=0.02,
                  duration=0.1, probability=0.3),
    ))
    spec = FaultCampaignSpec(plan=plan, soak_time=0.15)
    return faults_campaign.run_fault_campaign(
        spec, replications=3, master_seed=7, **options)


@pytest.mark.parametrize("fixture, module, attr, clean, kind", [
    ("parent_campaign_sweep", fleet_sweep, "SWEEP", sweep_run,
     "campaign_sweep"),
    ("parent_fault_campaign", faults_campaign, "CHAOS", fault_run,
     "fault_campaign"),
])
def test_resume_other_kinds_equals_clean_run(tmp_path, monkeypatch, fixture,
                                             module, attr, clean, kind):
    source = os.path.join(DATA_DIR, fixture)
    assert load_manifest(source)["kind"] == kind
    reference = clean()
    simulated = []
    replication = getattr(module, attr)

    def counting(sim, base, spec, job_id, rng):
        simulated.append(job_id)
        return replication.replicate(sim, base, spec, job_id, rng)

    monkeypatch.setattr(module, attr,
                        dataclasses.replace(replication, replicate=counting))
    directory = copy_fixture(tmp_path, source)
    for fork in (True, False):
        result = resume_campaign(directory, fork=fork)
        assert result.outcomes == reference.outcomes
        assert canonical(result.digest) == canonical(reference.digest)
    assert simulated == []
    # the counting hook is live: a fresh directory does simulate
    clean(checkpoint=CheckpointSpec(str(tmp_path / "fresh")))
    assert len(simulated) == len(reference.outcomes)
