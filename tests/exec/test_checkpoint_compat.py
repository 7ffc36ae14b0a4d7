"""Checkpoint records written before instruments pickled compactly.

``data/parent_fleet_campaign`` is a complete checkpoint directory of a
small fleet campaign, written while ``Histogram`` still pickled through
copyreg's per-object slot-state dict.  Such records must keep loading —
``CHECKPOINT_SCHEMA`` stays 1 — and a resume over them must reproduce a
clean run's digest without simulating a single vehicle.
"""

import json
import os
import pickle
import shutil

from repro.exec.recovery import (
    CHECKPOINT_SCHEMA,
    CheckpointSpec,
    CheckpointStore,
    load_manifest,
    resume_campaign,
)
from repro.fleet import FleetCampaignSpec, FleetSpec, run_fleet_campaign
from repro.obs.metrics import Histogram

DATA = os.path.join(os.path.dirname(__file__), "data", "parent_fleet_campaign")


def compat_spec():
    """The spec the fixture directory was written with."""
    return FleetCampaignSpec(
        fleet=FleetSpec(name="compat", size=12, soak_time=0.02,
                        master_seed=5),
        stages=(0.25, 1.0), shard_size=3,
    )


def canonical(digest):
    return json.dumps(digest, sort_keys=True)


def copy_fixture(tmp_path):
    directory = str(tmp_path / "ckpt")
    shutil.copytree(DATA, directory)
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
