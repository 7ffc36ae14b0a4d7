"""Automatic aliasing of immutable values across forks.

Besides the objects declared with :meth:`Simulator.share`, a snapshot
aliases two kinds of value: enum members, and frozen-dataclass
instances whose fields are recursively immutable and which carry no
extra instance attribute.  These tests pin the rule, its safety
condition (no fork can observe or cause a change to an aliased value),
and that a shipped snapshot restores an equal world.
"""

import dataclasses
import enum
import json
import pickle
from typing import Tuple

import pytest

from repro.faults.campaign import build_campaign_snapshot, start_chaos_workload
from repro.fleet import FleetSpec
from repro.fleet.shard import TAG_NEW, build_fleet_snapshots, simulate_vehicle
from repro.fleet.summary import FleetDigest, TopK
from repro.osal.task import Criticality, TaskSpec
from repro.sim import RngStreams, Simulator, Tracer
from repro.sim.snapshot import SimSnapshot

from .test_snapshot import Ticker, chaos_matrix_spec, trace_json


class Colour(enum.Enum):
    RED = 1
    BLUE = 2


@dataclasses.dataclass(frozen=True)
class Point:
    x: float
    y: float
    colour: Colour = Colour.RED
    tags: Tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class Box:
    corner: Point
    items: object


@dataclasses.dataclass
class Mutable:
    x: int


def build_world():
    sim = Simulator(Tracer())
    Ticker(sim)
    point = Point(1.0, 2.0, Colour.BLUE, ("a", "b"))
    values = {
        "colour": Colour.RED,
        "point": point,
        "nested": Box(point, (Colour.BLUE, frozenset({3}), None)),
        "task": TaskSpec("t", period=0.01, wcet=0.001,
                         criticality=Criticality.DETERMINISTIC),
        "listy": Box(point, [1, 2]),
        "dicty": Box(point, {"k": 1}),
        "mutable_field": Box(point, Mutable(1)),
        "extra": Point(3.0, 4.0),
        "state": [point],
    }
    object.__setattr__(values["extra"], "note", "cached")
    sim.adopt("values", values)
    sim.run(until=0.25)
    return sim, values


ALIASED = ("colour", "point", "nested", "task")
COPIED = ("listy", "dicty", "mutable_field", "extra")


def fleet_spec():
    return FleetSpec(name="alias", size=25, soak_time=0.05, master_seed=3)


def vehicle_digest(spec, snapshots, indices) -> str:
    digest = FleetDigest(worst=TopK(k=spec.top_k))
    for index in indices:
        variant, releases, misses, histograms, report = simulate_vehicle(
            spec, index, TAG_NEW, snapshots
        )
        digest.observe_vehicle(index, variant.variant_id, releases, misses,
                               histograms, report)
    return json.dumps(digest.to_json(), sort_keys=True)


class TestValueRule:
    @pytest.mark.parametrize("make", [
        lambda sim: sim.fork(),
        # a fork of a restored world still aliases the source's values
        lambda sim: sim.snapshot().restore().fork(),
        lambda sim: sim.snapshot().restore(),
    ])
    def test_immutable_values_restore_identical(self, make):
        sim, values = build_world()
        restored = make(sim).world["values"]
        for name in ALIASED:
            assert restored[name] is values[name], name
        # the point inside the nested box and inside the mutable list are
        # the source's point too: aliasing is per object, not per path
        assert restored["nested"].corner is values["point"]
        assert restored["state"][0] is values["point"]
        assert restored["state"] is not values["state"]

    def test_mutable_or_extended_dataclass_is_copied(self):
        sim, values = build_world()
        restored = sim.fork().world["values"]
        for name in COPIED:
            assert restored[name] is not values[name], name
            assert restored[name] == values[name], name
        assert restored["listy"].items is not values["listy"].items
        assert restored["extra"].note == "cached"
        # a copied box still aliases its immutable field
        assert restored["listy"].corner is values["point"]

    def test_explicit_share_still_aliases_mutable_types(self):
        sim, values = build_world()
        registry = {"topology": ("a", "b")}
        sim.share(registry)
        sim.adopt("registry", registry)
        fork = sim.fork()
        assert fork.world["registry"] is registry
        assert fork._shared == [registry]
        # automatic values never join the explicit list
        assert fork.world["values"]["point"] not in fork._shared

    def test_fork_continues_like_source(self):
        sim, _ = build_world()
        fork = sim.fork()
        sim.run()
        fork.run()
        assert trace_json(fork) == trace_json(sim)


class TestForksLeaveValuesUntouched:
    @staticmethod
    def aliased_bytes(snap):
        # the persistent-id table lists the explicit shares first (their
        # pickles may change with lazy caches, e.g. networkx's ``adj``
        # view), then the automatically aliased values
        values = snap._shared[len(snap.restore()._shared):]
        assert values, "nothing was aliased"
        return [pickle.dumps(v, pickle.HIGHEST_PROTOCOL) for v in values]

    def test_25_fleet_forks(self):
        spec = fleet_spec()
        snapshots = build_fleet_snapshots(spec, tags=(TAG_NEW,))
        before = {key: self.aliased_bytes(s) for key, s in snapshots.items()}
        kinds = [type(v) for s in snapshots.values() for v in s._shared]
        assert TaskSpec in kinds
        assert any(issubclass(kind, enum.Enum) for kind in kinds)
        vehicle_digest(spec, snapshots, range(25))
        after = {key: self.aliased_bytes(s) for key, s in snapshots.items()}
        assert after == before

    def test_25_chaos_forks(self):
        spec = chaos_matrix_spec()
        snap = build_campaign_snapshot(spec)
        before = self.aliased_bytes(snap)
        for seed in range(25):
            world = snap.restore()
            start_chaos_workload(world, world.world["chaos"], spec,
                                 RngStreams(seed))
            world.run(until=world.now + 0.1)
        assert self.aliased_bytes(snap) == before

    def test_to_bytes_restores_an_equal_world(self):
        spec = fleet_spec()
        snapshots = build_fleet_snapshots(spec, tags=(TAG_NEW,))
        shipped = {key: SimSnapshot.from_bytes(s.to_bytes())
                   for key, s in snapshots.items()}
        assert (vehicle_digest(spec, shipped, range(8))
                == vehicle_digest(spec, snapshots, range(8)))
        sim, _ = build_world()
        local = sim.snapshot().restore()
        remote = SimSnapshot.from_bytes(sim.snapshot().to_bytes()).restore()
        local.run()
        remote.run()
        assert trace_json(remote) == trace_json(local)
        assert remote.world["values"] == local.world["values"]
