"""Compact instrument pickling and the per-job collect path.

Counters, gauges and histograms pickle through ``__reduce__`` to a flat
state tuple, and a registry to a flat entry list whose identities are
interned on load.  These tests pin that every field round-trips
exactly, that handles shared between a component and the registry stay
one object across a snapshot restore, that ``snapshot()``, ``absorb()``
and ``merge()`` output is byte-identical to the committed golden file,
and that pickles written by older trees still load.
"""

import base64
import copy
import inspect
import json
import os
import pickle

import pytest

from repro.fleet import FleetDigest
from repro.obs import MetricsRegistry
from repro.obs.metrics import (
    _IDENTITIES,
    _ZEROS,
    Counter,
    Gauge,
    Histogram,
    _histogram,
    _scalar,
    identity,
)
from repro.sim import Simulator

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_collect.json")

FIELDS = {
    Counter: ("name", "labels", "_enabled", "value"),
    Gauge: ("name", "labels", "_enabled", "value"),
    Histogram: ("name", "labels", "_enabled", "count", "min", "max",
                "growth", "_log_growth", "_buckets", "_zero_count",
                "_partials", "_pending"),
}


def state(instrument):
    """Every slot, pending histogram values folded first."""
    if isinstance(instrument, Histogram):
        instrument._fold()
    return tuple(getattr(instrument, f) for f in FIELDS[type(instrument)])


def filled_histogram(enabled=True):
    hist = Histogram("lat", (("core", "c0"),), True, growth=1.25)
    for value in (0.0, -2.5, 1e-9, 0.1, 0.1, 3.0, 1e6, 7.25, 1e-16):
        hist.observe(value)
    hist._enabled = enabled
    return hist


def scalar(cls, value, enabled=True):
    instrument = cls("x", (("bus", "can0"), ("dir", "tx")), enabled)
    instrument.value = value
    return instrument


def registry_a():
    reg = MetricsRegistry()
    reg.counter("net.frames", bus="can0").inc(3)
    reg.counter("net.frames", bus="eth0").inc(0.5)
    reg.counter("solo", n=1).inc()
    reg.gauge("queue.depth", bus="can0").set(4)
    reg.gauge("temp").set(-3.5)
    reg.gauge("only_a").set(-1.0)
    hist = reg.histogram("os.response", core="c0")
    for value in (0.001, 0.002, 0.0025, 0.0, 0.5):
        hist.observe(value)
    wide = reg.histogram("wide", growth=1.5)
    wide.observe(10.0)
    return reg


def registry_b():
    reg = MetricsRegistry()
    reg.counter("net.frames", bus="can0").inc(2)
    reg.counter("net.frames", bus="can1").inc(7)
    reg.gauge("queue.depth", bus="can0").set(2)
    reg.gauge("temp").set(-7.0)
    reg.gauge("only_b").set(-2.0)
    # same full name as a gauge would sort by insertion order
    reg.counter("temp").inc(1)
    hist = reg.histogram("os.response", core="c0")
    for value in (0.003, -0.001, 0.0015):
        hist.observe(value)
    reg.histogram("os.response", core="c1").observe(0.25)
    reg.histogram("empty")
    return reg


def collect_outputs():
    """Every collect-path output, in the exact order it is produced."""
    a, b = registry_a(), registry_b()
    absorbed = MetricsRegistry()
    absorbed.absorb(a)
    absorbed.absorb(b)
    absorbed.absorb(a)
    merged_ab = MetricsRegistry()
    merged_ab.merge(a)
    merged_ab.merge(b)
    merged_ba = MetricsRegistry()
    merged_ba.merge(b)
    merged_ba.merge(a)
    into_a = registry_a()
    into_a.merge(b)
    return {
        "a": a.snapshot(),
        "b": b.snapshot(),
        "absorbed": absorbed.snapshot(),
        "absorbed_order": [i.full_name for i in absorbed],
        "merged_ab": merged_ab.snapshot(),
        "merged_ba": merged_ba.snapshot(),
        "into_a": into_a.snapshot(),
        "render": absorbed.render(),
    }


class TestRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda: scalar(Counter, 41.5),
        lambda: scalar(Counter, 2.0, enabled=False),
        lambda: scalar(Gauge, -3.25),
        lambda: filled_histogram(),
        lambda: filled_histogram(enabled=False),
        lambda: Histogram("empty", (), True, growth=1.1),
    ])
    @pytest.mark.parametrize("copier", [
        lambda obj: pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)),
        lambda obj: pickle.loads(pickle.dumps(obj, 2)),
        copy.deepcopy,
    ])
    def test_every_field_survives(self, make, copier):
        source = make()
        restored = copier(source)
        assert type(restored) is type(source)
        assert restored is not source
        assert state(restored) == state(source)
        assert restored.snapshot() == source.snapshot()
        if isinstance(source, Histogram):
            assert restored._buckets is not source._buckets
            assert restored._partials is not source._partials

    def test_restored_instruments_keep_working(self):
        hist = pickle.loads(pickle.dumps(filled_histogram()))
        hist.observe(2.0)
        reference = filled_histogram()
        reference.observe(2.0)
        assert state(hist) == state(reference)
        counter = pickle.loads(pickle.dumps(scalar(Counter, 1.0)))
        counter.inc(2)
        assert counter.value == 3.0

    def test_pickle_is_compact(self):
        hist = filled_histogram()
        registry = MetricsRegistry()
        for n in range(20):
            registry.counter("c", n=n).inc(n)
        # no per-object slot-state dict: slot names never hit the wire
        blob = pickle.dumps(registry, pickle.HIGHEST_PROTOCOL)
        assert b"labels" not in blob and b"value" not in blob
        assert b"_buckets" not in pickle.dumps(hist, pickle.HIGHEST_PROTOCOL)


class Component:
    def __init__(self, metrics):
        self.sent = metrics.counter("comp.sent", port="p0")
        self.depth = metrics.gauge("comp.depth")
        self.latency = metrics.histogram("comp.latency", port="p0")


class TestSnapshotRestore:
    def build(self):
        sim = Simulator(metrics=MetricsRegistry())
        comp = Component(sim.metrics)
        comp.sent.inc(5)
        comp.depth.set(3)
        for value in (0.1, 0.0, 0.3):
            comp.latency.observe(value)
        sim.adopt("comp", comp)
        return sim

    @pytest.mark.parametrize("make", [
        lambda sim: sim.snapshot().restore(),
        lambda sim: sim.fork(),
        lambda sim: copy.deepcopy(sim),
    ])
    def test_component_and_registry_share_handles(self, make):
        world = make(self.build())
        comp = world.world["comp"]
        assert comp.sent is world.metrics.counter("comp.sent", port="p0")
        assert comp.depth is world.metrics.gauge("comp.depth")
        assert comp.latency is world.metrics.histogram("comp.latency",
                                                       port="p0")
        comp.sent.inc()
        assert world.metrics.counter("comp.sent", port="p0").value == 6

    def test_restored_registry_snapshot_is_byte_identical(self):
        sim = self.build()
        source = json.dumps(sim.metrics.snapshot())
        restored = sim.snapshot().restore()
        assert json.dumps(restored.metrics.snapshot()) == source
        assert restored.metrics is not sim.metrics


class TestCollectGolden:
    def test_snapshot_absorb_merge_match_golden(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = fh.read()
        assert json.dumps(collect_outputs(), indent=1) + "\n" == golden


#: ``pickle.dumps(registry, HIGHEST_PROTOCOL)`` of the registry below,
#: written before registries pickled through ``__reduce__`` (copyreg's
#: ``__newobj__`` with the ``_enabled`` / ``_instruments`` state dict)
OLD_FORMAT_REGISTRY = base64.b64decode(
    "gAWVmgEAAAAAAACMEXJlcHJvLm9icy5tZXRyaWNzlIwPTWV0cmljc1JlZ2lzdHJ5lJOUKYGU"
    "fZQojAhfZW5hYmxlZJSIjAxfaW5zdHJ1bWVudHOUfZQojAdjb3VudGVylIwKbmV0LmZyYW1l"
    "c5SMA2J1c5SMBGNhbjCUhpSFlIeUaACMB19zY2FsYXKUk5QoaACMB0NvdW50ZXKUk5RoCWgN"
    "iEdACAAAAAAAAHSUUpSMBWdhdWdllIwEdGVtcJQph5RoEChoAIwFR2F1Z2WUk5RoFimIR8AM"
    "AAAAAAAAdJRSlIwJaGlzdG9ncmFtlIwLb3MucmVzcG9uc2WUjARjb3JllIwCYzCUhpSFlIeU"
    "aACMCl9oaXN0b2dyYW2Uk5QoaB1oIYhHP/GZmZmZmZpLA0cAAAAAAAAAAEc/4AAAAAAAAH2U"
    "KEq4////SwFK+f///0sBdUsBXZQoR7wwAAAAAAAARz/gCDEm6XjVZXSUUpRoCIwLb3MucmVs"
    "ZWFzZXOUaB5oH4aUhZSHlGgQKGgSaCloK4hHAAAAAAAAAAB0lFKUdXViLg=="
)


def old_format_source():
    reg = MetricsRegistry()
    reg.counter("net.frames", bus="can0").inc(3)
    reg.gauge("temp").set(-3.5)
    hist = reg.histogram("os.response", core="c0")
    for value in (0.001, 0.0, 0.5):
        hist.observe(value)
    reg.counter("os.releases", core="c0")
    return reg


class TestPickleCompatibility:
    def test_flat_constructors_keep_their_signatures(self):
        """Pickles in checkpoint records and shipped snapshots name these
        two functions and pass their arguments by position."""
        assert list(inspect.signature(_scalar).parameters) == [
            "cls", "name", "labels", "enabled", "value"]
        assert list(inspect.signature(_histogram).parameters) == [
            "name", "labels", "enabled", "growth", "count", "low", "high",
            "buckets", "zero_count", "partials"]

    def test_fleet_digest_histograms_pickle_flat(self):
        digest = FleetDigest()
        digest.response.observe(0.002)
        blob = pickle.dumps(digest, pickle.HIGHEST_PROTOCOL)
        assert b"_histogram" in blob and b"_buckets" not in blob
        assert pickle.loads(blob).to_json() == digest.to_json()

    def test_old_format_registry_loads_and_keeps_counting(self):
        reg = pickle.loads(OLD_FORMAT_REGISTRY)
        source = old_format_source()
        assert repr(reg.snapshot()) == repr(source.snapshot())
        assert [i.full_name for i in reg] == [i.full_name for i in source]
        for r in (reg, source):
            r.counter("net.frames", bus="can0").inc()
            r.counter("os.releases", core="c0").inc(2)
            r.histogram("os.response", core="c0").observe(0.25)
        assert repr(reg.snapshot()) == repr(source.snapshot())
        again = pickle.loads(pickle.dumps(reg, pickle.HIGHEST_PROTOCOL))
        assert repr(again.snapshot()) == repr(source.snapshot())

    def test_restored_registry_uses_canonical_identities(self):
        sim = Simulator(metrics=MetricsRegistry())
        Component(sim.metrics)
        sim.metrics.reserve([identity("counter", "idle", core="c9")])
        world = sim.snapshot().restore()
        for key, instrument in world.metrics._instruments.items():
            assert _IDENTITIES[key] is key
            assert instrument.labels is key[2]
        assert list(world.metrics._instruments) == list(sim.metrics._instruments)
        idle = world.metrics.lookup("counter", "idle", core="c9")
        assert idle is _ZEROS[identity("counter", "idle", core="c9")]
