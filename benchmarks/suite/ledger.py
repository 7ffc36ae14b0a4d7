"""Per-layer time ledger for traced benchmark runs.

A traced run re-drives a prefix of a workload step by step and times
every call it makes into a public function.  Each timed call is a
*span* charged to the layer that defines the function; the time spent
inside ``Simulator.run`` is split by a second, profiled pass over the
same prefix (:class:`LayerProfiler`) and a kernel dispatch
calibration (:func:`kernel_dispatch_seconds`).  Nothing inside ``src/`` is
instrumented: every span is opened and closed here, in the harness.

Layers are the ``repro`` subpackages named in :data:`LAYERS`; time the
ledger cannot attribute (loop overhead between spans, callbacks of
other packages) is reported as ``other``.
"""

from __future__ import annotations

import math
import statistics
from functools import partial
from time import perf_counter
from typing import Dict, List

from repro.obs.profiler import KernelProfiler
from repro.sim import Process, Simulator

#: the layers of the stack, in ledger order; ``other`` collects the rest
LAYERS = ("sim", "osal", "network", "middleware", "faults", "core",
          "fleet", "obs", "exec", "other")


def layer_of_module(module: str) -> str:
    """The ledger layer a ``repro`` module belongs to.

    ``repro.jobs`` is the executor's job protocol, so it counts as
    ``exec``; modules outside the listed subpackages count as ``other``.
    """
    if module == "repro.jobs":
        return "exec"
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


def _noop() -> None:
    pass


def kernel_dispatch_seconds(rounds: int = 256, depth: int = 16,
                            repeats: int = 15) -> float:
    """Median host seconds the kernel spends on one event outside its
    callback (heap pop, clock advance, dispatch, recycle), measured on
    no-op events in this process.  Events are queued ``depth`` at a time
    so the heap stays about as shallow as in the benchmark worlds, which
    hold 1–12 pending events on average."""
    samples = []
    for _ in range(repeats):
        sim = Simulator()
        elapsed = 0.0
        for _ in range(rounds):
            for index in range(depth):
                sim.post(index * 1e-6, _noop)
            start = perf_counter()
            sim.run()
            elapsed += perf_counter() - start
        samples.append(elapsed / (rounds * depth))
    return statistics.median(samples)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class LayerProfiler(KernelProfiler):
    """Kernel profiler that charges each callback to a ledger layer.

    A callback belongs to the layer whose module defines the callback's
    class (bound methods) or the function itself; ``functools.partial``
    wrappers are unwrapped first.  A step of a generator process belongs
    to the module that defines the generator.  A harness class declares
    the layer of the public call it wraps through a ``LAYER`` class
    attribute.
    """

    def __init__(self) -> None:
        super().__init__()
        self.seconds: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self._layers: Dict[object, str] = {}

    def account(self, callback, elapsed: float) -> None:
        self.events += 1
        self.seconds[self.layer_of(callback)] += elapsed

    def account_generator(self, process_name: str, elapsed: float) -> None:
        """Generator time is part of its process's callback: not re-added."""

    def layer_of(self, callback) -> str:
        """The ledger layer ``callback``'s time is charged to."""
        while isinstance(callback, partial):
            callback = callback.func
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process):
            return self._generator_layer(owner.gen)
        key = type(owner) if owner is not None else callback
        layer = self._layers.get(key)
        if layer is None:
            declared = getattr(key, "LAYER", None)
            if declared in LAYERS:
                layer = declared
            else:
                layer = layer_of_module(getattr(key, "__module__", "") or "")
            self._layers[key] = layer
        return layer

    def _generator_layer(self, gen) -> str:
        """Every process steps through ``Process._step`` in the kernel, so
        the callback's class says nothing; the generator's module does
        (the FlexRay cycle engine → ``network``).  An exhausted generator
        has no frame left, and its step is kernel bookkeeping."""
        code = getattr(gen, "gi_code", None)
        layer = self._layers.get(code)
        if layer is None:
            frame = getattr(gen, "gi_frame", None)
            if frame is None:
                return "sim"
            layer = layer_of_module(frame.f_globals.get("__name__", ""))
            self._layers[code] = layer
        return layer

    @property
    def callback_seconds(self) -> float:
        return sum(self.seconds.values())


class Ledger:
    """Spans, samples and counts collected over one traced prefix."""

    def __init__(self) -> None:
        #: seconds charged to each layer by spans (run time is added by
        #: :meth:`finish`)
        self.seconds: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: named span / sample durations, for the per-call metrics
        self.samples: Dict[str, List[float]] = {}
        #: host seconds of each traced item (vehicle, replication, ...)
        self.item_seconds: List[float] = []
        self.items = 0
        #: wall time of the traced pass(es) — the coverage denominator
        self.wall = 0.0
        #: wall time of the untraced entry point over the same items
        self.reference_wall = 0.0
        #: unprofiled ``Simulator.run`` seconds, split by :meth:`finish`
        self.run_seconds = 0.0
        self.profiler = LayerProfiler()
        #: counters read from the simulated worlds (frames, rpc calls ...)
        self.counts: Dict[str, float] = {}
        #: metrics a workload reports directly (exec pool figures ...)
        self.values: Dict[str, float] = {}
        #: kernel seconds per dispatched event, set by :meth:`finish`
        self.dispatch_seconds = 0.0

    def span(self, name: str, layer: str, seconds: float) -> None:
        """Charge one timed public call to ``layer``."""
        self.seconds[layer] += seconds
        self.sample(name, seconds)

    def sample(self, name: str, seconds: float) -> None:
        """Record a duration for a per-call metric without charging it."""
        self.samples.setdefault(name, []).append(seconds)

    def run(self, seconds: float) -> None:
        """Record unprofiled time spent inside ``Simulator.run``."""
        self.run_seconds += seconds

    def item(self, seconds: float, items: int = 1) -> None:
        """Record one traced step covering ``items`` items."""
        self.items += items
        per_item = seconds / items
        self.item_seconds.extend([per_item] * items)

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def finish(self) -> None:
        """Split the unprofiled run time into kernel self time and layers.

        Kernel self time (dispatch between callbacks) is the number of
        events times :func:`kernel_dispatch_seconds`; the rest of the run
        time goes to the layers in proportion to their profiled callback
        time.  Scaling by the profiled *shares* keeps the profiler's own
        bookkeeping, and host noise between the two passes, out of every
        layer's seconds.
        """
        self.dispatch_seconds = kernel_dispatch_seconds()
        events = self.profiler.events
        kernel = min(self.run_seconds, events * self.dispatch_seconds)
        callbacks = self.profiler.callback_seconds
        scale = (self.run_seconds - kernel) / callbacks if callbacks else 0.0
        for layer, seconds in self.profiler.seconds.items():
            self.seconds[layer] += seconds * scale
        self.seconds["sim"] += kernel

    def mean_us(self, name: str) -> float:
        values = self.samples.get(name)
        if not values:
            return 0.0
        return sum(values) / len(values) * 1e6

    def ratio(self, numerator: str, denominator: str) -> float:
        below = self.counts.get(denominator, 0.0)
        return self.counts.get(numerator, 0.0) / below if below else 0.0

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric, by the names ``BENCHMARK.json`` uses."""
        items = max(1, self.items)
        attributed = sum(self.seconds[layer] for layer in LAYERS
                         if layer != "other")
        total = max(self.wall, attributed)
        seconds = dict(self.seconds)
        seconds["other"] = total - attributed
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_us_per_item"] = seconds[layer] / items * 1e6
            out[f"{layer}.share"] = seconds[layer] / total if total else 0.0
        events = self.profiler.events
        hits = self.counts.get("route_hits", 0.0)
        lookups = hits + self.counts.get("route_misses", 0.0)
        out.update({
            "sim.restore_us": self.mean_us("sim.restore"),
            "sim.snapshot_kib": self.values.get("sim.snapshot_kib", 0.0),
            "sim.dispatch_us_per_event": self.dispatch_seconds * 1e6,
            "sim.events_per_item": events / items,
            "network.frames_per_message": self.ratio("frames", "messages"),
            "network.arbitration_losses": self.counts.get(
                "arbitration_losses", 0.0
            ),
            "network.route_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "middleware.send_us": self.mean_us("middleware.send"),
            "middleware.rpc_success_ratio": self.ratio(
                "rpc_successes", "rpc_calls"
            ),
            "middleware.rpc_retries_per_call": self.ratio(
                "rpc_retries", "rpc_calls"
            ),
            "faults.arm_us": self.mean_us("faults.arm"),
            "faults.outcome_us": self.mean_us("faults.outcome"),
            "fleet.seed_us": self.mean_us("fleet.seed"),
            "fleet.observe_us": self.mean_us("fleet.observe"),
            "fleet.merge_us": self.mean_us("fleet.merge"),
            "obs.collect_us": self.mean_us("obs.collect"),
            "trace.item_us_p50": percentile(self.item_seconds, 0.50) * 1e6,
            "trace.item_us_p99": percentile(self.item_seconds, 0.99) * 1e6,
            "trace.items": float(self.items),
            "trace.coverage": attributed / total if total else 0.0,
            "trace.overhead": (
                self.reference_wall / self.wall if self.wall else 0.0
            ),
        })
        for name in EXEC_METRICS:
            out[name] = self.values.get(name, 0.0)
        return out


#: pool metrics only the pooled workload measures; zero elsewhere
EXEC_METRICS = (
    "exec.busy_ratio", "exec.idle_s", "exec.shards",
    "exec.result_bytes_per_shard", "exec.pickle_us_per_shard",
    "exec.context_kib", "exec.retried", "exec.supervisor_restarts",
    "exec.checkpoint_records", "exec.checkpoint_ms_per_record",
    "exec.setup_s",
)
