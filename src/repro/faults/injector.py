"""Deterministic fault injection on the simulation kernel.

The :class:`FaultInjector` turns a declarative
:class:`~repro.faults.spec.FaultPlan` into scheduled kernel events.  All
randomness comes from named sub-streams of a
:class:`~repro.sim.rng.RngStreams` — occurrence jitter from
``<stream>.occurrence``, per-frame draws from ``<stream>.frame.<bus>``,
per-activation draws from ``<stream>.task.<core>`` — so a given
``(plan, seed)`` pair always produces a byte-identical fault
:attr:`~FaultInjector.timeline`, regardless of what else runs in the
simulation.

Zero-overhead when idle: the frame hooks (``BusModel._fault_hook``) and
task hooks (``Core.fault_perturb``) are installed only while a matching
fault window is active and removed when the last window on that bus/core
closes, restoring the single-``None``-test fast path of the underlying
layers.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..network.base import BusModel
from ..network.frame import Frame
from ..osal.core import Core
from ..sim import ScheduledCall, Simulator
from ..sim.rng import RngStreams
from .spec import (
    FRAME_KINDS,
    KIND_BUS_OUTAGE,
    KIND_CLOCK_DRIFT,
    KIND_ECU_CRASH,
    KIND_FRAME_CORRUPT,
    KIND_FRAME_DROP,
    KIND_TASK_OVERRUN,
    FaultPlan,
    FaultSpec,
)

#: One timeline entry: (time, kind, target, action).
TimelineEvent = Tuple[float, str, str, str]


class FaultInjector:
    """Schedules a :class:`FaultPlan` onto a simulation.

    Args:
        sim: the simulation kernel.
        plan: the declarative fault plan.
        rng: an :class:`RngStreams` registry or an integer master seed.
        platform: the :class:`~repro.core.platform.DynamicPlatform` under
            test; required for ``ecu_crash`` faults and used to resolve
            the network and node cores when not given explicitly.
        network: the :class:`~repro.network.gateway.VehicleNetwork`;
            required for bus faults when no platform is given.
        cores: extra :class:`~repro.osal.core.Core` objects addressable
            by name (standalone OS-level experiments without a platform).
        stream: base name of the RNG sub-streams.
    """

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        rng,
        *,
        platform=None,
        network=None,
        cores: Tuple[Core, ...] = (),
        stream: str = "faults",
    ) -> None:
        self.sim = sim
        self.plan = plan
        if isinstance(rng, int):
            rng = RngStreams(rng)
        self.rng: RngStreams = rng
        self.platform = platform
        self.network = network if network is not None else (
            platform.network if platform is not None else None
        )
        self.stream = stream
        self.armed = False
        #: chronological record of everything the injector did
        self.timeline: List[TimelineEvent] = []
        self._scheduled: List[ScheduledCall] = []
        self._active_bus_faults: Dict[str, List[FaultSpec]] = {}
        self._active_core_faults: Dict[str, List[FaultSpec]] = {}
        self._frame_streams: Dict[str, object] = {}
        self._task_streams: Dict[str, object] = {}
        # core name -> Core, plus node name -> all its cores
        self._cores: Dict[str, List[Core]] = {}
        def register(key: str, core: Core) -> None:
            entry = self._cores.setdefault(key, [])
            if core not in entry:
                entry.append(core)

        for core in cores:
            register(core.name, core)
        if platform is not None:
            for node_name, node in platform.nodes.items():
                for core in node.cores:
                    register(node_name, core)
                    register(core.name, core)
        metrics = sim.metrics
        self._m_activated: Dict[str, object] = {
            kind: metrics.counter("faults.activated", kind=kind)
            for kind in sorted({f.kind for f in plan.faults})
        }
        self._m_events = metrics.counter("faults.events")

    # -- arming ------------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Validate targets and schedule every occurrence.  Idempotent."""
        if self.armed:
            return self
        self._validate_targets()
        base = self.sim.now
        occurrence = self.rng.stream(f"{self.stream}.occurrence")
        for fault in self.plan.faults:
            for k in range(fault.count):
                when = base + fault.start + k * fault.period
                if fault.jitter > 0:
                    when += occurrence.uniform(0.0, fault.jitter)
                self._scheduled.append(
                    self.sim.at(when, self._activate, fault, k)
                )
        self.armed = True
        return self

    def disarm(self) -> None:
        """Cancel pending occurrences and remove all installed hooks."""
        for call in self._scheduled:
            call.cancel()
        self._scheduled.clear()
        for bus_name in list(self._active_bus_faults):
            self._active_bus_faults.pop(bus_name)
            if self.network is not None and bus_name in self.network.buses:
                self.network.buses[bus_name]._fault_hook = None
        for core_name in list(self._active_core_faults):
            self._active_core_faults.pop(core_name)
            for core in self._cores.get(core_name, ()):
                core.fault_perturb = None
        self.armed = False

    def _validate_targets(self) -> None:
        for fault in self.plan.faults:
            kind = fault.kind
            if kind == KIND_ECU_CRASH:
                if self.platform is None:
                    raise ConfigurationError(
                        "ecu_crash faults need a platform"
                    )
                self.platform.node(fault.target)  # raises if unknown
            elif kind == KIND_BUS_OUTAGE or kind in FRAME_KINDS:
                if self.network is None:
                    raise ConfigurationError(
                        f"{kind} faults need a network"
                    )
                if fault.target not in self.network.buses:
                    raise ConfigurationError(
                        f"{kind} fault targets unknown bus {fault.target!r}"
                    )
            else:  # task faults and clock drift target cores
                if not self._cores.get(fault.target):
                    raise ConfigurationError(
                        f"{kind} fault targets unknown core/node "
                        f"{fault.target!r}"
                    )

    # -- occurrence activation ---------------------------------------------

    def _activate(self, fault: FaultSpec, occurrence: int) -> None:
        kind = fault.kind
        self._m_activated[kind].inc()
        if kind == KIND_ECU_CRASH:
            self._crash(fault)
        elif kind == KIND_BUS_OUTAGE:
            self._bus_outage(fault)
        elif kind in FRAME_KINDS:
            self._open_bus_window(fault)
        elif kind == KIND_CLOCK_DRIFT:
            self._clock_drift(fault)
        else:  # task window faults
            self._open_core_window(fault)

    def _record(self, time: float, kind: str, target: str, action: str) -> None:
        self.timeline.append((time, kind, target, action))

    def _later(self, delay: float, callback, *args) -> None:
        self._scheduled.append(self.sim.schedule(delay, callback, *args))

    # ECU crash + reboot

    def _crash(self, fault: FaultSpec) -> None:
        node = self.platform.node(fault.target)
        if node.failed:
            self._record(self.sim.now, fault.kind, fault.target, "skipped")
            return
        self.platform.fail_node(fault.target)
        self._record(self.sim.now, fault.kind, fault.target, "crash")
        if fault.duration > 0:
            self._later(fault.duration, self._reboot, fault)

    def _reboot(self, fault: FaultSpec) -> None:
        node = self.platform.node(fault.target)
        if not node.failed:
            return
        self.platform.recover_node(fault.target)
        self._record(self.sim.now, fault.kind, fault.target, "reboot")

    # Bus outage

    def _bus_outage(self, fault: FaultSpec) -> None:
        already_down = fault.target in self.network._failed_buses
        self.network.fail_bus(fault.target)
        self._record(
            self.sim.now, fault.kind, fault.target,
            "skipped" if already_down else "outage",
        )
        if fault.duration > 0 and not already_down:
            self._later(fault.duration, self._bus_repair, fault)

    def _bus_repair(self, fault: FaultSpec) -> None:
        self.network.repair_bus(fault.target)
        self._record(self.sim.now, fault.kind, fault.target, "repair")

    # Windowed frame faults on one bus

    def _open_bus_window(self, fault: FaultSpec) -> None:
        specs = self._active_bus_faults.setdefault(fault.target, [])
        specs.append(fault)
        self.network.buses[fault.target]._fault_hook = self._on_bus_frame
        self._record(self.sim.now, fault.kind, fault.target, "window_open")
        if fault.duration > 0:
            self._later(fault.duration, self._close_bus_window, fault)

    def _close_bus_window(self, fault: FaultSpec) -> None:
        specs = self._active_bus_faults.get(fault.target, [])
        if fault in specs:
            specs.remove(fault)
        if not specs:
            self._active_bus_faults.pop(fault.target, None)
            # last window on this bus closed: restore the zero-overhead path
            self.network.buses[fault.target]._fault_hook = None
        self._record(self.sim.now, fault.kind, fault.target, "window_close")

    # Windowed task faults on one core (or every core of a node)

    def _open_core_window(self, fault: FaultSpec) -> None:
        for core in self._cores[fault.target]:
            # windows are tracked per *core* regardless of whether the
            # spec addressed the core or its whole node, so overlapping
            # node- and core-targeted windows compose correctly
            specs = self._active_core_faults.setdefault(core.name, [])
            specs.append(fault)
            # the hook holds the live list: open/close mutate it in place,
            # and it is only replaced after the hook has been removed
            core.fault_perturb = partial(self._on_task_activation, core, specs)
        self._record(self.sim.now, fault.kind, fault.target, "window_open")
        if fault.duration > 0:
            self._later(fault.duration, self._close_core_window, fault)

    def _close_core_window(self, fault: FaultSpec) -> None:
        for core in self._cores[fault.target]:
            specs = self._active_core_faults.get(core.name, [])
            if fault in specs:
                specs.remove(fault)
            if not specs:
                self._active_core_faults.pop(core.name, None)
                core.fault_perturb = None
        self._record(self.sim.now, fault.kind, fault.target, "window_close")

    # Clock drift

    def _clock_drift(self, fault: FaultSpec) -> None:
        for core in self._cores[fault.target]:
            core.set_clock_drift(fault.magnitude)
        self._record(self.sim.now, fault.kind, fault.target, "drift_on")
        if fault.duration > 0:
            self._later(fault.duration, self._clock_drift_off, fault)

    def _clock_drift_off(self, fault: FaultSpec) -> None:
        for core in self._cores[fault.target]:
            core.set_clock_drift(0.0)
        self._record(self.sim.now, fault.kind, fault.target, "drift_off")

    # -- per-event hooks ----------------------------------------------------

    def _frame_stream(self, bus_name: str):
        stream = self._frame_streams.get(bus_name)
        if stream is None:
            stream = self.rng.stream(f"{self.stream}.frame.{bus_name}")
            self._frame_streams[bus_name] = stream
        return stream

    def _on_bus_frame(self, bus: BusModel, frame: Frame) -> Optional[tuple]:
        """``BusModel._fault_hook`` — first matching active spec wins."""
        specs = self._active_bus_faults.get(bus.name)
        if not specs:
            return None
        stream = self._frame_stream(bus.name)
        for spec in specs:
            if spec.probability < 1.0 and stream.random() >= spec.probability:
                continue
            m = self._m_events
            if m._enabled:
                m.value += 1.0
            now = self.sim.now
            if spec.kind == KIND_FRAME_DROP:
                self._record(now, spec.kind, bus.name, "drop")
                return ("drop",)
            if spec.kind == KIND_FRAME_CORRUPT:
                self._record(now, spec.kind, bus.name, "corrupt")
                return ("corrupt",)
            self._record(now, spec.kind, bus.name, "delay")
            return ("delay", spec.magnitude)
        return None

    def _on_task_activation(
        self, core: Core, specs: List[FaultSpec], task, scaled_wcet: float
    ) -> Tuple[float, float]:
        """``Core.fault_perturb`` — overruns stack multiplicatively,
        jitter delays add up.  ``specs`` is the core's live window list."""
        release_delay = 0.0
        if not specs:
            return scaled_wcet, release_delay
        name = core.name
        # created on the first activation, not at window open, so the
        # sanitizer attributes the stream to the event that draws from it
        stream = self._task_streams.get(name)
        if stream is None:
            stream = self.rng.stream(f"{self.stream}.task.{name}")
            self._task_streams[name] = stream
        for spec in specs:
            if spec.probability < 1.0 and stream.random() >= spec.probability:
                continue
            m = self._m_events
            if m._enabled:
                m.value += 1.0
            if spec.kind == KIND_TASK_OVERRUN:
                scaled_wcet *= 1.0 + spec.magnitude
                action = "overrun"
            else:
                release_delay += stream.uniform(0.0, spec.magnitude)
                action = "jitter"
            self.timeline.append((self.sim.now, spec.kind, name, action))
        return scaled_wcet, release_delay

    # -- queries ------------------------------------------------------------

    def events_of_kind(self, kind: str) -> List[TimelineEvent]:
        return [e for e in self.timeline if e[1] == kind]

    def counts_by_action(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for _t, _kind, _target, action in self.timeline:
            out[action] = out.get(action, 0) + 1
        return out
