"""Declared degradation modes (fail-degraded operation, Section 3.3).

A :class:`DegradationMode` names a reduced-functionality configuration of
the platform — e.g. a limp-home set: stop the comfort apps, start the
minimal drive app.  The :class:`DegradationController` owned by each
:class:`~repro.core.platform.DynamicPlatform` enters and exits declared
modes on request, and can *watch* a :class:`~repro.core.monitor.RuntimeMonitor`
so modes are activated automatically when the observed fault rate crosses
a threshold and released again on recovery (with hysteresis, so a mode is
not flapped on a rate hovering at the threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, TYPE_CHECKING

from ..errors import AdmissionError, PlatformError
from ..obs.metrics import identity
from .application import AppState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .monitor import RuntimeMonitor
    from .platform import DynamicPlatform


#: mode transition counters, reserved by every controller
_ENTER = identity("counter", "degradation.enter")
_EXIT = identity("counter", "degradation.exit")


@dataclass(frozen=True)
class DegradationMode:
    """One declared reduced-functionality configuration.

    Attributes:
        name: mode identifier.
        stop_apps: ``(app, node)`` pairs stopped on entry and restarted on
            exit (non-essential functionality shed under degradation).
        start_apps: ``(app, node)`` pairs started on entry and stopped on
            exit (the limp-home replacement set; images must be installed).
        description: free-text rationale for reports.
    """

    name: str
    stop_apps: Tuple[Tuple[str, str], ...] = ()
    start_apps: Tuple[Tuple[str, str], ...] = ()
    description: str = ""


@dataclass(frozen=True)
class DegradationEvent:
    """One mode transition, for the resilience report."""

    time: float
    mode: str
    action: str  # "enter" | "exit"
    trigger: str  # "manual" | "fault_rate" | ...
    fault_rate: float = 0.0


@dataclass
class _Watch:
    monitor: "RuntimeMonitor"
    mode: str
    enter_rate: float
    exit_rate: float
    window: float
    last_fault_count: int = 0
    events: List[DegradationEvent] = field(default_factory=list)


class DegradationController:
    """Enters and exits declared degradation modes of one platform."""

    def __init__(self, platform: "DynamicPlatform") -> None:
        self.platform = platform
        self.sim = platform.sim
        self._modes: Dict[str, DegradationMode] = {}
        self.active: Dict[str, DegradationEvent] = {}
        self.events: List[DegradationEvent] = []
        self.entries = 0
        self.exits = 0
        self.skipped_actions = 0
        # reserved: materialised by the first transition only
        self.sim.metrics.reserve((_ENTER, _EXIT))

    # -- declaration -------------------------------------------------------

    def declare(self, mode: DegradationMode) -> DegradationMode:
        """Register a mode (idempotent by name; redeclaring replaces)."""
        self._modes[mode.name] = mode
        return mode

    def mode(self, name: str) -> DegradationMode:
        try:
            return self._modes[name]
        except KeyError:
            raise PlatformError(f"degradation mode {name!r} not declared") from None

    @property
    def declared_modes(self) -> List[str]:
        return sorted(self._modes)

    def is_active(self, name: str) -> bool:
        return name in self.active

    # -- transitions -------------------------------------------------------

    def enter(self, name: str, *, trigger: str = "manual", fault_rate: float = 0.0) -> bool:
        """Activate a declared mode.  Returns False if already active.

        App actions that cannot be applied (instance already stopped,
        admission rejection on a loaded node, missing image) are counted
        in :attr:`skipped_actions` instead of aborting the transition —
        a degraded platform must degrade as far as it can.
        """
        mode = self.mode(name)
        if name in self.active:
            return False
        for app, node in mode.stop_apps:
            self._try(self.platform.stop_app, app, node)
        for app, node in mode.start_apps:
            self._try(self._start, app, node)
        event = DegradationEvent(
            time=self.sim.now, mode=name, action="enter",
            trigger=trigger, fault_rate=fault_rate,
        )
        self.active[name] = event
        self.events.append(event)
        self.entries += 1
        self.sim.metrics.materialise(_ENTER).inc()
        self.sim.trace("platform.degradation", mode=name, action="enter", trigger=trigger)
        return True

    def exit(self, name: str, *, trigger: str = "manual", fault_rate: float = 0.0) -> bool:
        """Release an active mode, restoring the shed apps."""
        mode = self.mode(name)
        if name not in self.active:
            return False
        for app, node in mode.start_apps:
            self._try(self.platform.stop_app, app, node)
        for app, node in mode.stop_apps:
            self._try(self._start, app, node)
        del self.active[name]
        event = DegradationEvent(
            time=self.sim.now, mode=name, action="exit",
            trigger=trigger, fault_rate=fault_rate,
        )
        self.events.append(event)
        self.exits += 1
        self.sim.metrics.materialise(_EXIT).inc()
        self.sim.trace("platform.degradation", mode=name, action="exit", trigger=trigger)
        return True

    def _try(self, action, app: str, node: str) -> None:
        try:
            action(app, node)
        except (AdmissionError, PlatformError):
            self.skipped_actions += 1

    def _start(self, app: str, node: str) -> None:
        # a previously shed app leaves its stopped instance on the node;
        # restart it in place rather than instantiating a duplicate
        for instance in self.platform.node(node).instances_of(app):
            if instance.state is AppState.STOPPED:
                instance.start()
                return
        self.platform.start_app(app, node)

    # -- automatic activation ---------------------------------------------

    def watch(
        self,
        monitor: "RuntimeMonitor",
        mode_name: str,
        *,
        fault_rate_threshold: float,
        window: float = 0.05,
        recovery_factor: float = 0.5,
    ) -> None:
        """Drive a mode from a monitor's observed fault rate.

        Every ``window`` seconds the fault rate (new fault records per
        second) is sampled; the mode is entered when it reaches
        ``fault_rate_threshold`` and exited once it falls to
        ``recovery_factor * fault_rate_threshold`` or below (hysteresis).
        """
        self.mode(mode_name)  # validate early
        if fault_rate_threshold <= 0 or window <= 0:
            raise PlatformError("fault-rate threshold and window must be positive")
        if not 0.0 <= recovery_factor <= 1.0:
            raise PlatformError("recovery factor must be within [0, 1]")
        watch = _Watch(
            monitor=monitor,
            mode=mode_name,
            enter_rate=fault_rate_threshold,
            exit_rate=recovery_factor * fault_rate_threshold,
            window=window,
            last_fault_count=len(monitor.faults),
        )
        self.sim.schedule(window, self._sample, watch)

    def _sample(self, watch: _Watch) -> None:
        count = len(watch.monitor.faults)
        rate = (count - watch.last_fault_count) / watch.window
        watch.last_fault_count = count
        if watch.mode not in self.active:
            if rate >= watch.enter_rate:
                self.enter(watch.mode, trigger="fault_rate", fault_rate=rate)
        elif rate <= watch.exit_rate:
            active_event = self.active[watch.mode]
            if active_event.trigger == "fault_rate":
                self.exit(watch.mode, trigger="fault_rate", fault_rate=rate)
        self.sim.schedule(watch.window, self._sample, watch)
