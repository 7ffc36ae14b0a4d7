"""XiL test harness (Section 2.4).

Runs controller + plant closed loops at two levels:

* **MiL** (model-in-the-loop) — controller called directly each control
  period; pure numerics, fastest.
* **SiL** (software-in-the-loop) — the controller runs on the simulated
  platform: its control job is scheduled on a :class:`~repro.osal.core.Core`
  and sensor/actuator values cross the simulated network, so scheduling
  delay and communication latency shape the loop exactly as they would on
  a virtual ECU.

Assertions (:class:`LoopAssertions`) check overshoot, settling and
steady-state error; :class:`FaultInjector` perturbs sensors/actuators.
"""

from __future__ import annotations

import time as wallclock
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..exec.pool import ParallelExecutor
from ..exec.recovery import run_campaign_jobs
from ..jobs import JobContext, SimJob
from ..osal.core import Core
from ..osal.policies import FixedPriorityPolicy
from ..osal.task import Job, TaskSpec
from ..sim import Simulator
from .controller import CruiseController, PiGains
from .plant import LongitudinalPlant


@dataclass
class LoopResult:
    """Outcome of one closed-loop run."""

    times: List[float]
    speeds: List[float]
    target: float
    level: str
    wall_seconds: float
    realtime_factor: float  # simulated seconds per wall second

    def overshoot(self) -> float:
        """Peak speed above target, in m/s."""
        if not self.speeds:
            return 0.0
        return max(0.0, max(self.speeds) - self.target)

    def settling_time(self, band: float = 0.02) -> Optional[float]:
        """First time after which speed stays within +/-band*target."""
        tolerance = band * self.target
        target = self.target
        speeds = self.speeds
        # backward scan for the last out-of-band sample: O(n) and
        # allocation-free, where the naive forward scan re-checks (and
        # re-slices) the suffix for every candidate index
        for i in range(len(speeds) - 1, -1, -1):
            if abs(speeds[i] - target) > tolerance:
                if i + 1 < len(speeds):
                    return self.times[i + 1]
                return None
        return self.times[0] if speeds else None

    def steady_state_error(self, tail_fraction: float = 0.2) -> float:
        n = max(1, int(len(self.speeds) * tail_fraction))
        tail = self.speeds[-n:]
        return abs(sum(tail) / len(tail) - self.target)


@dataclass
class LoopAssertions:
    """Pass/fail criteria for a closed-loop run."""

    max_overshoot: float = 2.0          # m/s
    max_settling_time: Optional[float] = 60.0
    max_steady_state_error: float = 0.5  # m/s

    def check(self, result: LoopResult) -> List[str]:
        """Returns violation messages (empty = pass)."""
        failures = []
        overshoot = result.overshoot()
        if overshoot > self.max_overshoot:
            failures.append(
                f"overshoot {overshoot:.2f} m/s > {self.max_overshoot} m/s"
            )
        if self.max_settling_time is not None:
            settling = result.settling_time()
            if settling is None or settling > self.max_settling_time:
                failures.append(
                    f"did not settle within {self.max_settling_time}s "
                    f"(got {settling})"
                )
        sse = result.steady_state_error()
        if sse > self.max_steady_state_error:
            failures.append(
                f"steady-state error {sse:.2f} m/s > "
                f"{self.max_steady_state_error} m/s"
            )
        return failures


class FaultInjector:
    """Sensor/actuator fault models for robustness testing."""

    def __init__(self) -> None:
        self.sensor_stuck_at: Optional[float] = None
        self.sensor_dropout_window: Optional[tuple] = None
        self.actuator_stuck_at: Optional[float] = None

    def sensor(self, true_speed: float, time: float) -> float:
        if self.sensor_stuck_at is not None:
            return self.sensor_stuck_at
        if self.sensor_dropout_window is not None:
            start, end = self.sensor_dropout_window
            if start <= time <= end:
                return 0.0  # sensor reads zero during dropout
        return true_speed

    def actuator(self, u: float) -> float:
        if self.actuator_stuck_at is not None:
            return self.actuator_stuck_at
        return u


def run_mil(
    controller: CruiseController,
    plant: LongitudinalPlant,
    *,
    duration: float = 60.0,
    control_period: float = 0.01,
    faults: Optional[FaultInjector] = None,
) -> LoopResult:
    """Model-in-the-loop: direct controller/plant coupling."""
    faults = faults or FaultInjector()
    times, speeds = [], []
    steps = int(duration / control_period)
    start = wallclock.perf_counter()
    sim_time = 0.0
    for _ in range(steps):
        measured = faults.sensor(plant.speed_mps, sim_time)
        u = faults.actuator(controller.compute(measured, control_period))
        plant.step(u, control_period)
        sim_time += control_period
        times.append(sim_time)
        speeds.append(plant.speed_mps)
    wall = wallclock.perf_counter() - start
    return LoopResult(
        times=times,
        speeds=speeds,
        target=controller.target_mps,
        level="MiL",
        wall_seconds=wall,
        realtime_factor=duration / wall if wall > 0 else float("inf"),
    )


class SilLoop:
    """One SiL closed loop in snapshot-safe callback style.

    The loop body lives in bound methods (not closures), so a world
    containing a mid-run loop can be snapshotted and forked: each fork
    gets its own plant, controller, sample lists and in-flight map.
    Faults are consulted through ``self.faults`` at each cycle, which is
    what lets a forked healthy warm-up world arm per-scenario faults
    *after* the fork point.
    """

    def __init__(
        self,
        sim: Simulator,
        core: Core,
        controller: CruiseController,
        plant: LongitudinalPlant,
        *,
        duration: float,
        control_period: float,
        control_wcet: float,
        core_speed: float,
        actuation_latency: float,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.sim = sim
        self.core = core
        self.controller = controller
        self.plant = plant
        self.duration = duration
        self.control_period = control_period
        self.control_wcet = control_wcet
        self.core_speed = core_speed
        self.actuation_latency = actuation_latency
        self.faults = faults or FaultInjector()
        self.task = TaskSpec(
            name="ctl", period=control_period, wcet=control_wcet
        )
        self.times: List[float] = []
        self.speeds: List[float] = []
        self.pending_u = 0.0
        self.in_flight: Dict[int, float] = {}  # job_id -> measured speed
        core.on_completion(self._on_done)

    def start(self) -> None:
        self.sim.post(0.0, self._control_cycle)

    def _on_done(self, finished_job: Job) -> None:
        measured = self.in_flight.pop(finished_job.job_id, None)
        if measured is None:
            return
        u = self.faults.actuator(
            self.controller.compute(measured, self.control_period)
        )
        self.sim.post(self.actuation_latency, self._apply_actuation, u)

    def _apply_actuation(self, u: float) -> None:
        self.pending_u = u

    def _control_cycle(self) -> None:
        # plant advanced with the last actuation value (zero-order hold)
        self.plant.step(self.pending_u, self.control_period)
        self.times.append(self.sim.now)
        self.speeds.append(self.plant.speed_mps)
        measured = self.faults.sensor(self.plant.speed_mps, self.sim.now)
        job = Job(
            task=self.task,
            release_time=self.sim.now,
            absolute_deadline=self.sim.now + self.task.effective_deadline,
            remaining=self.control_wcet / self.core_speed,
            job_id=self.sim.next_job_id(),
        )
        self.in_flight[job.job_id] = measured
        self.core.submit(job)
        if self.sim.now + self.control_period <= self.duration + 1e-9:
            self.sim.post(self.control_period, self._control_cycle)

    def result(self, wall_seconds: float) -> LoopResult:
        return LoopResult(
            times=self.times,
            speeds=self.speeds,
            target=self.controller.target_mps,
            level="SiL",
            wall_seconds=wall_seconds,
            realtime_factor=(
                self.duration / wall_seconds
                if wall_seconds > 0 else float("inf")
            ),
        )


def build_sil_loop(
    controller: CruiseController,
    plant: LongitudinalPlant,
    *,
    duration: float = 60.0,
    control_period: float = 0.01,
    control_wcet: float = 0.001,
    core_speed: float = 1.0,
    actuation_latency: float = 0.0005,
    faults: Optional[FaultInjector] = None,
    extra_load: Optional[Callable[[Simulator, Core], None]] = None,
) -> SilLoop:
    """Assemble (but do not run) a SiL loop on a fresh simulator."""
    sim = Simulator()
    core = Core(sim, "vecu", core_speed, FixedPriorityPolicy())
    # verdicts come from the sampled speed trace, never the per-job
    # history; bounding it keeps long warm-ups (and their snapshots)
    # constant-size
    core.job_history_limit = 16
    if extra_load is not None:
        extra_load(sim, core)
    loop = SilLoop(
        sim, core, controller, plant,
        duration=duration,
        control_period=control_period,
        control_wcet=control_wcet,
        core_speed=core_speed,
        actuation_latency=actuation_latency,
        faults=faults,
    )
    sim.adopt("sil", loop)
    loop.start()
    return loop


def run_sil(
    controller: CruiseController,
    plant: LongitudinalPlant,
    *,
    duration: float = 60.0,
    control_period: float = 0.01,
    control_wcet: float = 0.001,
    core_speed: float = 1.0,
    actuation_latency: float = 0.0005,
    faults: Optional[FaultInjector] = None,
    extra_load: Optional[Callable[[Simulator, Core], None]] = None,
) -> LoopResult:
    """Software-in-the-loop: the control task is *scheduled* on a core.

    The plant advances every control period; the controller output is
    computed inside a scheduled job and applied after ``actuation_latency``
    — so scheduler preemption and latency are part of the loop.
    """
    loop = build_sil_loop(
        controller, plant,
        duration=duration,
        control_period=control_period,
        control_wcet=control_wcet,
        core_speed=core_speed,
        actuation_latency=actuation_latency,
        faults=faults,
        extra_load=extra_load,
    )
    start = wallclock.perf_counter()
    loop.sim.run(until=duration + 0.1)
    wall = wallclock.perf_counter() - start
    return loop.result(wall)


@dataclass
class XilTestCase:
    """One named test: build a loop, run it, check assertions."""

    name: str
    build_controller: Callable[[], CruiseController]
    assertions: LoopAssertions = field(default_factory=LoopAssertions)
    level: str = "MiL"
    duration: float = 60.0
    initial_speed: float = 0.0
    faults: Optional[FaultInjector] = None

    def run(self) -> tuple:
        """Returns (passed, failure list, LoopResult)."""
        controller = self.build_controller()
        plant = LongitudinalPlant(speed_mps=self.initial_speed)
        if self.level == "MiL":
            result = run_mil(
                controller, plant, duration=self.duration, faults=self.faults
            )
        elif self.level == "SiL":
            result = run_sil(
                controller, plant, duration=self.duration, faults=self.faults
            )
        else:
            raise ConfigurationError(f"unknown XiL level {self.level!r}")
        failures = self.assertions.check(result)
        return (not failures, failures, result)


class XilTestSuite:
    """Runs a list of test cases and tabulates pass/fail."""

    def __init__(self, cases: List[XilTestCase]) -> None:
        self.cases = cases
        self.results: List[tuple] = []

    def run(self) -> int:
        """Execute all cases; returns the number of failures."""
        self.results = []
        failures = 0
        for case in self.cases:
            passed, messages, result = case.run()
            self.results.append((case.name, passed, messages, result))
            if not passed:
                failures += 1
        return failures

    def report(self) -> str:
        lines = []
        for name, passed, messages, result in self.results:
            status = "PASS" if passed else "FAIL"
            lines.append(f"[{status}] {name} ({result.level})")
            for message in messages:
                lines.append(f"    - {message}")
        return "\n".join(lines)


# -- parallel scenario batteries (repro.exec fan-out site) ---------------


@dataclass(frozen=True)
class ScenarioSpec:
    """Picklable description of one closed-loop scenario.

    Unlike :class:`XilTestCase` (which carries a live controller factory
    callable), a spec holds only plain data — controller gains, loop
    level, fault parameters, assertion limits — so it can travel to a
    worker process and rebuild the scenario there.
    """

    name: str
    level: str = "MiL"
    duration: float = 30.0
    target_mps: float = 25.0
    initial_speed: float = 0.0
    kp: float = 0.12
    ki: float = 0.02
    # fault injection (None = healthy)
    sensor_stuck_at: Optional[float] = None
    sensor_dropout_window: Optional[Tuple[float, float]] = None
    actuator_stuck_at: Optional[float] = None
    # assertion limits
    max_overshoot: float = 2.0
    max_settling_time: Optional[float] = 60.0
    max_steady_state_error: float = 0.5

    def build_faults(self) -> Optional[FaultInjector]:
        """Materialise the spec's fault injector (``None`` = healthy)."""
        if (self.sensor_stuck_at is None
                and self.sensor_dropout_window is None
                and self.actuator_stuck_at is None):
            return None
        faults = FaultInjector()
        faults.sensor_stuck_at = self.sensor_stuck_at
        faults.sensor_dropout_window = self.sensor_dropout_window
        faults.actuator_stuck_at = self.actuator_stuck_at
        return faults

    def build_assertions(self) -> LoopAssertions:
        return LoopAssertions(
            max_overshoot=self.max_overshoot,
            max_settling_time=self.max_settling_time,
            max_steady_state_error=self.max_steady_state_error,
        )

    def build_case(self) -> XilTestCase:
        """Materialise the runnable test case (in whatever process)."""
        gains = PiGains(kp=self.kp, ki=self.ki)
        target = self.target_mps
        return XilTestCase(
            name=self.name,
            build_controller=lambda: CruiseController(target, gains),
            assertions=self.build_assertions(),
            level=self.level,
            duration=self.duration,
            initial_speed=self.initial_speed,
            faults=self.build_faults(),
        )

    def loop_key(self) -> Tuple:
        """Scenarios with equal keys share a healthy warm-up world."""
        return (
            self.level, self.duration, self.target_mps,
            self.initial_speed, self.kp, self.ki,
        )


@dataclass(frozen=True)
class ScenarioVerdict:
    """Picklable pass/fail outcome of one scenario."""

    name: str
    level: str
    passed: bool
    failures: Tuple[str, ...]
    overshoot: float
    settling_time: Optional[float]
    steady_state_error: float
    samples: int


def _scenario_verdict(
    spec: ScenarioSpec,
    passed: bool,
    failures: List[str],
    result: LoopResult,
    ctx: JobContext,
) -> ScenarioVerdict:
    verdicts = ctx.metrics.counter(
        "xil.verdicts", outcome="pass" if passed else "fail"
    )
    verdicts.inc()
    overshoot_hist = ctx.metrics.histogram("xil.overshoot_mps")
    overshoot_hist.observe(result.overshoot())
    return ScenarioVerdict(
        name=spec.name,
        level=result.level,
        passed=passed,
        failures=tuple(failures),
        overshoot=result.overshoot(),
        settling_time=result.settling_time(),
        steady_state_error=result.steady_state_error(),
        samples=len(result.speeds),
    )


class XilScenarioJob(SimJob):
    """Runs one :class:`ScenarioSpec` closed loop in a worker process.

    With a ``key`` the job continues its loop config's healthy warm-up
    world from ``ctx.shared[key]``: it restores the world, arms the
    scenario's faults and runs only the post-warm-up half.  Verdicts are
    bit-identical to the rebuild path because the scenario is healthy
    before the fork point by construction (:func:`sil_fork_eligible`).
    """

    def __init__(self, job_id: str, spec: ScenarioSpec,
                 key: Optional[Tuple] = None) -> None:
        self.job_id = job_id
        self.spec = spec
        self.key = key

    def run(self, ctx: JobContext) -> ScenarioVerdict:
        spec = self.spec
        if self.key is None:
            passed, failures, result = spec.build_case().run()
            return _scenario_verdict(spec, passed, failures, result, ctx)
        sim = ctx.shared[self.key].restore()
        loop: SilLoop = sim.world["sil"]
        faults = spec.build_faults()
        if faults is not None:
            loop.faults = faults
        start = wallclock.perf_counter()
        sim.run(until=loop.duration + 0.1)
        result = loop.result(wallclock.perf_counter() - start)
        failures = spec.build_assertions().check(result)
        return _scenario_verdict(spec, not failures, failures, result, ctx)


#: Fork-eligible SiL scenarios warm up for this fraction of their
#: duration before the per-scenario fault phase begins.
SIL_WARMUP_FRACTION = 0.5


def sil_fork_eligible(spec: ScenarioSpec, warmup: float) -> bool:
    """Can this scenario continue from a healthy warm-up world?

    True when the scenario is SiL and behaves identically to the healthy
    loop up to ``warmup``: stuck-at faults act from t=0 (never eligible),
    dropout windows qualify when they open strictly after the fork point.
    """
    if spec.level != "SiL":
        return False
    if spec.sensor_stuck_at is not None or spec.actuator_stuck_at is not None:
        return False
    window = spec.sensor_dropout_window
    return window is None or window[0] > warmup


def build_sil_warm_snapshot(spec: ScenarioSpec, warmup: float):
    """Run the healthy loop for ``spec``'s config to ``warmup``, snapshot."""
    controller = CruiseController(
        spec.target_mps, PiGains(kp=spec.kp, ki=spec.ki)
    )
    plant = LongitudinalPlant(speed_mps=spec.initial_speed)
    loop = build_sil_loop(controller, plant, duration=spec.duration)
    loop.sim.run(until=warmup)
    return loop.sim.snapshot()


@dataclass
class BatteryResult:
    """Aggregate outcome of one scenario battery."""

    verdicts: List[ScenarioVerdict]
    digest: Dict

    @property
    def failures(self) -> int:
        return sum(1 for v in self.verdicts if not v.passed)

    def report(self) -> str:
        lines = []
        for verdict in self.verdicts:
            status = "PASS" if verdict.passed else "FAIL"
            lines.append(f"[{status}] {verdict.name} ({verdict.level})")
            for message in verdict.failures:
                lines.append(f"    - {message}")
        return "\n".join(lines)


def run_battery(
    scenarios: List[ScenarioSpec],
    *,
    executor: Optional[ParallelExecutor] = None,
    master_seed: Optional[int] = None,
    fork: bool = True,
    warmup_fraction: float = SIL_WARMUP_FRACTION,
) -> BatteryResult:
    """Run a scenario battery, serially or fanned out over an executor.

    Scenario order is preserved in the verdict list regardless of which
    worker finished first; closed loops are deterministic given their
    spec, so parallel verdicts equal serial ones exactly.  Pass a warm
    executor (reused across batteries) for fan-out; ``executor=None``
    runs inline through the shared serial executor.

    With ``fork=True`` (the default), SiL scenarios whose faults start
    after the warm-up point share one healthy warm-up world per loop
    config: it is built once, snapshotted, shipped per worker, and each
    scenario forks it and runs only the post-warm-up half.  Ineligible
    scenarios (MiL, stuck-at faults, early dropout windows) run the
    rebuild path unchanged, so verdicts are identical either way.
    """
    if not scenarios:
        raise ConfigurationError("battery needs at least one scenario")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scenario names in battery: {names}")
    jobs = []
    snapshots: Dict[Tuple, object] = {}
    for s in scenarios:
        key = None
        warmup = s.duration * warmup_fraction
        if fork and sil_fork_eligible(s, warmup):
            key = s.loop_key()
            if key not in snapshots:
                snapshots[key] = build_sil_warm_snapshot(s, warmup)
        jobs.append(XilScenarioJob(f"xil.{s.name}", s, key))
    report = run_campaign_jobs(
        jobs, executor=executor, master_seed=master_seed,
        context=snapshots or None, error=ConfigurationError,
        what="battery scenarios",
    )
    return BatteryResult(verdicts=report.values, digest=report.merged_digest())
