"""XiL (X-in-the-loop) testing framework: plants, controllers, MiL/SiL
harness and fault injection (paper Section 2.4)."""

from .controller import (
    AccController,
    BuggyCruiseController,
    CruiseController,
    PiGains,
)
from .harness import (
    BatteryResult,
    FaultInjector,
    LoopAssertions,
    LoopResult,
    ScenarioSpec,
    ScenarioVerdict,
    SilLoop,
    XilScenarioJob,
    XilTestCase,
    XilTestSuite,
    build_sil_loop,
    build_sil_warm_snapshot,
    run_battery,
    run_mil,
    run_sil,
    sil_fork_eligible,
)
from .plant import AccScenario, LeadVehicle, LongitudinalPlant, VehicleParameters
from .vil import VilResult, run_vil, vil_topology

__all__ = [
    "AccController",
    "AccScenario",
    "BatteryResult",
    "BuggyCruiseController",
    "CruiseController",
    "FaultInjector",
    "LeadVehicle",
    "LongitudinalPlant",
    "LoopAssertions",
    "LoopResult",
    "PiGains",
    "ScenarioSpec",
    "ScenarioVerdict",
    "SilLoop",
    "VehicleParameters",
    "VilResult",
    "XilScenarioJob",
    "XilTestCase",
    "XilTestSuite",
    "build_sil_loop",
    "build_sil_warm_snapshot",
    "run_battery",
    "run_mil",
    "run_sil",
    "run_vil",
    "sil_fork_eligible",
    "vil_topology",
]
