"""The dynamic platform — the paper's core contribution (Figure 2).

Hosts deterministic and non-deterministic applications side by side with
freedom of interference, staged runtime updates, redundancy/fail-
operational support, runtime monitoring, admission control and
cloud-based schedule management.
"""

from .admission import AdmissionController, AdmissionDecision
from .application import AppInstance, AppState
from .campaign import (
    CampaignManager,
    CampaignOutcome,
    CampaignResult,
    CampaignSpec,
    Fleet,
    Vehicle,
    WaveResult,
    plan_waves,
)
from .bus_admission import (
    BUS_HEADROOM_LIMIT,
    BusAdmissionDecision,
    BusLoadTracker,
    admit_communication,
    offered_load_of,
)
from .degradation import (
    DegradationController,
    DegradationEvent,
    DegradationMode,
)
from .monitor import BackendLink, FaultRecord, RuntimeMonitor, TaskStats
from .node import PlatformNode
from .platform import DynamicPlatform
from .reconfiguration import (
    MIGRATION_HANDOVER_LATENCY,
    MigrationReport,
    ReconfigurationManager,
)
from .redundancy import (
    FailoverEvent,
    PROMOTION_LATENCY,
    RedundancyManager,
    ReplicaSet,
)
from .schedule_mgmt import (
    ComputeSite,
    ScheduleManagementFramework,
    SynthesisOutcome,
    validate_by_simulation,
)
from .services import (
    DIAGNOSIS_SERVICE_ID,
    DiagnosisService,
    DiagnosticTroubleCode,
    LOGGING_SERVICE_ID,
    LogRecord,
    LoggingService,
    PERSISTENCE_SERVICE_ID,
    PersistenceService,
)
from .update import (
    FLASH_WRITE_RATE,
    REDIRECT_LATENCY,
    STATE_SYNC_RATE,
    UpdateOrchestrator,
    UpdateReport,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AppInstance",
    "AppState",
    "BUS_HEADROOM_LIMIT",
    "BackendLink",
    "BusAdmissionDecision",
    "BusLoadTracker",
    "CampaignManager",
    "CampaignOutcome",
    "CampaignResult",
    "CampaignSpec",
    "Fleet",
    "Vehicle",
    "WaveResult",
    "admit_communication",
    "offered_load_of",
    "plan_waves",
    "ComputeSite",
    "DIAGNOSIS_SERVICE_ID",
    "DegradationController",
    "DegradationEvent",
    "DegradationMode",
    "DiagnosisService",
    "DiagnosticTroubleCode",
    "DynamicPlatform",
    "FLASH_WRITE_RATE",
    "FailoverEvent",
    "FaultRecord",
    "LOGGING_SERVICE_ID",
    "LogRecord",
    "LoggingService",
    "MIGRATION_HANDOVER_LATENCY",
    "MigrationReport",
    "PERSISTENCE_SERVICE_ID",
    "PROMOTION_LATENCY",
    "PersistenceService",
    "PlatformNode",
    "REDIRECT_LATENCY",
    "ReconfigurationManager",
    "RedundancyManager",
    "ReplicaSet",
    "RuntimeMonitor",
    "STATE_SYNC_RATE",
    "ScheduleManagementFramework",
    "SynthesisOutcome",
    "TaskStats",
    "UpdateOrchestrator",
    "UpdateReport",
    "validate_by_simulation",
]
