"""Bus-level network simulators: CAN, FlexRay, switched Ethernet, TSN."""

from .base import BusModel
from .can import (
    CAN_MAX_ID,
    CAN_MAX_PAYLOAD,
    CanBus,
    can_frame_bits,
    can_response_time_bound,
)
from .ethernet import (
    ETH_MAX_PAYLOAD,
    ETH_MIN_PAYLOAD,
    ETH_OVERHEAD_BYTES,
    EthernetBus,
    ethernet_wire_bytes,
)
from .flexray import FlexRayBus, FlexRayConfig
from .frame import Frame, TrafficClass
from .gateway import GATEWAY_LATENCY, VehicleNetwork, build_bus
from .tsn import GateControlList, GateEntry, TsnBus

__all__ = [
    "BusModel",
    "CAN_MAX_ID",
    "CAN_MAX_PAYLOAD",
    "CanBus",
    "ETH_MAX_PAYLOAD",
    "ETH_MIN_PAYLOAD",
    "ETH_OVERHEAD_BYTES",
    "EthernetBus",
    "FlexRayBus",
    "FlexRayConfig",
    "Frame",
    "GATEWAY_LATENCY",
    "GateControlList",
    "GateEntry",
    "TrafficClass",
    "TsnBus",
    "VehicleNetwork",
    "build_bus",
    "can_frame_bits",
    "can_response_time_bound",
    "ethernet_wire_bytes",
]
