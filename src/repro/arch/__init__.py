"""The Multi-Issue Butterfly architecture: topology, ISA, register
files, HBM model, cycle-level simulator and FPGA resource model."""

from .control import ControlWord, decode_modes, encode_control
from .hbm import HBMModel, StreamBuffers
from .isa import (
    BINARY_EWISE_FNS,
    EwiseFn,
    Location,
    NetOp,
    OpKind,
    StreamRef,
    TopInstruction,
    TopOpcode,
)
from .regfile import RegisterFileArray, VectorAllocator, VectorView
from .resources import (
    AlveoU50,
    ResourceEstimate,
    clock_frequency_hz,
    estimate_resources,
)
from .simulator import (
    HazardViolation,
    NetworkSimulator,
    SimulationStats,
    op_duration,
    op_occupancy,
)
from .topology import Butterfly, NodeMode, RoutingConflict
from .trace import (
    CompiledTrace,
    TracePhase,
    check_schedule,
    compile_trace,
    phase_crossings,
    run_phases,
)

__all__ = [
    "AlveoU50",
    "BINARY_EWISE_FNS",
    "Butterfly",
    "CompiledTrace",
    "TracePhase",
    "check_schedule",
    "compile_trace",
    "phase_crossings",
    "run_phases",
    "ControlWord",
    "decode_modes",
    "encode_control",
    "EwiseFn",
    "HBMModel",
    "HazardViolation",
    "Location",
    "NetOp",
    "NetworkSimulator",
    "NodeMode",
    "OpKind",
    "RegisterFileArray",
    "ResourceEstimate",
    "RoutingConflict",
    "SimulationStats",
    "StreamBuffers",
    "StreamRef",
    "TopInstruction",
    "TopOpcode",
    "VectorAllocator",
    "VectorView",
    "clock_frequency_hz",
    "estimate_resources",
    "op_duration",
    "op_occupancy",
]
