"""Execution backends: the MIB compiled solver, the host reference,
and analytical models of the paper's baseline platforms."""

from .cpu import ReferenceRun, run_reference
from .mib import (
    MIBBatchReport,
    MIBNetworkSolveReport,
    MIBSolveReport,
    MIBSolver,
)
from .models import (
    PLATFORMS,
    Platform,
    cpu_platform_for,
    model_runtime,
    sample_jittered_runtimes,
)
from .session import SessionStep, SolveSession

__all__ = [
    "MIBBatchReport",
    "MIBNetworkSolveReport",
    "MIBSolveReport",
    "MIBSolver",
    "PLATFORMS",
    "Platform",
    "ReferenceRun",
    "cpu_platform_for",
    "model_runtime",
    "run_reference",
    "sample_jittered_runtimes",
    "SessionStep",
    "SolveSession",
]
