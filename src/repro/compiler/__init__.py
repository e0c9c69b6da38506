"""The MIB compiler: sparsity-pattern-specific lowering of solver
operations to network instructions, and multi-issue scheduling."""

from .cache import (
    CACHE_FORMAT_VERSION,
    CacheStats,
    CompiledArtifact,
    ScheduleCache,
    VectorSlot,
    pattern_fingerprint,
)
from .kernels import KernelBuilder, NetworkProgram
from .matrixview import RowMajorView, l_row_positions, row_major_view
from .metrics import (
    SchedulingComparison,
    compare_scheduling,
    dependency_edge_count,
    render_occupancy,
)
from .scheduler import (
    Schedule,
    ScheduleOptions,
    schedule_program,
)
from .serialize import (
    FORMAT_VERSION,
    SerializationError,
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "CompiledArtifact",
    "FORMAT_VERSION",
    "ScheduleCache",
    "SerializationError",
    "VectorSlot",
    "pattern_fingerprint",
    "load_schedule",
    "save_schedule",
    "schedule_from_dict",
    "schedule_to_dict",
    "KernelBuilder",
    "NetworkProgram",
    "RowMajorView",
    "Schedule",
    "ScheduleOptions",
    "SchedulingComparison",
    "compare_scheduling",
    "dependency_edge_count",
    "l_row_positions",
    "render_occupancy",
    "row_major_view",
    "schedule_program",
]
