"""Virtual GPU: SIMT warps, threadblocks, memory spaces, cost model.

This package is the hardware-substitution substrate (DESIGN.md §2): it
provides the execution model STMatch's algorithms run on in place of
CUDA hardware — deterministic, instrumented, and capacity-limited so
out-of-memory failures reproduce faithfully.
"""

from .costmodel import WARP_SIZE, CpuCostModel, GpuCostModel
from .device import DeviceConfig, VirtualDevice
from .memory import DeviceOOMError, GlobalMemory, MemorySpace, SharedMemory
from .primitives import (
    ballot_sync,
    compact_offsets,
    lane_binary_search,
    lanemask_lt,
    popc,
    warp_exclusive_scan,
)
from .scheduler import EventScheduler, StepResult
from .setops import (
    combined_set_op,
    combined_set_op_lockstep,
    single_set_op,
)
from .warp import Warp, WarpCounters

__all__ = [
    "WARP_SIZE",
    "GpuCostModel",
    "CpuCostModel",
    "DeviceConfig",
    "VirtualDevice",
    "MemorySpace",
    "SharedMemory",
    "GlobalMemory",
    "DeviceOOMError",
    "Warp",
    "WarpCounters",
    "EventScheduler",
    "StepResult",
    "ballot_sync",
    "popc",
    "lanemask_lt",
    "warp_exclusive_scan",
    "lane_binary_search",
    "compact_offsets",
    "combined_set_op",
    "combined_set_op_lockstep",
    "single_set_op",
]
