"""NVBM emulation substrate.

The paper emulates NVBM by adding RDTSCP spin-loop delays to loads/stores on
real DRAM (§5.1).  This package is the software analogue: every octant-record
access goes through a :class:`~repro.nvbm.arena.MemoryArena` whose
:class:`~repro.nvbm.device.MemoryDevice` advances a simulated clock by the
Table-2 latencies and counts accesses for endurance accounting.  Unlike the
paper's emulator, the arena also models the *volatile CPU write-back cache*:
stores that were never flushed are dropped — or torn at cache-line
granularity — when a crash is injected, so the consistency claims of
PM-octree are exercised for real instead of assumed.
"""

from repro.nvbm.clock import Category, SimClock
from repro.nvbm.device import MemoryDevice
from repro.nvbm.records import (
    FLAG_DELETED,
    FLAG_LEAF,
    NULL_HANDLE,
    OctantRecord,
    pack_record,
    unpack_record,
)
from repro.nvbm.pointers import (
    ARENA_DRAM,
    ARENA_NVBM,
    arena_of,
    index_of,
    is_dram,
    is_nvbm,
)
from repro.nvbm.allocator import RecordAllocator
from repro.nvbm.arena import MemoryArena, RootSlots
from repro.nvbm import sites
from repro.nvbm.failure import (
    CrashPlan,
    FailureInjector,
    UnknownCrashSiteWarning,
)

__all__ = [
    "ARENA_DRAM",
    "ARENA_NVBM",
    "Category",
    "CrashPlan",
    "FailureInjector",
    "UnknownCrashSiteWarning",
    "sites",
    "FLAG_DELETED",
    "FLAG_LEAF",
    "MemoryArena",
    "MemoryDevice",
    "NULL_HANDLE",
    "OctantRecord",
    "RecordAllocator",
    "RootSlots",
    "SimClock",
    "arena_of",
    "index_of",
    "is_dram",
    "is_nvbm",
    "pack_record",
    "unpack_record",
]
