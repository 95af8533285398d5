"""Handle (persistent-pointer) encoding.

The paper's §1 third challenge is "special pointers" that cross the
DRAM/NVBM boundary: a persistent octant may point at a volatile one and vice
versa, and recovery must fix them up.  We make the boundary explicit in the
pointer representation: a *handle* is a 64-bit integer whose top 16 bits name
the arena (1 = DRAM, 2 = NVBM) and whose low 48 bits are a record index
within that arena.  Handle 0 is NULL.

After a crash every DRAM handle embedded in a surviving NVBM record is a
dangling pointer by construction; :mod:`repro.core.recovery` finds and
re-swizzles them, exactly the bookkeeping the paper's library hides from
application developers.
"""

from __future__ import annotations

NULL_HANDLE = 0

ARENA_DRAM = 1
ARENA_NVBM = 2

_INDEX_BITS = 48
_INDEX_MASK = (1 << _INDEX_BITS) - 1


def arena_of(handle: int) -> int:
    """Arena tag of a non-null handle."""
    return handle >> _INDEX_BITS


def index_of(handle: int) -> int:
    """Record index of a non-null handle."""
    return handle & _INDEX_MASK


def is_dram(handle: int) -> bool:
    # NULL_HANDLE's arena tag is 0, neither arena's
    return handle >> _INDEX_BITS == ARENA_DRAM


def is_nvbm(handle: int) -> bool:
    return handle >> _INDEX_BITS == ARENA_NVBM
