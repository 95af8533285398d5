"""The record allocator of a memory arena.

§3.2's deletion optimisation — deleted NVBM octants are only *marked* and
their slots recycled by GC later — maps to :meth:`RecordAllocator.free`
being called by the garbage collector, never by the deletion path itself.

The recycling order is data: LIFO by default, FIFO under
``MemoryArena(wear_leveling=True)``.  LIFO concentrates writes on a few
slots, which is exactly wrong for a medium with a 1e6-1e8 writes/bit
endurance budget (Table 2); FIFO rotates allocations across the whole slot
space so per-cell wear approaches the theoretical minimum (total writes /
capacity).  The endurance ablation benchmark measures the difference.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Set

import numpy as np

from repro.errors import InvalidHandleError, OutOfMemoryError


class RecordAllocator:
    """Allocates integer record indices in ``[0, capacity)``.

    Freed indices wait in one free deque.  LIFO (``fifo=False``) pops the
    newest one before touching the bump pointer; FIFO (``fifo=True``) takes
    never-used bump slots first, then the oldest free one, so over a steady
    churn of an N-slot working set in a C-slot arena the max per-slot wear
    approaches total_writes/C instead of total_writes/N (the §1 endurance
    motivation).  The wear tracker in
    :class:`repro.nvbm.device.MemoryDevice` makes either order's cost
    observable.
    """

    def __init__(self, capacity: int, name: str = "arena",
                 fifo: bool = False):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.fifo = fifo
        self._bump = 0
        self._free: Deque[int] = deque()
        self._allocated = np.zeros(capacity, dtype=bool)
        #: the same flags through the buffer protocol: a scalar test or set
        #: is a plain byte access, not a numpy scalar round trip
        self._alloc_mv = memoryview(self._allocated)
        self._retired: Set[int] = set()

    @property
    def used(self) -> int:
        """Number of live (allocated) record slots."""
        return self._bump - len(self._free) - len(self._retired)

    @property
    def retired(self) -> int:
        """Number of slots permanently taken out of rotation (bad media)."""
        return len(self._retired)

    @property
    def free_fraction(self) -> float:
        """Fraction of total capacity still available (drives thresholds)."""
        return 1.0 - (self.used + len(self._retired)) / self.capacity

    def alloc(self) -> int:
        """Return a fresh record index; raise OutOfMemoryError when full."""
        free = self._free
        while True:
            if free and not self.fifo:
                idx = free.pop()
            elif self._bump < self.capacity:
                idx = self._bump
                self._bump += 1
            elif free:
                idx = free.popleft()
            else:
                raise OutOfMemoryError(self.name, self.capacity)
            if idx not in self._retired:
                break
        self._alloc_mv[idx] = True
        return idx

    def alloc_many(self, n: int) -> List[int]:
        """:meth:`alloc` ``n`` times while slots last: the indices in order,
        fewer only on a full arena (the caller raises).  A bump slot is never
        retired (slots retire from allocated, below the bump pointer)."""
        free, retired = self._free, self._retired
        pop = free.popleft if self.fifo else free.pop
        out: List[int] = []
        if self.fifo:
            out.extend(range(self._bump, min(self._bump + n, self.capacity)))
            self._bump += len(out)
        while free and len(out) < n:
            idx = pop()
            if idx not in retired:
                out.append(idx)
        if not self.fifo:
            k = min(n - len(out), self.capacity - self._bump)
            out.extend(range(self._bump, self._bump + k))
            self._bump += k
        self._allocated[out] = True
        return out

    def free(self, index: int) -> None:
        """Return an index to the free list."""
        self._validate(index)
        self._alloc_mv[index] = False
        self._free.append(index)

    def free_many(self, indices: List[int]) -> None:
        """:meth:`free` of each of the (validated, distinct) ``indices``."""
        self._allocated[indices] = False
        self._free += indices

    def retire(self, index: int) -> None:
        """Permanently remove a slot whose media went bad.

        The slot is deallocated but *never* recycled: it joins the retired
        set that every alloc path skips.  Capacity shrinks accordingly
        (``free_fraction`` treats retired slots as spent).
        """
        self._validate(index)
        self._alloc_mv[index] = False
        self._retired.add(index)

    def is_retired(self, index: int) -> bool:
        return index in self._retired

    def is_allocated(self, index: int) -> bool:
        return 0 <= index < self.capacity and self._alloc_mv[index]

    def _validate(self, index: int) -> None:
        if not (0 <= index < self.capacity):
            raise InvalidHandleError(f"{self.name}: index {index} out of range")
        if not self._alloc_mv[index]:
            raise InvalidHandleError(f"{self.name}: index {index} is not allocated")

    def live_indices(self) -> np.ndarray:
        """Currently-allocated indices, ascending (for GC sweeps)."""
        return np.flatnonzero(self._allocated[: self._bump])

    def reset(self) -> None:
        """Drop all allocations (used when a volatile arena loses power)."""
        self._bump = 0
        self._free.clear()
        self._allocated[:] = False
        self._retired.clear()
