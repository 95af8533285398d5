"""Mark-and-sweep garbage collection over the NVBM arena (§3.2).

Deletion never frees NVBM slots directly — octants are only marked — so the
arena fills with superseded COW originals, coarsened children and records
orphaned by crashes (allocated but torn/never flushed).  GC reclaims
everything not reachable from the live roots:

* the persistent root ``V_{i-1}``,
* the working version (its NVBM handles in the index — this also covers the
  current root when it is a DRAM handle),
* the NVBM origins of DRAM-resident C0 octants (still needed as sharing
  targets at the next merge),
* the roots of in-flight pipeline epochs (enqueued but not yet published —
  reachable from no root slot, and possibly not from the index either once
  the next step coarsens; sweeping one would dangle its scheduled publish).

Under the epoch pipeline the published tree can lag the working version by
several epochs; rather than traversing each retained version (re-reading
every record unique to it), the mark *pins* the per-epoch deltas — COW
``superseded`` originals plus non-COW ``detached`` departures — which
reconstruct every retained version's reachable set from the working
version's by pure set union, with no device reads.

GC must not run during a merge (the structure is mid-flight); the paper
disables it there and so do we (:class:`repro.errors.GCDisabledError` is
raised by :meth:`repro.core.pmoctree.PMOctree.gc`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core import walks
from repro.nvbm.pointers import NULL_HANDLE, is_nvbm

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pmoctree import PMOctree

from repro.core.pmoctree import SLOT_CURR, SLOT_PREV


@dataclass
class GCResult:
    """Outcome of one collection."""

    marked: int
    swept: int

    @property
    def reclaimed(self) -> int:
        return self.swept


def _mark(pmo: "PMOctree") -> np.ndarray:
    """The slots reachable from the live roots, as a bool mask over the
    arena's slots: one gather per tree level (:func:`walks.reach`) from the
    roots, plus the pins (module docstring) — no reads for those."""
    nvbm = pmo.nvbm
    roots = []
    pins = []
    if pmo._pipeline is not None:
        # pin, don't traverse: old-version-only records plus the root
        # slots and in-flight roots themselves (their interiors are
        # covered by the working-version walk + the pins).  The union
        # happens *after* the walk — a pin that is also a working-version
        # record must still be traversed normally.
        pins = pmo._pipeline.pinned_handles()
        pins.extend(pmo._superseded)
        pins.extend(pmo._detached)
        pins.extend(pmo._pipeline.live_roots())
        for slot in (SLOT_PREV, SLOT_CURR):
            pins.append(nvbm.roots.get(slot))
    else:
        for slot in (SLOT_PREV, SLOT_CURR):
            h = nvbm.roots.get(slot)
            if h != NULL_HANDLE and is_nvbm(h):
                roots.append(h)
    roots.extend(pmo._index.values())
    roots.extend(pmo._origin.values())

    marked = np.zeros(nvbm.slots, dtype=bool)
    levels, _ = walks.reach(nvbm, np.array(roots, dtype=np.uint64), pmo.dim)
    for slots in levels:
        marked[slots] = True
    pins = np.array(pins, dtype=np.uint64)
    marked[nvbm.slots_of(pins[nvbm.contains_mask(pins)])] = True
    return marked


def mark_and_sweep(pmo: "PMOctree") -> GCResult:
    """Free every NVBM record unreachable from the live roots."""
    marked = _mark(pmo)
    nvbm = pmo.nvbm
    live = nvbm.allocator.live_indices()
    dead = nvbm.handles_of(live[~marked[live]]).tolist()
    for h in dead:
        nvbm.free(h)
    pmo.stats.gc_runs += 1
    pmo.stats.octants_reclaimed += len(dead)
    return GCResult(marked=int(np.count_nonzero(marked)), swept=len(dead))
