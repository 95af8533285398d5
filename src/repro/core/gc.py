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

Every retained version is the working version plus per-epoch deltas, so
the mark walks only the working version and *pins* the deltas — COW
``superseded`` originals plus non-COW ``detached`` departures, the
unsettled epochs' and the current one's — which reconstruct every
retained version's reachable set by pure set union, with no device reads.
The published tree may lag the working version by the whole in-flight
window; traversing it would re-read every record unique to it.

GC must not run during a merge (the structure is mid-flight); the paper
disables it there and so do we (:class:`repro.errors.GCDisabledError` is
raised by :meth:`repro.core.pmoctree.PMOctree.gc`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core import walks

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pmoctree import PMOctree

from repro.core.pmoctree import SLOT_CURR, SLOT_PREV


@dataclass
class GCResult:
    """Outcome of one collection."""

    marked: int
    swept: int


def _mark(pmo: "PMOctree") -> np.ndarray:
    """The slots reachable from the live roots, as a bool mask over the
    arena's slots: one gather per tree level (:func:`walks.reach`) from the
    roots, plus the pins (module docstring) — no reads for those."""
    nvbm = pmo.nvbm
    # pin, don't traverse: old-version-only records plus the root slots
    # and in-flight roots themselves (their interiors are covered by the
    # working-version walk + the pins).  The union happens *after* the
    # walk — a pin that is also a working-version record must still be
    # traversed normally.
    pins = pmo._pipeline.pinned_handles()
    pins.extend(pmo._superseded)
    pins.extend(pmo._detached)
    pins.extend(pmo._pipeline.live_roots())
    pins.extend(nvbm.roots.get(slot) for slot in (SLOT_PREV, SLOT_CURR))
    roots = [*pmo._index.values(), *pmo._origin.values()]

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
    nvbm.free_rows(dead)
    pmo.stats.gc_runs += 1
    pmo.stats.octants_reclaimed += len(dead)
    return GCResult(marked=int(np.count_nonzero(marked)), swept=len(dead))
