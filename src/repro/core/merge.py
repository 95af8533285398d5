"""Merging of PM-octree components (§3.2) and C0 loading.

Two triggers merge a C0 subtree out to NVBM:

1. DRAM pressure (``threshold_DRAM``): the least-frequently-accessed C0
   subtree is evicted.
2. The persist point: all of C0 merges so the whole working version becomes
   NVBM-resident before the atomic root publish.

The merge is a postorder sweep with *sharing detection*: a DRAM octant whose
payload never changed and whose merged children are exactly its NVBM
origin's children re-links to the origin record instead of writing a new
one.  That is what keeps NVBM write volume proportional to what actually
changed ("PM-octree only needs to write new and updated octants", §5.4) and
drives the Fig 3 overlap ratios.
"""

from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, Dict, List

import numpy as np

from repro.errors import ConsistencyError
from repro.nvbm import sites
from repro.nvbm.pointers import NULL_HANDLE, is_dram
from repro.nvbm.records import MAX_CHILDREN, as_records
from repro.octree import morton

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pmoctree import PMOctree

from repro.core.pmoctree import SLOT_CURR, C0Stats


def _postorder_locs(pmo: "PMOctree", root_loc: int) -> List[int]:
    """Children-before-parents order over the working tree below root_loc."""
    out: List[int] = []
    stack = [(root_loc, False)]
    while stack:
        loc, expanded = stack.pop()
        if loc not in pmo._index:
            continue
        if expanded or loc in pmo._leaf_set:
            out.append(loc)
        else:
            stack.append((loc, True))
            stack.extend(
                (c, False) for c in morton.children_of(loc, pmo.dim)
            )
    return out


#: C0 records one pass of the merge moves per arena call.  Bounded so the
#: gathered rows stay a few hundred kB whatever the size of C0
#: (``peak_rss_mb`` is a gated metric; docs/performance.md, "The persist
#: point as a batch").
_CHUNK = 1024

_NO_CHILDREN = [NULL_HANDLE] * MAX_CHILDREN


def _record_by_record(pmo: "PMOctree") -> bool:
    """Must the merge visit one record per arena call?  Yes while a crash
    plan waits between two records, and while a media fault model can fail
    a read: it judges every read at that read's own clock and wear."""
    return pmo.injector.armed(sites.MERGE_OCTANT) or any(
        arena.device.fault_model is not None
        and not arena.device.fault_model.quiescent
        for arena in (pmo.dram, pmo.nvbm))


def _merge_chunk(pmo: "PMOctree", locs: List[int],
                 merged: Dict[int, int]) -> int:
    """Merge ``locs`` — consecutive postorder visits — into NVBM, filling
    ``merged`` (loc -> NVBM handle); returns how many records it wrote.

    A chunk is its per-record visits in order — load the DRAM record; load
    the origin of a clean one; re-link to the origin when its child slots
    are the children's merged handles, else allocate, store the new image,
    detach the origin and declare ``merge.octant`` — with each kind of
    arena access gathered into one call: same values, same allocation and
    cache-directory order, same stats, clock and wear totals.  A chunk of
    one *is* the per-record sequence.
    """
    nvbm, dim, leaf_set = pmo.nvbm, pmo.dim, pmo._leaf_set
    handles = [pmo._index[loc] for loc in locs]
    for loc, handle in zip(locs, handles):
        if not is_dram(handle):
            raise ConsistencyError(
                f"I1 violated: {loc:#x} inside C0 subtree but not in DRAM"
            )
    origins = [pmo._origin.get(loc) for loc in locs]
    clean = [i for i, loc in enumerate(locs)
             if origins[i] is not None and loc not in pmo._dirty]
    clean_origins = np.array([origins[i] for i in clean], dtype=np.uint64)
    live = nvbm.contains_mask(clean_origins)
    if len(locs) > 1 and not live.all():
        # a freed origin's slot may be handed out again by an allocation of
        # this very chunk: only the visit itself can tell
        return sum(_merge_chunk(pmo, [loc], merged) for loc in locs)
    rows = pmo.dram.read_rows(handles)
    #: position in the chunk -> child slots of its (clean, live) origin
    origin_children: Dict[int, List[int]] = {}
    if live.any():
        origin_rows = nvbm.read_rows(clean_origins[live])
        origin_children = dict(zip(
            compress(clean, live.tolist()),
            as_records(origin_rows)["children"].tolist()))
    written: List[int] = []  # positions in the chunk, postorder
    new_children: List[List[int]] = []
    null_tail = _NO_CHILDREN[morton.fanout(dim):]
    for i, loc in enumerate(locs):
        if loc in leaf_set:
            children = _NO_CHILDREN
        else:
            children = [merged.get(c, NULL_HANDLE)
                        for c in morton.children_of(loc, dim)] + null_tail
        if origin_children.get(i) == children:
            merged[loc] = origins[i]  # unchanged: share with V_{i-1}
            continue
        merged[loc] = nvbm.alloc()
        written.append(i)
        new_children.append(children)
    if written:
        new_rows = rows[written]
        images = as_records(new_rows)
        images["epoch"] = pmo.epoch
        images["parent"] = NULL_HANDLE  # advisory
        images["children"] = new_children
        # pmlint: allow-direct-write — the handles were allocated a few
        # lines up: no version, published or working, references them yet.
        nvbm.write_rows([merged[locs[i]] for i in written], 0, new_rows)
        for i in written:
            if origins[i] is not None:
                # the shadow was rewritten: the old origin leaves the working
                # version but published predecessors may still reference it
                pmo._detach(origins[i])
        pmo.injector.site(sites.MERGE_OCTANT, count=len(written))
    return len(written)


def merge_subtree(pmo: "PMOctree", root_loc: int,
                  keep_resident: bool = False) -> int:
    """Write the DRAM subtree at ``root_loc`` into NVBM; return its handle.

    Does *not* splice the result into the parent — callers do that.

    With ``keep_resident`` False (eviction), the DRAM records are freed and
    the index migrates to the NVBM handles.  With True (the persist-point
    path), the subtree *stays* in DRAM and only its NVBM shadow is brought
    up to date — the §3.3 "octants are copied ... incrementally" behaviour:
    a subtree that stays hot across persist points is never recopied, only
    its dirty octants are written out.
    """
    if root_loc not in pmo._c0_roots:
        raise ConsistencyError(f"{root_loc:#x} is not a C0 subtree root")
    locs = _postorder_locs(pmo, root_loc)
    step = 1 if _record_by_record(pmo) else _CHUNK
    merged: Dict[int, int] = {}
    written = sum(_merge_chunk(pmo, locs[lo:lo + step], merged)
                  for lo in range(0, len(locs), step))
    pmo.stats.merges += 1
    pmo.stats.merge_octants_shared += len(merged) - written
    pmo.stats.merge_octants_written += written

    if keep_resident:
        # the DRAM copies stay; the NVBM shadow becomes their new origin
        pmo._origin.update(merged)
        pmo._dirty.difference_update(merged)
        stats = pmo._c0_roots[root_loc]
        stats.size = len(merged)
        stats.locs = set(merged)
    else:
        # eviction: release DRAM and point the working version at NVBM
        pmo.stats.c0_to_c1_octants += len(merged)
        for loc, nv_handle in merged.items():
            dram_handle = pmo._index[loc]
            pmo.dram.free(dram_handle)
            pmo._index[loc] = nv_handle
            pmo._origin.pop(loc, None)
            pmo._dirty.discard(loc)
        del pmo._c0_roots[root_loc]
    return merged[root_loc]


def splice_into_parent(pmo: "PMOctree", root_loc: int, new_handle: int) -> None:
    """Point the working version's parent of ``root_loc`` at ``new_handle``.

    A single child-slot store (one cache line), not a record rewrite.
    """
    if root_loc == morton.ROOT_LOC:
        pmo.nvbm.roots.set(SLOT_CURR, new_handle)
        return
    parent_loc = morton.parent_of(root_loc, pmo.dim)
    child_idx = morton.child_index_of(root_loc, pmo.dim)
    ph = pmo._index[parent_loc]
    if is_dram(ph):
        pmo.dram.write_child_slot(ph, child_idx, new_handle)
        pmo.stats.partial_writes += 1
        pmo._dirty.add(parent_loc)
        return
    ph = pmo._ensure_writable(parent_loc)
    pmo.nvbm.write_child_slot(ph, child_idx, new_handle)
    pmo.stats.partial_writes += 1


def evict_subtree(pmo: "PMOctree", root_loc: int) -> int:
    """DRAM-pressure eviction: merge one C0 subtree and splice it back."""
    pmo.injector.site(sites.EVICT_BEGIN)
    new_handle = merge_subtree(pmo, root_loc)
    splice_into_parent(pmo, root_loc, new_handle)
    return new_handle


def merge_all_c0(pmo: "PMOctree", keep_resident: bool = False) -> int:
    """Persist-point merge: every C0 subtree's NVBM shadow is brought up to
    date (and, unless ``keep_resident``, C0 is dissolved).

    Returns the NVBM handle of the complete persistent tree's root.
    """
    for root_loc in sorted(pmo._c0_roots, key=lambda leaf: morton.level_of(leaf, pmo.dim)):
        new_handle = merge_subtree(pmo, root_loc, keep_resident=keep_resident)
        splice_into_parent(pmo, root_loc, new_handle)
        pmo.injector.site(sites.MERGE_SUBTREE_DONE)
    root = pmo._index[morton.ROOT_LOC]
    if is_dram(root):
        # the root itself stayed resident; its shadow was published to the
        # current-root slot by splice_into_parent
        root = pmo.nvbm.roots.get(SLOT_CURR)
    return root


def subtree_locs(pmo: "PMOctree", root_loc: int) -> List[int]:
    """All working-version locs at or below ``root_loc``.

    O(size of the answer): a registered C0 root answers from its maintained
    loc set, everything else by walking the tree — never a full index scan.
    """
    if root_loc == morton.ROOT_LOC:
        return list(pmo._index)
    stats = pmo._c0_roots.get(root_loc)
    if stats is not None:
        return list(stats.locs)
    out: List[int] = []
    stack = [root_loc]
    while stack:
        loc = stack.pop()
        if loc not in pmo._index:
            continue
        out.append(loc)
        if loc not in pmo._leaf_set:
            stack.extend(morton.children_of(loc, pmo.dim))
    return out


def load_subtree(pmo: "PMOctree", root_loc: int) -> bool:
    """Bring the NVBM subtree at ``root_loc`` into DRAM as a C0 subtree.

    Returns False (and does nothing) when it does not fit in free DRAM.
    Nested C0 subtrees below ``root_loc`` are evicted first so the loaded
    subtree is contiguous in DRAM (invariant I1).
    """
    handle = pmo._index.get(root_loc)
    if handle is None:
        raise ConsistencyError(f"{root_loc:#x} not in working version")
    # evict any C0 subtree nested below the target
    level = morton.level_of(root_loc, pmo.dim)
    nested = [
        c0
        for c0 in pmo._c0_roots
        if c0 != root_loc
        and morton.level_of(c0, pmo.dim) > level
        and morton.ancestor_at(c0, pmo.dim, level) == root_loc
    ]
    for c0 in nested:
        evict_subtree(pmo, c0)
        pmo.stats.evictions += 1
    handle = pmo._index[root_loc]
    if is_dram(handle):
        return True  # already resident (was a nested-or-equal C0 root)
    locs = subtree_locs(pmo, root_loc)
    if len(locs) > pmo.c0_free:
        return False
    # copy top-down so parents exist before children
    locs.sort(key=lambda leaf: morton.level_of(leaf, pmo.dim))
    copied: Dict[int, int] = {}
    for loc in locs:
        nv = pmo._index[loc]
        rec = pmo.nvbm.read_octant(nv)
        new_rec = rec.copy()
        new_rec.parent = copied.get(
            morton.parent_of(loc, pmo.dim), NULL_HANDLE
        ) if loc != morton.ROOT_LOC else NULL_HANDLE
        new_rec.children = [NULL_HANDLE] * 8
        new_rec.epoch = pmo.epoch
        dh = pmo.dram.new_octant(new_rec)
        copied[loc] = dh
        pmo._origin[loc] = nv
        if loc != root_loc:
            ph = copied[morton.parent_of(loc, pmo.dim)]
            pmo.dram.write_child_slot(
                ph, morton.child_index_of(loc, pmo.dim), dh
            )
            pmo.stats.partial_writes += 1
        pmo.injector.site(sites.LOAD_OCTANT)
    for loc, dh in copied.items():
        pmo._index[loc] = dh
    pmo._c0_roots[root_loc] = C0Stats(size=len(locs), locs=set(locs))
    pmo.stats.c1_to_c0_octants += len(locs)
    splice_into_parent(pmo, root_loc, copied[root_loc])
    return True
