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

from typing import TYPE_CHECKING, Dict, List

from repro.errors import ConsistencyError
from repro.nvbm import sites
from repro.nvbm.pointers import NULL_HANDLE, is_dram
from repro.nvbm.records import OctantRecord
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
    merged: Dict[int, int] = {}
    shared = 0
    for loc in _postorder_locs(pmo, root_loc):
        handle = pmo._index[loc]
        if not is_dram(handle):
            raise ConsistencyError(
                f"I1 violated: {loc:#x} inside C0 subtree but not in DRAM"
            )
        rec = pmo.dram.read_octant(handle)
        child_handles = [
            merged[c] if c in merged else NULL_HANDLE
            for c in morton.children_of(loc, pmo.dim)
        ] + [NULL_HANDLE] * (8 - morton.fanout(pmo.dim))
        origin = pmo._origin.get(loc)
        if (
            origin is not None
            and loc not in pmo._dirty
            and pmo.nvbm.contains(origin)
        ):
            origin_rec = pmo.nvbm.read_octant(origin)
            if origin_rec.children == child_handles:
                merged[loc] = origin  # unchanged: share with V_{i-1}
                shared += 1
                continue
        new_rec = OctantRecord(
            loc=rec.loc,
            level=rec.level,
            flags=rec.flags,
            epoch=pmo.epoch,
            payload=tuple(rec.payload),
            parent=NULL_HANDLE,  # advisory; fixed below for children
            children=child_handles,
        )
        merged[loc] = pmo.nvbm.new_octant(new_rec)
        if origin is not None:
            # the shadow was rewritten: the old origin leaves the working
            # version but published predecessors may still reference it
            pmo._detach(origin)
        pmo.injector.site(sites.MERGE_OCTANT)
    pmo.stats.merges += 1
    pmo.stats.merge_octants_shared += shared
    pmo.stats.merge_octants_written += len(merged) - shared

    if keep_resident:
        # the DRAM copies stay; the NVBM shadow becomes their new origin
        for loc, nv_handle in merged.items():
            pmo._origin[loc] = nv_handle
            pmo._dirty.discard(loc)
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
