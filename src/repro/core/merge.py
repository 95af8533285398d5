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
drives the Fig 3 overlap ratios.  Each chunk of the postorder decides its
re-links with array ops (:func:`_merge_chunk`).

The §3.3 C1 -> C0 load is its mirror: top-down chunks of one gather, one
batch allocation and one store each (:func:`_load_chunk`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

import numpy as np

from repro.errors import ConsistencyError
from repro.nvbm import sites
from repro.nvbm.pointers import (_INDEX_BITS, ARENA_DRAM, ARENA_NVBM,
                                 NULL_HANDLE, is_dram)
from repro.nvbm.records import (MAX_CHILDREN, as_records, child_span,
                                pack_handles)
from repro.octree import morton
from repro.octree.soa import levels_of_codes

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pmoctree import PMOctree

from repro.core import walks
from repro.core.c0 import C0Stats
from repro.core.cow import read_could_fail
from repro.core.pmoctree import SLOT_CURR


def _postorder_locs(pmo: "PMOctree", root_loc: int) -> np.ndarray:
    """Children-before-parents order over the working tree below root_loc:
    one sort of its locs (:func:`repro.core.walks.postorder`)."""
    return walks.postorder(
        np.array(subtree_locs(pmo, root_loc), dtype=np.int64), pmo.dim)


#: C0 records one pass of the merge moves per arena call.  Bounded so the
#: gathered rows stay a few hundred kB whatever the size of C0
#: (``peak_rss_mb`` is a gated metric; docs/performance.md, "The persist
#: point as a batch").
_CHUNK = 1024


def _chunks(pmo: "PMOctree", site: str, codes: np.ndarray):
    """``codes`` in runs of at most ``_CHUNK``: a record visits ``site``
    once, so a firing visit is the last record of its run."""
    lo = 0
    while lo < len(codes):
        step = 1 + pmo.injector.visits_before_fire(site, _CHUNK - 1)
        yield codes[lo:lo + step]
        lo += step


def _merge_chunk(pmo: "PMOctree", codes: np.ndarray,
                 merged: Dict[int, int]) -> int:
    """Merge ``codes`` — consecutive postorder visits — into NVBM, filling
    ``merged`` (loc -> NVBM handle); returns how many records it wrote.

    A chunk is its per-record visits in order — load the DRAM record; load
    the origin of a clean one; re-link to the origin when its child slots
    are the children's merged handles, else allocate, store the new image,
    detach the origin and declare ``merge.octant`` — with each kind of
    arena access one call and the re-links decided with array ops: a fresh
    record matches no slot that names a live one, so an octant re-links
    exactly when it and every octant below it in the chunk pass the slot
    compare.  A chunk of one *is* the per-record sequence: a chunk whose
    reads could fail, or whose clean origins name a freed record, runs as
    chunks of one.
    """
    nvbm, dim, m = pmo.nvbm, pmo.dim, len(codes)
    locs = codes.tolist()
    origin, dirty = pmo._origin, pmo._dirty
    handles = np.array([pmo._index[loc] for loc in locs], dtype=np.uint64)
    foreign = np.flatnonzero(handles >> np.uint64(_INDEX_BITS) != ARENA_DRAM)
    if foreign.size:
        raise ConsistencyError(f"I1 violated: {locs[foreign[0]]:#x} inside "
                               "C0 subtree but not in DRAM")
    # the origins of the clean octants (NULL elsewhere) and the live ones
    origins = np.array([NULL_HANDLE if loc in dirty
                        else origin.get(loc, NULL_HANDLE) for loc in locs],
                       dtype=np.uint64)
    live = nvbm.contains_mask(origins)
    reads = origins[live]
    if m > 1 and (np.count_nonzero(origins) != reads.size
                  or read_could_fail(pmo.dram, handles)
                  or read_could_fail(nvbm, reads)
                  or reads.size and _names_freed(nvbm, reads)):
        # an allocation of this very chunk may hand a freed slot out again,
        # and a failing read must fail after the visits before it
        return sum(_merge_chunk(pmo, codes[i:i + 1], merged)
                   for i in range(m))
    rows = pmo.dram.read_rows(handles)
    slots = np.zeros((m, MAX_CHILDREN), dtype=np.uint64)
    if reads.size:
        slots[live] = as_records(nvbm.read_rows(reads))["children"]
    # each child's merged handle if the chunk shares it: the origin of a
    # child in the chunk, the merged handle of one an earlier chunk merged
    fanout = 1 << dim
    kids = (codes[:, None] << dim) | np.arange(fanout)
    order = codes.argsort()
    at = order[np.searchsorted(codes[order], kids).clip(max=m - 1)]
    inside = codes[at] == kids
    want = np.zeros((m, MAX_CHILDREN), dtype=np.uint64)  # NULL past fanout
    want[:, :fanout] = origins[at] * inside
    if merged:
        # only the chunk's first octant and its ancestors can have a child
        # before the chunk: a child ends its run right before its parent
        outer = inside.any(axis=1)
        outer[0] = True
        for r, s in zip(*np.nonzero(outer[:, None] & ~inside)):
            want[r, s] = merged.get(int(kids[r, s]), NULL_HANDLE)
    ok = live & (slots == want).all(axis=1)
    keys, spans = walks.postorder_keys(codes, dim)
    failed = np.concatenate(([0], np.cumsum(~ok)))
    written = np.flatnonzero(
        failed[1:] != failed[np.searchsorted(keys, keys - spans)])
    handle_of = origins.copy()
    handle_of[written] = nvbm.alloc_rows(written.size)
    merged.update(zip(locs, handle_of.tolist()))
    if written.size:
        new_rows = rows[written]
        images = as_records(new_rows)
        images["epoch"] = pmo.epoch
        images["parent"] = NULL_HANDLE  # advisory
        images["children"] = want[written]
        images["children"][:, :fanout] = np.where(
            inside[written], handle_of[at[written]], want[written, :fanout])
        # pmlint: allow[bypass-cow]: the handles were allocated a few
        # lines up: no version, published or working, references them yet.
        nvbm.write_rows(handle_of[written], 0, new_rows)
        for i in written.tolist():
            if locs[i] in origin:
                # the shadow was rewritten: the old origin leaves the working
                # version but published predecessors may still reference it
                pmo._detach(origin[locs[i]])
        pmo.injector.site(sites.MERGE_OCTANT, count=written.size)
    return written.size


def _names_freed(nvbm, origins: np.ndarray) -> bool:
    """Does a child slot of the records ``origins`` name an NVBM record
    that is no longer allocated?  An unmetered look-ahead at their bytes."""
    with nvbm.device.unmetered():
        rows = nvbm.read_rows(origins, *child_span(0, MAX_CHILDREN),
                              charge=False)
    if rows is None:
        return True
    slots = rows.view("<u8").ravel()
    slots = slots[slots >> np.uint64(_INDEX_BITS) == ARENA_NVBM]
    return not nvbm.contains_mask(slots).all()


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
    written = sum(_merge_chunk(pmo, chunk, merged) for chunk in _chunks(
        pmo, sites.MERGE_OCTANT, _postorder_locs(pmo, root_loc)))
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

    A single child-slot store (one cache line), not a record rewrite; a
    shared NVBM parent is made writable first, in the same scope.
    """
    if root_loc == morton.ROOT_LOC:
        pmo.nvbm.roots.set(SLOT_CURR, new_handle)
        return
    parent_loc = morton.parent_of(root_loc, pmo.dim)
    slot = child_span(morton.child_index_of(root_loc, pmo.dim))[0]
    ph = pmo._index[parent_loc]
    with pmo.batch() as buf:
        if is_dram(ph):
            pmo._dirty.add(parent_loc)
        else:
            ph = buf.writable(parent_loc)
        buf.store(pmo._arena_of(ph), ph, slot, pack_handles((new_handle,)))
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
    # copy top-down so parents exist before children; the stable sort keeps
    # subtree_locs order within a level, and that is the allocation order
    codes = np.array(locs, dtype=np.int64)
    codes = codes[np.argsort(levels_of_codes(codes, pmo.dim), kind="stable")]
    copied: Dict[int, int] = {}
    for chunk in _chunks(pmo, sites.LOAD_OCTANT, codes):
        _load_chunk(pmo, chunk, root_loc, copied)
    pmo._index.update(copied)
    pmo._c0_roots[root_loc] = C0Stats(size=len(locs), locs=set(locs))
    pmo.stats.c1_to_c0_octants += len(locs)
    splice_into_parent(pmo, root_loc, copied[root_loc])
    return True


def _load_chunk(pmo: "PMOctree", codes: np.ndarray, root_loc: int,
                copied: Dict[int, int]) -> None:
    """Copy ``codes`` (consecutive top-down visits) into DRAM, filling
    ``copied``: :func:`_merge_chunk`'s mirror.  Per record a read, an alloc,
    a store of the DRAM copy (parent the parent's copy, no children, this
    epoch), a splice into its parent and a ``load.octant`` visit, each kind
    one call (splices one per slot index); reads that may fail go singly."""
    nvbm, dram, dim, m = pmo.nvbm, pmo.dram, pmo.dim, len(codes)
    locs = codes.tolist()
    origins = np.array([pmo._index[loc] for loc in locs], dtype=np.uint64)
    if m > 1 and read_could_fail(nvbm, origins):
        for i in range(m):
            _load_chunk(pmo, codes[i:i + 1], root_loc, copied)
        return
    rows = nvbm.read_rows(origins)
    handles = dram.alloc_rows(m)
    copied.update(zip(locs, handles.tolist()))
    # the subtree root's parent is outside the subtree: NULL
    parents = np.array([copied.get(loc >> dim, NULL_HANDLE) for loc in locs],
                       dtype=np.uint64)
    images = as_records(rows)
    images["parent"] = parents
    images["children"] = NULL_HANDLE
    images["epoch"] = pmo.epoch
    images[["pad", "tail"]] = 0
    dram.write_rows(handles, 0, rows)
    kid, slot_of = codes != root_loc, codes & ((1 << dim) - 1)
    links = handles.astype("<u8").view(np.uint8).reshape(m, 8)
    for slot in range(1 << dim):
        at = kid & (slot_of == slot)
        dram.write_rows(parents[at], child_span(slot)[0], links[at])
    pmo.stats.partial_writes += int(np.count_nonzero(kid))
    pmo._origin.update(zip(locs, origins.tolist()))
    pmo.injector.site(sites.LOAD_OCTANT, count=m)
