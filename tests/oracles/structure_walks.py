"""Record-by-record structure walks — the oracle for the level-order walks.

Moved verbatim from ``repro.core.gc._mark``, ``PMOctree.reachable_from``
(``self`` spelled ``pmo``) and ``repro.core.recovery._restore_traverse`` when
``src`` made them one gather per tree level (:mod:`repro.core.walks`).  Each
visits one record per ``read_octant`` call, depth first off an explicit
stack, so it is the access sequence — and, where the walk fills ``_index``,
``_leaf_set`` or a returned set, the *insertion order* — the level-order
walks must reproduce, in values and in device metering.

:func:`merge_subtree` moved here the same way when ``src`` made the persist
merge a chunk of postorder visits per arena call
(``repro.core.merge._merge_chunk``): one ``read_octant`` of the C0 record,
one of a clean origin, one ``new_octant`` and one ``merge.octant`` visit per
octant.  :func:`inject_merge` swaps it in under the name ``evict_subtree``
and ``merge_all_c0`` call.

:func:`load_subtree` moved here when ``src`` made the C1 -> C0 load a
chunk of top-down visits per arena call (``repro.core.merge._load_chunk``):
one ``read_octant``, one ``new_octant``, one ``write_child_slot`` and one
``load.octant`` visit per octant.  Its calls of ``evict_subtree``,
``subtree_locs`` and ``splice_into_parent`` go through ``repro.core.merge``
(whatever is injected there); :func:`inject_load` swaps it in.

:func:`incore_checkpoint` and :func:`incore_restore_from` are
``InCoreOctree.checkpoint``/``.restore_from`` (``self`` spelled ``tree``)
from before ``src`` made them one gather and one level-at-a-time landing:
one ``get_record`` per preorder octant, and one ``refine`` +
``set_payload`` per snapshot entry.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Set

from repro.baselines.incore import _HEADER, _MAGIC
from repro.core import merge
from repro.core.c0 import C0Stats
from repro.core.pmoctree import SLOT_CURR, SLOT_PREV
from repro.errors import ConsistencyError, RecoveryError, ReproError
from repro.nvbm import sites
from repro.nvbm.pointers import NULL_HANDLE, is_dram, is_nvbm
from repro.nvbm.records import FLAG_DELETED, FLAG_LEAF, OctantRecord
from repro.octree import morton

#: Snapshot record: loc (Q), flags (B), 4 payload doubles.
_SNAP = struct.Struct("<QB4d")


def _mark(pmo: "PMOctree") -> Set[int]:
    """BFS over NVBM records from the working version, plus the pins.

    The published root lags the working version by up to ``max_inflight``
    epochs, and a traversal of the old tree would *re-read* every record
    unique to it.  Instead the mark walks only the working version and
    **pins** the per-epoch deltas (COW originals and detached records):
    version *k*'s reachable set is the working version's plus the deltas
    of every later epoch, so the union is exact, with zero reads.
    """
    seen: Set[int] = set()
    # pin, don't traverse: old-version-only records plus the root slots
    # and in-flight roots themselves (their interiors are covered by the
    # working-version walk + the pins).  The union happens *after* the
    # walk — a pin that is also a working-version record must still be
    # traversed normally.
    raw = pmo._pipeline.pinned_handles()
    raw.extend(pmo._superseded)
    raw.extend(pmo._detached)
    raw.extend(pmo._pipeline.live_roots())
    for slot in (SLOT_PREV, SLOT_CURR):
        raw.append(pmo.nvbm.roots.get(slot))
    pins = {h for h in raw
            if h != NULL_HANDLE and is_nvbm(h) and pmo.nvbm.contains(h)}
    roots = [h for h in pmo._index.values() if is_nvbm(h)]
    roots.extend(h for h in pmo._origin.values() if is_nvbm(h))

    stack = [h for h in roots if pmo.nvbm.contains(h)]
    while stack:
        h = stack.pop()
        if h in seen:
            continue
        seen.add(h)
        rec = pmo.nvbm.read_octant(h)
        for ch in rec.live_children():
            if is_nvbm(ch) and ch not in seen and pmo.nvbm.contains(ch):
                stack.append(ch)
    seen |= pins
    return seen


def reachable_from(pmo, root_handle: int) -> Set[int]:
    """NVBM handles reachable from an NVBM root (DRAM pointers skipped)."""
    seen: Set[int] = set()
    if not is_nvbm(root_handle):
        return seen
    with pmo.unmetered_inspection():
        stack = [root_handle]
        while stack:
            h = stack.pop()
            if h in seen or not pmo.nvbm.contains(h):
                continue
            seen.add(h)
            rec = pmo.nvbm.read_octant(h)
            for ch in rec.live_children():
                if is_nvbm(ch):
                    stack.append(ch)
    return seen


def _restore_traverse(pmo: "PMOctree") -> int:
    pmo.merging = False
    # in-flight epochs died with the volatile caches; their publishes never
    # happened and must not be replayed against the restored tree
    pmo._pipeline.reset()
    root = pmo.nvbm.roots.get(SLOT_PREV)
    if root == NULL_HANDLE:
        raise RecoveryError("no persistent version exists (never persisted)")
    if not is_nvbm(root):
        raise ConsistencyError("persistent root is not an NVBM handle")
    pmo.nvbm.roots.set(SLOT_CURR, root)

    # Drop every volatile structure; anything DRAM-resident is gone anyway
    # after a real crash (callers crash the arenas first), and a voluntary
    # rollback must discard it too.
    for h in list(pmo.dram.live_handles()):
        pmo.dram.free(h)
    pmo._index.clear()
    pmo._leaf_set.clear()
    pmo._c0_roots.clear()
    pmo._origin.clear()
    pmo._dirty.clear()
    pmo._superseded.clear()
    pmo._detached.clear()

    max_epoch = 0
    stack = [(root, morton.ROOT_LOC, 0)]
    count = 0
    while stack:
        handle, expect_loc, expect_level = stack.pop()
        if not pmo.nvbm.contains(handle):
            raise ConsistencyError(
                f"persistent tree references unallocated record {handle:#x}"
            )
        rec = pmo.nvbm.read_octant(handle)
        if rec.loc != expect_loc or rec.level != expect_level:
            raise ConsistencyError(
                f"record {handle:#x} claims loc={rec.loc:#x}/L{rec.level}, "
                f"expected {expect_loc:#x}/L{expect_level}"
            )
        if rec.is_deleted:
            raise ConsistencyError(
                f"persistent tree references deleted record {handle:#x}"
            )
        max_epoch = max(max_epoch, rec.epoch)
        pmo._index[expect_loc] = handle
        if rec.is_leaf:
            pmo._leaf_set.add(expect_loc)
        else:
            for idx, ch in enumerate(rec.children[: morton.fanout(pmo.dim)]):
                if ch == NULL_HANDLE:
                    raise ConsistencyError(
                        f"internal record {handle:#x} has a null child slot"
                    )
                if not is_nvbm(ch):
                    raise ConsistencyError(
                        f"persistent record {handle:#x} points into DRAM"
                    )
                stack.append(
                    (ch, morton.child_of(expect_loc, pmo.dim, idx),
                     expect_level + 1)
                )
        count += 1
    pmo.epoch = max_epoch + 1
    return count


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


def inject_merge(monkeypatch) -> None:
    """Run every persist-point and eviction merge on the per-record
    :func:`merge_subtree` for the rest of the test (or ``monkeypatch``
    context)."""
    monkeypatch.setattr("repro.core.merge.merge_subtree", merge_subtree)


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
        merge.evict_subtree(pmo, c0)
        pmo.stats.evictions += 1
    handle = pmo._index[root_loc]
    if is_dram(handle):
        return True  # already resident (was a nested-or-equal C0 root)
    locs = merge.subtree_locs(pmo, root_loc)
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
    merge.splice_into_parent(pmo, root_loc, copied[root_loc])
    return True


def inject_load(monkeypatch) -> None:
    """Run every C1 -> C0 load (a transformation's, the static layout's,
    a direct ``merge.load_subtree``) on the per-record
    :func:`load_subtree` for the rest of the test (or ``monkeypatch``
    context)."""
    monkeypatch.setattr("repro.core.merge.load_subtree", load_subtree)
    monkeypatch.setattr("repro.core.transform.load_subtree", load_subtree)


def incore_checkpoint(tree, fs, name: str) -> int:
    """Serialise every octant into a snapshot file; returns bytes written."""
    from repro.octree.traversal import preorder

    chunks: List[bytes] = []
    count = 0
    for loc in preorder(tree):
        rec = tree.get_record(loc)
        chunks.append(_SNAP.pack(rec.loc, rec.flags, *rec.payload))
        count += 1
    blob = _HEADER.pack(_MAGIC, tree.dim, count) + b"".join(chunks)
    f = fs.create(name)
    f.append(blob)
    return len(blob)


def incore_restore_from(cls, fs, name: str, arena):
    """Rebuild the tree from a snapshot file (the §5.6 recovery path)."""
    try:
        blob = fs.open(name).read_all()
    except Exception as exc:
        raise RecoveryError(f"cannot open snapshot {name!r}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise RecoveryError(f"snapshot {name!r} is truncated")
    magic, dim, count = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise RecoveryError(f"snapshot {name!r} has bad magic {magic!r}")
    expected = _HEADER.size + count * _SNAP.size
    if len(blob) < expected:
        raise RecoveryError(
            f"snapshot {name!r} is truncated: {len(blob)} < {expected}"
        )
    entries = []
    off = _HEADER.size
    for _ in range(count):
        fields = _SNAP.unpack_from(blob, off)
        off += _SNAP.size
        entries.append((fields[0], fields[1], fields[2:6]))
    tree = cls(arena, dim=dim)
    # parents come before children in the preorder dump
    for loc, flags, payload in entries:
        if loc != morton.ROOT_LOC and not tree.exists(loc):
            raise RecoveryError(
                f"snapshot {name!r} lists orphan octant {loc:#x}"
            )
        if not (flags & FLAG_LEAF):
            tree.refine(loc)
        tree.set_payload(loc, payload)
    return tree


# ------------------------------------------------- per-item mutation bodies
#
# ``PMOctree.refine``/``coarsen``/``_store_span`` and ``_ensure_writable``
# with its helpers (``self`` spelled ``pmo``), ``PointerOctree.refine``/
# ``coarsen`` (``self`` spelled ``tree``), ``merge.splice_into_parent`` and
# the ``LoopBackedAccess.refine_leaves``/``coarsen_parents`` loops, from
# before ``src`` gave each mutation one body whose stores land when a
# ``tree.batch()`` scope closes (``repro.core.cow``).  Every read, store and
# crash site runs at its place: the per-item sequence the scopes must land.


def _path_to(pmo, loc: int) -> List[int]:
    """Locational codes root -> loc."""
    path = [loc]
    while loc != morton.ROOT_LOC:
        loc = morton.parent_of(loc, pmo.dim)
        path.append(loc)
    path.reverse()
    return path


def _is_writable(pmo, handle: int) -> bool:
    """In-place writable: DRAM, or an NVBM record of the current epoch."""
    if is_dram(handle):
        return True
    pmo.stats.partial_reads += 1
    return pmo.nvbm.read_epoch(handle) == pmo.epoch


def _ensure_writable(pmo, loc: int) -> int:
    """Make the NVBM octant at ``loc`` in-place writable, copying the
    shared suffix of its root path (Fig 4).  Returns its handle."""
    handle = pmo._index[loc]
    if is_dram(handle):
        raise ConsistencyError(f"{loc:#x} is in DRAM; COW is for NVBM octants")
    pmo.stats.partial_reads += 1
    if pmo.nvbm.read_epoch(handle) == pmo.epoch:
        return handle
    path = _path_to(pmo, loc)
    # deepest ancestor that is already writable
    first_shared = 0
    for i in range(len(path) - 1, -1, -1):
        h = pmo._index[path[i]]
        if i < len(path) - 1 and _is_writable(pmo, h):
            first_shared = i + 1
            break
    else:
        first_shared = 0
    new_handle = NULL_HANDLE
    for i in range(first_shared, len(path)):
        ploc = path[i]
        old = pmo._index[ploc]
        rec = pmo.nvbm.read_octant(old)
        rec.epoch = pmo.epoch
        if i > first_shared:
            rec.parent = pmo._index[path[i - 1]]
        new = pmo.nvbm.new_octant(rec)
        pmo.stats.cow_copies += 1
        pmo._superseded.append(old)
        pmo._index[ploc] = new
        pmo.injector.site(sites.COW_AFTER_COPY)
        # hook the copy into its parent
        if i == first_shared:
            if ploc == morton.ROOT_LOC:
                pmo.nvbm.roots.set(SLOT_CURR, new)
            else:
                parent_loc = path[i - 1]
                ph = pmo._index[parent_loc]
                parena = pmo._arena_of(ph)
                parena.write_child_slot(
                    ph, morton.child_index_of(ploc, pmo.dim), new
                )
                pmo.stats.partial_writes += 1
                if is_dram(ph):
                    pmo._dirty.add(parent_loc)
        else:
            # parent is the copy we just made in the previous iteration:
            # fix its child slot in place (it is current-epoch).
            ph = pmo._index[path[i - 1]]
            pmo.nvbm.write_child_slot(
                ph, morton.child_index_of(ploc, pmo.dim), new
            )
            pmo.stats.partial_writes += 1
        new_handle = new
    return new_handle


def pm_store_span(pmo, loc: int, offset: int, data: bytes) -> None:
    """One field-granular store: DRAM octants update in place, shared
    NVBM octants copy-on-write first; only the spanned lines dirty."""
    handle = pmo.handle_of(loc)
    pmo._touch_c0(loc, handle)
    pmo.stats.partial_writes += 1
    if is_dram(handle):
        pmo.dram.write_field(handle, offset, data)
        pmo._dirty.add(loc)
        pmo.stats.inplace_updates += 1
        return
    pmo.nvbm.write_field(_ensure_writable(pmo, loc), offset, data)
    pmo.injector.site(sites.PAYLOAD_PARTIAL)


def pm_refine(pmo, loc: int) -> List[int]:
    """Split a leaf; children are placed with their parent (§3.2 routing:
    an octant goes to C0 or C1 "determined by its locational code")."""
    if loc not in pmo._leaf_set:
        raise ReproError(f"cannot refine non-leaf {loc:#x}")
    handle = pmo.handle_of(loc)
    pmo._touch_c0(loc, handle)
    if is_dram(handle):
        return _refine_dram(pmo, loc, handle)
    return _refine_nvbm(pmo, loc)


def _refine_dram(pmo, loc: int, handle: int) -> List[int]:
    fanout = morton.fanout(pmo.dim)
    if not pmo._ensure_dram_capacity(fanout, protect=loc):
        # C0 cannot grow: this very subtree was evicted to NVBM.
        return _refine_nvbm(pmo, loc)
    rec = pmo.dram.read_octant(handle)
    child_locs = morton.children_of(loc, pmo.dim)
    for i, cloc in enumerate(child_locs):
        ch = pmo.dram.new_octant(OctantRecord(
            loc=cloc, level=rec.level + 1, epoch=pmo.epoch,
            payload=tuple(rec.payload), parent=handle,
        ))
        rec.children[i] = ch
        pmo._index[cloc] = ch
        pmo._leaf_set.add(cloc)
    rec.set_leaf(False)
    pmo.dram.write_octant(handle, rec)
    pmo._leaf_set.discard(loc)
    pmo._dirty.add(loc)
    croot = pmo._c0_root_of(loc)
    if croot is not None:
        stats = pmo._c0_roots[croot]
        stats.size += fanout
        stats.locs.update(child_locs)
    pmo.stats.inplace_updates += 1
    return child_locs


def _refine_nvbm(pmo, loc: int) -> List[int]:
    handle = _ensure_writable(pmo, loc)
    rec = pmo.nvbm.read_octant(handle)
    child_locs = morton.children_of(loc, pmo.dim)
    for i, cloc in enumerate(child_locs):
        ch = pmo.nvbm.new_octant(OctantRecord(
            loc=cloc, level=rec.level + 1, epoch=pmo.epoch,
            payload=tuple(rec.payload), parent=handle,
        ))
        rec.children[i] = ch
        pmo._index[cloc] = ch
        pmo._leaf_set.add(cloc)
    rec.set_leaf(False)
    pmo.nvbm.write_octant(handle, rec)
    pmo._leaf_set.discard(loc)
    return child_locs


def pm_coarsen(pmo, loc: int) -> None:
    """Remove the leaf children of ``loc`` from the working version."""
    if loc in pmo._leaf_set:
        raise ReproError(f"cannot coarsen a leaf {loc:#x}")
    if loc not in pmo._index:
        raise ReproError(f"octant {loc:#x} not in PM-octree")
    child_locs = morton.children_of(loc, pmo.dim)
    for cloc in child_locs:
        if cloc not in pmo._leaf_set:
            raise ReproError(
                f"cannot coarsen {loc:#x}: child {cloc:#x} is not a leaf"
            )
    handle = pmo.handle_of(loc)
    pmo._touch_c0(loc, handle)
    if is_dram(handle):
        rec = pmo.dram.read_octant(handle)
        for i, cloc in enumerate(child_locs):
            pmo.dram.free(pmo._index.pop(cloc))
            pmo._leaf_set.discard(cloc)
            origin = pmo._origin.pop(cloc, None)
            if origin is not None:
                pmo._detach(origin)
            pmo._dirty.discard(cloc)
            rec.children[i] = NULL_HANDLE
        rec.set_leaf(True)
        pmo.dram.write_octant(handle, rec)
        pmo._dirty.add(loc)
        croot = pmo._c0_root_of(loc)
        if croot is not None:
            stats = pmo._c0_roots[croot]
            stats.size -= len(child_locs)
            stats.locs.difference_update(child_locs)
        pmo._leaf_set.add(loc)
        return
    handle = _ensure_writable(pmo, loc)
    for cloc in child_locs:
        ch = pmo._index.pop(cloc)
        pmo._leaf_set.discard(cloc)
        if is_dram(ch):
            pmo.dram.free(ch)
            pmo._c0_roots.pop(cloc, None)
            origin = pmo._origin.pop(cloc, None)
            pmo._dirty.discard(cloc)
            if (
                origin is not None
                and pmo.nvbm.contains(origin)
                and pmo.nvbm.read_epoch(origin) == pmo.epoch
            ):
                flags = pmo.nvbm.read_flags(origin)
                pmo.nvbm.set_flags(origin, flags | FLAG_DELETED)
                pmo.stats.partial_writes += 1
                pmo.stats.marked_deleted += 1
            elif origin is not None and pmo.nvbm.contains(origin):
                pmo._detach(origin)
            continue
        if pmo.nvbm.read_epoch(ch) == pmo.epoch:
            pmo.nvbm.set_flags(ch, FLAG_LEAF | FLAG_DELETED)
            pmo.stats.partial_writes += 1
            pmo.stats.marked_deleted += 1
        else:
            pmo._detach(ch)
    pmo.injector.site(sites.COARSEN_MID)
    fanout = morton.fanout(pmo.dim)
    pmo.nvbm.write_child_slots(handle, 0, [NULL_HANDLE] * fanout)
    pmo.nvbm.set_flags(handle, FLAG_LEAF)
    pmo.stats.partial_writes += 2
    pmo._leaf_set.add(loc)


def splice_into_parent(pmo, root_loc: int, new_handle: int) -> None:
    """Point the working version's parent of ``root_loc`` at ``new_handle``."""
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
    ph = _ensure_writable(pmo, parent_loc)
    pmo.nvbm.write_child_slot(ph, child_idx, new_handle)
    pmo.stats.partial_writes += 1


def pointer_refine(tree, loc: int) -> List[int]:
    """Split a leaf into its ``2**dim`` children (in-place pointer update)."""
    if loc not in tree._leaf_set:
        raise ReproError(f"cannot refine non-leaf {loc:#x}")
    handle = tree._index[loc]
    rec = tree.arena.read_octant(handle)
    child_locs = morton.children_of(loc, tree.dim)
    for i, cloc in enumerate(child_locs):
        child = OctantRecord(
            loc=cloc,
            level=rec.level + 1,
            payload=tuple(rec.payload),
            parent=handle,
        )
        ch = tree.arena.new_octant(child)
        rec.children[i] = ch
        tree._index[cloc] = ch
        tree._leaf_set.add(cloc)
    rec.set_leaf(False)
    tree.arena.write_octant(handle, rec)
    tree._leaf_set.discard(loc)
    return child_locs


def pointer_coarsen(tree, loc: int) -> None:
    """Remove the leaf children of ``loc``; it becomes a leaf again."""
    if loc in tree._leaf_set:
        raise ReproError(f"cannot coarsen a leaf {loc:#x}")
    handle = tree._index[loc]
    rec = tree.arena.read_octant(handle)
    child_locs = morton.children_of(loc, tree.dim)
    for cloc in child_locs:
        if cloc not in tree._leaf_set:
            raise ReproError(
                f"cannot coarsen {loc:#x}: child {cloc:#x} is not a leaf"
            )
    for i, cloc in enumerate(child_locs):
        tree.arena.free(tree._index.pop(cloc))
        tree._leaf_set.discard(cloc)
        rec.children[i] = NULL_HANDLE
    rec.set_leaf(True)
    tree.arena.write_octant(handle, rec)
    tree._leaf_set.add(loc)


def refine_leaves(tree, locs) -> int:
    refined = 0
    for loc in locs:
        if tree.is_leaf(loc):  # a metered index search out of core
            tree.refine(loc)
            refined += 1
    return refined


def coarsen_parents(tree, parents) -> int:
    coarsened = 0
    for parent in parents:
        # Re-check children are all still leaves (none refined above).
        if tree.exists(parent) and not tree.is_leaf(parent) \
                and all(tree.is_leaf(c)
                        for c in morton.children_of(parent, tree.dim)):
            tree.coarsen(parent)
            coarsened += 1
    return coarsened


def inject_scalar_mutations(monkeypatch) -> None:
    """Run every refine, coarsen, field store, copy-on-write and eviction
    splice on the per-item bodies above for the rest of the test (or
    ``monkeypatch`` context): ``tree.batch()`` scopes then have nothing to
    land."""
    from repro.core.pmoctree import PMOctree
    from repro.octree.tree import PointerOctree

    monkeypatch.setattr(PMOctree, "refine", pm_refine)
    monkeypatch.setattr(PMOctree, "coarsen", pm_coarsen)
    monkeypatch.setattr(PMOctree, "_store_span", pm_store_span)
    monkeypatch.setattr(PointerOctree, "refine", pointer_refine)
    monkeypatch.setattr(PointerOctree, "coarsen", pointer_coarsen)
    monkeypatch.setattr("repro.core.merge.splice_into_parent",
                        splice_into_parent)
