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
from repro.core.pmoctree import SLOT_CURR, SLOT_PREV
from repro.errors import ConsistencyError, RecoveryError
from repro.nvbm import sites
from repro.nvbm.pointers import NULL_HANDLE, is_dram, is_nvbm
from repro.nvbm.records import OctantRecord
from repro.octree import morton

#: Snapshot record: loc (Q), flags (B), 4 payload doubles.
_SNAP = struct.Struct("<QB4d")


def _mark(pmo: "PMOctree") -> Set[int]:
    """BFS over NVBM records from all live roots.

    Synchronous mode traverses both root slots: ``V_{i-1}`` and the working
    version share almost every record, so the visited set makes the second
    walk nearly free.  Under the epoch pipeline the published root lags the
    working version by up to ``max_inflight`` epochs and a traversal of the
    old tree would *re-read* every record unique to it — exactly the volume
    the deferred drain hides, cancelling the overlap win.  Instead the
    pipelined mark walks only the working version and **pins** the
    per-epoch deltas (COW originals and detached records): version *k*'s
    reachable set is the working version's plus the deltas of every later
    epoch, so the union is exact, with zero reads.
    """
    seen: Set[int] = set()
    roots = []
    pins: Set[int] = set()
    if pmo._pipeline is not None:
        # pin, don't traverse: old-version-only records plus the root
        # slots and in-flight roots themselves (their interiors are
        # covered by the working-version walk + the pins).  The union
        # happens *after* the walk — a pin that is also a working-version
        # record must still be traversed normally.
        raw = pmo._pipeline.pinned_handles()
        raw.extend(pmo._superseded)
        raw.extend(pmo._detached)
        raw.extend(pmo._pipeline.live_roots())
        for slot in (SLOT_PREV, SLOT_CURR):
            raw.append(pmo.nvbm.roots.get(slot))
        pins.update(h for h in raw
                    if h != NULL_HANDLE and is_nvbm(h)
                    and pmo.nvbm.contains(h))
    else:
        for slot in (SLOT_PREV, SLOT_CURR):
            h = pmo.nvbm.roots.get(slot)
            if h != NULL_HANDLE and is_nvbm(h):
                roots.append(h)
    roots.extend(h for h in pmo._index.values() if is_nvbm(h))
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
    if pmo._pipeline is not None:
        # in-flight epochs died with the volatile caches; their publishes
        # never happened and must not be replayed against the restored tree
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
    from repro.nvbm.records import FLAG_LEAF

    for loc, flags, payload in entries:
        if loc != morton.ROOT_LOC and not tree.exists(loc):
            raise RecoveryError(
                f"snapshot {name!r} lists orphan octant {loc:#x}"
            )
        if not (flags & FLAG_LEAF):
            tree.refine(loc)
        tree.set_payload(loc, payload)
    return tree
