"""Copy-on-write and the landing buffer: one body per mutation (§3.2, Fig 4).

``PMOctree.refine``/``coarsen``/``_store_span``, :meth:`Landing.writable`
and ``PointerOctree.refine``/``coarsen`` are the only bodies of those
operations.  Each updates the volatile state (index, leaf set, C0 stats,
``_superseded``, ``_detached``, ``PMStats``) and allocates at call time, in
the per-item order, and hands its arena traffic (a volatile record's free
too) to the tree's :class:`Landing`:

* outside any ``tree.batch()`` scope every read, store and crash site runs
  at its place: the per-item sequence;
* inside a scope the stores wait, and the epochs the bodies branch on are
  read uncharged (a record allocated in the scope is of the current epoch;
  known items are read ahead, :meth:`Landing.prefetch`) and charged at
  once.  When the outermost scope closes the buffer lands with one arena
  call per kind of store: the frees of volatile records (``free_rows``,
  also before the arena's next allocation), cache rows claimed in
  first-touch order (``MemoryArena.cache_in``), the copies, the field
  stores by span, the coarsens, the refines a *wave* at a time (a refine
  of a child made in the scope lands after the refine that made it), and
  the crash sites declared with ``count=``.

An operation that must see, or must not precede, a pending store lands the
scope first: reads through the tree, evictions, persist and GC, a store to a
record a pending refine rewrites, a coarsen of pending children.  Landing
early is always exact, so crash plans and media faults need no other path:
a site visit that would fire (:meth:`Landing.site`) and a read that could
fail (:func:`read_could_fail`: a copy's original, an NVBM refine's parent)
land the scope, then run at their place.

An epoch read needs no such check.  Media faults are planted, so a read's
outcome is fixed for the whole scope except where a rewrite clears rot, and
no store of the scope precedes the first epoch read of the record it
writes (``writable`` reads the epoch before it stores).  The in-scope
uncharged ``_load`` therefore runs the media check at the read's place and
raises what the per-item read raises; the read is counted before the load,
and the closing scope lands the stores and charges it.
docs/performance.md, "One body per mutation", has why.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.errors import ConsistencyError
from repro.nvbm import sites
from repro.nvbm.arena import MemoryArena
from repro.nvbm.device import lines_spanned
from repro.nvbm.pointers import NULL_HANDLE, is_dram
from repro.nvbm.records import (CHILDREN_OFFSET, EPOCH_SPAN, FLAG_LEAF,
                                as_records, unpack_epoch)
from repro.octree import morton

#: Root-slot names in the NVBM arena.
SLOT_PREV = "V_prev"
SLOT_CURR = "V_curr"


def read_could_fail(arena: MemoryArena, handles) -> bool:
    """Could a metered read of the records ``handles`` fail?  Only while
    ``arena``'s media fault model has something planted, and then
    ``read_rows(..., charge=False)`` answers: None."""
    model = arena.device.fault_model
    return model is not None and not model.quiescent and arena.read_rows(
        handles, charge=False) is None


def land_refines(arena: MemoryArena, parents, kids, kid_locs,
                 epoch: int) -> List[int]:
    """The record stores of refining the (in-place writable) leaf records
    ``parents`` into ``kids`` (``fanout`` per parent, in order; None:
    allocated after the read, as a lone refine does): each child a leaf of
    the given ``epoch`` carrying its parent's payload, each parent an
    internal octant pointing at its children — the images ``refine`` packs,
    landed as one gather of the parents, one scatter of the children and
    one of the parents.  Returns the children."""
    rows = arena.read_rows(parents)
    kids = kids or [arena.alloc() for _ in kid_locs]
    fanout = len(kids) // len(parents)
    recs = as_records(rows)
    kid_rows = np.zeros((len(kids), rows.shape[1]), dtype=np.uint8)
    images = as_records(kid_rows)
    images["loc"] = kid_locs
    images["level"] = np.repeat(recs["level"] + 1, fanout)
    images["flags"] = FLAG_LEAF
    images["epoch"] = epoch
    images["payload"] = np.repeat(recs["payload"], fanout, axis=0)
    images["parent"] = np.repeat(np.asarray(parents, np.uint64), fanout)
    recs["children"][:, :fanout] = np.asarray(kids, np.uint64) \
        .reshape(len(parents), fanout)
    recs["flags"] &= np.uint8(~FLAG_LEAF & 0xFF)
    recs["pad"] = 0
    recs["tail"] = 0
    arena.write_rows(kids, 0, kid_rows)
    arena.write_rows(parents, 0, rows)
    return kids


def land_copies(arena: MemoryArena, originals, copies, parents,
                epoch: int) -> List[int]:
    """The record stores of copying the records ``originals`` into the
    fresh ``copies`` (None: allocated after the read, as a lone copy does):
    each image of the given ``epoch``, its parent pointer the ``parents``
    entry at its position where there is one — the images ``copy`` packs,
    landed as one gather and one scatter.  Returns the copies."""
    rows = arena.read_rows(originals)
    copies = copies or [arena.alloc() for _ in originals]
    images = as_records(rows)
    images["epoch"] = epoch
    images["pad"] = 0  # as pack_record writes them
    images["tail"] = 0
    images["parent"][list(parents)] = list(parents.values())
    # pmlint: allow[bypass-cow]: fresh copies, allocated above or by copy()
    arena.write_rows(copies, 0, rows)
    return copies


def land_coarsens(arena: MemoryArena, parents, fanout: int) -> None:
    """The record stores of coarsening the (in-place writable) records
    ``parents`` whose children are gone: null child slots and the leaf bit,
    the images ``coarsen`` packs, as one gather and one scatter."""
    rows = arena.read_rows(parents)
    recs = as_records(rows)
    recs["children"][:, :fanout] = NULL_HANDLE
    recs["flags"] |= np.uint8(FLAG_LEAF)
    recs["pad"] = 0
    recs["tail"] = 0
    arena.write_rows(parents, 0, rows)


class Landing:
    """A tree's landing buffer and its ``batch()`` scope (module docstring).

    ``tree`` needs ``epoch`` and ``dim`` and, for the copy-on-write half,
    ``nvbm``, ``dram``, ``_index``, ``_superseded``, ``_dirty``, ``stats``
    and ``injector``.  It is held weakly: the tree owns its buffer."""

    def __init__(self, tree) -> None:
        self.tree = weakref.proxy(tree)
        self.depth = 0
        #: outside a scope: run every read, store and site at its place
        self.immediate = True
        self._reset()

    def _reset(self) -> None:
        self.reads = 0  #: uncharged epoch reads
        #: epochs read ahead (:meth:`prefetch`), handle -> epoch
        self.known: Dict[int, int] = {}
        #: allocated in the scope, so of the current epoch: a copy (-1) or
        #: a child (the wave its image lands in)
        self.fresh: Dict[int, int] = {}
        #: the parents a pending refine rewrites whole
        self.refined: Set[int] = set()
        #: stored to, copied or coarsened, with that still to land
        self.pending: Set[int] = set()
        #: non-volatile records in store order (a first store to a record
        #: allocated in the scope is whole, any other a field store)
        self.touched: List[int] = []
        self.originals: List[int] = []
        self.copies: List[int] = []
        #: position in ``copies`` -> its parent, where that is a copy too
        self.parents: Dict[int, int] = {}
        #: (offset, size) -> records stored there and their bytes; the
        #: spans pending per record
        self.stores: Dict[Tuple[int, int], Tuple[List[int], List[bytes]]] = {}
        self.spans: Dict[int, List[Tuple[int, int]]] = {}
        self.coarsens: Dict[MemoryArena, List[int]] = {}
        #: volatile records freed in the scope, per arena, in free order
        self.frees: Dict[MemoryArena, List[int]] = {}
        #: (wave, arena) -> parents, children, child codes
        self.refines: Dict[tuple, Tuple[List[int], List[int], List[int]]] = {}
        self.sites: Dict[str, int] = {}

    # -------------------------------------------------------------- the scope

    def __enter__(self) -> "Landing":
        self.depth += 1
        self.immediate = False
        return self

    def __exit__(self, *exc) -> bool:
        self.depth -= 1
        if not self.depth:
            self.immediate = True
            self.land()
        return False

    def settle(self, handles=None) -> None:
        """Land the scope now if anything waits — or, given ``handles``, if
        a store to one of those does."""
        if handles is None:
            if self.pending or self.fresh or self.reads or self.known \
                    or self.frees:
                self.land()
        elif (self.pending or self.fresh) and not (
                self.pending.isdisjoint(handles)
                and self.refined.isdisjoint(handles)
                and self.fresh.keys().isdisjoint(handles)):
            self.land()

    def _landed_before_read(self, arena: MemoryArena, handle: int) -> bool:
        """If a read of ``handle`` could fail, land the scope now and say
        so: the read then runs after the stores the per-item sequence makes
        before it."""
        could = read_could_fail(arena, [handle])
        if could:
            self.land()
        return could

    # ------------------------------------------------------- the primitives

    def epoch_of(self, handle: int) -> int:
        """The epoch of the NVBM record ``handle`` — one metered 4-byte
        read."""
        nvbm = self.tree.nvbm
        if self.immediate:
            return nvbm.read_epoch(handle)
        self.reads += 1
        if handle in self.fresh:
            return self.tree.epoch
        epoch = self.known.get(handle)
        if epoch is None:
            # charged with the scope's other epoch reads when it lands; a
            # planted fault raises here, at its place
            epoch = unpack_epoch(*nvbm._load(
                handle, *EPOCH_SPAN, charge=False))
        return epoch

    def prefetch(self, locs) -> None:
        """Read ahead the epochs the copy-on-write of the NVBM octants
        ``locs`` branches on — their records and, deepest level first, the
        parents of those not current — one uncharged gather per tree level.
        :meth:`epoch_of` still counts each read where the per-item sequence
        makes it; a level whose reads could fail is left to it."""
        if self.immediate:
            return
        tree, known, fresh = self.tree, self.known, self.fresh
        index, dim, epoch = tree._index, tree.dim, tree.epoch
        levels: Dict[int, Dict[int, int]] = {}  # level -> {handle: loc}
        for loc in locs:
            levels.setdefault(morton.level_of(loc, dim), {})[index[loc]] = loc
        while levels:
            level = max(levels)
            todo = levels.pop(level)
            ahead = [h for h in todo if h not in known and h not in fresh]
            rows = tree.nvbm.read_rows(ahead, *EPOCH_SPAN, charge=False)
            if rows is None:
                return
            known.update(zip(ahead, rows.view("<u4")[:, 0].tolist()))
            for handle, loc in todo.items():
                if known.get(handle, epoch) != epoch \
                        and loc != morton.ROOT_LOC \
                        and not is_dram(index[loc >> dim]):
                    levels.setdefault(level - 1, {})[index[loc >> dim]] = \
                        loc >> dim

    def copy(self, old: int, parent: int) -> int:
        """A current-epoch copy of the shared NVBM record ``old`` whose
        parent pointer is ``parent`` (a copy made just before) if given."""
        nvbm = self.tree.nvbm
        if self.immediate or self._landed_before_read(nvbm, old):
            return land_copies(nvbm, [old], None, {0: parent} if parent
                               else {}, self.tree.epoch)[0]
        new = nvbm.alloc()
        if parent:
            self.parents[len(self.copies)] = parent
        self.originals.append(old)
        self.copies.append(new)
        self.fresh[new] = -1
        self.touched.append(new)
        self.pending.add(new)
        return new

    def store(self, arena: MemoryArena, handle: int, offset: int,
              data: bytes) -> None:
        """Store ``data`` at ``offset`` of the in-place writable record
        ``handle``.  A volatile arena has no cache order to keep: its store
        runs now, once nothing pending stands in its way."""
        if self.immediate or arena.spec.volatile:
            self.settle((handle,))
            arena.write_field(handle, offset, data)
            return
        size = len(data)
        key = (offset, size)
        spans = self.spans.get(handle)
        if handle in self.refined or self.fresh.get(handle, -1) >= 0:
            self.land()
            spans = None
        elif spans is not None and key not in spans:
            # a record's pending spans never overlap: a store overlapping
            # one of them at another span lands the scope first
            for start, length in spans:
                if start < offset + size and offset < start + length:
                    self.land()
                    spans = None
                    break
        if spans is None:
            self.spans[handle] = [key]
        elif key not in spans:
            spans.append(key)
        entry = self.stores.get(key)
        if entry is None:
            entry = self.stores[key] = ([], [])
        entry[0].append(handle)
        entry[1].append(data)
        self.touched.append(handle)
        self.pending.add(handle)

    def free(self, arena: MemoryArena, handle: int) -> None:
        """Free ``handle``; in a scope a volatile one waits (:meth:`land_frees`)."""
        self.settle((handle,))
        if self.immediate or not arena.spec.volatile:
            arena.free(handle)
        else:
            self.frees.setdefault(arena, []).append(handle)

    def land_frees(self, arena: MemoryArena) -> None:
        """Land the frees waiting on ``arena`` as one ``free_rows``: before
        its next allocation, or a count of its free slots, and in :meth:`land`."""
        handles = self.frees.pop(arena, None)
        if handles:
            arena.free_rows(handles)

    def refine(self, arena: MemoryArena, handle: int,
               child_locs: List[int]) -> List[int]:
        """Split the in-place writable leaf record ``handle``: one child
        per code of ``child_locs``, allocated in order, each a leaf of the
        tree's epoch carrying the parent's payload; returns the children."""
        self.land_frees(arena)
        if self.immediate or not arena.spec.volatile and \
                self._landed_before_read(arena, handle):
            return land_refines(arena, [handle], None, child_locs,
                                self.tree.epoch)
        kids = [arena.alloc() for _ in child_locs]
        fresh = self.fresh
        wave = fresh.get(handle, -1) + 1
        try:
            parents, new, codes = self.refines[wave, arena]
        except KeyError:
            parents, new, codes = self.refines[wave, arena] = ([], [], [])
        parents.append(handle)
        new += kids
        codes += child_locs
        for kid in kids:
            fresh[kid] = wave
        self.refined.add(handle)
        if not arena.spec.volatile:
            # the parent's is a whole-record store, but land_refines reads
            # the record back first: a flushed one's cache row must hold
            # its bytes
            self.touched += kids + [handle]
            self.pending.update(kids, (handle,))
        return kids

    def coarsened(self, arena: MemoryArena, handle: int, fanout: int) -> None:
        """The volatile record ``handle`` lost its children: null its child
        slots and set its leaf bit."""
        if self.immediate:
            land_coarsens(arena, [handle], fanout)
            return
        self.coarsens.setdefault(arena, []).append(handle)
        self.pending.add(handle)

    def site(self, name: str) -> None:
        """Visit the crash site ``name``; in a scope the visit waits unless
        it fires: then the scope lands first, its other visits declared."""
        injector = self.tree.injector
        if not self.immediate:
            count = self.sites.get(name, 0) + 1
            if injector.visits_before_fire(name, count) == count:
                self.sites[name] = count
                return
            self.land()
        injector.site(name)

    # ------------------------------------------------------- copy-on-write

    def writable(self, loc: int) -> int:
        """Make the NVBM octant at ``loc`` in-place writable, copying the
        shared suffix of its root path (Fig 4: every copy hooked into its
        parent, the top one into the nearest writable ancestor or the
        current-root slot); returns its handle."""
        tree = self.tree
        index, stats, epoch = tree._index, tree.stats, tree.epoch
        handle = index[loc]
        if is_dram(handle):
            raise ConsistencyError(
                f"{loc:#x} is in DRAM; COW is for NVBM octants")
        # each epoch read is a field-granular load (pm.partial_reads)
        stats.partial_reads += 1
        if self.epoch_of(handle) == epoch:
            return handle
        dim = tree.dim
        shared = [loc]  # deepest first
        above = NULL_HANDLE  # the nearest writable ancestor, if any
        while shared[-1] != morton.ROOT_LOC:
            parent = index[shared[-1] >> dim]
            if is_dram(parent):
                above = parent
                break
            stats.partial_reads += 1
            if self.epoch_of(parent) == epoch:
                above = parent
                break
            shared.append(shared[-1] >> dim)
        nvbm, mask = tree.nvbm, morton.fanout(dim) - 1
        new = NULL_HANDLE
        for at in reversed(shared):
            old, prev = index[at], new
            new = self.copy(old, prev)
            stats.cow_copies += 1
            tree._superseded.append(old)
            index[at] = new
            self.site(sites.COW_AFTER_COPY)
            if at == morton.ROOT_LOC:
                nvbm.roots.set(SLOT_CURR, new)
                continue
            parent = prev or above
            in_dram = is_dram(parent)
            self.store(tree.dram if in_dram else nvbm, parent,
                       CHILDREN_OFFSET + 8 * (at & mask),
                       new.to_bytes(8, "little"))
            stats.partial_writes += 1
            if in_dram:
                tree._dirty.add(at >> dim)
        return new

    # ------------------------------------------------------------ landing

    def land(self) -> None:
        """Land everything pending (module docstring), then start over."""
        reads, touched, fresh = self.reads, self.touched, self.fresh
        originals, copies, parents = self.originals, self.copies, \
            self.parents
        stores, coarsens, refines, declared, frees = self.stores, \
            self.coarsens, self.refines, self.sites, self.frees
        self._reset()
        tree = self.tree
        for arena, handles in frees.items():
            arena.free_rows(handles)
        if reads:
            tree.nvbm.device.on_read_batch(
                reads, reads * EPOCH_SPAN[1],
                reads * lines_spanned(*EPOCH_SPAN))
        if touched:
            tree.nvbm.cache_in(touched, [h not in fresh for h in touched])
        if copies:
            land_copies(tree.nvbm, originals, copies, parents, tree.epoch)
        for (offset, size), (handles, datas) in stores.items():
            # pmlint: allow[bypass-cow]: fresh copies, or records
            # writable() returned: V_{i-1} reaches none of them
            tree.nvbm.write_rows(handles, offset, np.frombuffer(
                b"".join(datas), np.uint8).reshape(len(datas), size))
        fanout = morton.fanout(tree.dim)
        for arena, handles in coarsens.items():
            land_coarsens(arena, handles, fanout)
        for wave, arena in sorted(refines, key=lambda key: key[0]):
            land_refines(arena, *refines[wave, arena], epoch=tree.epoch)
        for name, count in declared.items():
            tree.injector.site(name, count=count)
