"""Out-of-core baseline: an Etree-style paged linear octree.

Leaf octants are 128-byte records packed 32-to-a-page on a block device; a
B-tree (also on the device) maps each leaf's Morton Z-value to its
``(page, slot)``.  This reproduces the three §5.4 costs:

1. octants are not byte-addressable — the minimum I/O unit is a 4 KB page,
   so one octant update is a page read-modify-write;
2. finding an octant takes a B-tree descent (several page reads);
3. the octree is *linear* — no parent/child/neighbor pointers — so existence
   checks during balancing are index searches rather than pointer chases.

Durability is free (a block device survives crashes), which is why §5.6
reports instant single-node recovery for Etree — and no recovery at all when
the node's device is lost, absent replication.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.config import OCTANT_RECORD_SIZE
from repro.errors import ReproError, StorageError
from repro.nvbm.records import OctantRecord, pack_record, unpack_record
from repro.octree import morton
from repro.octree.store import LoopBackedAccess, Payload, ZERO_PAYLOAD
from repro.storage.block import BlockDevice
from repro.storage.btree import BTree

#: Morton keys are computed at this fixed resolution so they stay stable as
#: the tree refines (Etree's "maximum depth" parameter).
ETREE_MAX_LEVEL = 16


class EtreeOctree(LoopBackedAccess):
    """AdaptiveTree over paged storage with a B-tree Z-value index."""

    def __init__(self, device: BlockDevice, dim: int = 2,
                 root_payload: Payload = ZERO_PAYLOAD):
        if dim not in (2, 3):
            raise ValueError(f"only dim 2 and 3 supported, got {dim}")
        self.device = device
        self.dim = dim
        self.slots_per_page = device.page_size // OCTANT_RECORD_SIZE
        if self.slots_per_page < 1:
            raise StorageError("page too small for an octant record")
        self.index = BTree(device, cache_internal=True)
        self._free_slots: List[int] = []
        self._fill_page: Optional[int] = None
        self._fill_used = 0
        self._count = 0
        self._store(OctantRecord(loc=morton.ROOT_LOC, level=0,
                                 payload=root_payload))

    # -- slot management -----------------------------------------------------

    def _key(self, loc: int) -> int:
        return morton.zorder_key(loc, self.dim, ETREE_MAX_LEVEL)

    def _loc_from_key(self, key: int, level: int) -> int:
        """Reconstruct a locational code from its Z key and level — the
        index alone names every leaf, no page read needed to enumerate."""
        aligned = key >> 6
        return (aligned >> (self.dim * (ETREE_MAX_LEVEL - level))) | (
            1 << (self.dim * level)
        )

    def _alloc_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        if self._fill_page is None or self._fill_used == self.slots_per_page:
            self._fill_page = self.device.alloc_page()
            self.device.write_page(self._fill_page, b"\x00" * self.device.page_size)
            self._fill_used = 0
        ref = self._fill_page * self.slots_per_page + self._fill_used
        self._fill_used += 1
        return ref

    def _write_slot(self, ref: int, rec: OctantRecord) -> None:
        page, slot = divmod(ref, self.slots_per_page)
        data = bytearray(self.device.read_page(page))  # page-granular RMW
        off = slot * OCTANT_RECORD_SIZE
        data[off: off + OCTANT_RECORD_SIZE] = pack_record(rec)
        self.device.write_page(page, bytes(data))

    def _read_slot(self, ref: int) -> OctantRecord:
        page, slot = divmod(ref, self.slots_per_page)
        data = self.device.read_page(page)
        off = slot * OCTANT_RECORD_SIZE
        return unpack_record(data[off: off + OCTANT_RECORD_SIZE])

    def _store(self, rec: OctantRecord) -> None:
        ref = self._alloc_slot()
        self._write_slot(ref, rec)
        # value packs (slot ref, level): the level lets leaf enumeration
        # reconstruct locational codes straight from the index
        self.index.put(self._key(rec.loc), (ref << 6) | rec.level)
        self._count += 1

    def _lookup(self, loc: int) -> Optional[int]:
        if morton.level_of(loc, self.dim) > ETREE_MAX_LEVEL:
            return None
        packed = self.index.get(self._key(loc))
        return None if packed is None else packed >> 6

    def _remove(self, loc: int) -> None:
        ref = self._lookup(loc)
        if ref is None:
            raise ReproError(f"octant {loc:#x} not stored")
        self.index.delete(self._key(loc))
        self._free_slots.append(ref)
        self._count -= 1

    # -- AdaptiveTree protocol --------------------------------------------------

    def root_loc(self) -> int:
        return morton.ROOT_LOC

    def exists(self, loc: int) -> bool:
        """Stored leaf, or implied internal octant (has stored descendants)."""
        if self._lookup(loc) is not None:
            return True
        return self._has_descendant(loc)

    def _has_descendant(self, loc: int) -> bool:
        level = morton.level_of(loc, self.dim)
        if level >= ETREE_MAX_LEVEL:
            return False
        lo = self._key(morton.child_of(loc, self.dim, 0))
        # last possible descendant key: deepest rightmost cell under loc
        span = ETREE_MAX_LEVEL - level
        aligned = (loc - (1 << (self.dim * level))) << (self.dim * span)
        hi = ((aligned + (1 << (self.dim * span)) - 1) << 6) | 0x3F
        for _k, _v in self.index.range(lo, hi):
            return True
        return False

    def is_leaf(self, loc: int) -> bool:
        return self._lookup(loc) is not None

    def leaves(self) -> Iterator[int]:
        for key, packed in list(self.index.items()):
            yield self._loc_from_key(key, packed & 0x3F)

    def num_octants(self) -> int:
        """Stored octants (leaves; internal octants are implicit)."""
        return self._count

    def num_leaves(self) -> int:
        return self._count

    def get_payload(self, loc: int) -> Payload:
        ref = self._lookup(loc)
        if ref is None:
            raise ReproError(f"octant {loc:#x} not stored (only leaves are)")
        return self._read_slot(ref).payload

    def set_payload(self, loc: int, payload: Payload) -> None:
        ref = self._lookup(loc)
        if ref is None:
            raise ReproError(f"octant {loc:#x} not stored (only leaves are)")
        rec = self._read_slot(ref)
        rec.payload = tuple(payload)
        self._write_slot(ref, rec)

    def refine(self, loc: int) -> List[int]:
        ref = self._lookup(loc)
        if ref is None:
            raise ReproError(f"cannot refine non-leaf {loc:#x}")
        rec = self._read_slot(ref)
        if rec.level >= ETREE_MAX_LEVEL:
            raise ReproError(f"max Etree depth {ETREE_MAX_LEVEL} reached")
        self._remove(loc)
        child_locs = morton.children_of(loc, self.dim)
        for cloc in child_locs:
            self._store(OctantRecord(
                loc=cloc, level=rec.level + 1, payload=tuple(rec.payload),
            ))
        return child_locs

    def coarsen(self, loc: int) -> None:
        child_locs = morton.children_of(loc, self.dim)
        recs = []
        for cloc in child_locs:
            ref = self._lookup(cloc)
            if ref is None:
                raise ReproError(
                    f"cannot coarsen {loc:#x}: child {cloc:#x} is not a leaf"
                )
            recs.append(self._read_slot(ref))
        for cloc in child_locs:
            self._remove(cloc)
        n = len(recs)
        mean_payload = tuple(
            sum(r.payload[i] for r in recs) / n for i in range(4)
        )
        self._store(OctantRecord(
            loc=loc, level=morton.level_of(loc, self.dim),
            payload=mean_payload,
        ))

    # -- recovery ---------------------------------------------------------------

    def recover_check(self) -> int:
        """Post-crash sanity pass: Etree data is durable by construction, so
        recovery is just verifying the index walks (§5.6: "the program can
        immediately access octants").  Returns the leaf count."""
        n = 0
        for _ in self.leaves():
            n += 1
        if n != self._count:
            raise ReproError("index count does not match stored leaves")
        return n
