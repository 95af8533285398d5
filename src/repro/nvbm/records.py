"""Fixed-size octant record format.

Octants stored in an arena are 128-byte packed records — the byte-level
layout a C implementation would use — so that writes have a realistic size
(two cache lines), torn writes can be modelled at line granularity, and
capacity thresholds (``threshold_DRAM`` / ``threshold_NVBM``) are meaningful.

Layout (little-endian, 120 bytes payload padded to 128):

====== ===== =====================================================
offset bytes field
====== ===== =====================================================
0      8     locational code (level-prefixed Morton key)
8      1     level
9      1     flags (FLAG_LEAF, FLAG_DELETED)
10     2     padding
12     4     epoch (version counter at creation; drives COW sharing)
16     32    payload: 4 float64 (solver fields, e.g. vof/p/u/v)
48     8     parent handle
56     64    8 child handles (quadtree uses the first 4)
====== ===== =====================================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import List, Tuple

import numpy as np

from repro.config import OCTANT_RECORD_SIZE
from repro.nvbm.pointers import NULL_HANDLE

FLAG_LEAF = 0x1
FLAG_DELETED = 0x2

_STRUCT = struct.Struct("<QBBHI4dQ8Q")
_PAD = OCTANT_RECORD_SIZE - _STRUCT.size
assert _PAD >= 0, "record layout exceeds OCTANT_RECORD_SIZE"
_PAD_BYTES = b"\x00" * _PAD

#: Number of payload float slots per octant.
PAYLOAD_SLOTS = 4

#: Maximum children per octant record (octree fanout).
MAX_CHILDREN = 8

# -- field spans -------------------------------------------------------------
#
# ``(offset, size)`` of each field inside the packed record.  The
# field-granular access layer (:meth:`repro.nvbm.arena.MemoryArena.
# read_field` / ``write_field``) uses these to touch — and charge the
# device for — only the cache lines a field actually spans.

LOC_SPAN = (0, 8)
LEVEL_SPAN = (8, 1)
FLAGS_SPAN = (9, 1)
EPOCH_SPAN = (12, 4)
PAYLOAD_SPAN = (16, 8 * PAYLOAD_SLOTS)
PARENT_SPAN = (48, 8)
CHILDREN_OFFSET = 56

#: The same layout as a numpy structured dtype, for decoding a gathered
#: block of records at once (see :func:`as_records`).
RECORD_DTYPE = np.dtype([
    ("loc", "<u8"), ("level", "u1"), ("flags", "u1"), ("pad", "<u2"),
    ("epoch", "<u4"), ("payload", "<f8", (PAYLOAD_SLOTS,)),
    ("parent", "<u8"), ("children", "<u8", (MAX_CHILDREN,)),
    ("tail", "u1", (_PAD,)),
])
assert RECORD_DTYPE.itemsize == OCTANT_RECORD_SIZE



def as_records(rows: np.ndarray) -> np.ndarray:
    """View an ``(n, 128) uint8`` block of records as ``n`` structured
    records: ``as_records(rows)["children"]`` is an ``(n, 8)`` uint64 view,
    ``["loc"]``/``["level"]``/``["flags"]``/``["epoch"]`` are ``(n,)`` — no
    copy, no per-record unpack.  What the level-at-a-time structure walks
    decode a whole frontier with."""
    return rows.view(RECORD_DTYPE)[:, 0]


_PAYLOAD_STRUCT = struct.Struct("<4d")
_HANDLE_STRUCT = struct.Struct("<Q")
_EPOCH_STRUCT = struct.Struct("<I")

# -- end-to-end record integrity ---------------------------------------------
#
# A CRC32 over bytes ``[0, 120)`` (everything before :data:`CRC_SPAN`) is
# computed ("sealed") when a record's lines are flushed to the medium, kept
# out-of-band by the arena, and checked on every metered read of a sealed
# record.  An unsealed
# record (still write-back-cached, or torn by a crash before its sealing
# flush) carries no integrity claim — recovery never trusts those bytes
# anyway (they are unreachable from the published root or garbage awaiting
# GC).  The CRC models the DIMM's per-line ECC *detection* capability
# end-to-end at record granularity; verification itself is free (hardware
# piggyback), only repair traffic is metered.

#: ``(offset, size)`` of the CRC32 field inside the padded record.
CRC_SPAN = (_STRUCT.size, 4)
assert CRC_SPAN[0] + CRC_SPAN[1] <= OCTANT_RECORD_SIZE


def child_span(index: int, count: int = 1) -> Tuple[int, int]:
    """Byte span of ``count`` contiguous child-handle slots from ``index``."""
    if not 0 <= index < index + count <= MAX_CHILDREN:
        raise ValueError(f"child slots [{index}, {index + count}) out of range")
    return (CHILDREN_OFFSET + 8 * index, 8 * count)


def pack_payload(payload) -> bytes:
    """Serialize the 4-float payload field alone."""
    return _PAYLOAD_STRUCT.pack(*payload)


#: ``(buffer, offset=0) -> the 4-float payload tuple``
unpack_payload = _PAYLOAD_STRUCT.unpack_from


def pack_handles(handles) -> bytes:
    """Serialize contiguous 8-byte handles (child slots, parent)."""
    return b"".join(_HANDLE_STRUCT.pack(h) for h in handles)


def unpack_epoch(data, offset: int = 0) -> int:
    return _EPOCH_STRUCT.unpack_from(data, offset)[0]


@dataclass
class OctantRecord:
    """Unpacked view of one octant record.

    Mutating a view does nothing until it is written back through an arena;
    this mirrors the load/modify/store cycle of the real data structure.
    """

    loc: int = 0
    level: int = 0
    flags: int = FLAG_LEAF
    epoch: int = 0
    payload: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    parent: int = NULL_HANDLE
    children: List[int] = field(default_factory=lambda: [NULL_HANDLE] * MAX_CHILDREN)

    @property
    def is_leaf(self) -> bool:
        return bool(self.flags & FLAG_LEAF)

    @property
    def is_deleted(self) -> bool:
        return bool(self.flags & FLAG_DELETED)

    def set_leaf(self, leaf: bool) -> None:
        if leaf:
            self.flags |= FLAG_LEAF
        else:
            self.flags &= ~FLAG_LEAF

    def live_children(self) -> List[int]:
        """Non-null child handles."""
        return [c for c in self.children if c != NULL_HANDLE]

    def copy(self) -> "OctantRecord":
        return replace(self, payload=tuple(self.payload), children=list(self.children))


def pack_record(rec: OctantRecord) -> bytes:
    """Serialize to the fixed 128-byte wire format."""
    if len(rec.children) != MAX_CHILDREN:
        raise ValueError(f"record must carry {MAX_CHILDREN} child slots")
    return (
        _STRUCT.pack(
            rec.loc,
            rec.level,
            rec.flags,
            0,
            rec.epoch,
            *rec.payload,
            rec.parent,
            *rec.children,
        )
        + _PAD_BYTES
    )


def unpack_record(data, offset: int = 0) -> OctantRecord:
    """Deserialize the 128-byte record at ``offset`` of a buffer."""
    if len(data) - offset < OCTANT_RECORD_SIZE:
        raise ValueError(
            f"expected {OCTANT_RECORD_SIZE} bytes, got {len(data) - offset}")
    fields = _STRUCT.unpack_from(data, offset)
    return OctantRecord(
        loc=fields[0],
        level=fields[1],
        flags=fields[2],
        epoch=fields[4],
        payload=fields[5:9],
        parent=fields[9],
        children=list(fields[10:18]),
    )
