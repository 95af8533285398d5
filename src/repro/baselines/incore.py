"""In-core baseline: Gerris' ephemeral octree + snapshot-file checkpoints.

All octants live in DRAM; meshing is as fast as memory allows.  Data
reliability comes from periodically serialising the whole tree into a
snapshot file (``gfs_output_write``), and recovery reads it back
(``gfs_simulation_read``) — full-tree I/O both ways, which is the cost
PM-octree's §5.6 numbers are compared against.
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from repro.errors import RecoveryError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.records import FLAG_LEAF, PAYLOAD_SPAN, as_records
from repro.octree import morton
from repro.octree.traversal import preorder
from repro.octree.tree import PointerOctree
from repro.storage.filesystem import SimFileSystem

#: Snapshot record: loc, flags, 4 payload doubles — packed, little-endian
#: (the ``struct`` layout ``"<QB4d"``).
_SNAP = np.dtype([("loc", "<u8"), ("flags", "u1"), ("payload", "<f8", (4,))])
_HEADER = struct.Struct("<4sBQ")
_MAGIC = b"GFS1"


class InCoreOctree(PointerOctree):
    """Pointer octree in DRAM with file-based checkpoint/restore."""

    def __init__(self, arena: MemoryArena, dim: int = 2, **kwargs):
        if not arena.spec.volatile:
            raise ValueError("the in-core baseline keeps its octree in DRAM")
        super().__init__(arena, dim=dim, **kwargs)

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self, fs: SimFileSystem, name: str) -> int:
        """Serialise every octant, in preorder, into a snapshot file: one
        whole-record read each, gathered; returns bytes written."""
        recs = as_records(self.arena.read_rows(self._handles(preorder(self))))
        snap = np.empty(len(recs), _SNAP)
        for field in _SNAP.names:
            snap[field] = recs[field]
        blob = _HEADER.pack(_MAGIC, self.dim, len(snap)) + snap.tobytes()
        f = fs.create(name)
        f.append(blob)
        return len(blob)

    @classmethod
    def restore_from(cls, fs: SimFileSystem, name: str, arena: MemoryArena
                     ) -> "InCoreOctree":
        """Rebuild the tree from a snapshot file (the §5.6 recovery path).

        Charged as refining every internal entry and then storing every
        entry's payload, entry by entry: the refines run in one
        :meth:`batch` scope, so the children are allocated in that order and
        their records land one tree level at a time (a level's parents are
        the previous level's children), and the payloads take one scatter.
        The snapshot must list exactly the octants of the tree it implies,
        each once and after its parent — anything else is a
        :class:`RecoveryError` before the arena is touched."""
        try:
            blob = fs.open(name).read_all()
        except Exception as exc:
            raise RecoveryError(f"cannot open snapshot {name!r}: {exc}") from exc
        if len(blob) < _HEADER.size:
            raise RecoveryError(f"snapshot {name!r} is truncated")
        magic, dim, count = _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC:
            raise RecoveryError(f"snapshot {name!r} has bad magic {magic!r}")
        if dim not in (2, 3):
            raise RecoveryError(f"snapshot {name!r} has bad dimension {dim}")
        expected = _HEADER.size + count * _SNAP.itemsize
        if len(blob) < expected:
            raise RecoveryError(
                f"snapshot {name!r} is truncated: {len(blob)} < {expected}"
            )
        entries = np.frombuffer(blob, _SNAP, count, _HEADER.size)
        locs = entries["loc"]
        inner = (entries["flags"] & FLAG_LEAF) == 0
        # the implied tree: the root, then the children of every internal
        # entry, each listed once and after its (internal) parent
        uniq, first = np.unique(locs, return_index=True)

        def listed_at(codes: np.ndarray) -> np.ndarray:
            """Where each code is first listed; ``count`` if it is not."""
            if not count:
                return np.full(codes.size, count)
            at = np.searchsorted(uniq, codes).clip(max=uniq.size - 1)
            return np.where(uniq[at] == codes, first[at], count)

        order = np.arange(count)
        parent_at = listed_at(locs >> np.uint64(dim))
        bad = (listed_at(locs) != order) | (
            (locs != morton.ROOT_LOC) & ~((parent_at < order)
                                          & inner[parent_at.clip(max=order)]))
        if bad.any():
            raise RecoveryError(
                f"snapshot {name!r} lists octant {int(locs[bad.argmax()]):#x} "
                "twice or before its parent")
        # so every entry is one of the implied octants: the root (listed
        # first) and ``fanout`` distinct children per internal entry
        missing = 1 + morton.fanout(dim) * int(inner.sum()) - count
        if missing:
            raise RecoveryError(
                f"snapshot {name!r} omits {missing} octants of its tree")
        tree = cls(arena, dim=dim)
        with tree.batch():
            for loc in entries["loc"][inner].tolist():
                tree.refine(loc)
        arena.write_rows(tree._handles(locs.tolist()), PAYLOAD_SPAN[0],
                         entries["payload"].copy().view(np.uint8))
        return tree


class CheckpointPolicy:
    """"Save a snapshot every ``interval`` steps" (the paper uses 10)."""

    def __init__(self, fs: SimFileSystem, interval: int = 10,
                 basename: str = "snapshot"):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.fs = fs
        self.interval = interval
        self.basename = basename
        self.last_step: Optional[int] = None

    def file_for(self, step: int) -> str:
        return f"{self.basename}.gfs"

    def maybe_checkpoint(self, tree: InCoreOctree, step: int) -> int:
        """Checkpoint when the step hits the cadence; returns bytes written."""
        if step % self.interval != 0:
            return 0
        written = tree.checkpoint(self.fs, self.file_for(step))
        self.last_step = step
        return written

    def latest(self) -> str:
        if self.last_step is None:
            raise RecoveryError("no checkpoint has been written yet")
        return self.file_for(self.last_step)
