"""The tree protocol shared by all three octree implementations.

Algorithms (balancing, mesh extraction, the solver, the parallel driver) are
written against :class:`AdaptiveTree` and key octants by *locational code*,
never by memory handle.  This is what lets the in-core baseline, the
out-of-core Etree baseline and PM-octree swap freely under the same
workload: the physical placement of an octant (DRAM object, NVBM record, a
page on a block device, a COW-shared version) is each implementation's
private business.
"""

from __future__ import annotations

from typing import (
    Iterable,
    Iterator,
    List,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.octree.neighbors import face_neighbor_leaves
from repro.octree.soa import FaceTable

Payload = Tuple[float, float, float, float]

#: Payload of a freshly-created octant.
ZERO_PAYLOAD: Payload = (0.0, 0.0, 0.0, 0.0)


@runtime_checkable
class AdaptiveTree(Protocol):
    """The surface the meshing/solving routines require.

    Everything is available per octant (``exists``/``is_leaf``/``refine``/
    ``coarsen``, ``get_payload``/``get_field``/...) and in batches, and a
    batch call is *defined* as the per-octant calls in order: ``batch_*`` for
    data, ``face_neighbors`` for structure (``face_neighbor_leaves`` of each
    code).  A tree may therefore aggregate the device charge of a batch
    (PM-octree does) or answer it from arrays when the per-octant queries
    are uncharged (:class:`repro.octree.soa.LeafSetStructure`), but never
    change the total: on an out-of-core tree each structure query is an
    index search, and that cost is part of what the evaluation compares.
    :class:`LoopBackedAccess` derives every batch from the per-octant calls
    for trees with nothing to aggregate.
    """

    dim: int

    def root_loc(self) -> int:
        """Locational code of the root octant."""
        ...

    def exists(self, loc: int) -> bool:
        """True when an octant with this code is present (and not deleted)."""
        ...

    def is_leaf(self, loc: int) -> bool:
        """True when the octant exists and has no children."""
        ...

    def leaves(self) -> Iterator[int]:
        """All leaf codes (order unspecified)."""
        ...

    def num_octants(self) -> int:
        """Total live octants, internal nodes included."""
        ...

    def num_leaves(self) -> int:
        """Number of leaves (without enumerating them)."""
        ...

    def get_payload(self, loc: int) -> Payload:
        """Read the solver payload of an octant."""
        ...

    def set_payload(self, loc: int, payload: Payload) -> None:
        """Write the solver payload of an octant."""
        ...

    def get_field(self, loc: int, slot: int) -> float:
        """Read one payload slot of an octant."""
        ...

    def set_field(self, loc: int, slot: int, value: float) -> None:
        """Write one payload slot of an octant."""
        ...

    def batch_read_payloads(self, locs: Sequence[int]) -> np.ndarray:
        """``(n, 4)`` float64 payload rows, as ``n`` ``get_payload`` calls."""
        ...

    def batch_read_fields(self, locs: Sequence[int], slot: int) -> np.ndarray:
        """One slot per loc, as ``n`` ``get_field`` calls."""
        ...

    def batch_set_payloads(self, items: Iterable[Tuple[int, Payload]]) -> None:
        """Apply ``(loc, payload)`` stores in order."""
        ...

    def batch_set_fields(self, items: Iterable[Tuple[int, float]],
                         slot: int) -> None:
        """Apply ``(loc, value)`` stores to one slot in order."""
        ...

    def face_neighbors(self, locs: Sequence[int]) -> FaceTable:
        """Face-neighbour leaves of every code, as ``n``
        ``neighbors.face_neighbor_leaves`` calls."""
        ...

    def unbalanced(self, locs: Sequence[int]) -> np.ndarray:
        """One bool per code; False only where the tree can show *without a
        charged query* that no face of the leaf is covered by a leaf more
        than one level coarser (Balance has nothing to do there)."""
        ...

    def refine(self, loc: int) -> List[int]:
        """Split a leaf into ``2**dim`` children; returns the child codes.

        Children inherit the parent's payload (Gerris-style prolongation is
        the solver's job, done afterwards through ``set_payload``).
        """
        ...

    def coarsen(self, loc: int) -> None:
        """Delete the (leaf) children of ``loc``, making it a leaf again."""
        ...


class LoopBackedAccess:
    """Batch calls built only on the per-octant ones.

    For trees whose smallest access is a whole payload (a DRAM record, a
    4 KB page): a slot write is a payload read-modify-write and a batch is
    the plain loop, so the device is charged exactly what the per-octant
    calls charge.  The same goes for structure: ``face_neighbors`` is the
    ``face_neighbor_leaves`` loop, every ``exists``/``is_leaf`` in it an
    index search where the tree keeps its index out of core.
    """

    def get_field(self, loc: int, slot: int) -> float:
        return self.get_payload(loc)[slot]

    def set_field(self, loc: int, slot: int, value: float) -> None:
        payload = list(self.get_payload(loc))
        payload[slot] = value
        self.set_payload(loc, tuple(payload))

    def batch_read_payloads(self, locs: Sequence[int]) -> np.ndarray:
        return np.array([self.get_payload(loc) for loc in locs],
                        dtype=np.float64).reshape(len(locs), 4)

    def batch_read_fields(self, locs: Sequence[int], slot: int) -> np.ndarray:
        return np.array([self.get_field(loc, slot) for loc in locs],
                        dtype=np.float64)

    def batch_set_payloads(self, items: Iterable[Tuple[int, Payload]]) -> None:
        for loc, payload in items:
            self.set_payload(loc, payload)

    def batch_set_fields(self, items: Iterable[Tuple[int, float]],
                         slot: int) -> None:
        for loc, value in items:
            self.set_field(loc, slot, value)

    def face_neighbors(self, locs: Sequence[int]) -> FaceTable:
        offsets, entries = [0], []
        for loc in locs:
            entries.extend(face_neighbor_leaves(self, loc))
            offsets.append(len(entries))
        codes, axes, dirs = np.array(entries, dtype=np.int64) \
            .reshape(len(entries), 3).T
        return FaceTable(np.array(offsets), codes, axes, dirs)

    def unbalanced(self, locs: Sequence[int]) -> np.ndarray:
        # deciding costs the index searches Balance makes anyway
        return np.ones(len(locs), dtype=bool)


def leaf_levels(tree: AdaptiveTree) -> List[int]:
    """Levels of all leaves — handy for tests and balance diagnostics."""
    from repro.octree import morton

    return [morton.level_of(loc, tree.dim) for loc in tree.leaves()]


def tree_depth(tree: AdaptiveTree) -> int:
    """Depth of the deepest leaf (used by eq. (1) for L_sub)."""
    levels = leaf_levels(tree)
    return max(levels) if levels else 0


def validate_tree(tree: AdaptiveTree) -> None:
    """Structural invariant check used across the test suite.

    * every leaf exists;
    * every non-root leaf's ancestors exist and are not leaves;
    * leaves tile the domain exactly (their measures sum to the root cell's).
    """
    from repro.errors import ConsistencyError
    from repro.octree import morton

    dim = tree.dim
    total = 0.0
    count = 0
    for loc in tree.leaves():
        count += 1
        if not tree.exists(loc):
            raise ConsistencyError(f"leaf {loc:#x} does not exist")
        if not tree.is_leaf(loc):
            raise ConsistencyError(f"{loc:#x} reported as leaf but has children")
        level = morton.level_of(loc, dim)
        total += (0.5 ** level) ** dim
        walk = loc
        while walk != tree.root_loc():
            walk = morton.parent_of(walk, dim)
            if not tree.exists(walk):
                raise ConsistencyError(f"ancestor {walk:#x} of leaf {loc:#x} missing")
            if tree.is_leaf(walk):
                raise ConsistencyError(f"ancestor {walk:#x} of leaf {loc:#x} is a leaf")
    if count == 0:
        raise ConsistencyError("tree has no leaves")
    if abs(total - 1.0) > 1e-9:
        raise ConsistencyError(f"leaves tile {total} of the domain, expected 1.0")
