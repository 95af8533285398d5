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

from contextlib import nullcontext
from typing import (
    ContextManager,
    Iterator,
    List,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.octree.neighbors import face_neighbor_leaves, leaf_neighbor
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
    data — codes in, float64 arrays out and in, row ``i`` for ``locs[i]`` —
    and ``face_neighbors`` for structure (``face_neighbor_leaves`` of each
    code).  A tree may therefore aggregate the device charge of a batch
    (PM-octree and the in-core tree do) or answer it from arrays when the
    per-octant queries are uncharged
    (:class:`repro.octree.soa.LeafSetStructure`), but never change the
    total: on an out-of-core tree each structure query is an index search,
    and that cost is part of what the evaluation compares.
    :class:`LoopBackedAccess` derives every batch from the per-octant calls
    for the tree whose every call is such a search.

    Mutations group the same way: ``refine``/``coarsen`` and the stores made
    inside one ``with tree.batch():`` scope are the per-octant calls in
    order, and a tree may land their record stores together when the
    outermost scope closes (:mod:`repro.core.cow`).  A call made outside
    any scope is a scope of one.
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

    def batch_set_payloads(self, locs: Sequence[int],
                           payloads: np.ndarray) -> None:
        """Store ``(n, 4)`` float64 payload rows, as ``n`` ``set_payload``
        calls in order (a repeated loc is stored once per row)."""
        ...

    def batch_set_fields(self, locs: Sequence[int], values: np.ndarray,
                         slot: int) -> None:
        """Store ``(n,)`` float64s in one slot, as ``n`` ``set_field``
        calls in order."""
        ...

    def face_neighbors(self, locs: Sequence[int]) -> FaceTable:
        """Face-neighbour leaves of every code, as ``n``
        ``neighbors.face_neighbor_leaves`` calls."""
        ...

    def forcing_faces(self, locs: Sequence[int]) -> np.ndarray:
        """``(n, 2 * dim)`` bools (faces axis-major, −1 first); False only
        where the tree shows *without a charged query* that a leaf at most
        one level coarser covers the face (Balance has nothing to do)."""
        ...

    def face_leaves(self, locs: Sequence[int], axis: int,
                    direction: int) -> np.ndarray:
        """Per code the equal-or-coarser leaf across its ``axis`` face on
        side ``direction``, 0 at the boundary or where that side is finer:
        ``n`` ``neighbors.leaf_neighbor`` + ``is_leaf`` calls."""
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

    def batch(self) -> ContextManager:
        """A scope: the mutations made inside it, in order, may land
        together when the outermost scope closes; inner scopes join it."""
        ...


class LoopBackedAccess:
    """Batch calls built only on the per-octant ones.

    Its one user is :class:`repro.baselines.etree.EtreeOctree`, whose
    smallest access is a 4 KB page and whose every ``exists``/``is_leaf`` is
    a metered index search: a slot write is a page read-modify-write and a
    batch is the plain loop, so the device is charged exactly what the
    per-octant calls charge, searches included.  The same goes for
    structure: ``face_neighbors`` and ``face_leaves`` are their loops,
    and a ``batch()`` scope is no scope at all — every call already runs
    at its place.
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

    def batch_set_payloads(self, locs: Sequence[int], payloads: np.ndarray) -> None:
        for loc, payload in zip(locs, np.asarray(payloads).tolist()):
            self.set_payload(loc, tuple(payload))

    def batch_set_fields(self, locs: Sequence[int], values: np.ndarray,
                         slot: int) -> None:
        for loc, value in zip(locs, np.asarray(values).tolist()):
            self.set_field(loc, slot, value)

    def face_neighbors(self, locs: Sequence[int]) -> FaceTable:
        offsets, entries = [0], []
        for loc in locs:
            entries.extend(face_neighbor_leaves(self, loc))
            offsets.append(len(entries))
        codes, axes, dirs = np.array(entries, dtype=np.int64) \
            .reshape(len(entries), 3).T
        return FaceTable(np.array(offsets), codes, axes, dirs)

    def forcing_faces(self, locs: Sequence[int]) -> np.ndarray:
        # deciding costs the index searches Balance makes anyway
        return np.ones((len(locs), 2 * self.dim), dtype=bool)

    def face_leaves(self, locs: Sequence[int], axis: int,
                    direction: int) -> np.ndarray:
        codes = (leaf_neighbor(self, loc, axis, direction) for loc in locs)
        return np.array([code if code is not None and self.is_leaf(code)
                         else 0 for code in codes], dtype=np.int64)

    def batch(self) -> ContextManager:
        return nullcontext()


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
