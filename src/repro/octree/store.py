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

Payload = Tuple[float, float, float, float]

#: Payload of a freshly-created octant.
ZERO_PAYLOAD: Payload = (0.0, 0.0, 0.0, 0.0)


@runtime_checkable
class AdaptiveTree(Protocol):
    """The surface the meshing/solving routines require.

    Structure (``exists``/``is_leaf``/``leaves``/``refine``/``coarsen``) is
    queried per octant — on an out-of-core tree each query is an index
    search, and that cost is part of what the evaluation compares.  Data is
    read and written per octant (``get_payload``/``get_field``/...) or in
    batches (``batch_*``); a batch call is *defined* as the per-octant calls
    in order, so a tree may aggregate the device charge (PM-octree does) but
    never change its total.  :class:`LoopBackedAccess` derives everything
    past ``get_payload``/``set_payload`` for trees with nothing to aggregate.
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
    """Field and batch accessors built only on ``get_payload``/``set_payload``.

    For trees whose smallest access is a whole payload (a DRAM record, a
    4 KB page): a slot write is a payload read-modify-write and a batch is
    the plain loop, so the device is charged exactly what the per-octant
    calls charge.
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
