"""Named views of the octant payload slots.

Every octant record carries four float64 payload slots; the solver uses them
as its cell-centred fields.  ``FieldView`` gives read/modify/write access by
name over any :class:`~repro.octree.store.AdaptiveTree`; single-slot traffic
goes through the protocol's ``get_field``/``set_field``, so what it costs —
an 8-byte single-line access on PM-octree, a payload or page
read-modify-write on the baselines — is each tree's business.
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.octree import soa
from repro.octree.store import AdaptiveTree

#: Payload slot assignments.
VOF = 0        #: liquid volume fraction (the VOF colour function)
PRESSURE = 1   #: cell pressure
U = 2          #: horizontal velocity
V = 3          #: vertical velocity (the jet direction)


class FieldView:
    """Slot-wise field access with a per-slot write API."""

    def __init__(self, tree: AdaptiveTree):
        self.tree = tree

    def get(self, loc: int, slot: int) -> float:
        return self.tree.get_field(loc, slot)

    def set(self, loc: int, slot: int, value: float) -> None:
        self.tree.set_field(loc, slot, value)


def liquid_leaves(tree: AdaptiveTree, threshold: float = 0.5) -> List[int]:
    """Leaves that are mostly liquid (used by droplet counting).

    Reads only the VOF slot of each leaf, as one batch."""
    locs = list(tree.leaves())
    vals = tree.batch_read_fields(locs, VOF)
    return [loc for loc, v in zip(locs, vals) if v > threshold]


def count_droplets(tree: AdaptiveTree, threshold: float = 0.5) -> int:
    """Connected components of liquid leaves under face adjacency.

    This is the observable the workload is about: 1 while the jet is an
    attached column, >1 after pinch-off.
    """
    liquid = liquid_leaves(tree, threshold)
    if not liquid:
        return 0
    table = tree.face_neighbors(liquid)
    cols = soa.index_in(np.array(liquid, dtype=np.int64), table.codes)
    wet = cols >= 0
    adjacency = sp.csr_matrix(
        (np.ones(int(wet.sum()), dtype=np.int8),
         (table.rows()[wet], cols[wet])), shape=(len(liquid), len(liquid)))
    return int(connected_components(adjacency, directed=False,
                                    return_labels=False))
