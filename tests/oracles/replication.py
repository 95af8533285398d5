"""The traversal oracle for replica DELTAs.

``src`` builds a DELTA from the write sets of the published versions since
the peer's base, and never walks the tree for it.  The oracle walks: it
diffs the whole published version against the images the peer holds.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np

from repro.config import OCTANT_RECORD_SIZE
from repro.core.pmoctree import SLOT_PREV
from repro.nvbm.pointers import NULL_HANDLE


def published_images(pmo) -> Tuple[int, Dict[int, bytes]]:
    """The published root and ``handle -> record bytes`` of every record
    reachable from it, read unmetered."""
    with pmo.unmetered_inspection():
        root = pmo.nvbm.roots.get(SLOT_PREV)
        if root == NULL_HANDLE:
            return root, {}
        handles = list(pmo.reachable_from(root))
        blob = pmo.nvbm.read_rows(np.array(handles, dtype=np.uint64)).tobytes()
    return root, {h: blob[i * OCTANT_RECORD_SIZE:(i + 1) * OCTANT_RECORD_SIZE]
                  for i, h in enumerate(handles)}


def traversal_delta(pmo, held: Dict[int, bytes]
                    ) -> Tuple[Dict[int, bytes], Set[int], int]:
    """What a DELTA to a peer holding ``held`` must carry:
    ``(records, dropped, root)``.

    ``records`` are the published records the peer lacks, or holds under a
    reused handle with another record's bytes; ``dropped`` are the handles
    the peer holds that the published version no longer reaches."""
    root, images = published_images(pmo)
    records = {h: b for h, b in images.items() if held.get(h) != b}
    return records, set(held) - set(images), root
