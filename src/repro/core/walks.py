"""Level-at-a-time walks over the persistent structure.

The read-only walks of ``core`` — the GC mark, ``reachable_from``, the
restore traversal — visit one tree level per arena call: gather the whole
frontier, decode its child slots with array views, emit the next frontier.
A batch read is the per-record reads in order, so the device is charged what
the record-by-record depth-first walks these replaced were charged (their
verbatim bodies: ``tests/oracles/structure_walks.py``).

What a level-order walk loses is the order records are first *seen* in, and
that order leaks into ``PMOctree._index`` and the set ``reachable_from``
returns.  The stack walks visit in pre-order with siblings in *descending*
slot order; a node's **key** is its root path with every slot digit
complemented, so that order is "ascending key, ancestors first"
(:func:`dfs_order`; docs/performance.md, "Level-order structure walks").
The persist merge's postorder pads the same keys with ones instead.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.nvbm.arena import MemoryArena
from repro.nvbm.records import MAX_CHILDREN, as_records
from repro.octree.soa import levels_of_codes


def child_keys(parent_keys: np.ndarray, slot: np.ndarray,
               dim: int) -> np.ndarray:
    """Keys of the children in ``slot`` of the nodes with ``parent_keys``:
    ``dim`` bits per level, like a locational code, so a key fits 64 bits
    whenever the code does.  (Slots past the fanout are null in a
    well-formed tree; masking keeps a malformed one inside its digit.)"""
    last = np.uint64((1 << dim) - 1)
    return (parent_keys << np.uint64(dim)) | ((last - slot) & last)


def dfs_order(level_keys: List[np.ndarray], dim: int) -> np.ndarray:
    """The permutation listing level-order nodes (level 0's, then level
    1's, ...) in the order the depth-first walk visits them."""
    depth = len(level_keys)
    keys = np.concatenate([
        k << np.uint64(dim * (depth - 1 - level))
        for level, k in enumerate(level_keys)])
    levels = np.concatenate([
        np.full(k.size, level) for level, k in enumerate(level_keys)])
    return np.lexsort((levels, keys))


def postorder_keys(codes: np.ndarray,
                   dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys, spans)`` of the int64 ``codes`` of one subtree: each path
    with every slot digit complemented and padded with ones to the deepest
    level, and ``(1 << padding bits) - 1``.  Ascending ``(key, span)`` is
    the postorder with siblings in descending slot order (a node ties with
    its slot-0 descendants, which the smaller span puts first), and a
    node's subtree is the run of keys in ``[key - span, key]``."""
    levels = levels_of_codes(codes, dim)
    depth = int(levels.max(initial=0))
    pad = dim * (depth - levels)
    path = codes ^ (np.int64(1) << dim * levels)  # drop the sentinel
    keys = ((np.int64(1) << dim * depth) - 1) ^ (path << pad)
    return keys, (np.int64(1) << pad) - 1


def postorder(codes: np.ndarray, dim: int) -> np.ndarray:
    """The int64 ``codes`` of one subtree in :func:`postorder_keys` order."""
    keys, spans = postorder_keys(codes, dim)
    return codes[np.lexsort((spans, keys))]


def reach(arena: MemoryArena, roots: np.ndarray,
          dim: int) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Everything reachable in ``arena`` from the handles ``roots``, level
    by level: the slots and the keys of each level.

    A child is followed when it is a live allocation of ``arena`` — null,
    foreign and dangling pointers drop out as ``contains`` drops them — and
    not seen before; each record is read exactly once."""
    seen = np.zeros(arena.slots, dtype=bool)
    frontier = np.unique(arena.slots_of(roots[arena.contains_mask(roots)]))
    keys = np.zeros(frontier.size, dtype=np.uint64)
    level_slots, level_keys = [], []
    while frontier.size:
        seen[frontier] = True
        level_slots.append(frontier)
        level_keys.append(keys)
        rows = arena.read_rows(arena.handles_of(frontier))
        flat = as_records(rows)["children"].ravel()
        pos = np.flatnonzero(arena.contains_mask(flat))
        slots = arena.slots_of(flat[pos])
        fresh = ~seen[slots]
        pos, slots = pos[fresh], slots[fresh]
        # once each, in frontier order
        _, first = np.unique(slots, return_index=True)
        first.sort()
        pos, frontier = pos[first], slots[first]
        keys = child_keys(keys[pos // MAX_CHILDREN],
                          (pos % MAX_CHILDREN).astype(np.uint64), dim)
    return level_slots, level_keys
