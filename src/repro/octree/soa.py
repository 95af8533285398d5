"""Structure-of-arrays (SoA) views of a tree's leaves.

The solver kernels (VOF transport, the wave sweep, the red-black smoother,
work-weight extraction), the refine sweep's criterion and the §3.3 feature
sampler have one body each, written over arrays: at realistic tree sizes a
per-octant Python loop over tuple payloads — not the simulated memory
device — would be the binding constraint.  This module is the batch layer
they share:

* vectorised locational-code arithmetic (:func:`levels_of_codes`,
  :func:`coords_of_codes`, :func:`zorder_keys`) that is *integer-exact*
  against :mod:`repro.octree.morton` — codes are plain int64 bit patterns,
  so the numpy forms produce identical values, not approximations;
* exact cell geometry (:func:`cell_geometry`) replaying
  ``morton.cell_bounds``/``cell_center`` arithmetic elementwise, so every
  float matches the scalar form to the last ulp;
* :class:`LeafBatch` — the gathered per-leaf arrays (``locs``, ``levels``,
  payload columns, bounds, centers) in the tree's ``leaves()`` iteration
  order, filled by :func:`gather` through the tree protocol's
  ``batch_read_payloads``.  A refinement criterion and a PM-octree feature
  function are both ``(LeafBatch) -> ndarray``; :func:`per_octant` lifts a
  ``(loc, payload)`` callable to that shape with a plain loop.

Structure is batched the same way: :func:`face_table` resolves the face
neighbours of many codes at once from nothing but the leaf codes (one
stable sort of the leaves' z-order positions, one ``searchsorted`` per
face), and a batch is *defined* as the per-octant
``neighbors.face_neighbor_leaves`` calls in order, exactly as a data batch
is the per-octant accessor calls; :func:`face_steps` is the neighbour-code
step it, Balance's ``forcing_faces`` and the advect kernel's upwind probe
(``face_leaves``: ``leaf_neighbor`` + ``is_leaf`` per code) share.  Trees
whose ``exists``/``is_leaf`` are uncharged in-memory set tests
(``PointerOctree``, ``PMOctree``) answer these through
:class:`LeafSetStructure`; the out-of-core baseline keeps the loop-backed
default in :mod:`repro.octree.store`, because there each such query is a
B-tree search — one of the §5.4 costs the evaluation measures — and
resolving neighbours from gathered arrays would silently skip it.

Bit-identity discipline
-----------------------
The kernels must be *provably* equivalent to the per-octant scalar oracle
(``tests/oracles``, driven by the differential battery under
``tests/solver``), which constrains the arithmetic allowed here:

* only elementwise IEEE-754 ops (``+ - * /``, ``np.minimum``, ``np.abs``,
  comparisons) shared with the scalar expressions — these are exact per
  element, so array evaluation equals scalar evaluation bitwise;
* ``np.sqrt``/``np.exp``/``np.cos`` are elementwise-deterministic across
  array shapes (no size-dependent vector paths for the values we feed
  them), and ``np.sqrt``/``np.cos`` agree bitwise with ``math.sqrt``/
  ``math.cos``; ``math.exp`` and ``math.dist`` do NOT agree with their
  numpy counterparts and are therefore banned from kernel arithmetic;
* powers-of-two cell sizes go through ``np.ldexp`` (exact), never
  ``1.0 / float(1 << level)`` loops.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, NamedTuple, Sequence

import numpy as np

from repro.errors import ReproError
from repro.octree import morton

#: Maximum level (per dim) for which the int64 zorder-key arithmetic is
#: exact: ``dim * max_level + 6`` key bits must fit a signed 64-bit lane.
_KEY_BITS = 62

#: Locational codes must be exact as float64 for the frexp level trick.
_EXACT_FLOAT_LIMIT = 1 << 53


def _as_int64(locs) -> np.ndarray:
    if isinstance(locs, list):  # no dtype inference pass over the ints
        return np.fromiter(locs, np.int64, len(locs))
    arr = np.asarray(locs)
    return arr.astype(np.int64) if arr.dtype != np.int64 else arr


def levels_of_codes(locs, dim: int) -> np.ndarray:
    """Vectorised ``morton.level_of``: ``(bit_length - 1) // dim``.

    ``bit_length`` comes from the float64 exponent, which is exact for
    codes below 2**53 (guarded); integer-exact against the scalar form.
    """
    loc_arr = _as_int64(locs)
    if loc_arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if int(loc_arr.max()) >= _EXACT_FLOAT_LIMIT:  # pragma: no cover - guard
        return np.array([morton.level_of(int(v), dim) for v in loc_arr],
                        dtype=np.int64)
    bit_length = np.frexp(loc_arr.astype(np.float64))[1].astype(np.int64)
    return (bit_length - 1) // dim


#: Mask compaction per dim: ``(first, steps)``.  After ``& first`` keeps
#: every ``dim``-th bit, each ``(shift, mask)`` step folds runs of 1, 2, 4,
#: ... coordinate bits together, so bit ``dim * i`` lands on bit ``i``.
_COMPACT = {
    2: (0x5555555555555555, ((1, 0x3333333333333333),
                             (2, 0x0F0F0F0F0F0F0F0F),
                             (4, 0x00FF00FF00FF00FF),
                             (8, 0x0000FFFF0000FFFF),
                             (16, 0x00000000FFFFFFFF))),
    3: (0x1249249249249249, ((2, 0x10C30C30C30C30C3),
                             (4, 0x100F00F00F00F00F),
                             (8, 0x001F0000FF0000FF),
                             (16, 0x001F00000000FFFF),
                             (32, 0x00000000001FFFFF))),
}


def coords_of_codes(locs, levels: np.ndarray, dim: int) -> np.ndarray:
    """Vectorised ``morton.coords_of``: (n, dim) int64 min-corner coords.

    With the sentinel removed, axis ``a``'s coordinate is bits ``a``,
    ``a + dim``, ... of the code: compacted by :data:`_COMPACT`'s six
    integer shift-and-mask steps per axis, exact for every code below
    2**53 (32 levels in 2-D, 21 in 3-D fit the masks).
    """
    bits = _as_int64(locs) - (np.int64(1) << (dim * levels))
    first, steps = _COMPACT[dim]
    coords = np.empty((bits.size, dim), dtype=np.int64)
    for axis in range(dim):
        c = (bits >> axis) & first
        for shift, mask in steps:
            c |= c >> shift
            c &= mask
        coords[:, axis] = c
    return coords


def zorder_keys(locs, levels: np.ndarray, dim: int,
                max_level: int) -> np.ndarray:
    """Vectorised ``morton.zorder_key`` (uint64, identical bit patterns)."""
    loc_arr = _as_int64(locs)
    if dim * max_level + 6 > _KEY_BITS:  # pragma: no cover - absurd depth
        return np.array(
            [morton.zorder_key(int(v), dim, max_level) for v in loc_arr],
            dtype=np.uint64,
        )
    aligned = (loc_arr - (np.int64(1) << (dim * levels))) \
        << (dim * (max_level - levels))
    return ((aligned << np.int64(6)) | levels).astype(np.uint64)


def cell_geometry(coords: np.ndarray, levels: np.ndarray):
    """``(h, mins, maxs, centers)`` replaying ``morton.cell_bounds`` /
    ``cell_center`` arithmetic elementwise (bit-identical floats).

    ``h = ldexp(1, -level)`` equals ``1.0 / (1 << level)`` exactly; the
    min corner ``c * h``, max corner ``min + h`` and center
    ``(lo + hi) / 2.0`` are the scalar expressions applied per element.
    """
    h = np.ldexp(1.0, -levels)
    mins = coords.astype(np.float64) * h[:, None]
    maxs = mins + h[:, None]
    centers = (mins + maxs) / 2.0
    return h, mins, maxs, centers


def code_geometry(locs, dim: int):
    """:func:`cell_geometry` of locational codes nobody gathered (parents
    of a batch, leaves about to be initialised): no payload is read."""
    levels = levels_of_codes(locs, dim)
    return cell_geometry(coords_of_codes(locs, levels, dim), levels)


class LeafBatch:
    """Gathered SoA view of a tree's leaves.

    Every array keeps the tree's ``leaves()`` iteration order — the order
    the scalar oracle visits and therefore the order any write-back must
    replay so copy-on-write allocation decisions match it exactly.
    """

    def __init__(self, dim: int, locs: Sequence[int],
                 payloads: np.ndarray):
        self.dim = dim
        self.loc_list: List[int] = list(locs)
        self.locs = _as_int64(self.loc_list)
        self.payloads = payloads
        self.levels = levels_of_codes(self.locs, dim)
        self.coords = coords_of_codes(self.locs, self.levels, dim)
        self.h, self.mins, self.maxs, self.centers = cell_geometry(
            self.coords, self.levels
        )

    def __len__(self) -> int:
        return len(self.loc_list)


def gather(tree, locs: Sequence[int]) -> LeafBatch:
    """Gather payload rows for ``locs`` into a :class:`LeafBatch`, charged
    exactly what per-leaf ``get_payload`` calls would be."""
    loc_list = list(locs)
    return LeafBatch(tree.dim, loc_list, tree.batch_read_payloads(loc_list))


#: The one callable shape of a refinement criterion (an ``Action`` code per
#: octant) and of a PM-octree feature function (a bool per octant).  A
#: predicate is *elementwise*: entry ``i`` of its result depends on octant
#: ``i`` of the batch alone (sharing work between entries, as the droplet
#: criterion does for sibling parents, is fine), so a caller may evaluate it
#: over any concatenation of batches — the §3.3 sampler hands it the picks
#: of every candidate subtree at once.
Predicate = Callable[[LeafBatch], np.ndarray]


def per_octant(fn: Callable) -> Predicate:
    """Lift a per-octant ``fn(loc, payload)`` to the batch shape.

    The loop-backed counterpart of the array predicates (what
    :class:`repro.octree.store.LoopBackedAccess` is to the batch
    accessors): one call per octant, in batch order, with the payload as
    the tuple ``get_payload`` returns."""

    def batched(batch: LeafBatch) -> np.ndarray:
        return np.array([
            fn(loc, tuple(row))
            for loc, row in zip(batch.loc_list, batch.payloads.tolist())
        ])

    return batched


# --------------------------------------------------------- structure batches

class FaceTable(NamedTuple):
    """Face-neighbour leaves of a batch of codes, in CSR form.

    Row ``i`` (entries ``offsets[i]:offsets[i + 1]``) is what
    ``neighbors.face_neighbor_leaves`` yields for ``locs[i]``, in order: faces
    axis-major, −1 before +1; across a finer face every touching leaf, in
    ``finer_face_neighbors``' stack order (descending child index at every
    level, i.e. descending z-order); nothing at the domain boundary.
    """

    offsets: np.ndarray  #: (n + 1,) row offsets
    codes: np.ndarray    #: neighbour leaf codes
    axes: np.ndarray     #: face axis of each entry
    dirs: np.ndarray     #: face direction of each entry (−1 / +1)

    def rows(self) -> np.ndarray:
        """Row index of every entry (the COO spelling of ``offsets``)."""
        return np.repeat(np.arange(len(self.offsets) - 1),
                         np.diff(self.offsets))


def face_steps(locs, levels, dim: int, axis, direction: int):
    """Vectorised :func:`morton.neighbor_of` (``axis`` may be an array,
    broadcast against the codes): ``(inside, codes)``, each code
    meaningful only where ``inside`` (not on that domain boundary)."""
    sentinel = np.int64(1) << dim * levels
    bits = _as_int64(locs) ^ sentinel
    mask = morton.axis_mask(sentinel, dim, axis)
    along = bits & mask
    if direction < 0:
        inside, moved = along != 0, (along - 1) & mask
    else:
        inside, moved = along != mask, ((bits | ~mask) + 1) & mask
    return inside, sentinel | (bits & ~mask) | moved


def face_table(leaf_codes: Iterable[int], locs, dim: int) -> FaceTable:
    """The :class:`FaceTable` of ``locs`` on the complete tree whose leaves
    are ``leaf_codes`` — a pure function of the codes.

    A cell's z-order *position* is its min corner at the deepest level in
    play, so the leaf covering a same-level neighbour code is the last leaf
    positioned at or before it; when that leaf is finer, the neighbour's
    descendants are the contiguous run of positions below the code's span.
    """
    loc_arr = _as_int64(locs)
    leaves = np.fromiter(leaf_codes, np.int64)
    levels = levels_of_codes(leaves, dim)
    loc_levels = levels_of_codes(loc_arr, dim)
    depth = int(max(levels.max(initial=0), loc_levels.max(initial=0)))
    if dim * depth > _KEY_BITS:  # pragma: no cover - absurd depth
        raise ValueError(f"level {depth} is too deep for int64 positions")
    start = (leaves - (1 << dim * levels)) << dim * (depth - levels)
    order = np.argsort(start, kind="stable")
    leaves, levels, start = leaves[order], levels[order], start[order]
    last = start + (1 << dim * (depth - levels)) - 1  # max corner

    sentinel = 1 << dim * loc_levels
    shift = dim * (depth - loc_levels)
    nfaces = 2 * dim
    slots, codes = [], []
    for axis in range(dim):
        lane = morton.axis_mask(1 << dim * depth, dim, axis)
        for direction in (-1, 1):
            inside, code = face_steps(loc_arr, loc_levels, dim, axis,
                                      direction)
            sel = np.nonzero(inside)[0]
            slot = sel * nfaces + 2 * axis + (direction > 0)
            key = ((code ^ sentinel) << shift)[sel]
            pos = np.searchsorted(start, key, side="right") - 1
            finer = levels[pos] > loc_levels[sel]
            slots.append(slot[~finer])
            codes.append(leaves[pos[~finer]])
            # finer side: walk the neighbour's run of leaves backwards and
            # keep those whose corner lies on the shared face
            key, span = key[finer], (1 << shift[sel])[finer]
            stop = np.searchsorted(start, key + span, side="left")
            count = stop - pos[finer]
            run = np.repeat(np.arange(count.size), count)
            cand = (stop - 1 + np.cumsum(count) - count)[run] \
                - np.arange(run.size)
            if direction > 0:
                touching = (start[cand] & lane) == (key & lane)[run]
            else:
                touching = (last[cand] & lane) == ((key + span - 1) & lane)[run]
            slots.append(slot[finer][run[touching]])
            codes.append(leaves[cand[touching]])
    slot = np.concatenate(slots)
    # each (loc, face) slot was filled by one append, already in order
    order = np.argsort(slot, kind="stable")
    slot = slot[order]
    face = slot % nfaces
    return FaceTable(
        offsets=np.searchsorted(slot, np.arange(len(loc_arr) + 1) * nfaces),
        codes=np.concatenate(codes)[order],
        axes=face >> 1, dirs=2 * (face & 1) - 1)


def level_gaps(table: FaceTable, locs, dim: int) -> np.ndarray:
    """Per entry: the neighbour leaf's level minus its row's (``locs[i]``'s)
    level — positive where the neighbour is finer."""
    return levels_of_codes(table.codes, dim) \
        - levels_of_codes(locs, dim)[table.rows()]


def index_in(locs: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Index in ``locs`` of each of ``codes``; −1 where it is not there."""
    order = np.argsort(locs)
    at = np.searchsorted(locs, codes, sorter=order).clip(max=len(locs) - 1)
    idx = order[at]
    return np.where(locs[idx] == codes, idx, -1)


class LeafSetStructure:
    """Structure queries for trees that keep their codes in an in-memory
    ``_index`` (code -> handle) and ``_leaf_set``: ``exists``/``is_leaf``
    are uncharged set tests there, so answering a batch from the codes
    alone skips nothing metered.  Their mutations land through a
    ``_landing`` buffer (:class:`repro.core.cow.Landing`)."""

    def batch(self):
        """A scope whose mutations land together when the outermost one
        closes; inner scopes join it."""
        return self._landing

    def root_loc(self) -> int:
        return morton.ROOT_LOC

    def exists(self, loc: int) -> bool:
        return loc in self._index

    def is_leaf(self, loc: int) -> bool:
        return loc in self._leaf_set

    def num_octants(self) -> int:
        return len(self._index)

    def num_leaves(self) -> int:
        return len(self._leaf_set)

    def leaves(self) -> Iterator[int]:
        return iter(list(self._leaf_set))

    def handle_of(self, loc: int) -> int:
        try:
            return self._index[loc]
        except KeyError:
            raise ReproError(f"octant {loc:#x} not in tree") from None

    def find_leaf_at(self, point) -> int:
        """Leaf containing a point of the unit cube (point location)."""
        if len(point) != self.dim:
            raise ValueError(f"point must have {self.dim} coordinates")
        loc = morton.ROOT_LOC
        while loc not in self._leaf_set:
            level = morton.level_of(loc, self.dim)
            coords = morton.coords_of(loc, self.dim)
            idx = 0
            for axis in range(self.dim):
                mid = (2 * coords[axis] + 1) / (1 << (level + 1))
                if point[axis] >= mid:
                    idx |= 1 << axis
            loc = morton.child_of(loc, self.dim, idx)
        return loc

    def face_neighbors(self, locs: Sequence[int]) -> FaceTable:
        return face_table(self._leaf_set, locs, self.dim)

    def forcing_faces(self, locs: Sequence[int]) -> np.ndarray:
        # exact: the tree is complete, so the leaf covering a same-level
        # neighbour is over one level coarser iff its parent is no octant;
        # siblings share neighbour parents, so each distinct one is looked
        # up once
        loc_arr, dim = _as_int64(locs), self.dim
        levels, axes = levels_of_codes(loc_arr, dim)[:, None], np.arange(dim)
        steps = [face_steps(loc_arr[:, None], levels, dim, axes, direction)
                 for direction in (-1, 1)]
        inside = np.stack([s[0] for s in steps], axis=-1)  # −1, +1 per axis
        codes = np.stack([s[1] for s in steps], axis=-1)
        up, at = np.unique(codes[inside] >> dim, return_inverse=True)
        inside[inside] = ~np.fromiter(map(self._index.__contains__,
                                          up.tolist()), bool, len(up))[at]
        return inside.reshape(len(loc_arr), 2 * dim)

    def face_leaves(self, locs: Sequence[int], axis: int,
                    direction: int) -> np.ndarray:
        loc_arr = _as_int64(locs)
        inside, codes = face_steps(loc_arr, levels_of_codes(loc_arr, self.dim),
                                   self.dim, axis, direction)
        out = np.zeros(len(loc_arr), dtype=np.int64)
        todo = np.flatnonzero(inside)
        codes, index = codes[todo], self._index
        while todo.size:  # up the ancestors to the first octant: the root
            found = np.fromiter(map(index.__contains__, codes.tolist()), bool,
                                len(codes))
            out[todo[found]] = codes[found]
            todo, codes = todo[~found], codes[~found] >> self.dim
        return np.where(np.fromiter(map(self._leaf_set.__contains__,
                                        out.tolist()), bool, len(out)), out, 0)
