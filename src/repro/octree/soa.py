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

Only *data* is batched.  Structure — which leaf sits below this one, does
this code exist — stays a per-octant query on the tree (``leaf_neighbor``,
``is_leaf``): on the out-of-core baseline each such query is a B-tree
search, one of the §5.4 costs the evaluation measures, and resolving
neighbors from the gathered arrays would silently skip it.

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

from typing import Callable, List, Sequence

import numpy as np

from repro.octree import morton

#: Maximum level (per dim) for which the int64 zorder-key arithmetic is
#: exact: ``dim * max_level + 6`` key bits must fit a signed 64-bit lane.
_KEY_BITS = 62

#: Locational codes must be exact as float64 for the frexp level trick.
_EXACT_FLOAT_LIMIT = 1 << 53


def _as_int64(locs) -> np.ndarray:
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


def coords_of_codes(locs, levels: np.ndarray, dim: int) -> np.ndarray:
    """Vectorised ``morton.coords_of``: (n, dim) int64 min-corner coords.

    Bits above a code's own level are zero, so one loop to the deepest
    level needs no per-element masking.
    """
    loc_arr = _as_int64(locs)
    n = loc_arr.size
    coords = np.zeros((n, dim), dtype=np.int64)
    if n == 0:
        return coords
    bits = loc_arr - (np.int64(1) << (dim * levels))
    for i in range(int(levels.max())):
        for axis in range(dim):
            coords[:, axis] |= ((bits >> np.int64(dim * i + axis)) & 1) << i
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
#: octant) and of a PM-octree feature function (a bool per octant).
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
