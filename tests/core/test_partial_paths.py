"""PR 4 correctness fixes: coarsen over C0 children, unmetered inspection,
heap-based eviction cost.

The coarsen reproducer is the headline bug: coarsening an NVBM parent whose
children were brought into DRAM by ``load_subtree`` (each a size-1 C0
subtree root, legal under I1) used to treat the DRAM handles as NVBM
records and corrupt the tree.
"""

import dataclasses

import pytest

from repro.core.merge import load_subtree
from repro.errors import ReproError
from repro.nvbm.pointers import is_dram, is_nvbm
from repro.octree import morton
from tests.core.conftest import PMRig


def _nvbm_tree(levels=1, **kwargs):
    """A persisted tree: everything in NVBM, C0 empty."""
    rig = PMRig(**kwargs)
    t = rig.tree
    for _ in range(levels):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False, keep_resident=False)
    return rig


# -- coarsen over DRAM-resident C0 children ---------------------------------


def test_coarsen_nvbm_parent_with_c0_children():
    """The reproducer: NVBM parent, every child a DRAM C0 subtree root."""
    rig = _nvbm_tree(levels=2)
    t = rig.tree
    parent = morton.children_of(morton.ROOT_LOC, t.dim)[0]
    child_locs = morton.children_of(parent, t.dim)
    for cloc in child_locs:
        assert load_subtree(t, cloc)
        assert is_dram(t.handle_of(cloc))
    dram_used = rig.dram.used
    assert dram_used == len(child_locs)

    t.coarsen(parent)

    assert t.is_leaf(parent)
    assert is_nvbm(t.handle_of(parent))
    for cloc in child_locs:
        assert not t.exists(cloc)
        assert cloc not in t._c0_roots
        assert cloc not in t._origin
    assert rig.dram.used == 0  # C0 copies freed immediately
    t.check_invariants()


def test_coarsen_mixed_dram_and_nvbm_children():
    """Only some children resident: both paths in one coarsen call."""
    rig = _nvbm_tree(levels=2)
    t = rig.tree
    parent = morton.children_of(morton.ROOT_LOC, t.dim)[1]
    child_locs = morton.children_of(parent, t.dim)
    resident = child_locs[:2]
    for cloc in resident:
        assert load_subtree(t, cloc)
    t.coarsen(parent)
    assert t.is_leaf(parent)
    assert rig.dram.used == 0
    t.check_invariants()


def test_coarsen_c0_children_then_persist_and_recover():
    """The corruption only surfaced at the next persist/recovery; the fixed
    path must survive a full persist -> crash -> restore cycle."""
    rig = _nvbm_tree(levels=2)
    t = rig.tree
    parent = morton.children_of(morton.ROOT_LOC, t.dim)[2]
    for cloc in morton.children_of(parent, t.dim):
        assert load_subtree(t, cloc)
    t.coarsen(parent)
    t.persist(transform=False)
    t.check_invariants()
    before = sorted(t._index)
    rig.crash(seed=3)
    restored = rig.restore()
    restored.check_invariants()
    assert sorted(restored._index) == before


def test_coarsen_still_rejects_internal_children():
    rig = _nvbm_tree(levels=2)
    t = rig.tree
    with pytest.raises(ReproError):
        t.coarsen(morton.ROOT_LOC)  # children are internal octants


# -- unmetered inspection ----------------------------------------------------


def test_unmetered_inspection():
    """Structural queries are measurement probes: no simulated time, no
    device traffic — on either arena."""
    rig = _nvbm_tree(levels=2)
    t = rig.tree
    # mixed residency so every query walks both arenas
    assert load_subtree(t, morton.children_of(morton.ROOT_LOC, t.dim)[0])
    before_ns = rig.clock.now_ns
    before_dram = dataclasses.replace(rig.dram.device.stats)
    before_nvbm = dataclasses.replace(rig.nvbm.device.stats)

    ratio = t.overlap_ratio()
    t.check_invariants()
    t.reachable_from(t.nvbm.roots._slots.get("current", 0))

    assert 0.0 <= ratio <= 1.0
    assert rig.clock.now_ns == before_ns
    assert rig.dram.device.stats == before_dram
    assert rig.nvbm.device.stats == before_nvbm


def test_inspection_does_not_pollute_obs():
    from repro.obs import Observability

    rig = _nvbm_tree(levels=1)
    obs = Observability()
    rig.tree.attach_obs(obs)
    rig.dram.attach_obs(obs)
    rig.nvbm.attach_obs(obs)
    # a fold reports what the rig did before obs was attached, so "no
    # pollution" is a zero *delta* across the probes, not a zero total
    before = obs.metrics.to_jsonl()
    assert obs.metrics.total("device.reads") > 0
    rig.tree.overlap_ratio()
    rig.tree.check_invariants()
    assert obs.metrics.to_jsonl() == before


# -- heap-based LFU eviction -------------------------------------------------


class _CountedAccess:
    """An ``accesses`` value whose comparisons are counted: the heap tuples
    ``(accesses, root)`` compare these first, so every heap comparison in
    ``_ensure_dram_capacity`` shows up in ``count``."""

    count = 0

    def __init__(self, value):
        self.value = value

    def _cmp(self, other):
        type(self).count += 1
        return self.value, other.value

    def __lt__(self, other):
        a, b = self._cmp(other)
        return a < b

    def __le__(self, other):
        a, b = self._cmp(other)
        return a <= b

    def __gt__(self, other):
        a, b = self._cmp(other)
        return a > b

    def __eq__(self, other):
        if not isinstance(other, _CountedAccess):
            return NotImplemented
        a, b = self._cmp(other)
        return a == b

    def __hash__(self):
        return hash(self.value)

    def __add__(self, other):  # _touch_c0 bumps accesses
        return _CountedAccess(self.value + other)


def test_eviction_uses_heap_not_resort():
    """k evictions over n C0 roots must cost O(n + k log n) comparisons —
    the old code re-sorted every iteration, O(k * n log n)."""
    rig = _nvbm_tree(levels=3, dram_octants=80, dram_capacity_octants=80)
    t = rig.tree
    level2 = [
        loc for loc in t._index
        if morton.level_of(loc, t.dim) == 2 and not t.is_leaf(loc)
    ]
    assert len(level2) == 16
    for loc in sorted(level2):
        assert load_subtree(t, loc)  # 5 octants each: 16 roots, 80 octants
    assert len(t._c0_roots) == 16 and rig.dram.used == 80

    # interleaved access counts (a fixed permutation of 0..15): sorted runs
    # would let timsort re-sort in O(n), hiding the re-sort-per-victim cost
    for i, root in enumerate(sorted(t._c0_roots)):
        t._c0_roots[root].accesses = _CountedAccess((i * 7) % 16)
    _CountedAccess.count = 0
    before_ev = t.stats.evictions

    assert t._ensure_dram_capacity(20)  # forces exactly 4 LFU evictions

    assert t.stats.evictions - before_ev == 4
    assert rig.dram.used == 60
    # the four least-accessed roots went first
    survivors = {t._c0_roots[r].accesses.value for r in t._c0_roots}
    assert survivors == set(range(4, 16))
    # n=16, k=4: one heapify (~2n) plus k pops (~2 log n each) lands around
    # 80 comparisons; re-sorting per victim costs > 300 on this permutation
    assert _CountedAccess.count < 150
    t.check_invariants()
