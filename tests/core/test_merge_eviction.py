"""C0 eviction under DRAM pressure and sharing-aware merging."""


from repro.nvbm.pointers import is_nvbm
from repro.octree import morton
from repro.octree.store import validate_tree
from tests.core.conftest import PMRig


def test_dram_pressure_triggers_eviction():
    rig = PMRig(dram_octants=64, threshold_dram=0.1)
    t = rig.tree
    # refine until well past 64 octants: evictions must kick in
    for _ in range(3):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    assert t.num_octants() == 85
    assert t.stats.evictions >= 1
    assert rig.dram.used <= 64
    assert rig.nvbm.used > 0
    validate_tree(t)
    t.check_invariants()


def test_tree_larger_than_dram_still_works():
    rig = PMRig(dram_octants=32)
    t = rig.tree
    for _ in range(4):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    assert t.num_octants() == 341
    validate_tree(t)
    t.check_invariants()
    t.persist(transform=False)
    t.check_invariants()


def test_lfu_eviction_prefers_cold_subtree():

    rig = PMRig(dram_octants=4096)
    t = rig.tree
    for _ in range(3):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)
    # load two disjoint level-1 subtrees into C0
    from repro.core.merge import load_subtree

    a = morton.loc_from_coords(1, (0, 0), 2)
    b = morton.loc_from_coords(1, (1, 1), 2)
    assert load_subtree(t, a)
    assert load_subtree(t, b)
    # heat subtree b only
    for leaf in sorted(t.leaves()):
        if morton.ancestor_at(leaf, 2, 1) == b:
            t.get_payload(leaf)
    # force one eviction
    t._ensure_dram_capacity(rig.dram.capacity - rig.dram.used + 1)
    assert a not in t._c0_roots  # cold one went
    assert b in t._c0_roots
    t.check_invariants()


def test_merge_reuses_clean_octants():
    """Un-dirtied C0 octants re-link to their NVBM origins: no new writes."""
    from repro.core.merge import load_subtree

    rig = PMRig()
    t = rig.tree
    for _ in range(2):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)
    t.gc()
    used_before = rig.nvbm.used
    sub = morton.loc_from_coords(1, (0, 0), 2)
    assert load_subtree(t, sub)
    # touch exactly one leaf
    dirty_leaf = morton.loc_from_coords(2, (0, 0), 2)
    t.set_payload(dirty_leaf, (3.0, 0, 0, 0))
    t.persist(transform=False)
    t.gc()
    # steady state: only the dirty leaf + its ancestors were rewritten, the
    # other octants of the subtree are shared with V_{i-1}... which is now
    # V_i too, so usage returns to the baseline
    assert rig.nvbm.used == used_before
    assert t.get_payload(dirty_leaf)[0] == 3.0
    t.check_invariants()


def test_merge_writes_proportional_to_dirt():
    """NVBM write count at persist scales with dirtied octants, not C0 size."""
    from repro.core.merge import load_subtree

    rig = PMRig()
    t = rig.tree
    for _ in range(3):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)

    def persist_writes(n_dirty):
        sub = morton.loc_from_coords(1, (0, 0), 2)
        assert load_subtree(t, sub)
        leaves = sorted(
            loc for loc in t.leaves() if morton.ancestor_at(loc, 2, 1) == sub
        )
        for leaf in leaves[:n_dirty]:
            t.set_payload(leaf, (float(n_dirty), 0, 0, 0))
        w0 = rig.nvbm.device.stats.writes
        t.persist(transform=False)
        return rig.nvbm.device.stats.writes - w0

    small = persist_writes(1)
    large = persist_writes(12)
    assert small < large
    assert small < 20  # roughly path-length, nowhere near subtree size


def test_eviction_of_protected_subtree_falls_back_to_nvbm():
    """When even the octant's own subtree cannot stay, refinement proceeds
    through the NVBM path."""
    rig = PMRig(dram_octants=8, threshold_dram=0.0)
    t = rig.tree
    for _ in range(3):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    assert t.num_octants() == 85
    assert is_nvbm(t.handle_of(morton.ROOT_LOC)) or rig.dram.used <= 8
    validate_tree(t)
    t.check_invariants()


def test_persist_after_heavy_adaptation():
    rig = PMRig(dram_octants=128)
    t = rig.tree
    for _ in range(3):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)
    # coarsen one quadrant, refine another, persist again
    for parent in sorted(
        loc for loc in list(t._index)
        if morton.level_of(loc, 2) == 2
        and morton.ancestor_at(loc, 2, 1) == morton.loc_from_coords(1, (0, 0), 2)
        and not t.is_leaf(loc)
    ):
        t.coarsen(parent)
    t.persist(transform=False)
    t.gc()
    validate_tree(t)
    t.check_invariants()


def _climb(tree, loc):
    """The parent-by-parent search ``_c0_root_of`` used to be."""
    while True:
        if loc in tree._c0_roots:
            return loc
        if loc == morton.ROOT_LOC:
            return None
        loc = morton.parent_of(loc, tree.dim)


def _check_c0_lookup(tree):
    import numpy as np

    roots = tree._c0_roots
    assert roots.levels == tuple(sorted(
        {morton.level_of(root, tree.dim) for root in roots}, reverse=True))
    locs = list(tree._index)
    want = [_climb(tree, loc) for loc in locs]
    assert [tree._c0_root_of(loc) for loc in locs] == want
    assert tree._c0_roots_of(np.array(locs, dtype=np.int64)).tolist() \
        == [root or 0 for root in want]


def test_c0_root_lookup_by_level_equals_the_climb():
    """Through every mutation site of the registry: construction, eviction
    (``del``), ``load_subtree``, coarsening a loaded size-1 subtree
    (``pop``), restore (``clear``)."""
    from repro.core.merge import load_subtree

    rig = PMRig(dram_octants=64)
    t = rig.tree
    _check_c0_lookup(t)
    for _ in range(3):
        for leaf in sorted(t.leaves()):
            if t.is_leaf(leaf):
                t.refine(leaf)
        _check_c0_lookup(t)
    assert t.stats.evictions > 0
    t.persist(transform=False)
    _check_c0_lookup(t)
    # roots at three different levels, one of them a single leaf, each in
    # its own quadrant so none nests inside another
    leaves = sorted(t.leaves())
    by_quadrant = {}
    for leaf in leaves:
        by_quadrant.setdefault(morton.ancestor_at(leaf, t.dim, 1), leaf)
    (q0, deep_leaf), (q1, other), (q2, _) = list(by_quadrant.items())[:3]
    for loc in (deep_leaf, morton.ancestor_at(other, t.dim, 2), q2):
        assert load_subtree(t, loc)
    assert len(t._c0_roots.levels) == 3
    _check_c0_lookup(t)
    # one batch touches each covered octant's root once per octant
    before = {r: s.accesses for r, s in t._c0_roots.items()}
    locs = sorted(t.leaves())
    t.batch_read_payloads(locs)
    for root, stats in t._c0_roots.items():
        covered = sum(1 for loc in locs if _climb(t, loc) == root)
        assert stats.accesses - before[root] == covered
    t.coarsen(morton.parent_of(deep_leaf, t.dim))
    assert deep_leaf not in t._c0_roots and len(t._c0_roots.levels) == 2
    _check_c0_lookup(t)
    t.persist(transform=False)
    rig.crash()
    _check_c0_lookup(rig.restore())
