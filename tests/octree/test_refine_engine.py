"""RefinementEngine behaviour: criteria, level caps, sibling-vote coarsening.

The criteria here are per-octant ``(loc, payload) -> Action`` callables
lifted by ``soa.per_octant`` — the adapter must drive the batch-first engine
to the same outcomes the per-octant engine produced.
"""

import pytest

from repro.octree import morton, soa
from repro.octree.balance import is_balanced
from repro.octree.refine import Action, RefinementEngine, refine_uniform
from repro.octree.store import validate_tree


@soa.per_octant
def _refine_lower_left(loc, payload):
    # A usable AMR criterion must fire on any cell *intersecting* the region
    # of interest, or refinement never starts from the coarse root.
    lo, _hi = morton.cell_bounds(loc, 2)
    if lo[0] < 0.5 and lo[1] < 0.5:
        return Action.REFINE
    return Action.KEEP


def test_engine_refines_matching_leaves(quadtree):
    engine = RefinementEngine(_refine_lower_left, max_level=3)
    res = engine.adapt(quadtree, rounds=10)
    assert res.refined > 0
    # lower-left corner should reach max level
    leaf = quadtree.find_leaf_at((0.01, 0.01))
    assert morton.level_of(leaf, 2) == 3
    assert is_balanced(quadtree)
    validate_tree(quadtree)


def test_engine_respects_max_level(quadtree):
    engine = RefinementEngine(soa.per_octant(lambda lv, p: Action.REFINE),
                              max_level=2)
    engine.adapt(quadtree, rounds=10)
    levels = [morton.level_of(lv, 2) for lv in quadtree.leaves()]
    assert max(levels) == 2
    assert len(levels) == 16


def test_engine_coarsens_on_unanimous_vote(quadtree):
    refine_uniform(quadtree, 2)
    engine = RefinementEngine(soa.per_octant(lambda lv, p: Action.COARSEN),
                              min_level=1)
    res = engine.adapt(quadtree, rounds=10)
    assert res.coarsened > 0
    levels = [morton.level_of(lv, 2) for lv in quadtree.leaves()]
    assert max(levels) == 1  # stopped by min_level


def test_engine_mixed_votes_do_not_coarsen(quadtree):
    refine_uniform(quadtree, 1)

    def one_holdout(loc, payload):
        # leaf (0,0) wants to stay; everyone else wants to coarsen
        if morton.coords_of(loc, 2) == (0, 0):
            return Action.KEEP
        return Action.COARSEN

    engine = RefinementEngine(soa.per_octant(one_holdout), min_level=0)
    res = engine.adapt(quadtree)
    assert res.coarsened == 0
    assert quadtree.num_octants() == 5


def test_engine_stops_when_stable(quadtree):
    engine = RefinementEngine(soa.per_octant(lambda lv, p: Action.KEEP))
    res = engine.adapt(quadtree, rounds=100)
    assert not res.changed


def test_engine_validates_levels():
    with pytest.raises(ValueError):
        RefinementEngine(soa.per_octant(lambda lv, p: Action.KEEP),
                         min_level=5, max_level=2)


def test_payload_criterion(quadtree):
    refine_uniform(quadtree, 1)
    target = morton.loc_from_coords(1, (1, 1), 2)
    quadtree.set_payload(target, (1.0, 0, 0, 0))

    def by_payload(loc, payload):
        return Action.REFINE if payload[0] > 0.5 else Action.KEEP

    engine = RefinementEngine(soa.per_octant(by_payload), max_level=2)
    res = engine.adapt(quadtree)
    assert res.refined == 1
    assert not quadtree.is_leaf(target)


def _near_corner(loc, payload):
    # refine toward the origin, coarsen everything far from it
    lo, _hi = morton.cell_bounds(loc, 2)
    if lo[0] + lo[1] < 0.3:
        return Action.REFINE
    return Action.COARSEN if lo[0] + lo[1] > 0.9 else Action.KEEP


@pytest.mark.parametrize("balance", [True, False])
def test_batch_sweep_matches_per_leaf_sweep(balance, monkeypatch):
    """One gather + one criterion call per round lands on the tree, the
    counts and the device metering of the per-leaf sweep it replaced."""
    from repro.config import DRAM_SPEC
    from repro.nvbm.arena import MemoryArena
    from repro.nvbm.clock import SimClock
    from repro.nvbm.pointers import ARENA_DRAM
    from repro.octree.tree import PointerOctree
    from tests.oracles import scalar_kernels as oracle

    def run():
        clock = SimClock()
        arena = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14)
        tree = PointerOctree(arena, dim=2)
        refine_uniform(tree, 3)
        engine = RefinementEngine(soa.per_octant(_near_corner), min_level=1,
                                  max_level=5, balance=balance)
        res = engine.adapt(tree, rounds=6)
        return res, sorted(tree.leaves()), arena.device.stats, clock.now_ns

    batch = run()
    monkeypatch.setattr(RefinementEngine, "_sweep", oracle.refine_sweep)
    per_leaf = run()
    assert batch == per_leaf
    assert batch[0].refined > 0 and batch[0].coarsened > 0

