"""Differential testing: the three octree implementations must agree.

All three expose the AdaptiveTree protocol, so any divergence in leaf sets
or (leaf) payloads under the same operation sequence is a bug in one of
them.  Hypothesis drives random refine/coarsen/payload interleavings, and a
second test runs the two real workloads across the implementations.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import DRAM_SPEC, NVBM_FS_SPEC, NVBM_SPEC, PMOctreeConfig
from repro.baselines.etree import EtreeOctree
from repro.core.api import pm_create
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.octree import morton
from repro.octree.tree import PointerOctree
from repro.storage.block import BlockDevice

MAX_LEVEL = 4


def _make_all_trees():
    clock = SimClock()
    pointer = PointerOctree(
        MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14), dim=2
    )
    pm = pm_create(
        MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 256),
        MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 14),
        dim=2,
        config=PMOctreeConfig(dram_capacity_octants=256),
    )
    etree = EtreeOctree(BlockDevice(NVBM_FS_SPEC, clock), dim=2)
    return pointer, pm, etree


def _leaf_signature(tree):
    return {loc: tree.get_payload(loc) for loc in tree.leaves()}


op = st.sampled_from(["refine", "coarsen", "payload", "persist"])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(st.tuples(op, st.integers(0, 10_000)), max_size=25))
def test_implementations_agree_on_random_ops(ops):
    pointer, pm, etree = _make_all_trees()
    trees = (pointer, pm, etree)
    leaves = {morton.ROOT_LOC}

    for kind, pick in ops:
        if kind == "refine":
            cands = sorted(
                leaf for leaf in leaves if morton.level_of(leaf, 2) < MAX_LEVEL
            )
            if not cands:
                continue
            loc = cands[pick % len(cands)]
            for t in trees:
                t.refine(loc)
            leaves.discard(loc)
            leaves.update(morton.children_of(loc, 2))
        elif kind == "coarsen":
            parents = sorted({
                morton.parent_of(leaf, 2) for leaf in leaves if leaf != morton.ROOT_LOC
            })
            parents = [
                p for p in parents
                if all(c in leaves for c in morton.children_of(p, 2))
            ]
            if not parents:
                continue
            loc = parents[pick % len(parents)]
            for t in trees:
                t.coarsen(loc)
            for c in morton.children_of(loc, 2):
                leaves.discard(c)
            leaves.add(loc)
            # coarsening semantics differ by design: Etree restores the
            # child mean, the pointer trees the old parent payload — align
            # them explicitly so later comparisons are meaningful
            payload = pointer.get_payload(loc)
            for t in trees:
                t.set_payload(loc, payload)
        elif kind == "payload":
            cands = sorted(leaves)
            loc = cands[pick % len(cands)]
            payload = (float(pick), 0.0, 0.0, float(pick % 7))
            for t in trees:
                t.set_payload(loc, payload)
        elif kind == "persist":
            pm.persist(transform=False)

    sig = _leaf_signature(pointer)
    assert _leaf_signature(pm) == sig
    assert _leaf_signature(etree) == sig
    assert set(leaves) == set(sig)
    pm.check_invariants()


# ---------------------------------------------------- P-rank vs 1-rank

def _droplet_sim():
    from repro.config import SolverConfig
    from repro.solver.simulation import DropletSimulation

    clock = SimClock()
    tree = PointerOctree(
        MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14), dim=2
    )
    sim = DropletSimulation(
        tree, SolverConfig(dim=2, min_level=2, max_level=4, dt=0.01)
    )
    sim.construct()
    return sim, tree


def _canonical(locs, payload_of):
    """(sorted global Morton list, payload matrix in that order)."""
    import numpy as np

    order = sorted(int(loc) for loc in locs)
    return order, np.array([payload_of(loc) for loc in order])


def _single_rank_final(steps):
    from repro.octree.linear import LinearOctree

    sim, tree = _droplet_sim()
    for _ in range(steps):
        sim.step()
    lin = LinearOctree.from_tree(tree)
    payload_of = {int(loc): tuple(row) for loc, row in zip(lin.locs,
                                                           lin.payloads)}
    return _canonical(lin.locs, payload_of.__getitem__)


def _distributed_final(nranks, steps, threshold=1.01):
    """The same droplet run with leaves dealt across P simulated ranks.

    Rank 0 starts owning the whole forest (maximally skewed), so the first
    triggered repartition must really migrate.  Each step the per-rank
    pieces absorb the solver's refine/coarsen churn under the standing cut
    ownership, then go through the real weighted ``repartition``
    (threshold-triggered, incremental migration).  Returns the canonical
    union of the final pieces plus how many octants migrated over the run
    — the union must be bit-identical to the 1-rank run.
    """
    import numpy as np

    from repro.config import TITAN
    from repro.octree.linear import LinearOctree
    from repro.parallel.network import Network
    from repro.parallel.partition import repartition
    from repro.parallel.runtime import _cuts_from_pieces
    from repro.parallel.simmpi import RankContext, SimCommunicator
    from repro.solver.features import partition_work_weights

    sim, tree = _droplet_sim()
    comm = SimCommunicator(
        [RankContext(rank=r, node=r) for r in range(nranks)],
        Network(TITAN.network),
    )
    lin = LinearOctree.from_tree(tree)
    cuts = np.array([0.0] + [np.inf] * nranks)
    owner = {int(loc): 0 for loc in lin.locs}
    moved_total = 0
    pieces = None
    for _ in range(steps):
        sim.step()
        lin = LinearOctree.from_tree(tree)
        leafset = set(int(loc) for loc in lin.locs)
        # coarsened-away leaves leave their owner; refined-in leaves join
        # whichever rank's standing range covers their curve position
        for loc in [l for l in owner if l not in leafset]:
            del owner[loc]
        per_rank = [[] for _ in range(nranks)]
        for i, loc in enumerate(lin.locs):
            loc = int(loc)
            if loc not in owner:
                owner[loc] = int(np.searchsorted(
                    cuts[1:-1], float(lin.keys[i]), side="right"))
            per_rank[owner[loc]].append(i)
        pieces = [
            LinearOctree(2, [int(lin.locs[i]) for i in idx],
                         lin.payloads[idx] if idx else None,
                         max_level=lin.max_level)
            for idx in per_rank
        ]
        w_all = partition_work_weights(lin)
        wlists = [w_all[idx] for idx in per_rank]
        res = repartition(comm, pieces, weights=wlists, threshold=threshold)
        if not res.skipped:
            moved_total += res.octants_moved
            pieces = res.pieces
            owner = {int(loc): r for r, piece in enumerate(pieces)
                     for loc in piece.locs}
            cuts = _cuts_from_pieces(pieces, nranks)
    union_locs = [loc for piece in pieces for loc in piece.locs]
    payload_of = {int(loc): tuple(piece.payloads[i])
                  for piece in pieces
                  for i, loc in enumerate(piece.locs)}
    order, payloads = _canonical(union_locs, lambda loc: payload_of[loc])
    return order, payloads, moved_total


@pytest.mark.parametrize("nranks", [2, 4, 7])
def test_weighted_repartition_matches_single_rank(nranks):
    """P-rank weighted-repartition droplet run ends with the identical
    global leaf set and identical field payloads as the 1-rank run: the
    incremental migration neither loses, duplicates, nor tears octants."""
    import numpy as np

    steps = 6
    ref_locs, ref_payloads = _single_rank_final(steps)
    locs, payloads, moved = _distributed_final(nranks, steps)
    assert locs == ref_locs
    assert np.array_equal(payloads, ref_payloads)
    assert moved > 0  # the run really migrated, it didn't just skip


@pytest.mark.parametrize("workload", ["droplet", "wave"])
def test_workloads_agree_across_implementations(workload):
    """The full simulations produce identical meshes and fields on all
    three octree implementations."""
    from repro.config import SolverConfig
    from repro.solver.simulation import DropletSimulation
    from repro.solver.wave import WaveConfig, WaveSimulation

    signatures = []
    for which in range(3):
        pointer, pm, etree = _make_all_trees()
        tree = (pointer, pm, etree)[which]
        if workload == "droplet":
            sim = DropletSimulation(
                tree, SolverConfig(dim=2, min_level=2, max_level=4, dt=0.01)
            )
        else:
            sim = WaveSimulation(
                tree, WaveConfig(dim=2, min_level=2, max_level=4)
            )
        sim.run(6)
        signatures.append(_leaf_signature(tree))
    assert signatures[0] == signatures[1]
    assert signatures[0] == signatures[2]
