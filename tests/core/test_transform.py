"""Dynamic layout transformation with feature-directed sampling (§3.3)."""

import numpy as np

from repro.core.transform import (
    candidate_roots,
    detect_and_transform,
    sample_frequency,
    subtree_level,
)
from repro.nvbm.pointers import is_dram
from repro.octree import morton, soa
from tests.core.conftest import PMRig


def _persisted(levels=3, dram=4096, **kw):
    rig = PMRig(dram_octants=dram, **kw)
    t = rig.tree
    for _ in range(levels):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)
    return rig, t


def _hot_region_feature(hot_quadrant):
    """Feature: cells inside one level-1 quadrant are interesting."""

    def fn(loc, payload):
        level = morton.level_of(loc, 2)
        if level == 0:
            return True
        return morton.ancestor_at(loc, 2, 1) == hot_quadrant

    return soa.per_octant(fn)


def test_subtree_level_eq1():
    rig, t = _persisted(levels=3, dram=16)
    # depth 3, fanout 4, dram 16 -> L_sub = 3 - log4(16) = 1
    assert subtree_level(t) == 1
    rig2, t2 = _persisted(levels=3, dram=4096)
    # log4(4096) = 6 > depth: clamps to 0 (whole tree is one candidate)
    assert subtree_level(t2) == 0


def test_candidate_roots():
    rig, t = _persisted(levels=2)
    assert candidate_roots(t, 0) == [morton.ROOT_LOC]
    lvl1 = candidate_roots(t, 1)
    assert sorted(lvl1) == sorted(morton.children_of(morton.ROOT_LOC, 2))


def test_sample_frequency_reflects_features():
    rig, t = _persisted(levels=3, dram=16)
    hot = morton.loc_from_coords(1, (0, 0), 2)
    t.register_feature(_hot_region_feature(hot))
    rng = np.random.default_rng(0)
    f_hot, size_hot = sample_frequency(t, hot, rng)
    cold = morton.loc_from_coords(1, (1, 1), 2)
    f_cold, size_cold = sample_frequency(t, cold, rng)
    assert size_hot == size_cold == 21  # 1 + 4 + 16
    assert f_hot > f_cold
    assert f_cold == 0.0


def test_no_features_no_transformation():
    rig, t = _persisted(levels=3, dram=32)
    res = detect_and_transform(t)
    assert not res.loaded and not res.evicted
    assert t.c0_size() == 0


def test_hot_subtree_loaded_into_dram():
    rig, t = _persisted(levels=3, dram=32)
    hot = morton.loc_from_coords(1, (1, 0), 2)
    t.register_feature(_hot_region_feature(hot))
    res = detect_and_transform(t)
    assert hot in res.loaded
    assert hot in t._c0_roots
    # every octant of the hot subtree is now DRAM-resident
    for loc in t._index:
        if loc != morton.ROOT_LOC and morton.level_of(loc, 2) >= 1:
            in_hot = morton.ancestor_at(loc, 2, 1) == hot
            assert is_dram(t.handle_of(loc)) == in_hot
    t.check_invariants()


def test_transformation_respects_capacity():
    # DRAM too small for any level-1 subtree (21 octants)
    rig, t = _persisted(levels=3, dram=16)
    hot = morton.loc_from_coords(1, (0, 1), 2)
    t.register_feature(_hot_region_feature(hot))
    res = detect_and_transform(t)
    assert res.loaded == []
    t.check_invariants()


def test_transform_reports_hot_spills():
    """A hot working set larger than the C0 budget stays spilled to NVBM,
    and ``detect_and_transform`` counts it (bench's ``core.hot_spills``)."""
    rig, t = _persisted(levels=3, dram=512, dram_capacity_octants=16)
    t.register_feature(soa.per_octant(lambda loc, p: True))  # all hot
    detect_and_transform(t)
    assert t.stats.hot_spills > 0


def test_hot_swap_replaces_cold_subtree():
    """When the feature moves, the old C0 subtree is evicted for the new."""
    rig, t = _persisted(levels=3, dram=30)  # room for exactly one subtree
    a = morton.loc_from_coords(1, (0, 0), 2)
    b = morton.loc_from_coords(1, (1, 1), 2)
    t.features = [_hot_region_feature(a)]
    detect_and_transform(t)
    assert a in t._c0_roots
    # the application moves on: now b is hot
    t.features = [_hot_region_feature(b)]
    res = detect_and_transform(t)
    assert a in res.evicted
    assert b in res.loaded
    assert list(t._c0_roots) == [b]
    t.check_invariants()


def test_ratio_threshold_blocks_marginal_swaps():
    """Equal heat on both sides -> Ratio_access ~ 1 < T_transform: no swap."""
    rig, t = _persisted(levels=3, dram=30)
    t.register_feature(soa.per_octant(lambda loc, p: True))  # all equally hot
    detect_and_transform(t)
    first = list(t._c0_roots)
    res = detect_and_transform(t)
    assert not res.evicted  # nothing clearly hotter than the resident tree
    assert list(t._c0_roots) == first


def test_transformation_runs_inside_persist():
    rig, t = _persisted(levels=3, dram=32)
    hot = morton.loc_from_coords(1, (0, 0), 2)
    t.register_feature(_hot_region_feature(hot))
    t.persist(transform=True)
    assert t.stats.transformations >= 1
    assert hot in t._c0_roots
    t.check_invariants()


def test_transformation_reduces_nvbm_writes():
    """The Fig 5/11 mechanism: with the hot subtree in DRAM, a refinement
    burst there writes far less NVBM."""

    def run(transform: bool) -> int:
        rig, t = _persisted(levels=3, dram=32)
        hot = morton.loc_from_coords(1, (0, 0), 2)
        t.register_feature(_hot_region_feature(hot))
        if transform:
            detect_and_transform(t)
        w0 = rig.nvbm.device.stats.writes
        for leaf in sorted(t.leaves()):
            if morton.level_of(leaf, 2) >= 1 and morton.ancestor_at(leaf, 2, 1) == hot:
                t.set_payload(leaf, (1.0, 0, 0, 0))
        return rig.nvbm.device.stats.writes - w0

    oblivious = run(transform=False)
    aware = run(transform=True)
    assert aware == 0  # all served from DRAM
    assert oblivious > 16


def test_candidate_roots_keep_index_order():
    """``candidate_roots`` is the order the sampler draws in: the working
    version's ``_index`` order, filtered to one level."""
    rig, t = _persisted(levels=3)
    for leaf in sorted(t.leaves())[::7]:
        t.refine(leaf)  # level-4 octants land among the older entries
    for level in (1, 2, 3, 4):
        assert candidate_roots(t, level) == [
            loc for loc in t._index if morton.level_of(loc, 2) == level]
    assert len(candidate_roots(t, 4)) == 40


def test_batch_sampler_matches_per_pick_oracle(monkeypatch):
    """One gather + array features == one ``get_payload`` per pick + scalar
    features: same hits, same ``rng`` draws, same clock and ``DeviceStats``,
    with picks resident in DRAM *and* in NVBM — subtree by subtree, and for
    a whole detection pass over two dozen candidates."""
    import dataclasses

    from repro.config import SolverConfig
    from repro.core.merge import subtree_locs
    from repro.solver.features import change_feature, mixed_cell_feature
    from repro.solver.simulation import DropletSimulation
    from tests.oracles import scalar_kernels as oracle

    def rig_after_steps(max_level=5):
        rig = PMRig(dram_octants=96, n_sample_max=40)
        sim = DropletSimulation(
            rig.tree, SolverConfig(dim=2, min_level=2, max_level=max_level,
                                   dt=0.01),
            clock=rig.clock, persistence=lambda s: s.tree.persist())
        sim.run(3)
        return rig, sim

    def meters(rig, rng):
        return (rng.bit_generator.state, rig.clock.now_ns,
                dict(rig.clock.by_phase),
                dataclasses.asdict(rig.dram.device.stats),
                dataclasses.asdict(rig.nvbm.device.stats),
                dataclasses.asdict(rig.tree.stats),
                {r: s.accesses for r, s in rig.tree._c0_roots.items()})

    def observe(rig, sampler, feats):
        t = rig.tree
        t.features = feats
        rng = np.random.default_rng(11)
        locs = subtree_locs(t, morton.ROOT_LOC)
        picks = np.random.default_rng(11).choice(len(locs), size=40,
                                                 replace=False)
        homes = {is_dram(t.handle_of(locs[i])) for i in picks.tolist()}
        assert homes == {True, False}
        out = [sampler(t, root, rng)
               for root in [morton.ROOT_LOC, *candidate_roots(t, 1)]]
        return out, meters(rig, rng)

    def features_of(sim, scalar):
        t_next = sim.t + sim.config.dt
        if scalar:
            return [
                soa.per_octant(oracle.change_feature(sim.geometry, t_next)),
                soa.per_octant(oracle.mixed_cell_feature(2))]
        return [change_feature(sim.geometry, t_next), mixed_cell_feature(2)]

    rig_b, sim_b = rig_after_steps()
    rig_s, sim_s = rig_after_steps()
    batch = observe(rig_b, sample_frequency, features_of(sim_b, False))
    scalar = observe(rig_s, oracle.sample_frequency, features_of(sim_s, True))
    assert batch == scalar
    assert 0 < batch[0][0][0] < batch[0][0][1]  # some picks hot, not all

    # a whole detection pass, per-candidate per-pick on the oracle's side
    def detect(rig, sim, scalar):
        t = rig.tree
        t.features = features_of(sim, scalar)
        rng = np.random.default_rng(5)
        res = detect_and_transform(t, rng)
        return (list(res.candidate_freqs.items()), res.loaded, res.evicted,
                meters(rig, rng))

    rig_b, sim_b = rig_after_steps(max_level=6)
    rig_s, sim_s = rig_after_steps(max_level=6)
    t = rig_b.tree
    candidates = candidate_roots(t, subtree_level(t))
    homes = [is_dram(t.handle_of(root)) for root in candidates]
    assert len(candidates) >= 20 and 0 < sum(homes) < len(homes)
    batch = detect(rig_b, sim_b, scalar=False)
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.transform.sample_frequencies",
                      oracle.sample_frequencies)
        scalar = detect(rig_s, sim_s, scalar=True)
    assert batch == scalar
    assert [root for root, _ in batch[0]] == candidates
    assert sum(1 for _, freq in batch[0] if freq > 0) >= 3


def test_one_gather_and_one_pass_per_feature_per_persist():
    """However many candidates, a persist's detection reads its picks with
    one ``batch_read_payloads`` and calls each feature once."""
    rig, t = _persisted(levels=4, dram=16)
    calls = {"gather": 0, "hot": 0, "all": 0}
    gather = t.batch_read_payloads

    def counted_gather(locs):
        calls["gather"] += 1
        return gather(locs)

    def counting(name, fn):
        def feature(batch):
            calls[name] += 1
            return fn(batch)
        return feature

    t.batch_read_payloads = counted_gather
    hot = morton.loc_from_coords(1, (0, 0), 2)
    t.register_feature(counting("hot", _hot_region_feature(hot)))
    t.register_feature(counting(
        "all", lambda batch: np.zeros(len(batch), dtype=bool)))
    assert len(candidate_roots(t, subtree_level(t))) == 16
    for persists in (1, 2):
        t.persist()
        assert calls == {"gather": persists, "hot": persists,
                         "all": persists}
