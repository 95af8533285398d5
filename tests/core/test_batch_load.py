"""The batch C1 -> C0 load equals the per-record oracle.

``repro.core.merge.load_subtree`` moves a chunk of top-down visits per
arena call (one gather of the NVBM records, one ``alloc_rows``, one store of
the DRAM images, one splice store per child slot index); its
one-``read_octant``/``new_octant``/``write_child_slot``-per-octant
predecessor lives verbatim in ``tests/oracles/structure_walks.py``.  Twin
rigs built identically must agree after every load in everything the merge
twins of ``test_batch_persist.py`` compare: arena bytes and cache order,
both allocators, ``_index``/``_origin`` (insertion order included), every
``*Stats``, the ``SimClock`` tables, the wear arrays and the injector's hit
counts.

The loads covered: the transformation's in seeded droplet and wave runs
(2-D and 3-D, C0 dissolved at every persist so every step reloads it), the
whole tree after a restore, the static layout's ``_load_static_chunk``, and
a load whose target has nested C0 roots to evict first.  A crash plan on
``load.octant`` sizes the chunks so that the visit that fires is its
chunk's last record, and a chunk whose reads could fail (a planted rot or
stuck line inside the subtree) runs as chunks of one: a crash or a media
error at any visit leaves exactly the oracle's state.
"""

import numpy as np
import pytest

from repro.core import merge
from repro.errors import MediaError, SimulatedCrash
from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
from repro.nvbm.pointers import is_dram
from repro.nvbm.sites import LOAD_OCTANT
from repro.octree import morton
from tests.core.test_batch_persist import _agree, _grown, _leaves, _sim_rig
from tests.core.test_frontier_walks import CASES
from tests.oracles import structure_walks as oracle


def _load(rig, use_oracle: bool, monkeypatch, loc=morton.ROOT_LOC):
    """``load_subtree(loc)`` on ``rig``; returns what it returned or the
    crash or media error it raised."""
    with monkeypatch.context() as patch:
        if use_oracle:
            oracle.inject_load(patch)
        try:
            return merge.load_subtree(rig.tree, loc)
        except (SimulatedCrash, MediaError) as exc:
            return exc


def _restored(**kw):
    """A grown tree, persisted, crashed and restored: C0 is empty and the
    whole published tree waits in NVBM."""
    rig = _grown(**kw)
    rig.tree.persist(transform=False, keep_resident=True)
    rig.crash(seed=3)
    rig.restore()
    assert not rig.tree._c0_roots
    return rig


@pytest.fixture
def chunks(monkeypatch):
    """The record count of every chunk the load moves, in call order."""
    sizes = []
    chunk = merge._load_chunk

    def counting(pmo, codes, root_loc, copied):
        sizes.append(len(codes))
        return chunk(pmo, codes, root_loc, copied)

    monkeypatch.setattr(merge, "_load_chunk", counting)
    return sizes


# ------------------------------------------------------ seeded simulations

@pytest.mark.parametrize("scenario,dim,budget,inflight", CASES)
def test_transform_loads_equal_oracle_step_by_step(monkeypatch, scenario, dim,
                                                   budget, inflight):
    # a chunk far smaller than a subtree: parents and children fall into
    # different chunks; C0 dissolves at every persist, so every
    # transformation loads its hot subtrees back
    monkeypatch.setattr(merge, "_CHUNK", 7)
    ours, theirs = (_sim_rig(scenario, dim, budget, inflight, False)
                    for _ in "ab")

    def both(act) -> None:
        act(ours)
        with monkeypatch.context() as patch:
            oracle.inject_load(patch)
            act(theirs)
        _agree(ours, theirs)

    both(lambda rig: rig.sim.construct())
    for _ in range(4):
        both(lambda rig: rig.sim.step())
    both(lambda rig: rig.tree.drain_persists())
    assert ours.tree.stats.c1_to_c0_octants > 50
    assert ours.tree.stats.transform_loaded_subtrees > 0
    ours.tree.check_invariants()


# ------------------------------------------------------- the whole tree

@pytest.mark.parametrize("dim,levels", [(2, 3), (3, 2)], ids=["2d", "3d"])
@pytest.mark.parametrize("chunk", [7, merge._CHUNK], ids=["chunk-7",
                                                          "chunk-default"])
def test_whole_tree_load_after_restore_equals_oracle(monkeypatch, chunks, dim,
                                                     levels, chunk):
    monkeypatch.setattr(merge, "_CHUNK", chunk)
    ours, theirs = (_restored(dim=dim, levels=levels) for _ in "ab")
    chunks.clear()
    for rig, use_oracle in ((ours, False), (theirs, True)):
        assert _load(rig, use_oracle, monkeypatch) is True
    _agree(ours, theirs)
    n = len(ours.tree._index)
    assert n > 60 and all(map(is_dram, ours.tree._index.values()))
    assert chunks == [min(chunk, n - lo) for lo in range(0, n, chunk)]
    ours.tree.check_invariants()
    # the loaded tree merges back the same way
    for rig in (ours, theirs):
        rig.tree.persist(transform=False, keep_resident=True)
    _agree(ours, theirs)


def test_static_chunk_equals_oracle(monkeypatch):
    """After a restore C0 is empty, and a static-layout persist refills it
    with the first budget-sized subtree by locational code."""
    ours, theirs = (_restored(dram_capacity_octants=40) for _ in "ab")
    for rig, use_oracle in ((ours, False), (theirs, True)):
        with monkeypatch.context() as patch:
            if use_oracle:
                oracle.inject_load(patch)
            rig.tree.persist(transform=False, keep_resident=True)
    _agree(ours, theirs)
    (root, stats), = ours.tree._c0_roots.items()
    assert root != morton.ROOT_LOC and 10 < stats.size <= 40


def test_nested_c0_roots_are_evicted_first(monkeypatch):
    """Loading an ancestor of C0 roots evicts them (merge and splice) and
    then loads the whole subtree."""
    ours, theirs = _restored(), _restored()
    top = morton.children_of(morton.ROOT_LOC, 2)[1]
    inner = morton.children_of(top, 2)[::2]
    for rig, use_oracle in ((ours, False), (theirs, True)):
        for loc in inner:
            assert _load(rig, use_oracle, monkeypatch, loc) is True
        # a dirty octant for the eviction to write
        rig.tree.set_payload(max(merge.subtree_locs(rig.tree, inner[0])),
                             (5.0, 0.0, 0.0, 0.0))
    _agree(ours, theirs)
    assert set(ours.tree._c0_roots) == set(inner)
    before = ours.tree.stats.evictions
    for rig, use_oracle in ((ours, False), (theirs, True)):
        assert _load(rig, use_oracle, monkeypatch, top) is True
    _agree(ours, theirs)
    assert list(ours.tree._c0_roots) == [top]
    assert ours.tree.stats.evictions == before + len(inner)
    ours.tree.check_invariants()


# -------------------------------------------------- crash at every visit

def test_crash_at_every_load_visit_equals_oracle(monkeypatch, chunks):
    visits = len(_restored().tree._index)
    assert visits > 60
    for k in range(1, visits + 1):
        ours, theirs = _restored(), _restored()
        chunks.clear()
        for rig, use_oracle in ((ours, False), (theirs, True)):
            rig.injector.reset_hits()
            rig.injector.arm(LOAD_OCTANT, at_hit=k)
            crash = _load(rig, use_oracle, monkeypatch)
            assert isinstance(crash, SimulatedCrash), k
        assert chunks == [k]  # the firing visit ends the first chunk
        _agree(ours, theirs)  # record k landed, record k + 1 did not
        assert ours.injector.hits[LOAD_OCTANT] == k
        for rig in (ours, theirs):
            rig.crash(seed=k)
        _agree(ours, theirs)
        assert _leaves(ours.restore()) == _leaves(theirs.restore())
        _agree(ours, theirs)


# ---------------------------------------------------------- media faults

def _plant(rig, kind: str, loc: int) -> None:
    """Plant a ``kind`` fault on line 1 of the NVBM record of ``loc``."""
    model = MediaFaultModel()
    rig.nvbm.attach_fault_model(model)
    slot = int(rig.nvbm.slots_of(np.array([rig.tree._index[loc]],
                                          dtype=np.uint64))[0])
    getattr(model, f"plant_{kind}")(slot * LINES_PER_RECORD + 1)


@pytest.mark.parametrize("kind", ["rot", "stuck"])
@pytest.mark.parametrize("at", [0, 9, 40])
def test_faulty_line_in_the_subtree_raises_as_the_oracle_does(
        monkeypatch, chunks, kind, at):
    """The model is not quiescent and a read of the subtree fails: the load
    runs record by record and raises at the faulty one, after exactly the
    oracle's reads, stores and visits."""
    ours, theirs = _restored(), _restored()
    errors = []
    for rig, use_oracle in ((ours, False), (theirs, True)):
        t = rig.tree  # the at-th visit of the top-down order
        _plant(rig, kind, sorted(
            t._index, key=lambda loc: morton.level_of(loc, t.dim))[at])
        errors.append(_load(rig, use_oracle, monkeypatch))
    mine, want = errors
    assert isinstance(mine, MediaError) and isinstance(want, MediaError)
    assert (mine.kind, mine.slot, mine.lines) == \
        (want.kind, want.slot, want.lines) and mine.kind == kind
    assert ours.injector.hits.get(LOAD_OCTANT, 0) == at
    assert chunks[1:] == [1] * (at + 1)
    _agree(ours, theirs)


def test_fault_outside_the_subtree_keeps_the_batch(monkeypatch, chunks):
    """A rot line the load never reads: nothing can fail, the load stays
    one chunk and equals the oracle."""
    ours, theirs = _restored(), _restored()
    top, other = morton.children_of(morton.ROOT_LOC, 2)[2:]
    for rig, use_oracle in ((ours, False), (theirs, True)):
        _plant(rig, "rot", max(merge.subtree_locs(rig.tree, other)))
        assert _load(rig, use_oracle, monkeypatch, top) is True
    _agree(ours, theirs)
    assert chunks == [len(merge.subtree_locs(ours.tree, top))] and \
        chunks[0] > 10
