"""A ``tree.batch()`` scope lands exactly the per-item mutations.

``PMOctree.refine``/``coarsen``/``_store_span`` and the copy-on-write step
``Landing.writable`` are each one body (``repro.core.cow``): inside a
scope — the refine sweep, Balance's ripple, a ``batch_set_*`` call — their
stores wait and land with one arena call per kind of store when the scope
closes.  The oracle is a twin rig running the per-item bodies moved to
``tests/oracles/structure_walks.py`` (``inject_scalar_mutations``), every
read, store and crash site at its place.  Built identically (the seeded runs
of ``test_frontier_walks.py``: droplet and wave, 2-D and 3-D, tight and
roomy C0, synchronous and pipelined), the two must agree after every step in
everything a store leaves behind: the arena bytes on the medium and in the
write-back cache, the cache directory's order (the order a crash tears in)
and row capacity, both allocators, ``_index``/``_leaf_set`` in iteration
order, ``_origin``/``_dirty``/``_superseded``/``_detached``, every
``*Stats``, the ``SimClock`` tables, wear and the injector's hit counts.

A crash plan armed on ``cow.after_copy``, ``payload.partial_store`` or
``coarsen.mid`` does not change how a scope lands: the site visit that
fires lands the scope's pending prefix first, grouped, and then raises; a
copy or refine whose read could fail (a planted media fault) lands the
scope first and runs at its place, and an epoch read raises at its place
inside the scope, which then lands the stores before it.  So a crash or a
media error at *any* hit leaves exactly the per-item arena, tears the same
lines and recovers the same tree.
"""

import numpy as np
import pytest

from repro.analysis.tracker import install_tracker
from repro.core.api import pm_restore
from repro.core.cow import Landing
from repro.core.pmoctree import SLOT_CURR
from repro.errors import MediaError, SimulatedCrash
from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
from repro.nvbm.sites import COARSEN_MID, COW_AFTER_COPY, PAYLOAD_PARTIAL
from repro.octree import morton
from repro.octree.balance import balance_tree
from tests.core.conftest import PMRig
from tests.oracles import structure_walks as oracle
from tests.core.test_batch_persist import _arena_state, _sim_rig, _state
from tests.core.test_frontier_walks import CASES, ROOMY


def _full_state(rig) -> dict:
    state = _state(rig)
    tree = rig.tree
    state["leaf_order"] = list(tree._leaf_set)
    state["c0_order"] = [list(s.locs) for s in tree._c0_roots.values()]
    for name in ("nvbm", "dram"):
        arena = getattr(rig, name)
        state[name]["cdir"] = list(arena._cdir.items())
        state[name]["crows_free"] = list(arena._crows_free)
        # the cache's row array grows as the per-item stores grow it
        # (a batch that sized it by its own claims raised peak_rss_mb)
        state[name]["crows_capacity"] = len(arena._crows)
    return state


def _agree(ours, theirs) -> None:
    a, b = _full_state(ours), _full_state(theirs)
    for key in a:  # a readable failure: name the part that differs
        assert a[key] == b[key], key


def _per_item(patch) -> None:
    oracle.inject_scalar_mutations(patch)


@pytest.fixture
def landed(monkeypatch):
    """How many landings had something to land, by who asked: a closing
    scope (``__exit__``) or an operation that had to land it early."""
    counts = {}
    land = Landing.land

    def counting(self):
        import inspect

        if self.pending or self.fresh or self.reads:  # anything to land
            caller = inspect.stack()[1].function
            counts[caller] = counts.get(caller, 0) + 1
        return land(self)

    monkeypatch.setattr(Landing, "land", counting)
    return counts


def _refine(tree, locs):
    with tree.batch():
        return oracle.refine_leaves(tree, locs)


def _coarsen(tree, parents):
    with tree.batch():
        return oracle.coarsen_parents(tree, parents)


# ------------------------------------------------------ seeded simulations

@pytest.mark.parametrize("keep_resident", [None, False],
                         ids=["keep-resident", "dissolve-c0"])
@pytest.mark.parametrize("scenario,dim,budget,inflight", CASES)
def test_batch_cow_equals_per_item_step_by_step(monkeypatch, landed, scenario,
                                                dim, budget, inflight,
                                                keep_resident):
    ours, theirs = (_sim_rig(scenario, dim, budget, inflight, keep_resident)
                    for _ in "ab")

    def both(act) -> None:
        act(ours)
        with monkeypatch.context() as patch:
            _per_item(patch)
            act(theirs)
        _agree(ours, theirs)

    both(lambda rig: rig.sim.construct())
    for _ in range(4):
        both(lambda rig: rig.sim.step())
    both(lambda rig: rig.tree.drain_persists())
    if budget == ROOMY:
        # C0 takes every octant back in: nothing NVBM-resident is stored
        # to, so nothing is copied
        assert ours.tree.stats.cow_copies == 0
    assert landed.get("__exit__", 0) > 0
    ours.tree.check_invariants()


# ---------------------------------------------------------- targeted cases

def _grown(levels: int = 3, **kw) -> PMRig:
    """A persisted tree dissolved to NVBM: every record shared with
    V_{i-1}, so the first store anywhere copies its whole root path."""
    rig = PMRig(dram_octants=1024, nvbm_octants=1 << 12, **kw)
    t = rig.tree
    for _ in range(levels):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False, keep_resident=False)
    return rig


def _twins(**kw):
    return _grown(**kw), _grown(**kw)


def _run(monkeypatch, ours, theirs, act) -> None:
    """``act`` on both rigs (the twin per item); both must raise alike."""
    errors = []
    for rig, per_item in ((ours, False), (theirs, True)):
        with monkeypatch.context() as patch:
            if per_item:
                _per_item(patch)
            try:
                act(rig.tree)
                errors.append(None)
            except (SimulatedCrash, MediaError) as exc:
                errors.append(exc)
    mine, want = errors
    assert type(mine) is type(want)
    if isinstance(mine, MediaError):
        assert (mine.kind, mine.slot, mine.lines) == \
            (want.kind, want.slot, want.lines)
    _agree(ours, theirs)
    return mine


def _leaves(tree):
    return sorted(tree.leaves())


def test_repeated_loc_in_one_batch(monkeypatch, landed):
    ours, theirs = _twins()
    leaf = _leaves(ours.tree)[5]
    _run(monkeypatch, ours, theirs, lambda t: t.batch_set_payloads(
        [leaf, leaf], np.array([(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)])))
    assert ours.tree.get_payload(leaf) == (5.0, 6.0, 7.0, 8.0)
    assert landed == {"__exit__": 1}


def test_path_reaching_the_root_publishes_it(monkeypatch):
    ours, theirs = _twins()
    old_root = ours.tree._index[morton.ROOT_LOC]
    leaves = _leaves(ours.tree)
    _run(monkeypatch, ours, theirs, lambda t: t.batch_set_fields(
        leaves[::7], np.arange(len(leaves[::7]), dtype=float), 2))
    new_root = ours.tree._index[morton.ROOT_LOC]
    assert new_root != old_root
    with ours.tree.unmetered_inspection():
        assert ours.nvbm.roots.get(SLOT_CURR) == new_root
    ours.tree.check_invariants()


def test_dram_first_writable_ancestor(monkeypatch):
    """An NVBM leaf below a DRAM internal octant: the copy splices into
    the DRAM record (scalar ``write_child_slot``) and dirties it."""
    ours, theirs = _twins()
    for rig in (ours, theirs):
        t = rig.tree
        parent = _leaves(t)[0] >> t.dim
        rec = t.get_record(parent)
        dh = rig.dram.new_octant(rec)
        t._index[parent] = dh
    leaves = _leaves(ours.tree)
    _run(monkeypatch, ours, theirs, lambda t: t.batch_set_payloads(
        leaves[:4], np.tile((9.0, 0.0, 0.0, 0.0), (4, 1))))
    assert parent in ours.tree._dirty
    assert ours.tree.stats.cow_copies == 4  # the four leaves under it


def test_flushed_current_epoch_leaf_takes_its_cache_row_in_order(
        monkeypatch):
    """Current-epoch records flushed out of the cache re-enter it at their
    first store — between the copies of the others."""
    ours, theirs = _twins()
    leaves = _leaves(ours.tree)
    for rig in (ours, theirs):
        for loc in leaves[::3]:
            rig.tree.set_field(loc, 0, 0.5)  # now current-epoch copies
        rig.nvbm.flush()
    _run(monkeypatch, ours, theirs, lambda t: t.batch_set_fields(
        leaves[::2], np.arange(len(leaves[::2]), dtype=float), 1))
    assert ours.nvbm.dirty_records > 0


def test_refine_of_a_flushed_current_epoch_leaf(monkeypatch, landed):
    """The refined record is read back before its whole-record store: a
    flushed one's fresh cache row must start as its medium bytes."""
    ours, theirs = _twins()
    leaves = _leaves(ours.tree)
    for rig in (ours, theirs):
        for loc in leaves[::3]:
            rig.tree.set_field(loc, 0, 0.5)
        rig.nvbm.flush()
    _run(monkeypatch, ours, theirs, lambda t: _refine(t, leaves[::2]))
    assert landed == {"__exit__": 1}
    child = morton.children_of(leaves[0], ours.dim)[2]
    assert ours.tree.get_field(child, 0) == 0.5


def test_mixed_dram_and_nvbm_batches(monkeypatch, landed):
    ours, theirs = _twins()
    for rig in (ours, theirs):
        from repro.core import merge

        t = rig.tree
        assert merge.load_subtree(t, _leaves(t)[0] >> (2 * t.dim))
    landed.clear()  # the loads' splices
    leaves = _leaves(ours.tree)
    _run(monkeypatch, ours, theirs, lambda t: t.batch_set_payloads(
        leaves, [(float(i), 1.0, 0.0, 0.0) for i in range(len(leaves))]))
    _run(monkeypatch, ours, theirs,
         lambda t: _refine(t, leaves[::3] + leaves[:2]))
    # the refined leaves again, whose children are current-epoch records
    _run(monkeypatch, ours, theirs,
         lambda t: _coarsen(t, leaves[:2] + leaves[6::6]))
    assert landed == {"__exit__": 3}
    assert ours.tree.stats.marked_deleted > 0
    ours.tree.check_invariants()


def test_refine_batch_that_would_cross_threshold_dram(monkeypatch, landed):
    """Too little C0 headroom for the whole batch: an eviction falls
    between two refines, and the scope lands before it."""
    ours, theirs = (PMRig(dram_octants=64, nvbm_octants=1 << 12)
                    for _ in "ab")
    for rig in (ours, theirs):
        for _ in range(2):
            for leaf in list(rig.tree.leaves()):
                rig.tree.refine(leaf)
    leaves = _leaves(ours.tree)
    _run(monkeypatch, ours, theirs, lambda t: _refine(t, leaves))
    assert ours.tree.stats.evictions > 0
    assert landed["settle"] > 0 and landed["__exit__"] == 1
    landed.clear()
    _run(monkeypatch, ours, theirs, lambda t: _refine(t, _leaves(t)[:1]))
    assert landed == {"__exit__": 1}


def test_refine_of_a_child_created_in_the_batch(monkeypatch, landed):
    ours, theirs = _twins()
    leaf = _leaves(ours.tree)[0]
    child = morton.children_of(leaf, ours.dim)[1]
    _run(monkeypatch, ours, theirs, lambda t: _refine(t, [leaf, child]))
    assert not ours.tree.is_leaf(child)
    # one landing, the child's refine a wave after its parent's
    assert landed == {"__exit__": 1}


def test_coarsen_of_a_parent_made_eligible_in_the_batch(monkeypatch, landed):
    ours, theirs = _twins()
    top = _leaves(ours.tree)[0] >> 2 * ours.dim
    _run(monkeypatch, ours, theirs, lambda t: _coarsen(
        t, morton.children_of(top, t.dim) + [top]))
    assert ours.tree.is_leaf(top)
    # coarsening ``top`` marks children whose stores are pending
    assert landed == {"settle": 1, "__exit__": 1}


# ---------------------------------------------------- Balance's ripple

def _deep_chains(rig, depth: int, step: int) -> None:
    """Below every ``step``-th leaf, refine the last child ``depth`` times:
    Balance has a ripple to run around each chain."""
    for loc in _leaves(rig.tree)[::step]:
        for _ in range(depth):
            loc = rig.tree.refine(loc)[-1]


def test_balance_ripple_crossing_threshold_dram_mid_scope(monkeypatch,
                                                          landed):
    """A tight C0: the ripple's refines run out of DRAM headroom part way,
    so the scope lands before each eviction and the rest of the ripple
    keeps landing together."""
    ours, theirs = (PMRig(dram_octants=80, nvbm_octants=1 << 12)
                    for _ in "ab")
    for rig in (ours, theirs):
        for _ in range(2):
            for leaf in list(rig.tree.leaves()):
                rig.tree.refine(leaf)
        _deep_chains(rig, depth=4, step=9)
    evictions = ours.tree.stats.evictions
    landed.clear()
    _run(monkeypatch, ours, theirs, balance_tree)
    assert ours.tree.stats.evictions > evictions
    assert landed["settle"] > 0 and landed["__exit__"] == 1
    ours.tree.check_invariants()


def _armed_balance(k: int):
    ours, theirs = _twins()
    for rig in (ours, theirs):
        _deep_chains(rig, depth=3, step=5)
        rig.injector.reset_hits()
        rig.injector.arm(COW_AFTER_COPY, at_hit=k)
    return ours, theirs


def test_balance_under_an_armed_cow_plan(monkeypatch, landed):
    """Balance's copy-on-write under an armed ``cow.after_copy`` plan: the
    ripple's scope lands grouped — the visit that fires lands the pending
    prefix, many stores at once, and raises — so a crash at any hit of the
    ripple tears and recovers exactly what the per-item refines leave."""
    ours, theirs = _armed_balance(10 ** 6)
    _run(monkeypatch, ours, theirs, balance_tree)
    hits = ours.injector.hits[COW_AFTER_COPY]
    assert hits > 5 and landed == {"__exit__": 1}
    prefix = []  # items pending when the visit that fires lands them
    site = Landing.site

    def recording(self, name):
        pending = len(self.pending)
        try:
            site(self, name)
        except SimulatedCrash:
            prefix.append(pending)
            raise

    monkeypatch.setattr(Landing, "site", recording)
    for k in sorted({1, 2, hits // 2, hits - 1, hits}):
        ours, theirs = _armed_balance(k)
        prefix.clear()
        crash = _run(monkeypatch, ours, theirs, balance_tree)
        assert isinstance(crash, SimulatedCrash), k
        assert len(prefix) == 1 and (prefix[0] > 1 or k == 1), (k, prefix)
        for rig in (ours, theirs):
            rig.crash(seed=k)
        _agree(ours, theirs)  # the same lines torn
        mine, want = ours.restore(), theirs.restore()
        assert {loc: mine.get_payload(loc) for loc in mine.leaves()} == \
            {loc: want.get_payload(loc) for loc in want.leaves()}
        _agree(ours, theirs)


# ------------------------------------------------------- crash exactness

_ACTS = {
    COW_AFTER_COPY: lambda t: t.batch_set_payloads(
        _leaves(t)[::4], np.tile((1.0, 0.0, 0.0, 0.0),
                                 (len(_leaves(t)[::4]), 1))),
    PAYLOAD_PARTIAL: lambda t: t.batch_set_fields(
        _leaves(t)[::3], np.full(len(_leaves(t)[::3]), 2.0), 0),
    COARSEN_MID: lambda t: _coarsen(
        t, list(dict.fromkeys(loc >> t.dim for loc in _leaves(t)[::2]))),
}


def _hits_of(site: str, monkeypatch) -> int:
    rig = _grown()
    with monkeypatch.context() as patch:
        _per_item(patch)
        _ACTS[site](rig.tree)
    return rig.injector.hits[site]


@pytest.mark.parametrize("site", sorted(_ACTS))
def test_crash_at_every_hit_equals_per_item(monkeypatch, site):
    hits = _hits_of(site, monkeypatch)
    assert hits > 5
    for k in range(1, hits + 1):
        ours, theirs = _twins()
        for rig in (ours, theirs):
            rig.injector.reset_hits()
            rig.injector.arm(site, at_hit=k)
        crash = _run(monkeypatch, ours, theirs, _ACTS[site])
        assert isinstance(crash, SimulatedCrash), k
        assert ours.injector.hits[site] == k
        for rig in (ours, theirs):
            rig.crash(seed=k)
        _agree(ours, theirs)  # the same lines torn
        mine, want = ours.restore(), theirs.restore()
        assert {loc: mine.get_payload(loc) for loc in mine.leaves()} == \
            {loc: want.get_payload(loc) for loc in want.leaves()}
        _agree(ours, theirs)


@pytest.mark.parametrize("plan", [dict(hits=[2, 5, 6]), dict(every_hit=True)],
                         ids=["hits-list", "every-hit"])
@pytest.mark.parametrize("site", sorted(_ACTS))
def test_repeated_crashes_equal_per_item(monkeypatch, site, plan):
    ours, theirs = _twins()
    for rig in (ours, theirs):
        rig.injector.reset_hits()
        rig.injector.arm(site, **plan)
    for round_ in range(3):
        crash = _run(monkeypatch, ours, theirs, _ACTS[site])
        assert isinstance(crash, SimulatedCrash)
        for rig in (ours, theirs):
            rig.crash(seed=round_)
            # not PMRig.restore(): that would disarm the plan
            rig.tree = pm_restore(rig.dram, rig.nvbm, dim=rig.dim,
                                  config=rig.config, injector=rig.injector)
        _agree(ours, theirs)
    assert ours.injector.fired == [site] * 3


def test_rotted_records_raise_as_the_per_item_calls_do(monkeypatch):
    """Three planted rot lines on the path records' epoch line: the epoch
    read raises at its place inside the scope, the closing scope lands the
    stores before it, and the batch leaves exactly the per-item charges."""
    ours, theirs = _twins()
    for rig in (ours, theirs):
        model = MediaFaultModel()
        rig.nvbm.attach_fault_model(model)
        t = rig.tree
        for loc in _leaves(t)[9::11][:3]:
            slot = int(rig.nvbm.slots_of(np.array(
                [t._index[loc]], dtype=np.uint64))[0])
            model.plant_rot(slot * LINES_PER_RECORD)
    error = _run(monkeypatch, ours, theirs, _ACTS[COW_AFTER_COPY])
    assert isinstance(error, MediaError) and error.kind == "rot"
    assert ours.nvbm.stats.stores > 0  # it was partway through the batch


def test_rotted_copy_source_raises_as_the_per_item_calls_do(monkeypatch):
    """Rot planted past the epoch field: each epoch read passes, and the
    copy's read of its original is the read that fails — so the copy lands
    the scope first and raises at its place, not when the scope closes."""
    ours, theirs = _twins()
    for rig in (ours, theirs):
        model = MediaFaultModel()
        rig.nvbm.attach_fault_model(model)
        t = rig.tree
        for loc in _leaves(t)[8::12][:3]:
            slot = int(rig.nvbm.slots_of(np.array(
                [t._index[loc]], dtype=np.uint64))[0])
            model.plant_rot(slot * LINES_PER_RECORD + 1)
    error = _run(monkeypatch, ours, theirs, _ACTS[COW_AFTER_COPY])
    assert isinstance(error, MediaError) and error.kind == "rot"
    assert ours.nvbm.stats.stores > 0  # it was partway through the batch


def test_rotted_refine_parent_raises_as_the_per_item_calls_do(monkeypatch):
    """A refine's parent read back from the medium — a current-epoch leaf
    a mid-epoch flush wrote out — with rot planted past its epoch field:
    the epoch read passes and stays in the scope, so the refine is the
    read that fails, and it lands the scope and raises at its place, not
    when the scope closes after the next leaf's reads."""
    ours, theirs = _twins()
    leaves = _leaves(ours.tree)
    flushed, cached = leaves[0::8][:3], leaves[4::8][:3]
    for rig in (ours, theirs):
        t = rig.tree
        for loc in flushed:
            t.set_field(loc, 0, 0.5)   # current-epoch copies ...
        rig.nvbm.flush()               # ... read back from the medium
        for loc in cached:
            t.set_field(loc, 0, 0.25)  # ... and ones still cached
        model = MediaFaultModel()
        rig.nvbm.attach_fault_model(model)
        slot = int(rig.nvbm.slots_of(np.array(
            [t._index[flushed[1]]], dtype=np.uint64))[0])
        model.plant_rot(slot * LINES_PER_RECORD + 1)
    order = [loc for pair in zip(flushed, cached) for loc in pair]
    error = _run(monkeypatch, ours, theirs, lambda t: _refine(t, order))
    assert isinstance(error, MediaError) and error.kind == "rot"
    assert ours.nvbm.stats.stores > 0  # it was partway through the batch


def test_quiescent_fault_model_keeps_the_batch(monkeypatch, landed):
    ours, theirs = _twins()
    for rig in (ours, theirs):
        rig.nvbm.attach_fault_model(MediaFaultModel())
    for act in _ACTS.values():
        _run(monkeypatch, ours, theirs, act)
    assert landed == {"__exit__": 3}


def test_an_attached_tracer_keeps_the_batch(monkeypatch, landed):
    """An ordering tracker watches the grouped landing itself, and sees
    what it sees of the per-item sequence: the same stores, flushes and
    verdicts."""
    ours, theirs = _twins()
    trackers = [install_tracker(rig.nvbm, strict=False)
                for rig in (ours, theirs)]
    for act in _ACTS.values():
        _run(monkeypatch, ours, theirs, act)
    assert landed == {"__exit__": 3}
    assert trackers[0].counts == trackers[1].counts
    assert trackers[0].counts["stores"] > 0
    assert trackers[0].violations == trackers[1].violations == []


# ------------------------------------------------- the arena's half

def _fresh_arena(volatile: bool):
    from repro.config import DRAM_SPEC, NVBM_SPEC
    from repro.nvbm.arena import MemoryArena
    from repro.nvbm.clock import SimClock
    from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM

    arena = (MemoryArena(ARENA_DRAM, DRAM_SPEC, SimClock(), 64) if volatile
             else MemoryArena(ARENA_NVBM, NVBM_SPEC, SimClock(), 64))
    handles = [arena.alloc() for _ in range(6)]
    for i, h in enumerate(handles):
        arena.write(h, bytes([i]) * 128)
    arena.flush()
    return arena, handles


@pytest.mark.parametrize("volatile", [False, True], ids=["nvbm", "dram"])
def test_write_rows_repeats_equal_the_scalar_loop(volatile):
    """A handle named twice in one ``write_rows``: stored once per row in
    call order (the last row's bytes stay), charged per row, cached at its
    first occurrence — the scalar ``write_field`` loop."""
    (a, ha), (b, hb) = _fresh_arena(volatile), _fresh_arena(volatile)
    order = [3, 1, 3, 0, 1, 3]
    data = np.arange(len(order) * 8, dtype=np.uint8).reshape(len(order), 8)
    a.write_rows([ha[i] for i in order], 60, data)
    for i, row in zip(order, data):
        b.write_field(hb[i], 60, row.tobytes())
    assert _arena_state(a) == _arena_state(b)
    assert list(a._cdir.items()) == list(b._cdir.items())
    assert a.read_field(ha[3], 60, 8) == data[5].tobytes()
    assert a.read_field(ha[1], 60, 8) == data[4].tobytes()
