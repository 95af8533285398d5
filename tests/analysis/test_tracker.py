"""Ordering-tracker tests: each violation class fires exactly when the
crash-consistency argument says it must, and legitimate persist flows pass."""

import numpy as np
import pytest

from repro.analysis import OrderingTracker, install_tracker
from repro.config import DRAM_SPEC, NVBM_SPEC
from repro.errors import OrderingViolationError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.nvbm.records import OctantRecord


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def nvbm(clock):
    return MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=64)


@pytest.fixture
def dram(clock):
    return MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, capacity_octants=64)


def _rec(loc=1):
    return OctantRecord(loc=loc)


# ------------------------------------------------------- the violation zoo

def test_publish_before_flush(nvbm):
    tracker = install_tracker(nvbm, strict=True)
    h = nvbm.new_octant(_rec())
    with pytest.raises(OrderingViolationError, match="publish-before-flush"):
        nvbm.roots.set("V_prev", h)
    assert tracker.violations[0].kind == "publish-before-flush"


def test_flushed_publish_is_clean(nvbm):
    tracker = install_tracker(nvbm, strict=True)
    h = nvbm.new_octant(_rec())
    nvbm.flush()
    nvbm.roots.set("V_prev", h)
    assert tracker.violations == []
    assert tracker.published["V_prev"] == h


def test_double_flush_elision(nvbm):
    """flush once, store again, publish dirty — the event trace catches what
    a single dirty bit cannot distinguish from never-flushed."""
    tracker = install_tracker(nvbm, strict=True)
    h = nvbm.new_octant(_rec())
    nvbm.flush()
    nvbm.write_octant(h, _rec(loc=9))  # re-dirty after the flush
    with pytest.raises(OrderingViolationError, match="double-flush-elision"):
        nvbm.roots.set("V_prev", h)
    assert tracker.violations[0].kind == "double-flush-elision"


def test_publish_of_volatile(dram, nvbm):
    install_tracker(dram, nvbm, strict=True)
    h = dram.new_octant(_rec())
    with pytest.raises(OrderingViolationError, match="publish-of-volatile"):
        nvbm.roots.set("V_prev", h)


def test_free_of_published(nvbm):
    tracker = install_tracker(nvbm, strict=True)
    h = nvbm.new_octant(_rec())
    nvbm.flush()
    nvbm.roots.set("V_prev", h)
    with pytest.raises(OrderingViolationError, match="free-of-published"):
        nvbm.free(h)
    assert tracker.violations[0].kind == "free-of-published"


def test_store_to_published(nvbm):
    tracker = install_tracker(nvbm, strict=True)
    h = nvbm.new_octant(_rec())
    nvbm.flush()
    nvbm.roots.set("V_prev", h)
    with pytest.raises(OrderingViolationError, match="store-to-published"):
        nvbm.write_octant(h, _rec(loc=5))
    assert tracker.violations[0].kind == "store-to-published"


# ------------------------------------------------------------ scoping rules

def test_non_publish_slot_is_ignored(nvbm):
    tracker = install_tracker(nvbm, strict=True)
    h = nvbm.new_octant(_rec())
    nvbm.roots.set("V_curr", h)  # volatile bookkeeping, not a commit point
    assert tracker.violations == []


def test_null_publish_unpublishes(nvbm):
    tracker = install_tracker(nvbm, strict=True)
    h = nvbm.new_octant(_rec())
    nvbm.flush()
    nvbm.roots.set("V_prev", h)
    nvbm.roots.set("V_prev", 0)
    nvbm.free(h)  # no longer published: freeing is legal
    assert tracker.violations == []


def test_crash_clears_dirty_state(nvbm):
    tracker = install_tracker(nvbm, strict=True)
    h = nvbm.new_octant(_rec())
    nvbm.crash(np.random.default_rng(0))
    # whatever survived the crash was (by definition) made durable or
    # dropped; a later publish of the surviving bytes is not an ordering bug
    nvbm.roots.set("V_prev", h)
    assert tracker.violations == []
    assert tracker.counts["crashes"] == 1


def test_non_strict_mode_accumulates(nvbm):
    tracker = install_tracker(nvbm, strict=False)
    h1 = nvbm.new_octant(_rec(loc=1))
    h2 = nvbm.new_octant(_rec(loc=2))
    nvbm.roots.set("V_prev", h1)
    nvbm.roots.set("V_prev", h2)
    assert [v.kind for v in tracker.violations] == [
        "publish-before-flush", "publish-before-flush",
    ]
    assert all("handle" in row for row in tracker.report_rows())


def test_trace_records_event_order(nvbm):
    tracker = install_tracker(nvbm, strict=False)
    h = nvbm.new_octant(_rec())
    nvbm.flush()
    nvbm.roots.set("V_prev", h)
    events = [e.split(":", 1)[1] for e in tracker.trace_of(h)]
    assert events == ["store", "flush", "publish[V_prev]"]



def test_one_tracker_may_watch_two_arenas(dram, nvbm):
    tracker = install_tracker(dram, nvbm, strict=False)
    dram.new_octant(_rec())
    nvbm.new_octant(_rec())
    assert tracker.counts["stores"] == 2


def test_standalone_tracker_custom_publish_slots():
    tracker = OrderingTracker(publish_slots=("root",), strict=False)
    tracker.on_store(0x1000001)
    tracker.on_publish("root", 0x1000001)
    assert [v.kind for v in tracker.violations] == ["publish-before-flush"]


# ------------------------------------------- epoch happens-before checker

def test_sync_pipeline_epochs_are_clean(nvbm):
    """One window open at a time, its pending set flushed before the next
    store — the window-0 persist shape — never produces a cross-epoch
    violation."""
    tracker = install_tracker(nvbm, strict=True, strict_epochs=True)
    for loc in (1, 2, 3):
        h = nvbm.new_octant(_rec(loc))
        epoch = tracker.on_epoch_open(nvbm.dirty_handles())
        nvbm.flush()
        nvbm.roots.set("V_prev", h)
        tracker.on_epoch_close(epoch)
    assert tracker.violations == []
    assert tracker.counts["epochs"] == 3
    assert tracker.open_epochs == ()


def test_cross_epoch_waf_detected():
    """Two overlapped epochs: the newer epoch stores to a record the older
    epoch snapshotted as pending-flush — the write-after-flush race."""
    tracker = OrderingTracker(strict=False)
    h = 0x1000001
    tracker.on_store(h)            # dirty before epoch 1 opens
    e1 = tracker.on_epoch_open({h}, rank=0)
    e2 = tracker.on_epoch_open(set(), rank=1)  # pipelined persist overlaps
    tracker.on_store(h)            # epoch 2 races epoch 1's flush set
    kinds = [v.kind for v in tracker.violations]
    assert kinds == ["cross-epoch-waf"]
    v = tracker.violations[0]
    # the detail carries the vector-clock position (epoch, rank, record)
    assert f"({e1}, 0, {h})" in v.detail
    assert f"epoch {e2}" in v.detail
    assert tracker.open_epochs == (e1, e2)


def test_strict_epochs_raises_at_the_store():
    tracker = OrderingTracker(strict=False, strict_epochs=True)
    h = 0x1000002
    tracker.on_store(h)
    tracker.on_epoch_open({h})
    tracker.on_epoch_open(set())
    with pytest.raises(OrderingViolationError, match="cross-epoch-waf"):
        tracker.on_store(h)


def test_flush_discharges_epoch_pending():
    """A flush makes the record durable for every open window, so a later
    store is a fresh dirtying, not a race."""
    tracker = OrderingTracker(strict=False, strict_epochs=True)
    h = 0x1000003
    tracker.on_store(h)
    tracker.on_epoch_open({h})
    tracker.on_epoch_open(set())
    tracker.on_flush([h])
    tracker.on_store(h)            # no raise: the obligation was met
    assert tracker.violations == []


def test_epoch_close_by_id_and_innermost():
    tracker = OrderingTracker(strict=False)
    e1 = tracker.on_epoch_open(set())
    e2 = tracker.on_epoch_open(set())
    e3 = tracker.on_epoch_open(set())
    tracker.on_epoch_close(e2)       # close the middle window by id
    assert tracker.open_epochs == (e1, e3)
    tracker.on_epoch_close(e3)       # and the innermost one
    assert tracker.open_epochs == (e1,)
    tracker.on_epoch_close(999)      # unknown id: no-op
    assert tracker.open_epochs == (e1,)


def test_crash_kills_open_epoch_windows():
    tracker = OrderingTracker(strict=False, strict_epochs=True)
    h = 0x1000004
    tracker.on_store(h)
    tracker.on_epoch_open({h})
    tracker.on_epoch_open(set())
    tracker.on_crash()
    assert tracker.open_epochs == ()
    tracker.on_epoch_open(set())     # recovery re-drives a fresh epoch
    tracker.on_store(h)              # no stale pending set survives
    assert tracker.violations == []


def test_persist_brackets_an_epoch_end_to_end():
    """The real persist point opens/closes a window around its flush, so
    trace_run with strict epochs is exercised through the public path."""
    from repro.analysis import trace_run

    tracker = trace_run(steps=2, strict_epochs=True)
    assert tracker.strict_epochs is True
    assert tracker.counts["epochs"] >= 2     # one per persisted step
    assert tracker.open_epochs == ()         # every window was closed
    assert tracker.violations == []


def test_overlapping_epochs_fixture_is_flagged():
    """The planted overlap race in the fixtures package is caught, and the
    clean COW-shaped variant is not — the regression guard for the
    vector-clock checker itself."""
    from tests.analysis.fixtures.overlapping_epochs import oe_clean, oe_race

    tracker = OrderingTracker(strict=False)
    h = 0x1000010
    window = oe_race(tracker, h)
    assert [v.kind for v in tracker.violations] == ["cross-epoch-waf"]
    assert f"({window}, 0, {h})" in tracker.violations[0].detail

    clean = OrderingTracker(strict=False, strict_epochs=True)
    oe_clean(clean, 0x1000020)
    assert clean.violations == []


def test_injected_cross_epoch_write_on_live_pipeline():
    """An injected raw store into an in-flight epoch's snapshot, on a real
    pipelined tree with the tracker installed, raises under strict-epochs
    — the end-to-end form of the fixture's race."""
    from repro.analysis.sweep import _Rig

    rig = _Rig(strict_epochs=True, max_inflight=1)
    tree = rig.tree
    for leaf in list(tree.leaves()):
        tree.refine(leaf)
    for i, leaf in enumerate(sorted(tree.leaves())[:4]):
        tree.set_payload(leaf, (float(i), 1.0, 0.0, 0.0))
    tree.persist(transform=False)          # epoch enqueued, still in flight
    pending = tree._pipeline._queue[0].pending
    assert pending, "enqueued epoch must carry a dirty snapshot"
    victim = pending[0]
    payload = rig.nvbm.read_payload(victim)
    with pytest.raises(OrderingViolationError, match="cross-epoch-waf"):
        rig.nvbm.write_payload(victim, payload)
    tree._pipeline.reset()                 # do not leak the armed window


# ------------------------------------------ the tracker sees grouped scopes

def test_attached_tracker_leaves_scopes_grouped():
    """An ordering tracker does not force record-by-record landing: with no
    crash plan armed, a ``tree.batch()`` scope defers its stores."""
    from repro.analysis.sweep import _Rig

    rig = _Rig().grow(1)
    assert rig.nvbm.tracer is rig.tracker
    with rig.tree.batch():
        assert rig.tree._landing.immediate is False
    assert rig.tree._landing.immediate is True


def test_store_to_published_inside_a_scope_is_reported():
    """A planted in-place store to the published root, made inside a scope,
    is seen when the scope lands as one grouped store."""
    from repro.analysis.sweep import _Rig
    from repro.nvbm.records import PAYLOAD_SPAN

    rig = _Rig().grow(1)
    rig.tree.persist(transform=False)
    root = rig.nvbm.roots.get("V_prev")
    assert rig.tracker.violations == []
    with rig.tree.batch() as buf:
        # BUG planted: no writable(), straight onto the published record
        buf.store(rig.nvbm, root, PAYLOAD_SPAN[0], bytes(8))
        assert rig.tracker.violations == []      # still pending
    assert [v.kind for v in rig.tracker.violations] == ["store-to-published"]
    assert rig.tracker.violations[0].handle == root
