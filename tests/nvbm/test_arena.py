"""Arena semantics: latency charging, cache durability, crash/torn writes."""

import numpy as np
import pytest

from repro.config import (
    CACHE_LINE_SIZE,
    DRAM_SPEC,
    NVBM_SPEC,
    OCTANT_RECORD_SIZE,
)
from repro.errors import ConsistencyError, InvalidHandleError, SimulatedCrash
from repro.nvbm import sites
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import Category, SimClock
from repro.nvbm.failure import FailureInjector
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.nvbm.records import OctantRecord, pack_record


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def dram(clock):
    return MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, capacity_octants=64)


@pytest.fixture
def nvbm(clock):
    return MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=64)


def _rec(loc=1, level=0):
    return OctantRecord(loc=loc, level=level)


def test_write_read_roundtrip(nvbm):
    h = nvbm.new_octant(_rec(loc=42))
    assert nvbm.read_octant(h).loc == 42


def test_read_your_writes_through_cache(nvbm):
    """A cached (un-flushed) store must be visible to subsequent loads."""
    h = nvbm.new_octant(_rec(loc=1))
    rec = nvbm.read_octant(h)
    rec.loc = 99
    nvbm.write_octant(h, rec)
    assert nvbm.dirty_records > 0
    assert nvbm.read_octant(h).loc == 99


def test_latency_charged_per_cache_line(clock, nvbm):
    h = nvbm.alloc()
    before = clock.category_ns(Category.MEM_NVBM)
    nvbm.write(h, pack_record(_rec()))
    # 128-byte record = 2 cache lines at 150 ns NVBM write latency.
    assert clock.category_ns(Category.MEM_NVBM) - before == pytest.approx(300.0)
    before = clock.category_ns(Category.MEM_NVBM)
    nvbm.read(h)
    assert clock.category_ns(Category.MEM_NVBM) - before == pytest.approx(200.0)


def test_dram_faster_than_nvbm(clock, dram, nvbm):
    dram.new_octant(_rec())
    nvbm.new_octant(_rec())
    dram_t = clock.category_ns(Category.MEM_DRAM)
    nvbm_t = clock.category_ns(Category.MEM_NVBM)
    assert nvbm_t > dram_t  # 150 vs 60 per line


def test_wrong_arena_handle_rejected(dram, nvbm):
    h = dram.new_octant(_rec())
    with pytest.raises(InvalidHandleError):
        nvbm.read(h)


def test_unallocated_handle_rejected(nvbm):
    h = nvbm.new_octant(_rec())
    nvbm.free(h)
    with pytest.raises(InvalidHandleError):
        nvbm.read(h)


def test_wrong_size_write_rejected(nvbm):
    h = nvbm.alloc()
    with pytest.raises(ValueError):
        nvbm.write(h, b"short")


def test_allocated_never_written_read_fails(nvbm):
    h = nvbm.alloc()
    with pytest.raises(ConsistencyError):
        nvbm.read(h)


def test_flush_persists(nvbm):
    h = nvbm.new_octant(_rec(loc=5))
    nvbm.flush()
    assert nvbm.dirty_records == 0
    nvbm.crash(np.random.default_rng(0))  # nothing dirty -> no-op
    assert nvbm.read_octant(h).loc == 5


def test_crash_drops_unflushed_nvbm_writes():
    clock = SimClock()
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=64)
    h = nvbm.new_octant(_rec(loc=7))
    nvbm.flush()
    rec = nvbm.read_octant(h)
    rec.loc = 1000
    nvbm.write_octant(h, rec)
    # Force the "no lines persisted" branch deterministically.
    class AlwaysOld:
        def random(self):
            return 0.9  # >= 0.5 -> keep old line

    nvbm.crash(AlwaysOld())
    assert nvbm.read_octant(h).loc == 7  # old value survived intact


def test_crash_can_tear_records():
    """With a half-persisting RNG the record may mix old and new lines."""

    class FirstLineOnly:
        def __init__(self):
            self.calls = 0

        def random(self):
            self.calls += 1
            return 0.1 if self.calls % 2 == 1 else 0.9

    clock = SimClock()
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=64)
    h = nvbm.new_octant(OctantRecord(loc=7, parent=111, children=[0] * 8))
    nvbm.flush()
    rec = nvbm.read_octant(h)
    rec.loc = 1000      # lives in the first cache line
    rec.children = [5] * 8  # tail lives in the second line
    nvbm.write_octant(h, rec)
    nvbm.crash(FirstLineOnly())
    torn = nvbm.read_octant(h)
    assert torn.loc == 1000  # new first line (bytes 0-63) persisted
    # children[0] sits at offset 56, inside the first line -> new value;
    # children[1:] live in the dropped second line -> old values. Torn record.
    assert torn.children[0] == 5
    assert torn.children[1:] == [0] * 7


def test_crash_tears_whole_lines_only():
    """Every 64-byte line of a torn record is entirely old or entirely new.

    Over many seeded crashes each surviving record must decompose, line by
    line, into the pre-crash or post-crash image — a mixed line would mean
    the crash model tears below cache-line granularity, which real hardware
    (and §2's failure model) does not.
    """
    old = pack_record(OctantRecord(loc=7, parent=111, children=[1] * 8))
    new = pack_record(OctantRecord(loc=1000, parent=222, children=[5] * 8))
    assert old != new
    lines = OCTANT_RECORD_SIZE // CACHE_LINE_SIZE
    outcomes = set()
    for seed in range(32):
        clock = SimClock()
        nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=8)
        h = nvbm.alloc()
        nvbm.write(h, old)
        nvbm.flush()
        nvbm.write(h, new)
        nvbm.crash(np.random.default_rng(seed))
        merged = nvbm.read(h)
        pattern = []
        for line in range(lines):
            lo, hi = line * CACHE_LINE_SIZE, (line + 1) * CACHE_LINE_SIZE
            assert merged[lo:hi] in (old[lo:hi], new[lo:hi])
            pattern.append(merged[lo:hi] == new[lo:hi])
        outcomes.add(tuple(pattern))
    # p=1/2 per line over 32 seeds: both mixed outcomes must show up too,
    # i.e. the tear is genuinely per-line, not all-or-nothing per record.
    assert len(outcomes) > 2


def test_crash_seeded_rng_is_reproducible():
    def run(seed):
        clock = SimClock()
        nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=8)
        h = nvbm.new_octant(_rec(loc=3))
        nvbm.flush()
        nvbm.write_octant(h, _rec(loc=77))
        nvbm.crash(np.random.default_rng(seed))
        return nvbm.read(h)

    assert run(11) == run(11)


def test_dram_crash_loses_everything(dram):
    dram.new_octant(_rec())
    dram.roots.set("V", 123)
    dram.crash()
    assert dram.used == 0
    assert dram.roots.get("V") == 0


def test_nvbm_crash_keeps_allocator_metadata():
    clock = SimClock()
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=8)
    h = nvbm.new_octant(_rec())
    nvbm.flush()
    nvbm.crash(np.random.default_rng(0))
    assert nvbm.contains(h)
    assert nvbm.used == 1


def test_root_slot_swap(nvbm):
    nvbm.roots.set("Vi", 10)
    nvbm.roots.set("Vprev", 20)
    nvbm.roots.swap("Vi", "Vprev")
    assert nvbm.roots.get("Vi") == 20
    assert nvbm.roots.get("Vprev") == 10


def test_root_slot_swap_is_atomic_under_mid_swap_crash(clock):
    """A crash between the two slot stores must leave BOTH slots untouched.

    The §3.2 persist point leans on the swap being all-or-nothing; a torn
    swap (one slot new, one slot old) would leave two roots naming the same
    version and recovery could not tell V_i from V_{i-1}.
    """
    inj = FailureInjector()
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=64,
                       injector=inj)
    nvbm.roots.set("Vi", 10)
    nvbm.roots.set("Vprev", 20)
    inj.arm(sites.ROOTS_SWAP_MID, at_hit=1)
    with pytest.raises(SimulatedCrash):
        nvbm.roots.swap("Vi", "Vprev")
    assert nvbm.roots.get("Vi") == 10
    assert nvbm.roots.get("Vprev") == 20
    # power-loss on top of the interrupted swap changes nothing either:
    # slot stores are write-through, never cached
    nvbm.crash(np.random.default_rng(0))
    assert nvbm.roots.get("Vi") == 10
    assert nvbm.roots.get("Vprev") == 20
    # and with the plan consumed the retry completes
    nvbm.roots.swap("Vi", "Vprev")
    assert nvbm.roots.get("Vi") == 20
    assert nvbm.roots.get("Vprev") == 10


def test_device_stats_and_wear(nvbm):
    h = nvbm.new_octant(_rec())
    for _ in range(9):
        nvbm.write_octant(h, _rec())
    assert nvbm.device.stats.writes == 10
    assert nvbm.device.wear_max() == 10
    assert 0.0 < nvbm.device.wear_headroom() < 1.0


def test_live_handles(nvbm):
    hs = {nvbm.new_octant(_rec(loc=i)) for i in range(5)}
    victim = next(iter(hs))
    nvbm.free(victim)
    assert set(nvbm.live_handles()) == hs - {victim}


def test_free_fraction_drives_thresholds(nvbm):
    for _ in range(32):
        nvbm.new_octant(_rec())
    assert nvbm.free_fraction == pytest.approx(0.5)


# -- store semantics a dense array makes easy to lose ------------------------

class _ScriptedRng:
    """``rng.random()`` from a script; the calls are the record of which
    dirty lines the crash tore, in which order."""

    def __init__(self, *draws):
        self.draws = list(draws)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.draws.pop(0)


def test_flush_records_tolerates_a_repeated_handle(nvbm):
    h = nvbm.new_octant(_rec(loc=7))
    other = nvbm.new_octant(_rec(loc=8))
    nvbm.flush_records([h, h])  # used to raise KeyError on the second pop
    assert nvbm.stats.flush_records == 1
    assert nvbm.dirty_handles() == [other]
    nvbm.crash(_ScriptedRng(1.0, 1.0))  # `other` is dropped, `h` is durable
    assert nvbm.read_octant(h).loc == 7


def test_never_persisted_slot_reads_as_dangling_whatever_its_row_holds(nvbm):
    """Presence is a side array, not "the row is non-zero": a crash that
    persists no dirty line writes nothing, and a recycled slot's stale bytes
    are not a record."""
    fresh = nvbm.new_octant(_rec(loc=3))
    nvbm.crash(_ScriptedRng(1.0, 1.0))
    with pytest.raises(ConsistencyError):
        nvbm.read(fresh)
    with pytest.raises(ConsistencyError):
        nvbm.read_rows([fresh])
    with pytest.raises(ConsistencyError):
        nvbm.read_payload(fresh)

    old = nvbm.new_octant(_rec(loc=5))
    nvbm.flush()  # the row now holds real bytes
    nvbm.free(old)
    again = nvbm.alloc()
    assert again == old  # LIFO recycling: same slot, stale row
    with pytest.raises(ConsistencyError):
        nvbm.read(again)
    nvbm.write_octant(again, _rec(loc=6))
    nvbm.crash(_ScriptedRng(1.0, 1.0))
    with pytest.raises(ConsistencyError):
        nvbm.read(again)
    with pytest.raises(ConsistencyError):  # a field store needs a record
        nvbm.write_payload(again, (1.0,) * 4)


def test_crash_draws_per_dirty_line_in_cache_insertion_order(nvbm):
    """One draw per *dirty* line: records in the order they entered the
    cache (a re-store keeps its place, flush_records + re-store goes to the
    end), lines ascending.  The seeded crash-recovered digests pin this."""
    a, b, c = (nvbm.new_octant(_rec(loc=loc)) for loc in (1, 2, 3))
    nvbm.flush()
    for h, loc in ((a, 11), (b, 12)):
        nvbm.write_octant(h, _rec(loc=loc))      # dirty: lines 0 and 1
    nvbm.write_payload(c, (9.0,) * 4)            # dirty: line 0 only
    nvbm.write_octant(a, _rec(loc=21))           # re-store: a stays first
    nvbm.flush_records([b])
    nvbm.write_octant(b, _rec(loc=22))           # b re-enters at the end
    assert nvbm.dirty_handles() == [a, c, b]
    # draws: a0 a1 c0 b0 b1 — persist a's line 0, c's line 0 and b's line 0
    rng = _ScriptedRng(0.0, 0.9, 0.0, 0.0, 0.9)
    nvbm.crash(rng)
    assert rng.calls == 5 and not rng.draws
    assert nvbm.read_octant(a).loc == 21         # line 0 carries loc
    assert nvbm.read_payload(c) == (9.0,) * 4
    assert nvbm.read_octant(b).loc == 22
    assert nvbm.dirty_records == 0
    nvbm.crash(_ScriptedRng())                   # nothing dirty: no draw


def test_crash_tear_equals_line_merge(nvbm):
    """Byte-level: a torn record is old and new lines side by side."""
    h = nvbm.new_octant(_rec(loc=1))
    nvbm.flush()
    old = nvbm.read(h)
    new = pack_record(OctantRecord(loc=2, children=[9] * 8))
    nvbm.write(h, new)
    nvbm.crash(_ScriptedRng(0.9, 0.0))  # drop line 0, persist line 1
    assert nvbm.read(h) == old[:CACHE_LINE_SIZE] + new[CACHE_LINE_SIZE:]


@pytest.mark.parametrize("release", ["free", "retire"])
def test_release_voids_backing_cache_dirty_mask_and_seal(nvbm, release):
    h = nvbm.new_octant(_rec(loc=4))
    nvbm.flush()                          # present + sealed
    nvbm.write_payload(h, (2.0,) * 4)     # cached + one dirty line
    idx = h & 0xFFFF
    assert nvbm._present[idx] and nvbm._seal[idx] >= 0
    assert nvbm._dirty_mask[idx] and idx in nvbm._cdir
    getattr(nvbm, release)(h)
    assert not nvbm._present[idx] and nvbm._seal[idx] == -1
    assert not nvbm._dirty_mask[idx] and nvbm._crow[idx] == -1
    assert idx not in nvbm._cdir and nvbm.dirty_records == 0
    nvbm.crash(_ScriptedRng())            # nothing left to tear: no draw
    if release == "free":
        again = nvbm.alloc()
        assert again == h
        with pytest.raises(ConsistencyError):
            nvbm.read(again)


def test_store_grows_lazily_and_survives_growth(clock):
    """The arrays cover only what was allocated (a 2**20-slot arena is not
    256 MB up front) and growing them loses nothing, cached or durable."""
    big = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=1 << 20)
    assert big.slots == 0
    durable = big.new_octant(_rec(loc=1))
    big.flush()
    cached = big.new_octant(_rec(loc=2))
    first = big.slots
    assert 0 < first <= 4096
    handles = [big.new_octant(_rec(loc=10 + i)) for i in range(3 * first)]
    assert first < big.slots <= 8 * first
    assert big.read_octant(durable).loc == 1
    assert big.read_octant(cached).loc == 2
    assert [r.loc for r in map(big.read_octant, handles[-3:])] \
        == [10 + 3 * first - 3 + i for i in range(3)]
    assert big.dirty_records == 1 + len(handles)
