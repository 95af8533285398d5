"""Field-granular arena access: line charging, dirty lines, unmetered mode.

The partial-access layer is the PR's tentpole: a payload update, child-slot
splice or flag flip must cost exactly the cache lines it spans (not the
whole 128-byte record), dirty only those lines in the write-back cache, and
tear only those lines on a crash.
"""

import dataclasses

import pytest

from repro.config import DRAM_SPEC, NVBM_SPEC, OCTANT_RECORD_SIZE
from repro.errors import ConsistencyError
from repro.nvbm.arena import MemoryArena, _lines_of
from repro.nvbm.clock import Category, SimClock
from repro.nvbm.device import lines_spanned
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM, NULL_HANDLE
from repro.nvbm.records import (
    FLAG_LEAF,
    FLAGS_SPAN,
    PAYLOAD_SPAN,
    OctantRecord,
    child_span,
)


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def dram(clock):
    return MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, capacity_octants=64)


@pytest.fixture
def nvbm(clock):
    return MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=64)


def _rec(loc=1, payload=(1.0, 2.0, 3.0, 4.0)):
    return OctantRecord(loc=loc, level=0, payload=payload)


# -- span arithmetic ---------------------------------------------------------


def test_lines_spanned():
    assert lines_spanned(*FLAGS_SPAN) == 1      # 1 byte at offset 9
    assert lines_spanned(*PAYLOAD_SPAN) == 1    # 32 bytes at offset 16
    assert lines_spanned(0, OCTANT_RECORD_SIZE) == 2
    assert lines_spanned(*child_span(0)) == 1   # slot 0 ends at byte 64
    assert lines_spanned(*child_span(1)) == 1   # slots 1..7 live in line 1
    assert lines_spanned(*child_span(0, 8)) == 2  # all slots straddle
    assert lines_spanned(63, 2) == 2            # boundary straddle
    assert lines_spanned(9, 0) == 1             # degenerate span still 1 line


def test_line_mask_matches_spans():
    # _lines_of -> (first line, line count, line bitmask)
    assert _lines_of(*FLAGS_SPAN) == (0, 1, 0b01)
    assert _lines_of(*child_span(1)) == (1, 1, 0b10)
    assert _lines_of(*child_span(0, 8)) == (0, 2, 0b11)
    assert _lines_of(0, OCTANT_RECORD_SIZE) == (0, 2, 0b11)


# -- field round-trips -------------------------------------------------------


def test_payload_roundtrip_without_touching_rest(nvbm):
    h = nvbm.new_octant(_rec(loc=7))
    nvbm.write_payload(h, (9.0, 8.0, 7.0, 6.0))
    assert nvbm.read_payload(h) == (9.0, 8.0, 7.0, 6.0)
    rec = nvbm.read_octant(h)
    assert rec.loc == 7 and rec.is_leaf  # untouched fields intact


def test_child_slot_and_flags_roundtrip(nvbm):
    h = nvbm.new_octant(_rec())
    nvbm.write_child_slot(h, 3, 0xBEEF)
    nvbm.set_flags(h, FLAG_LEAF)
    rec = nvbm.read_octant(h)
    assert rec.children[3] == 0xBEEF
    assert rec.flags == FLAG_LEAF
    nvbm.write_child_slots(h, 0, [NULL_HANDLE] * 8)
    assert all(c == NULL_HANDLE for c in nvbm.read_octant(h).children)


def test_write_field_bounds_checked(nvbm):
    h = nvbm.new_octant(_rec())
    with pytest.raises(ValueError):
        nvbm.write_field(h, OCTANT_RECORD_SIZE - 2, b"xxxx")
    with pytest.raises(ValueError):
        nvbm.write_field(h, -1, b"x")
    with pytest.raises(ValueError):
        child_span(8)


def test_field_access_requires_existing_record(nvbm):
    h = nvbm.alloc()  # allocated, never written
    with pytest.raises(ConsistencyError):
        nvbm.read_payload(h)
    with pytest.raises(ConsistencyError):
        nvbm.write_payload(h, (0.0, 0.0, 0.0, 0.0))


# -- line-granular charging --------------------------------------------------


def test_partial_write_charges_one_line(clock, nvbm):
    h = nvbm.new_octant(_rec())
    before = clock.category_ns(Category.MEM_NVBM)
    nvbm.write_payload(h, (0.0, 0.0, 0.0, 0.0))
    # one line at 150 ns NVBM write latency — a full record costs 300
    assert clock.category_ns(Category.MEM_NVBM) - before \
        == pytest.approx(NVBM_SPEC.write_latency_ns)


def test_partial_read_charges_one_line(clock, nvbm):
    h = nvbm.new_octant(_rec())
    before = clock.category_ns(Category.MEM_NVBM)
    assert nvbm.read_payload(h) == (1.0, 2.0, 3.0, 4.0)
    assert clock.category_ns(Category.MEM_NVBM) - before \
        == pytest.approx(NVBM_SPEC.read_latency_ns)


def test_straddling_field_charges_two_lines(clock, nvbm):
    h = nvbm.new_octant(_rec())
    before = clock.category_ns(Category.MEM_NVBM)
    nvbm.write_child_slots(h, 0, [NULL_HANDLE] * 8)  # bytes 56..120
    assert clock.category_ns(Category.MEM_NVBM) - before \
        == pytest.approx(2 * NVBM_SPEC.write_latency_ns)


def test_line_counters_track_partial_access(nvbm):
    h = nvbm.new_octant(_rec())  # full-record write: 2 lines
    base = dataclasses.replace(nvbm.device.stats)
    nvbm.read_payload(h)
    nvbm.set_flags(h, FLAG_LEAF)
    s = nvbm.device.stats
    assert s.lines_read - base.lines_read == 1
    assert s.lines_written - base.lines_written == 1
    assert s.bytes_written - base.bytes_written == 1  # the flag byte alone
    assert s.lines_touched == s.lines_read + s.lines_written


# -- dirty-line crash semantics ---------------------------------------------


class _AlwaysPersist:
    def random(self):
        return 0.0  # < 0.5: every dirty line persists


class _NeverPersist:
    def random(self):
        return 1.0  # >= 0.5: every dirty line is dropped


def test_crash_tears_only_dirty_lines(nvbm):
    """A partial payload store leaves line 1 (children/parent) clean: no
    crash outcome may disturb it, even when the dirty line is dropped."""
    h = nvbm.new_octant(_rec(loc=5))
    nvbm.write_child_slot(h, 2, 0xABad)
    nvbm.flush()  # durable baseline
    nvbm.write_payload(h, (4.0, 4.0, 4.0, 4.0))  # dirties line 0 only

    arena_lost = MemoryArena(ARENA_NVBM, NVBM_SPEC, SimClock(), 64)
    for arena, rng, payload in (
        (nvbm, _NeverPersist(), (1.0, 2.0, 3.0, 4.0)),
        (arena_lost, _AlwaysPersist(), (4.0, 4.0, 4.0, 4.0)),
    ):
        if arena is arena_lost:
            h2 = arena.new_octant(_rec(loc=5))
            assert h2 == h
            arena.write_child_slot(h, 2, 0xABad)
            arena.flush()
            arena.write_payload(h, (4.0, 4.0, 4.0, 4.0))
        arena.crash(rng)
        rec = arena.read_octant(h)
        assert rec.payload == payload  # dirty line: all-or-nothing
        assert rec.loc == 5
        assert rec.children[2] == 0xABad  # clean line untouched either way


def test_full_write_after_partial_dirties_everything(nvbm):
    h = nvbm.new_octant(_rec())
    nvbm.flush()
    nvbm.set_flags(h, FLAG_LEAF)          # line 0
    nvbm.write_octant(h, _rec(loc=77))    # whole record dirty again
    nvbm.crash(_AlwaysPersist())
    assert nvbm.read_octant(h).loc == 77


def test_flush_clears_dirty_lines(nvbm):
    h = nvbm.new_octant(_rec())
    nvbm.write_payload(h, (0.0,) * 4)
    assert nvbm._dirty_mask.any()
    nvbm.flush()
    assert not nvbm._dirty_mask.any()
    nvbm.crash(_NeverPersist())  # nothing in flight: nothing to lose
    assert nvbm.read_payload(h) == (0.0,) * 4


def test_dram_partial_write_is_immediate(dram):
    """On a volatile arena field stores hit the backing store directly."""
    h = dram.new_octant(_rec())
    dram.write_payload(h, (5.0,) * 4)
    assert not dram._dirty_mask.any() and not dram._cdir
    assert dram.read_payload(h) == (5.0,) * 4


# -- unmetered inspection mode ----------------------------------------------


def test_unmetered_suppresses_clock_and_stats(clock, nvbm):
    h = nvbm.new_octant(_rec())
    before_ns = clock.now_ns
    before = dataclasses.replace(nvbm.device.stats)
    with nvbm.device.unmetered():
        nvbm.read_octant(h)
        nvbm.read_payload(h)
        with nvbm.device.unmetered():  # nesting is allowed
            nvbm.read_flags(h)
    assert clock.now_ns == before_ns
    assert nvbm.device.stats == before


def test_unmetered_writes_still_land(clock, nvbm):
    h = nvbm.new_octant(_rec())
    before_ns = clock.now_ns
    with nvbm.device.unmetered():
        nvbm.write_payload(h, (8.0,) * 4)
    assert clock.now_ns == before_ns
    assert nvbm.read_payload(h) == (8.0,) * 4  # data path unaffected


def test_metering_resumes_after_block(clock, nvbm):
    h = nvbm.new_octant(_rec())
    with nvbm.device.unmetered():
        nvbm.read_payload(h)
    before_ns = clock.now_ns
    nvbm.read_payload(h)
    assert clock.now_ns > before_ns
