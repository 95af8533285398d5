"""MemoryDevice: latency charging, stats merging, wear accounting."""

import numpy as np
import pytest

from repro.config import DRAM_SPEC, NVBM_SPEC
from repro.nvbm.clock import Category, SimClock
from repro.nvbm.device import MemoryDevice


def test_read_write_charge_per_line():
    clock = SimClock()
    dev = MemoryDevice(NVBM_SPEC, clock)
    dev.on_read(1)  # still one full line
    assert clock.now_ns == 100.0
    dev.on_read(65)  # two lines
    assert clock.now_ns == 300.0
    dev.on_write(64)
    assert clock.now_ns == 450.0


def test_category_routing():
    clock = SimClock()
    MemoryDevice(DRAM_SPEC, clock).on_read(8)
    assert clock.category_ns(Category.MEM_DRAM) == 60.0
    assert clock.category_ns(Category.MEM_NVBM) == 0.0
    MemoryDevice(NVBM_SPEC, clock).on_write(8)
    assert clock.category_ns(Category.MEM_NVBM) == 150.0


def test_stats_counters():
    dev = MemoryDevice(NVBM_SPEC, SimClock())
    dev.on_read(100)
    dev.on_write(200, slot=3)
    assert dev.stats.reads == 1
    assert dev.stats.writes == 1
    assert dev.stats.bytes_read == 100
    assert dev.stats.bytes_written == 200


def test_wear_tracking_grows_lazily():
    dev = MemoryDevice(NVBM_SPEC, SimClock())
    dev.on_write(8, slot=5000)
    dev.on_write(8, slot=5000)
    dev.on_write(8, slot=2)
    assert dev.wear_max() == 2
    assert dev.wear_total() == 3
    assert 0.0 < dev.wear_headroom() < 1.0


@pytest.mark.parametrize("before, batch", [(300, 1000), (0, 5000),
                                           (511, 2), (1, 1)])
def test_batch_write_grows_wear_like_the_per_write_calls(before, batch):
    """A ``write_rows`` of fresh records leaves the wear array as long as
    the ``write`` calls it stands for: each call whose lines reach past
    the array at least doubles it."""
    from repro.nvbm.arena import MemoryArena
    from repro.nvbm.pointers import ARENA_DRAM
    from repro.nvbm.records import OctantRecord, pack_record

    twins = []
    for mode in ("batch", "per-write"):
        arena = MemoryArena(ARENA_DRAM, DRAM_SPEC, SimClock(), 1 << 14)
        for i in range(before):
            arena.new_octant(OctantRecord(loc=1 + i))
        handles = arena.alloc_rows(batch)
        rows = np.frombuffer(pack_record(OctantRecord(loc=7)) * batch,
                             dtype=np.uint8).reshape(batch, -1)
        if mode == "batch":
            arena.write_rows(handles, 0, rows)
        else:
            for h, row in zip(handles.tolist(), rows):
                arena.write(h, row.tobytes())
        twins.append((arena.device._wear.tolist(), arena.device.stats))
    assert twins[0] == twins[1]


def test_stats_object_is_never_replaced():
    """obs folds bind ``dev.stats`` itself, so every charge path must count
    into that one object (a fresh device is the only reset)."""
    dev = MemoryDevice(NVBM_SPEC, SimClock())
    stats = dev.stats
    dev.on_write(8, slot=1)
    dev.on_write_batch(1, 8, 1, np.array([2]))
    dev.on_read(8)
    dev.on_read_batch(2, 16, 2)
    assert dev.stats is stats
    assert (stats.writes, stats.reads) == (2, 3)
