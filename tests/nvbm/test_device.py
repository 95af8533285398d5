"""MemoryDevice: latency charging, stats merging, wear accounting."""

import numpy as np

from repro.config import DRAM_SPEC, NVBM_SPEC
from repro.nvbm.clock import Category, SimClock
from repro.nvbm.device import DeviceStats, MemoryDevice


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


def test_stats_merged_with():
    a = DeviceStats(reads=1, writes=2, bytes_read=10, bytes_written=20)
    b = DeviceStats(reads=3, writes=4, bytes_read=30, bytes_written=40)
    m = a.merged_with(b)
    assert (m.reads, m.writes, m.bytes_read, m.bytes_written) == (4, 6, 40, 60)
    # originals untouched
    assert a.reads == 1 and b.reads == 3


def test_wear_tracking_grows_lazily():
    dev = MemoryDevice(NVBM_SPEC, SimClock())
    dev.on_write(8, slot=5000)
    dev.on_write(8, slot=5000)
    dev.on_write(8, slot=2)
    assert dev.wear_max() == 2
    assert dev.wear_total() == 3
    assert 0.0 < dev.wear_headroom() < 1.0


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
