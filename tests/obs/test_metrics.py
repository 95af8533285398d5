"""Unit tests for the metrics registry."""

import dataclasses
import io
import json

import pytest

from repro.nvbm.clock import SimClock
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def reg(clock):
    return MetricsRegistry(clock=clock)


def test_counter_get_or_create_identity(reg):
    a = reg.counter("device.writes", device="NVBM")
    b = reg.counter("device.writes", device="NVBM")
    assert a is b
    assert len(reg) == 1


def test_labels_are_canonicalised(reg):
    a = reg.counter("x", a=1, b="y")
    b = reg.counter("x", b="y", a="1")  # order and str() must not matter
    assert a is b


def test_counter_inc_and_total(reg):
    reg.counter("device.writes", device="NVBM").inc(3)
    reg.counter("device.writes", device="DRAM").inc(2)
    assert reg.total("device.writes") == 5
    assert reg.get("device.writes", device="NVBM").value == 3
    assert reg.get("device.writes", device="missing") is None


def test_counter_rejects_negative(reg):
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)


def test_kind_collision_same_labels(reg):
    reg.counter("n", a=1)
    with pytest.raises(ValueError):
        reg.gauge("n", a=1)


def test_kind_collision_across_labelsets(reg):
    reg.counter("n", a=1)
    with pytest.raises(ValueError):
        reg.histogram("n", a=2)


def test_gauge_set_add(reg):
    g = reg.gauge("free_fraction", arena="DRAM")
    g.set(0.5)
    g.add(0.25)
    assert g.value == 0.75


def test_updates_stamped_on_sim_clock(clock, reg):
    c = reg.counter("c")
    clock.advance(1000.0)
    c.inc()
    assert c.updated_ns == 1000.0
    clock.advance(500.0)
    c.inc()
    assert c.updated_ns == 1500.0


def test_late_clock_binding():
    reg = MetricsRegistry()
    c = reg.counter("c")
    c.inc()  # no clock yet: stamp stays 0
    assert c.updated_ns == 0.0
    clk = SimClock()
    clk.advance(42.0)
    reg.bind_clock(clk)
    c.inc()
    assert c.updated_ns == 42.0


def test_histogram_buckets_and_stats(reg):
    h = reg.histogram("wear", buckets=(1.0, 4.0, 16.0))
    for v in (0.5, 2, 3, 10, 100):
        h.observe(v)
    assert h.count == 5
    assert h.bucket_counts == [1, 2, 1, 1]  # last = overflow
    assert h.min == 0.5 and h.max == 100
    assert h.mean == pytest.approx((0.5 + 2 + 3 + 10 + 100) / 5)


def test_histogram_weighted_observe(reg):
    h = reg.histogram("h", buckets=(10.0,))
    h.observe(3, n=4)
    h.observe(3, n=0)  # no-op
    assert h.count == 4
    assert h.sum == 12


def test_samples_sorted_and_jsonl_round_trip(reg):
    reg.counter("b.second", x=1).inc()
    reg.counter("a.first").inc(2)
    reg.histogram("c.hist", buckets=(1.0,)).observe(5)
    names = [s["name"] for s in reg.samples()]
    assert names == sorted(names)
    fh = io.StringIO()
    n = reg.export_jsonl(fh)
    assert n == 3
    rows = [json.loads(line) for line in fh.getvalue().splitlines()]
    assert rows[0]["name"] == "a.first"
    assert rows[0]["value"] == 2
    hist = next(r for r in rows if r["type"] == "histogram")
    assert hist["buckets"][-1]["le"] is None  # overflow bucket


def test_values_by_labelset(reg):
    reg.counter("n", rank=0).inc(1)
    reg.counter("n", rank=1).inc(2)
    vals = reg.values("n")
    assert vals[(("rank", "0"),)] == 1
    assert vals[(("rank", "1"),)] == 2


# -- folds: counters derived from a component's stats dataclass --------------


@dataclasses.dataclass
class _Stats:
    hits: int = 0
    wait_ns: float = 0.0
    kinds: dict = dataclasses.field(default_factory=dict)  # not numeric


def test_fold_reads_the_stats_object(reg):
    s = _Stats(hits=2)  # counted before the fold: reported all the same
    reg.fold("cache", s, rank=0)
    assert reg.get("cache.hits", rank=0).value == 2
    s.hits += 3
    s.wait_ns += 1.5
    assert reg.total("cache.hits") == 5
    assert reg.total("cache.wait_ns") == 1.5
    assert reg.get("cache.kinds", rank=0) is None
    assert len(reg) == 2
    assert [r["value"] for r in reg.samples()] == [5, 1.5]


def test_fold_sums_sources_and_ignores_a_repeat(reg):
    a, b = _Stats(hits=1), _Stats(hits=1)  # equal, but two objects
    for stats in (a, b, a):
        reg.fold("cache", stats)
    reg.fold("cache", _Stats(hits=100), rank=1)
    assert reg.get("cache.hits").value == 2
    b.hits += 8
    assert reg.values("cache.hits") == {(): 10, (("rank", "1"),): 100}


def test_folded_counter_is_stamped_when_a_read_sees_it_change(clock, reg):
    s = _Stats()
    reg.fold("cache", s)
    clock.advance(10.0)
    s.hits += 1
    clock.advance(5.0)
    assert reg.get("cache.hits").updated_ns == 15.0
    clock.advance(5.0)
    assert reg.get("cache.hits").updated_ns == 15.0  # value unchanged
