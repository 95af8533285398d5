"""Tests for the simulated clock."""

import pytest

from repro.nvbm.clock import Category, SimClock


def test_advance_accumulates():
    clk = SimClock()
    clk.advance(100.0, Category.COMPUTE)
    clk.advance(50.0, Category.MEM_NVBM)
    assert clk.now_ns == 150.0
    assert clk.category_ns(Category.COMPUTE) == 100.0
    assert clk.category_ns(Category.MEM_NVBM) == 50.0


def test_negative_advance_rejected():
    clk = SimClock()
    with pytest.raises(ValueError):
        clk.advance(-1.0)


def test_phase_attribution():
    clk = SimClock()
    with clk.phase("refine"):
        clk.advance(10.0)
        with clk.phase("balance"):
            clk.advance(5.0)
        clk.advance(1.0)
    clk.advance(100.0)  # outside any phase
    assert clk.phase_ns("refine") == 11.0
    assert clk.phase_ns("balance") == 5.0
    assert clk.now_ns == 116.0


def test_phase_stack_unwinds_on_exception():
    clk = SimClock()
    with pytest.raises(RuntimeError):
        with clk.phase("broken"):
            raise RuntimeError("boom")
    clk.advance(7.0)
    assert clk.phase_ns("broken") == 0.0


def test_snapshot_elapsed():
    clk = SimClock()
    clk.advance(40.0)
    s0 = clk.snapshot()
    clk.advance(60.0)
    s1 = clk.snapshot()
    assert s1.now_ns - s0.now_ns == 60.0
    # snapshots are independent copies
    clk.advance(1.0)
    assert s1.now_ns == 100.0


def test_now_s_conversion():
    clk = SimClock()
    clk.advance(2.5e9)
    assert clk.now_s == pytest.approx(2.5)


def test_reset():
    clk = SimClock()
    with clk.phase("p"):
        clk.advance(10.0, Category.IO)
    clk.reset()
    assert clk.now_ns == 0.0
    assert clk.phase_ns("p") == 0.0
    assert clk.category_ns(Category.IO) == 0.0
