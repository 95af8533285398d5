"""Shared fixtures: arenas, clocks, small trees."""

import pytest

from repro.config import DRAM_SPEC, NVBM_SPEC
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.octree.tree import PointerOctree


@pytest.fixture(scope="session")
def repo_analysis():
    """The interprocedural pass over the real ``src/repro`` tree, computed
    once per session (~10 s): the dataflow verdict tests and the CLI golden
    snapshot read the same result."""
    from repro.analysis import analyze_repo

    return analyze_repo()


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def dram_arena(clock):
    return MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, capacity_octants=1 << 16)


@pytest.fixture
def nvbm_arena(clock):
    return MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=1 << 16)


@pytest.fixture
def quadtree(dram_arena):
    """An in-core quadtree rooted in DRAM."""
    return PointerOctree(dram_arena, dim=2)


@pytest.fixture
def octree3d(dram_arena):
    return PointerOctree(dram_arena, dim=3)
