"""Conservation: obs counters vs the analysis tracker's independent totals.

The :class:`~repro.analysis.tracker.OrderingTracker` hooks the same arenas
through a *different* interface (the ``tracer`` callback) and keeps its own
store/flush tallies.  Running both observers over one workload and requiring
their totals to be equal is a strong cross-check: neither layer can be
silently dropping or double-counting events without the other noticing.
"""

import pytest

from repro.analysis import install_tracker
from repro.config import PMOctreeConfig, SolverConfig
from repro.core import pm_create
from repro.obs import Observability, observe_rig
from repro.solver.simulation import DropletSimulation


@pytest.fixture
def observed_run(clock, dram_arena, nvbm_arena):
    # both observers attach BEFORE the tree exists so neither misses the
    # construction traffic (root record + initial root-slot publishes)
    obs = Observability(clock)
    observe_rig(obs, arenas=(dram_arena, nvbm_arena))
    tracker = install_tracker(dram_arena, nvbm_arena, strict=False)
    tree = pm_create(dram_arena, nvbm_arena, dim=2,
                     config=PMOctreeConfig(dram_capacity_octants=96,
                                           seed=5))
    observe_rig(obs, tree=tree)
    solver = SolverConfig(dim=2, min_level=2, max_level=4, dt=0.01)

    def persistence(sim_):
        sim_.tree.persist()
        sim_.tree.gc()

    DropletSimulation(tree, solver, clock=clock,
                      persistence=persistence).run(6)
    return obs, tracker, dram_arena, nvbm_arena


def test_store_totals_agree(observed_run):
    obs, tracker, dram, nvbm = observed_run
    assert tracker.counts["stores"] > 0
    assert obs.metrics.total("arena.stores") == tracker.counts["stores"]


def test_flush_totals_agree(observed_run):
    obs, tracker, dram, nvbm = observed_run
    assert tracker.counts["flushes"] > 0
    assert obs.metrics.total("arena.flush_calls") == tracker.counts["flushes"]


def test_free_totals_agree(observed_run):
    obs, tracker, dram, nvbm = observed_run
    assert obs.metrics.total("arena.frees") == tracker.counts["frees"]


def test_device_write_counter_decomposes(observed_run):
    """Raw device writes = record stores + the 8-byte root-slot publishes.

    The tracker never sees root-slot device traffic (it observes publishes
    through a separate hook), so the device-level counter must exceed the
    record-level one by exactly the publish count on the NVBM arena.
    """
    obs, tracker, dram, nvbm = observed_run
    nvbm_stores = obs.metrics.get("arena.stores", arena=nvbm.name).value
    nvbm_writes = obs.metrics.get("device.writes", device=nvbm.name).value
    assert nvbm_writes - nvbm_stores == tracker.counts["publishes"]


def test_bytes_written_match_device_stats(observed_run):
    obs, tracker, dram, nvbm = observed_run
    for arena in (dram, nvbm):
        assert obs.metrics.get("device.bytes_written",
                               device=arena.name).value \
            == arena.device.stats.bytes_written
