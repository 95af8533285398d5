"""C0 auto-tuner (§6 future work) behaviour."""


from repro.config import SolverConfig
from repro.core.autotune import C0AutoTuner, autotuned_persistence
from repro.octree import soa
from repro.solver.simulation import DropletSimulation
from tests.core.conftest import PMRig


def _persisted_rig(dram_octants=512, budget=64, levels=3):
    rig = PMRig(dram_octants=dram_octants, dram_capacity_octants=budget)
    t = rig.tree
    for _ in range(levels):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)
    return rig


def test_grows_under_eviction_pressure():
    rig = _persisted_rig(budget=16)
    t = rig.tree
    tuner = C0AutoTuner(min_budget=8, grow_step=32)
    # force eviction churn: load + refine beyond the tiny budget
    t.register_feature(soa.per_octant(lambda loc, p: True))
    from repro.core.transform import detect_and_transform

    detect_and_transform(t)
    before = t.config.dram_capacity_octants
    # refine in DRAM until evictions fire
    for leaf in sorted(t.leaves())[:8]:
        if t.is_leaf(leaf):
            t.refine(leaf)
    assert t.stats.evictions > 0 or rig.dram.used > 0
    t.stats.evictions += 1  # ensure the delta is visible to the tuner
    d = tuner.observe(t)
    assert d.action == "grow"
    assert t.config.dram_capacity_octants > before


def test_shrinks_when_underutilised():
    rig = _persisted_rig(budget=400)
    t = rig.tree
    tuner = C0AutoTuner(min_budget=8, low_watermark=0.5, grow_step=8)
    # after persist(transform=False) C0 is empty: budget 400, usage ~0
    d = tuner.observe(t)
    assert d.action == "shrink"
    assert t.config.dram_capacity_octants < 400
    assert t.config.dram_capacity_octants >= tuner.min_budget


def test_holds_in_steady_state():
    rig = PMRig(dram_octants=512, dram_capacity_octants=64)
    t = rig.tree
    for _ in range(2):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    # keep C0 resident so it is genuinely *using* its budget (21 of 64)
    t.persist(transform=False, keep_resident=True)
    tuner = C0AutoTuner(min_budget=8, low_watermark=0.25)
    d = tuner.observe(t)
    assert d.action == "hold"
    assert t.config.dram_capacity_octants == 64


def test_budget_clamped_to_arena():
    rig = _persisted_rig(dram_octants=128, budget=120)
    t = rig.tree
    tuner = C0AutoTuner(min_budget=8, grow_step=1000, max_budget=1 << 20)
    t.stats.evictions += 1
    tuner.observe(t)
    assert t.config.dram_capacity_octants <= 128  # never beyond the arena


def test_history_recorded():
    rig = _persisted_rig()
    tuner = C0AutoTuner()
    for _ in range(3):
        tuner.observe(rig.tree)
    assert len(tuner.history) == 3
    assert tuner.current_budget == tuner.history[-1].budget_after
    assert [d.step for d in tuner.history] == [1, 2, 3]


def test_autotuned_persistence_hook_runs_end_to_end():
    rig = PMRig(dram_octants=1 << 12, dram_capacity_octants=64)
    tuner = C0AutoTuner(min_budget=32, grow_step=64)
    solver = SolverConfig(dim=2, min_level=2, max_level=5, dt=0.01)
    sim = DropletSimulation(
        rig.tree, solver, clock=rig.clock,
        persistence=autotuned_persistence(tuner),
    )
    sim.run(10)
    assert len(tuner.history) == 10
    rig.tree.check_invariants()
    # budgets stayed in band
    for d in tuner.history:
        assert tuner.min_budget <= d.budget_after <= rig.dram.capacity


def test_tuner_beats_fixed_small_budget():
    """Starting from a too-small budget, the tuner self-corrects: fewer
    NVBM writes and less simulated time than staying fixed."""

    def run(tune: bool):
        rig = PMRig(dram_octants=1 << 12, dram_capacity_octants=48)
        tuner = C0AutoTuner(min_budget=48, grow_step=128)
        solver = SolverConfig(dim=2, min_level=2, max_level=5, dt=0.01)
        persistence = (
            autotuned_persistence(tuner)
            if tune
            else (lambda s: s.tree.persist(keep_resident=True))
        )
        sim = DropletSimulation(rig.tree, solver, clock=rig.clock,
                                persistence=persistence)
        sim.run(12)
        return rig.nvbm.device.stats.writes, rig.clock.now_ns

    tuned_writes, tuned_time = run(tune=True)
    fixed_writes, fixed_time = run(tune=False)
    assert tuned_writes < fixed_writes
    assert tuned_time < fixed_time


def _baselined(budget=64, **tuner_kwargs):
    """A persisted rig plus a tuner that has already taken one observation
    (so the next deltas are exactly what the test injects)."""
    rig = _persisted_rig(budget=budget)
    tuner_kwargs.setdefault("min_budget", budget)
    tuner = C0AutoTuner(**tuner_kwargs)
    tuner.observe(rig.tree)
    return rig, tuner


def test_eviction_churn_without_write_pressure_holds():
    """The fixed gate: eviction deltas alone no longer justify growth —
    the churn must have cost real NVBM writes (the bug left
    ``nvbm_writes_delta`` computed but unused)."""
    rig, tuner = _baselined()
    t = rig.tree
    before = t.config.dram_capacity_octants
    t.stats.evictions += 1  # churn, but zero NVBM writes since baseline
    d = tuner.observe(t)
    assert d.action == "hold"
    assert d.evictions_delta == 1 and d.nvbm_writes_delta == 0
    assert t.config.dram_capacity_octants == before


def test_grows_on_eviction_with_write_pressure():
    rig, tuner = _baselined()
    t = rig.tree
    before = t.config.dram_capacity_octants
    t.stats.evictions += 1
    t.nvbm.device.stats.writes += tuner.write_pressure  # the churn's cost
    d = tuner.observe(t)
    assert d.action == "grow"
    assert d.nvbm_writes_delta == tuner.write_pressure
    assert t.config.dram_capacity_octants > before


def test_grows_on_hot_spill_alone():
    """A transformation that could not fit a hot subtree is a budget
    bottleneck even when no eviction merge fired."""
    rig, tuner = _baselined()
    t = rig.tree
    before = t.config.dram_capacity_octants
    t.stats.hot_spills += 1
    d = tuner.observe(t)
    assert d.action == "grow"
    assert d.hot_spills_delta == 1 and d.evictions_delta == 0
    assert t.config.dram_capacity_octants > before


def test_transform_reports_hot_spills():
    """End to end: a hot working set larger than the budget makes
    ``detect_and_transform`` record a spill, which the tuner acts on."""
    from repro.core.transform import detect_and_transform

    rig = _persisted_rig(budget=16)
    t = rig.tree
    t.register_feature(soa.per_octant(lambda loc, p: True))  # all hot
    detect_and_transform(t)
    assert t.stats.hot_spills > 0
