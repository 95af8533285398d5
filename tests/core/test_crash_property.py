"""Property: a crash at ANY site, at ANY hit count, is always recoverable.

The parametrised recovery tests pick specific sites; this hypothesis test
samples the (site, hit) space randomly, including hits that never fire.
Whatever happens, `pm_restore` must reproduce the last persisted state.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SimulatedCrash
from repro.octree import morton, soa
from tests.core.conftest import PMRig

SITES = [
    "cow.after_copy",
    "merge.octant",
    "merge.subtree_done",
    "evict.begin",
    "load.octant",
    "transform.mid",
    "persist.begin",
    "persist.before_flush",
    "persist.before_root_swap",
    "persist.after_root_swap",
]


def _signature(tree):
    return {loc: tree.get_payload(loc) for loc in tree.leaves()}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    site=st.sampled_from(SITES),
    hit=st.integers(1, 30),
    seed=st.integers(0, 100),
    use_transform=st.booleans(),
)
def test_any_crash_is_recoverable(site, hit, seed, use_transform):
    rig = PMRig(dram_octants=256, nvbm_octants=1 << 14)
    t = rig.tree
    for _ in range(2):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    if use_transform:
        t.register_feature(
            soa.per_octant(lambda loc, p: morton.level_of(loc, 2) >= 1))
    t.persist(transform=use_transform)
    persisted_sig = _signature(t)

    rig.injector.reset_hits()
    rig.injector.arm(site, at_hit=hit)
    committed = False
    try:
        # a busy step touching DRAM, NVBM, COW, eviction and persist paths
        for i, leaf in enumerate(sorted(t.leaves())[:6]):
            t.set_payload(leaf, (float(i), 0, 0, 0))
        t.refine(sorted(t.leaves())[seed % t.num_leaves()])
        t.persist(transform=use_transform)
        committed = True
    except SimulatedCrash as crash:
        committed = crash.point == "persist.after_root_swap"
        if committed:
            new_sig = None  # recovered tree is the new version; recompute

    rig.crash(seed=seed)
    t2 = rig.restore()
    if not committed:
        assert _signature(t2) == persisted_sig
    else:
        # the root swap happened: recovery sees the new version; it must at
        # least be self-consistent and contain the refined leaf's region
        t2.check_invariants()
    t2.gc()
    t2.check_invariants()
