"""Bottom-up completion of linear octrees (Sundar et al.'s construction)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ConsistencyError
from repro.octree import morton
from tests.octree.bottom_up import complete, fill_interval, is_ancestor


def test_fill_whole_domain_is_root():
    # level 0: the whole span collapses to the root octant
    assert fill_interval(0, 16, 2, 2) == [morton.ROOT_LOC]


def test_fill_empty_interval():
    assert fill_interval(5, 5, 2, 3) == []


def test_fill_unaligned_interval():
    # [1, 4) at max_level 2 (span 16): three level-2 cells? positions 1,2,3
    out = fill_interval(1, 4, 2, 2)
    # position 1 aligned only to 1 -> level-2 cell; [2,4) aligned to 2? 2 %
    # 4 != 0 at k=1 width=4... width at k=1 is 4, 2%4!=0 -> level-2 cells
    assert len(out) == 3
    assert all(morton.level_of(leaf, 2) == 2 for leaf in out)


def test_fill_aligned_block_coarsens():
    # [4, 8) at max_level 2 is exactly one level-1 quadrant
    out = fill_interval(4, 8, 2, 2)
    assert len(out) == 1
    assert morton.level_of(out[0], 2) == 1


def test_complete_empty_seed_set_is_root():
    lin = complete(2, [])
    assert list(lin) == [morton.ROOT_LOC]
    lin.validate_complete()


def test_complete_single_deep_seed():
    seed = morton.loc_from_coords(3, (5, 2), 2)
    lin = complete(2, [seed])
    lin.validate_complete()
    assert lin.contains(seed)
    # minimal: only 3 siblings per ancestor level beyond the seed
    assert len(lin) == 1 + 3 * 3


def test_complete_two_seeds():
    a = morton.loc_from_coords(2, (0, 0), 2)
    b = morton.loc_from_coords(2, (3, 3), 2)
    lin = complete(2, [a, b])
    lin.validate_complete()
    assert lin.contains(a) and lin.contains(b)


def test_complete_rejects_overlapping_seeds():
    parent = morton.loc_from_coords(1, (0, 0), 2)
    child = morton.child_of(parent, 2, 0)
    with pytest.raises(ConsistencyError):
        complete(2, [parent, child])


def test_complete_3d():
    seed = morton.loc_from_coords(2, (1, 2, 3), 3)
    lin = complete(3, [seed])
    lin.validate_complete()
    assert lin.contains(seed)
    assert len(lin) == 1 + 7 * 2  # 7 siblings per ancestor level


def _no_full_filler_sibling_groups(lin, seeds, dim):
    present = set(int(leaf) for leaf in lin.locs)
    seeds = set(seeds)
    for loc in present:
        if loc == morton.ROOT_LOC:
            continue
        parent = morton.parent_of(loc, dim)
        siblings = morton.children_of(parent, dim)
        if all(s in present for s in siblings):
            # a full sibling group is only allowed if it contains a seed
            # (otherwise the construction should have emitted the parent)
            assert any(s in seeds for s in siblings), (
                f"non-minimal: full filler sibling group under {parent:#x}"
            )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    dim=st.sampled_from([2, 3]),
    data=st.data(),
)
def test_complete_properties(dim, data):
    """Completion tiles the domain, keeps all seeds, and is minimal."""
    max_level = 4 if dim == 2 else 3
    n_seeds = data.draw(st.integers(0, 6))
    seeds = set()
    for _ in range(n_seeds):
        level = data.draw(st.integers(1, max_level))
        coords = tuple(
            data.draw(st.integers(0, (1 << level) - 1)) for _ in range(dim)
        )
        cand = morton.loc_from_coords(level, coords, dim)
        # keep the seed set overlap-free
        ok = all(
            cand != s
            and not is_ancestor(cand, s, dim)
            and not is_ancestor(s, cand, dim)
            for s in seeds
        )
        if ok:
            seeds.add(cand)
    lin = complete(dim, seeds, max_level=max_level)
    lin.validate_complete()
    for s in seeds:
        assert lin.contains(s)
    _no_full_filler_sibling_groups(lin, seeds, dim)
