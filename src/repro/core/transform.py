"""Dynamic layout transformation with feature-directed sampling (§3.3).

History is a bad predictor under AMR — the interesting region moves between
steps — so PM-octree *pre-executes* application feature functions (the very
refine/coarsen/solve predicates the simulation already has) on a sample of
each candidate subtree to estimate which subtrees the next step will touch.

Candidate subtrees sit at level ``L_sub`` from eq. (1):

    L_sub = Depth_octree - floor(log_Fanout(Size_DRAM))

so a candidate is about the size C0 can hold.  The hottest NVBM candidate
replaces the coldest DRAM one whenever ``Ratio_access > T_transform``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nvbm import sites
from repro.nvbm.pointers import is_dram
from repro.octree import morton, soa

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pmoctree import PMOctree

from repro.core.merge import evict_subtree, load_subtree, subtree_locs


@dataclass
class TransformationResult:
    """What one detection/transformation pass did."""

    l_sub: int
    candidate_freqs: Dict[int, float] = field(default_factory=dict)
    loaded: List[int] = field(default_factory=list)
    evicted: List[int] = field(default_factory=list)


def subtree_level(pmo: "PMOctree") -> int:
    """Eq. (1): the level whose subtrees are about C0-sized."""
    depth = pmo.tree_depth()
    fanout = morton.fanout(pmo.dim)
    size_dram = max(2, pmo.config.dram_capacity_octants)
    l_sub = depth - int(math.floor(math.log(size_dram, fanout)))
    return max(0, min(depth, l_sub))


def candidate_roots(pmo: "PMOctree", l_sub: int) -> List[int]:
    """Existing octants at level ``l_sub`` (the transformation candidates),
    in ``_index`` order — the order the sampler draws for them in."""
    if l_sub == 0:
        return [morton.ROOT_LOC]
    locs = np.fromiter(pmo._index, np.int64, len(pmo._index))
    return locs[soa.levels_of_codes(locs, pmo.dim) == l_sub].tolist()


def sample_frequencies(pmo: "PMOctree", roots: Sequence[int],
                       rng: np.random.Generator) -> List[Tuple[float, int]]:
    """Feature-directed access-frequency estimates: ``(total hits, subtree
    size)`` for each subtree in ``roots``.

    Per subtree, in order, ``N_sample = min(n_sample_max, size)`` octants
    are drawn; then every pick of every subtree is read with one gather and
    every registered feature function pre-executed once over that batch (a
    feature is elementwise, so this is what the per-subtree passes compute).
    """
    sizes: List[int] = []
    counts: List[int] = []
    picked: List[int] = []
    for root in roots:
        locs = subtree_locs(pmo, root)
        size = len(locs)
        n = min(pmo.config.n_sample_max, size) if pmo.features else 0
        if n:
            picks = rng.choice(size, size=n, replace=False)
            picked.extend(locs[i] for i in picks.tolist())
        sizes.append(size)
        counts.append(n)
    hits = [0] * len(sizes)
    if picked:
        batch = soa.gather(pmo, picked)
        # an octant is "of interest" once any feature fires
        hot = np.zeros(len(picked), dtype=bool)
        for fn in pmo.features:
            hot |= np.asarray(fn(batch), dtype=bool)
        owner = np.repeat(np.arange(len(sizes)), counts)
        hits = np.bincount(owner[hot], minlength=len(sizes)).tolist()
    # normalise to the whole subtree so different sample sizes compare
    return [(h * (size / n) if n else 0.0, size)
            for h, size, n in zip(hits, sizes, counts)]


def sample_frequency(pmo: "PMOctree", root_loc: int,
                     rng: np.random.Generator) -> Tuple[float, int]:
    """:func:`sample_frequencies` of one subtree."""
    return sample_frequencies(pmo, [root_loc], rng)[0]


def detect_and_transform(pmo: "PMOctree",
                         rng: Optional[np.random.Generator] = None
                         ) -> TransformationResult:
    """Run transformation detection and re-layout PM-octree if warranted.

    Called after merges only (§3.3).  Greedy policy: repeatedly load the
    hottest NVBM candidate, evicting the coldest C0 subtree when DRAM is
    short, while ``Ratio_access`` clears ``T_transform``.
    """
    rng = rng or np.random.default_rng(pmo.config.seed + pmo.epoch)
    l_sub = subtree_level(pmo)
    result = TransformationResult(l_sub=l_sub)
    candidates = candidate_roots(pmo, l_sub)
    if not candidates:
        return result

    # Sampling cost is bounded (min(100, size) octants per candidate) and
    # does NOT grow with the mesh, so it gets its own clock phase — the
    # scaling harness must not multiply it by the element-scale factor.
    clock = pmo.nvbm.device.clock
    with clock.phase("sample"):
        samples = sample_frequencies(pmo, candidates, rng)
    freqs = {root: f for root, (f, _) in zip(candidates, samples)}
    sizes = {root: s for root, (_, s) in zip(candidates, samples)}
    result.candidate_freqs = freqs

    # Greedy re-layout.  While free DRAM can hold a hot subtree, loading is
    # unconditional (more of V_i in DRAM is always better).  Once DRAM is
    # full, a swap happens only when Ratio_access = Freq^NVBM / Freq^DRAM
    # clears T_transform — the §3.3 detection condition.
    eps = 1e-12
    with clock.phase("transform"):
        while True:
            in_dram = {r for r in freqs if is_dram(pmo._index[r])}
            in_nvbm = [r for r in freqs if r not in in_dram]
            if not in_nvbm:
                break
            hot = max(in_nvbm, key=lambda r: freqs[r])
            if freqs[hot] <= 0:
                break
            free = pmo.c0_free
            if free < sizes[hot]:
                # must displace residents: only when clearly hotter
                cold_pool = sorted(in_dram, key=lambda r: freqs[r])
                while free < sizes[hot] and cold_pool:
                    victim = cold_pool.pop(0)
                    ratio = freqs[hot] / max(freqs[victim], eps)
                    if ratio <= pmo.config.t_transform:
                        break  # victim is not clearly colder
                    evict_subtree(pmo, victim)
                    pmo.stats.evictions += 1
                    pmo.stats.transform_evicted_subtrees += 1
                    result.evicted.append(victim)
                    free = pmo.c0_free
                if free < sizes[hot]:
                    # a hot subtree stays spilled to NVBM: the C0 budget is
                    # the bottleneck
                    pmo.stats.hot_spills += 1
                    break  # cannot make room without an unjustified swap
            pmo.injector.site(sites.TRANSFORM_MID)
            if not load_subtree(pmo, hot):
                pmo.stats.hot_spills += 1
                break  # still does not fit (capacity fragmentation)
            result.loaded.append(hot)
            pmo.stats.transformations += 1
            pmo.stats.transform_loaded_subtrees += 1
    return result
