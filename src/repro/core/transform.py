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
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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

    @property
    def transformed(self) -> bool:
        return bool(self.loaded or self.evicted)


def subtree_level(pmo: "PMOctree") -> int:
    """Eq. (1): the level whose subtrees are about C0-sized."""
    depth = pmo.tree_depth()
    fanout = morton.fanout(pmo.dim)
    size_dram = max(2, pmo.config.dram_capacity_octants)
    l_sub = depth - int(math.floor(math.log(size_dram, fanout)))
    return max(0, min(depth, l_sub))


def candidate_roots(pmo: "PMOctree", l_sub: int) -> List[int]:
    """Existing octants at level ``l_sub`` (the transformation candidates)."""
    if l_sub == 0:
        return [morton.ROOT_LOC]
    return [
        loc for loc in pmo._index
        if morton.level_of(loc, pmo.dim) == l_sub
    ]


def sample_frequency(pmo: "PMOctree", root_loc: int,
                     rng: np.random.Generator) -> Tuple[float, int]:
    """Feature-directed access-frequency estimate for one subtree.

    Samples ``N_sample = min(n_sample_max, size)`` octants with one
    gather, pre-executes every registered feature function over the batch,
    and returns ``(total hits, subtree size)``.
    """
    locs = subtree_locs(pmo, root_loc)
    size = len(locs)
    if size == 0 or not pmo.features:
        return 0.0, size
    n = min(pmo.config.n_sample_max, size)
    picks = rng.choice(size, size=n, replace=False)
    batch = soa.gather(pmo, [locs[i] for i in picks.tolist()])
    hot = np.zeros(n, dtype=bool)  # "of interest" once any feature fires
    for fn in pmo.features:
        hot |= np.asarray(fn(batch), dtype=bool)
    hits = int(np.count_nonzero(hot))
    # normalise to the whole subtree so different sample sizes compare
    return hits * (size / n), size


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
    freqs: Dict[int, float] = {}
    sizes: Dict[int, int] = {}
    with clock.phase("sample"):
        for root in candidates:
            f, s = sample_frequency(pmo, root, rng)
            freqs[root] = f
            sizes[root] = s
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
                    # the bottleneck — the autotuner's grow signal
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
