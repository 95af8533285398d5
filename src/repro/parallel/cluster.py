"""Cluster assembly: rank contexts with per-node memory arenas.

Maps a :class:`~repro.config.ClusterSpec` (Titan, Kamiak) onto simulated
ranks.  Capacities are expressed in *octant records*: the experiment harness
translates the paper's GB figures into record counts through its element
scale factor, so the DRAM-pressure behaviours (C0 eviction merging, Fig 10)
happen at simulator-affordable sizes with the same ratios.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import ClusterSpec, TITAN
from repro.nvbm.arena import MemoryArena
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.parallel.faults import FaultyNetwork, NetworkFaultPlan
from repro.parallel.network import Network
from repro.parallel.simmpi import RankContext, SimCommunicator


class SimulatedCluster:
    """P ranks placed round-robin-block onto nodes of a machine spec.

    With ``fault_plan`` the interconnect becomes a :class:`FaultyNetwork`:
    protocol messages can be dropped/duplicated/delayed per the plan and
    collectives refuse to run across an active partition.
    """

    def __init__(self, nranks: int, spec: ClusterSpec = TITAN,
                 dram_octants_per_rank: int = 1 << 14,
                 nvbm_octants_per_rank: int = 1 << 18,
                 fault_plan: Optional[NetworkFaultPlan] = None):
        if nranks <= 0:
            raise ValueError("need at least one rank")
        self.spec = spec
        self.network = Network(spec.network)
        if fault_plan is not None:
            self.network = FaultyNetwork(self.network, fault_plan)
        self.ranks: List[RankContext] = []
        for r in range(nranks):
            ctx = RankContext(rank=r, node=r // spec.cores_per_node)
            ctx.resources["dram"] = MemoryArena(
                ARENA_DRAM, spec.dram, ctx.clock, dram_octants_per_rank,
                name=f"dram[{r}]",
            )
            ctx.resources["nvbm"] = MemoryArena(
                ARENA_NVBM, spec.nvbm, ctx.clock, nvbm_octants_per_rank,
                name=f"nvbm[{r}]",
            )
            self.ranks.append(ctx)
        self.comm = SimCommunicator(self.ranks, self.network)

    @property
    def nranks(self) -> int:
        return len(self.ranks)

    def ranks_on_node(self, node: int) -> List[RankContext]:
        return [r for r in self.ranks if r.node == node]

    def kill_node(self, node: int) -> List[int]:
        """Power-fail every rank on a node (DRAM lost, NVBM cache torn).

        Returns the ids of the *newly* killed ranks.  Their NVBM arenas
        keep their backing stores — that is the whole point of NVBM — but
        anything un-flushed is dropped/torn.  Killing a node whose ranks
        are already dead is a no-op (a dead node cannot lose power twice):
        the already-torn arenas are left untouched.
        """
        import numpy as np

        killed = []
        for ctx in self.ranks_on_node(node):
            if not ctx.alive:
                continue
            ctx.resources["dram"].crash()
            ctx.resources["nvbm"].crash(np.random.default_rng(ctx.rank))
            ctx.alive = False
            killed.append(ctx.rank)
        return killed

    def revive_rank(self, rank: int, node: Optional[int] = None) -> RankContext:
        """Bring a rank back (same node, or migrated to a replacement node)."""
        ctx = self.ranks[rank]
        ctx.alive = True
        if node is not None:
            ctx.node = node
        return ctx
