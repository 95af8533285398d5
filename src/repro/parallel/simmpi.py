"""SPMD rank contexts and a simulated communicator.

A :class:`RankContext` bundles what one MPI rank owns: its id, its simulated
clock, and (filled in by :mod:`repro.parallel.cluster`) its memory arenas.
The :class:`SimCommunicator` implements the collectives the meshing driver
needs — barrier and allgather — moving Python payloads directly (one
process) while charging each endpoint's clock with the network model.

Synchronisation semantics: a collective acts as a barrier.  Every
participating clock is first advanced to the maximum ``now_ns`` (ranks wait
for the slowest), then charged the collective's cost.  This is what makes
"execution time = any rank's clock after the final barrier" equal the
makespan the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.errors import AllRanksDeadError, NetworkPartitionError
from repro.nvbm.clock import Category, SimClock
from repro.nvbm.failure import FailureInjector
from repro.parallel.network import Network


@dataclass
class RankContext:
    """Everything one simulated MPI rank owns."""

    rank: int
    clock: SimClock = field(default_factory=SimClock)
    injector: FailureInjector = field(default_factory=FailureInjector)
    #: filled by SimulatedCluster: "dram", "nvbm" arenas, storage devices...
    resources: Dict[str, Any] = field(default_factory=dict)
    node: int = 0
    alive: bool = True


class SimCommunicator:
    """MPI-flavoured collectives over in-process rank contexts."""

    def __init__(self, ranks: Sequence[RankContext], network: Network):
        if not ranks:
            raise ValueError("communicator needs at least one rank")
        self.ranks = list(ranks)
        self.network = network

    @property
    def size(self) -> int:
        return len(self.ranks)

    def _live(self) -> List[RankContext]:
        """Live participants; raises :class:`AllRanksDeadError` when none.

        Every collective (and :meth:`makespan_ns`) funnels through here, so
        a fully-dead communicator fails with a typed error carrying the
        dead-rank list instead of ``max() arg is an empty sequence``.
        """
        live = [r for r in self.ranks if r.alive]
        if not live:
            raise AllRanksDeadError([r.rank for r in self.ranks])
        return live

    def _check_partition(self, live: List[RankContext], now_ns: float) -> None:
        """Refuse a collective whose live ranks span a network partition."""
        plan = getattr(self.network, "plan", None)
        if plan is None or not plan.partitions:
            return
        groups = self.network.partition_groups(
            [r.rank for r in live], now_ns)
        if len(groups) > 1:
            raise NetworkPartitionError(groups, now_ns)

    # -- synchronisation ---------------------------------------------------------

    def barrier(self) -> float:
        """Advance every live rank to the slowest, charge barrier cost.

        Returns the synchronised time (ns).  Raises
        :class:`~repro.errors.NetworkPartitionError` when an active
        partition severs the live ranks — a barrier cannot complete if one
        side can never hear the other.
        """
        live = self._live()
        high = max(r.clock.now_ns for r in live)
        self._check_partition(live, high)
        cost = self.network.barrier_ns(len(live))
        for r in live:
            wait = high - r.clock.now_ns
            if wait > 0:
                r.clock.advance(wait, Category.COMM)
            r.clock.advance(cost, Category.COMM)
        return high + cost

    # -- collectives --------------------------------------------------------------

    def allgather(self, values: Sequence[Any], nbytes_each: int = 8) -> List[Any]:
        """Every rank contributes one value; all ranks see the full list."""
        live = self._live()
        if len(values) != len(live):
            raise ValueError("one value per live rank required")
        self.barrier()
        cost = self.network.collective_ns(nbytes_each * len(live), len(live))
        for r in live:
            r.clock.advance(cost, Category.COMM)
        return list(values)

    # -- time accounting -----------------------------------------------------

    def makespan_ns(self) -> float:
        """Current simulated time of the slowest live rank."""
        return max(r.clock.now_ns for r in self._live())

    def phase_breakdown(self) -> Dict[str, float]:
        """Max-over-ranks time per phase label (Fig 7/8b material)."""
        out: Dict[str, float] = {}
        for r in self._live():
            for phase, t in r.clock.by_phase.items():
                out[phase] = max(out.get(phase, 0.0), t)
        return out
