"""Lossy-interconnect model: seeded message faults and partition windows.

The base :class:`~repro.parallel.network.Network` is a pure cost model — a
message always arrives, it only costs time.  Resilient-system experiments
need the opposite assumption: *any* message a protocol sends can be lost,
duplicated, delayed, or severed by a partition.  :class:`FaultyNetwork`
wraps the cost model with a :class:`NetworkFaultPlan` that decides, from a
seeded RNG, the fate of every point-to-point send.

Determinism contract: a plan constructed with the same seed sees the same
sequence of fault decisions, so any chaos-harness failure replays exactly
from its printed seed.

Faults are *per link* (``(src, dst)`` ordered pair): a flaky host-to-peer
link does not imply a flaky ack path.  Partition windows are explicit
``[start_ns, end_ns)`` intervals splitting ranks into groups; messages
between groups are severed, and collectives over a communicator whose live
ranks span two groups raise
:class:`~repro.errors.NetworkPartitionError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.parallel.network import Network

#: Wire size of a protocol acknowledgement (seq + root handle + checksum).
ACK_BYTES = 24

#: Wire size of a heartbeat datagram.
HEARTBEAT_BYTES = 16


@dataclass(frozen=True)
class LinkFaults:
    """Per-link fault probabilities (independent Bernoulli per message)."""

    drop: float = 0.0       #: message silently lost
    duplicate: float = 0.0  #: message delivered twice (retransmit ghost)
    delay: float = 0.0      #: message held up by ``delay_ns`` extra
    delay_ns: float = 0.0   #: extra latency applied when delayed

    def __post_init__(self):
        for name in ("drop", "duplicate", "delay"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0,1]: {p}")


@dataclass
class PartitionWindow:
    """Ranks in different ``groups`` cannot exchange messages during the
    window.  Ranks in *no* group are unrestricted (they model staging /
    scheduler nodes outside the partitioned fabric).  ``end_ns`` may be
    ``inf`` for a partition healed later via :meth:`heal`."""

    start_ns: float
    end_ns: float
    groups: Tuple[frozenset, ...]

    def __post_init__(self):
        self.groups = tuple(frozenset(g) for g in self.groups)

    def active(self, now_ns: float) -> bool:
        return self.start_ns <= now_ns < self.end_ns

    def severs(self, a: int, b: int, now_ns: float) -> bool:
        if not self.active(now_ns):
            return False
        ga = gb = None
        for i, g in enumerate(self.groups):
            if a in g:
                ga = i
            if b in g:
                gb = i
        return ga is not None and gb is not None and ga != gb

    def heal(self, now_ns: float) -> None:
        """Close the window at ``now_ns`` (idempotent)."""
        self.end_ns = min(self.end_ns, now_ns)


class NetworkFaultPlan:
    """Seeded description of what the interconnect does to messages.

    ``default`` applies to every link without an explicit override in
    ``links`` (keyed by the ordered ``(src, dst)`` pair).  ``partitions``
    is a list of :class:`PartitionWindow`; more can be added while the
    simulation runs (:meth:`start_partition`) which is how the chaos
    harness opens and heals partitions at scheduled steps.
    """

    def __init__(self, seed: int = 0,
                 default: Optional[LinkFaults] = None,
                 links: Optional[Dict[Tuple[int, int], LinkFaults]] = None,
                 partitions: Sequence[PartitionWindow] = ()):
        self.seed = seed
        self.default = default or LinkFaults()
        self.links = dict(links or {})
        self.partitions: List[PartitionWindow] = list(partitions)
        self._rng = random.Random(seed)

    def faults_for(self, src: int, dst: int) -> LinkFaults:
        return self.links.get((src, dst), self.default)

    def severed(self, src: int, dst: int, now_ns: float) -> bool:
        if src == dst:
            return False
        return any(w.severs(src, dst, now_ns) for w in self.partitions)

    def start_partition(self, groups: Iterable[Iterable[int]],
                        now_ns: float) -> PartitionWindow:
        """Open a partition at ``now_ns``; heal it via the returned window."""
        window = PartitionWindow(
            start_ns=now_ns, end_ns=float("inf"),
            groups=tuple(frozenset(g) for g in groups),
        )
        self.partitions.append(window)
        return window

    def roll(self) -> float:
        """One fault decision from the seeded stream (in [0, 1))."""
        return self._rng.random()


@dataclass
class Delivery:
    """Fate of one point-to-point send."""

    delivered: bool
    copies: int         #: 0 when lost, 2 when duplicated
    cost_ns: float      #: network time charged to the sender
    reason: str = ""    #: "" | "drop" | "partition"


@dataclass
class FaultStats:
    sends: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    severed: int = 0


class FaultyNetwork:
    """A :class:`Network` whose messages can fail.

    Exposes the full cost-model interface (``p2p_ns`` etc. delegate to the
    wrapped network, so a :class:`~repro.parallel.simmpi.SimCommunicator`
    accepts it in place of a plain :class:`Network`) plus :meth:`send`,
    the fault-aware path protocols use for messages that may be lost.
    """

    def __init__(self, base: Network, plan: NetworkFaultPlan):
        self.base = base
        self.plan = plan
        self.stats = FaultStats()

    # -- cost-model delegation (collectives stay fault-free unless the
    # communicator's partition check rejects them first) -------------------

    @property
    def spec(self):
        return self.base.spec

    @property
    def messages(self) -> int:
        return self.base.messages

    @property
    def bytes_moved(self) -> int:
        return self.base.bytes_moved

    def p2p_ns(self, nbytes: int) -> float:
        return self.base.p2p_ns(nbytes)

    def collective_ns(self, nbytes: int, nranks: int) -> float:
        return self.base.collective_ns(nbytes, nranks)

    def barrier_ns(self, nranks: int) -> float:
        return self.base.barrier_ns(nranks)

    # -- fault-aware point-to-point ----------------------------------------

    def send(self, src: int, dst: int, nbytes: int,
             now_ns: float = 0.0) -> Delivery:
        """Decide the fate of one message from ``src`` to ``dst``.

        The sender always pays the wire cost (it cannot know the message
        was lost — that is what ack timeouts are for); a severed link
        charges only the injection latency since nothing crosses the
        partition.
        """
        self.stats.sends += 1
        if self.plan.severed(src, dst, now_ns):
            self.stats.severed += 1
            return Delivery(delivered=False, copies=0,
                            cost_ns=self.base.spec.transfer_ns(1),
                            reason="partition")
        cost = self.base.p2p_ns(nbytes)
        faults = self.plan.faults_for(src, dst)
        if self.plan.roll() < faults.drop:
            self.stats.dropped += 1
            return Delivery(delivered=False, copies=0, cost_ns=cost,
                            reason="drop")
        copies = 1
        if faults.duplicate and self.plan.roll() < faults.duplicate:
            copies = 2
            self.stats.duplicated += 1
        if faults.delay and self.plan.roll() < faults.delay:
            cost += faults.delay_ns
            self.stats.delayed += 1
        return Delivery(delivered=True, copies=copies, cost_ns=cost)

    def partition_groups(self, ranks: Sequence[int],
                         now_ns: float) -> List[List[int]]:
        """Connected components of ``ranks`` under the active partitions.

        One component means the set can run a collective; more than one
        means the collective must raise.
        """
        remaining = list(ranks)
        groups: List[List[int]] = []
        while remaining:
            group = [remaining.pop(0)]
            grew = True
            while grew:  # fixpoint: connectivity is transitive via members
                grew = False
                for r in list(remaining):
                    if any(not self.plan.severed(r, m, now_ns)
                           for m in group):
                        group.append(r)
                        remaining.remove(r)
                        grew = True
            groups.append(sorted(group))
        return groups
