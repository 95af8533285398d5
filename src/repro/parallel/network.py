"""Interconnect cost model.

Point-to-point: ``t = latency + bytes / bandwidth`` (the classic postal /
Hockney model).  Collectives over P ranks pay a ``ceil(log2 P)``-deep
combining tree of such messages, which is how MPI implementations behave at
these message sizes on Gemini-class fabrics.
"""

from __future__ import annotations

import math

from repro.config import NetworkSpec


class Network:
    """Evaluates message costs; owns no state beyond counters."""

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.messages = 0
        self.bytes_moved = 0

    def p2p_ns(self, nbytes: int) -> float:
        """Cost of one point-to-point message."""
        self.messages += 1
        self.bytes_moved += nbytes
        return self.spec.transfer_ns(nbytes)

    def collective_ns(self, nbytes: int, nranks: int) -> float:
        """Cost of a tree-based collective carrying ``nbytes`` per stage."""
        if nranks <= 1:
            return 0.0
        depth = math.ceil(math.log2(nranks))
        self.messages += depth
        self.bytes_moved += depth * nbytes
        return depth * self.spec.transfer_ns(nbytes)

    def barrier_ns(self, nranks: int) -> float:
        """Cost of an empty barrier."""
        return self.collective_ns(8, nranks)
