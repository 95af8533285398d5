"""Simulated time.

All performance numbers the benchmarks report are *simulated* nanoseconds
accumulated on a :class:`SimClock`, broken down by :class:`Category` so the
harness can reproduce the paper's per-routine breakdowns (Figs 7 and 8b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator
from contextlib import contextmanager


class Category(str, Enum):
    """What a slice of simulated time was spent on."""

    MEM_DRAM = "mem_dram"
    MEM_NVBM = "mem_nvbm"
    COMPUTE = "compute"
    COMM = "comm"
    IO = "io"


@dataclass
class SimClock:
    """Accumulates simulated nanoseconds, split by category and by *phase*.

    A phase is an application-level label (``construct``, ``refine``,
    ``balance``, ``partition``, ``solve``, ``persist`` ...) pushed with
    :meth:`phase`; categories are orthogonal (where the time physically
    went).  Both tables are needed: Fig 7/8b break time down by routine,
    Fig 11 reasons about NVBM time specifically.
    """

    now_ns: float = 0.0
    by_category: Dict[str, float] = field(default_factory=dict)
    by_phase: Dict[str, float] = field(default_factory=dict)
    _phase_stack: list = field(default_factory=list)

    def advance(self, ns: float, category: Category = Category.COMPUTE) -> None:
        """Move simulated time forward by ``ns`` nanoseconds."""
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        self.now_ns += ns
        # ``_value_`` is the plain attribute behind the ``value`` descriptor
        key = category._value_
        self.by_category[key] = self.by_category.get(key, 0.0) + ns
        if self._phase_stack:
            ph = self._phase_stack[-1]
            self.by_phase[ph] = self.by_phase.get(ph, 0.0) + ns

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all time advanced inside the block to phase ``name``."""
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()

    def category_ns(self, category: Category) -> float:
        return self.by_category.get(category.value, 0.0)

    def phase_ns(self, name: str) -> float:
        return self.by_phase.get(name, 0.0)

    @property
    def now_s(self) -> float:
        return self.now_ns * 1e-9

    def snapshot(self) -> "ClockSnapshot":
        """Capture current totals; subtract two snapshots to time a region."""
        return ClockSnapshot(
            now_ns=self.now_ns,
            by_category=dict(self.by_category),
            by_phase=dict(self.by_phase),
        )

    def reset(self) -> None:
        self.now_ns = 0.0
        self.by_category.clear()
        self.by_phase.clear()


@dataclass(frozen=True)
class ClockSnapshot:
    """Immutable copy of a clock's totals at one instant."""

    now_ns: float
    by_category: Dict[str, float]
    by_phase: Dict[str, float]

    def elapsed_since(self, earlier: "ClockSnapshot") -> float:
        return self.now_ns - earlier.now_ns
