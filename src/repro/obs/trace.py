"""Lightweight trace spans on the simulated clock.

A span is one timed region — a simulation phase, a persist point, one
``ship()`` run — with a name, labels, and ``start_ns``/``end_ns`` read from
the :class:`~repro.nvbm.clock.SimClock` the tracer is bound to.  Spans nest
(``parent_id``), so an exported trace reconstructs the call tree:

    step > persist > pm.persist

Like the metrics registry, the tracer never reads wall time: span durations
are *simulated* nanoseconds, so a trace is deterministic for a fixed seed
and directly comparable to the paper's per-routine breakdowns.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterator, List, Optional


@dataclass
class Span:
    """One timed region on the simulated clock."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: float
    end_ns: Optional[float] = None
    labels: Dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end_ns is None

    @property
    def duration_ns(self) -> float:
        if self.end_ns is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end_ns - self.start_ns

    def to_row(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": None if self.end_ns is None else self.duration_ns,
            "labels": dict(self.labels),
        }


class Tracer:
    """Records nested spans against one simulated clock."""

    def __init__(self, clock=None, keep: int = 100_000):
        self.clock = clock
        self.keep = keep
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 1
        self.dropped = 0

    def bind_clock(self, clock) -> None:
        self.clock = clock

    @contextmanager
    def span(self, name: str, **labels) -> Iterator[Span]:
        """Open a span for the ``with`` block; closes even on exceptions."""
        if self.clock is None:
            raise ValueError(
                "tracer has no SimClock bound; call bind_clock() first"
            )
        sp = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start_ns=self.clock.now_ns,
            labels=labels,
        )
        self._next_id += 1
        if len(self.spans) < self.keep:
            self.spans.append(sp)
        else:
            self.dropped += 1
        self._stack.append(sp.span_id)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end_ns = self.clock.now_ns

    # -- queries -------------------------------------------------------------

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    # -- export --------------------------------------------------------------

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(s.to_row(), sort_keys=True) for s in self.spans
        )

    def export_jsonl(self, fh: IO[str]) -> int:
        """Write one JSON object per span line; returns the span count."""
        out = self.to_jsonl()
        if out:
            fh.write(out + "\n")
        return len(self.spans)
