"""Unified observability: metrics + trace spans on the simulated clock.

One :class:`Observability` bundles a :class:`~repro.obs.metrics.
MetricsRegistry` and a :class:`~repro.obs.trace.Tracer` bound to the same
:class:`~repro.nvbm.clock.SimClock`.  Attach it to a rig with the helpers
in :mod:`repro.obs.instrument` and every layer starts reporting:

* ``nvbm``: per-device read/write/byte counters, flush counts, wear
* ``core``: COW copies, in-place updates, C0<->C1 migrations, GC, persists
* ``replication``: ships, retries, resyncs, lost acks/deltas, wait time
* ``parallel``: per-rank per-phase timers
* ``solver``: step/refine/balance/solve/persist spans

Everything is timestamped on simulated nanoseconds — this package performs
**no wall-clock reads** (guarded by a test), so metric streams and traces
are deterministic and machine-independent.
"""

from __future__ import annotations

from typing import IO

from repro.obs.metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Span, Tracer  # noqa: F401
from repro.obs.instrument import (  # noqa: F401
    observe_rig,
    snapshot_clock,
    snapshot_wear,
)


class Observability:
    """Metrics registry + tracer sharing one simulated clock."""

    def __init__(self, clock=None):
        self.clock = clock
        self.metrics = MetricsRegistry(clock)
        self.tracer = Tracer(clock)

    def bind_clock(self, clock) -> None:
        """Bind (or re-bind) the simulated clock everything stamps from."""
        self.clock = clock
        self.metrics.bind_clock(clock)
        self.tracer.bind_clock(clock)

    def export_jsonl(self, metrics_fh: IO[str] = None,
                     trace_fh: IO[str] = None) -> None:
        """Dump metrics and/or spans as JSON lines."""
        if metrics_fh is not None:
            self.metrics.export_jsonl(metrics_fh)
        if trace_fh is not None:
            self.tracer.export_jsonl(trace_fh)
