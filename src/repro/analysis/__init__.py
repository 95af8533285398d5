"""Crash-consistency analysis: static checks, runtime ordering, crash sweeps.

The PM-octree correctness argument (docs/crash-consistency.md) rests on one
ordering invariant: *no root slot ever publishes a handle whose record lines
are still sitting unflushed in the volatile cache*.  This package proves the
invariant mechanically, three ways:

* :mod:`repro.analysis.dataflow` (with :mod:`repro.analysis.callgraph`) —
  the static pass over ``src/repro``: flush/publish obligations are tracked
  as abstract state, one effect summary per function composed along the
  call graph, so a store any number of frames below a publish reaches it,
  and every finding carries a call-chain witness; the same pass flags
  in-place stores that bypass the COW
  discipline in ``core/`` and crash sites the registry does not know.
  :mod:`repro.analysis.coverage` builds on its path records to *prove*
  every discovered mutate→publish window (and journal retire) contains a
  registered, sweep-exercised crash site.
* :mod:`repro.analysis.tracker` — a shadow-state observer installed into
  :class:`~repro.nvbm.arena.MemoryArena` / ``RootSlots`` that records a
  per-handle event trace (store -> flush -> publish) and raises on ordering
  violations at the moment they happen; its epoch happens-before checker
  (``cross-epoch-waf``) gates the future pipelined-persistence work.
* :mod:`repro.analysis.sweep` — an exhaustive harness that arms every
  registered crash site in turn and asserts recovery lands on a persisted
  state.

CLI: ``python -m repro analyze [--static|--trace|--sweep] [--strict-epochs]
[--baseline FILE] [--json]``.
"""

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.coverage import CoverageReport, prove_coverage
from repro.analysis.dataflow import (
    AnalysisResult,
    DataflowFinding,
    analyze_paths,
    analyze_repo,
)
from repro.analysis.sweep import SweepOutcome, sweep_all, sweep_site, trace_run
from repro.analysis.tracker import (
    OrderingTracker,
    Violation,
    install_tracker,
)

__all__ = [
    "AnalysisResult",
    "CallGraph",
    "CoverageReport",
    "DataflowFinding",
    "OrderingTracker",
    "SweepOutcome",
    "Violation",
    "analyze_paths",
    "analyze_repo",
    "build_callgraph",
    "install_tracker",
    "prove_coverage",
    "sweep_all",
    "sweep_site",
    "trace_run",
]
