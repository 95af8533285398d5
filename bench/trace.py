"""Timing wrappers around the layers' public functions, installed from outside.

The benchmark may not edit ``src/``, so the per-layer host ledger is built by
replacing public names with wrappers for the duration of one traced repeat:
:data:`TABLE` lists ``(group, dotted public name, kind)`` and
:meth:`Tracer.install` patches every entry, :meth:`Tracer.uninstall` puts the
originals back.  A *group* is the prefix of the per-layer metrics it feeds
(``<group>.wall_s``, ``<group>.calls``); its first component is the layer.

Every wrapped call pushes a frame; on return its duration is added to the
parent frame's child time, and ``duration - child time`` is the call's
**self time**.  Self times of all groups plus the root's own therefore sum to
the root's duration by construction; the root's own share is what the trace
could not attribute (``trace.unattributed_fraction``).

Two kinds of span are recorded, both kept in memory until :meth:`rows`:

* ``SPAN`` entries (steps, adapt, balance, persist, gc, kernels, restores):
  one row per call — id, parent, name, group, start, end.  ``KEPT`` is a
  ``SPAN`` whose return values are kept as well.
* ``HOT`` entries (per-element tree/arena/device calls, refine predicates,
  ~120 k calls per 3 k-leaf step): one *aggregate* row per (parent span,
  name) with the call count and summed self time, so a trace file stays a
  few thousand rows instead of a million.

``FACTORY`` entries wrap a closure factory (``interface_criterion``) so that
the closure it returns is a ``HOT`` entry — the refine predicate has no
public name of its own.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

SPAN, KEPT, HOT, FACTORY = "span", "kept", "hot", "factory"

_ARENA = "repro.nvbm.arena.MemoryArena."
_PM = "repro.core.pmoctree.PMOctree."
_SIM = "repro.solver.simulation."

#: (group, dotted public name, kind).  Module-level functions are patched
#: under the name their *caller* imported them by: ``simulation.py`` does
#: ``from repro.solver.advection import advect_vof``, so the binding that
#: matters is ``repro.solver.simulation.advect_vof``.  A trailing ``*``
#: expands to every public plain method of the class.
TABLE: List[Tuple[str, str, str]] = [
    # solver: kernels and the drivers' own glue (the wave sweep is private,
    # so it shows up as WaveSimulation.step self time)
    ("solver", _SIM + "DropletSimulation.step", SPAN),
    ("solver", "repro.solver.wave.WaveSimulation.step", SPAN),
    # KEPT: the kernel reports its cell reads/writes only by return value
    ("solver", _SIM + "advect_vof", KEPT),
    ("solver", _SIM + "smooth_pressure", SPAN),
    ("solver", _SIM + "pressure_solve", SPAN),
    ("solver", _SIM + "initialize_vof", SPAN),
    ("solver", _SIM + "count_droplets", SPAN),
    # solver.predicate: the droplet's geometry sampling, wherever it is
    # called from (refine criterion, §3.3 feature function, scalar advect)
    ("solver.predicate", _SIM + "interface_criterion", FACTORY),
    ("solver.predicate", _SIM + "change_feature", FACTORY),
    ("solver.predicate",
     "repro.solver.geometry.DropletGeometry.vof_of_cell", HOT),
    ("solver.predicate",
     "repro.solver.geometry.DropletGeometry.vof_of_cells", HOT),
    # octree
    ("octree.adapt", "repro.octree.refine.RefinementEngine.adapt", SPAN),
    ("octree.balance", _SIM + "balance_tree", SPAN),
    ("octree.balance", "repro.solver.wave.balance_tree", SPAN),
    # core
    ("core.persist", _PM + "persist", SPAN),
    ("core.gc", _PM + "gc", SPAN),
    ("core.drain", _PM + "drain_persists", SPAN),
    ("core.access", _PM + "get_payload", HOT),
    ("core.access", _PM + "set_payload", HOT),
    ("core.access", _PM + "get_field", HOT),
    ("core.access", _PM + "set_field", HOT),
    ("core.access", _PM + "batch_read_payloads", HOT),
    ("core.access", _PM + "batch_read_fields", HOT),
    ("core.access", _PM + "batch_set_payloads", HOT),
    ("core.access", _PM + "batch_set_fields", HOT),
    ("core.access", _PM + "refine", HOT),
    ("core.access", _PM + "coarsen", HOT),
    ("core.access", _PM + "leaves", HOT),
    ("core.access", _PM + "overlap_ratio", HOT),
    ("core.recover", "repro.core.pm_restore", SPAN),
    ("core.recover", "repro.core.replication.restore_from_replica", SPAN),
    ("core.recover", "repro.core.recovery.scrub", SPAN),
    ("core.ship", "repro.core.replication.ReplicaSession.ship", SPAN),
    # nvbm: per-element metering sits on every path
    ("nvbm.arena", _ARENA + "*", HOT),
    ("nvbm.device", "repro.nvbm.device.MemoryDevice.on_read", HOT),
    ("nvbm.device", "repro.nvbm.device.MemoryDevice.on_write", HOT),
    ("nvbm.device", "repro.nvbm.device.MemoryDevice.on_read_batch", HOT),
    ("nvbm.device", "repro.nvbm.clock.SimClock.advance", HOT),
    # baselines + storage
    ("baselines.checkpoint",
     "repro.baselines.incore.InCoreOctree.checkpoint", SPAN),
]

ROOT_GROUP = "harness"


def _resolve(dotted: str) -> Tuple[Any, str]:
    """Split ``a.b.C.m`` into (owner object, attribute name)."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {dotted!r}")


def _plain_public_methods(cls) -> List[str]:
    """Public plain functions of ``cls``: no properties, no generators and
    no context managers (timing their *creation* would mislead)."""
    names = []
    for name, attr in vars(cls).items():
        if name.startswith("_") or not inspect.isfunction(attr):
            continue
        if inspect.isgeneratorfunction(inspect.unwrap(attr)):
            continue
        names.append(name)
    return names


class Tracer:
    """Span recorder and monkeypatch installer for one traced repeat."""

    def __init__(self) -> None:
        self.active = False
        #: (id, parent id, name, group, start_ns, end_ns)
        self.spans: List[Tuple[int, int, str, str, int, int]] = []
        #: (parent span id, name) -> [group, calls, self_ns]
        self.aggregates: Dict[Tuple[int, str], list] = {}
        #: group -> [calls, self_ns, inclusive_ns, open spans]; inclusive
        #: time counts a group's outermost spans only (``SPAN`` entries)
        self.groups: Dict[str, list] = {}
        #: name -> return values of the ``KEPT`` entries
        self.kept: Dict[str, list] = {}
        self.root_ns = 0
        self.root_self_ns = 0
        #: open frames: [child_ns, span id]
        self._stack: List[list] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrappers ----------------------------------------------------------

    def _group(self, group: str) -> list:
        return self.groups.setdefault(group, [0, 0, 0, 0])

    def _wrap_span(self, fn: Callable, group: str, name: str,
                   keep: Optional[list] = None) -> Callable:
        stack, spans, acc = self._stack, self.spans, self._group(group)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)  # reserve the id in start order
            frame = [0, sid]
            parent = stack[-1]
            stack.append(frame)
            acc[3] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if keep is not None:
                    keep.append(out)
                return out
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                acc[0] += 1
                acc[1] += dur - frame[0]
                acc[3] -= 1
                if not acc[3]:
                    acc[2] += dur
                spans[sid] = (sid, parent[1], name, group, t0, t1)

        return wrapper

    def _wrap_hot(self, fn: Callable, group: str, name: str) -> Callable:
        stack, aggregates, acc = self._stack, self.aggregates, \
            self._group(group)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[0] += dur
                own = dur - frame[0]
                acc[0] += 1
                acc[1] += own
                key = (parent[1], name)
                agg = aggregates.get(key)
                if agg is None:
                    aggregates[key] = [group, 1, own]
                else:
                    agg[1] += 1
                    agg[2] += own

        return wrapper

    def _wrap_kept(self, fn: Callable, group: str, name: str) -> Callable:
        return self._wrap_span(fn, group, name, self.kept.setdefault(name, []))

    def _wrap_factory(self, fn: Callable, group: str, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            return self._wrap_hot(fn(*args, **kwargs), group,
                                  name + ".<closure>")

        return wrapper

    @contextmanager
    def excluded(self, name: str):
        """A ``harness`` span during which the wrappers are switched off:
        the benchmark's own work inside the root span (state digests,
        crashing arenas) is booked to the harness, not to a layer."""
        if not self.active:
            yield
            return
        sid = len(self.spans)
        self.spans.append(None)
        parent, acc = self._stack[-1], self._group(ROOT_GROUP)
        self.active = False
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self.active = True
            parent[0] += t1 - t0
            acc[0] += 1
            acc[1] += t1 - t0
            self.spans[sid] = (sid, parent[1], name, ROOT_GROUP, t0, t1)

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        wrap = {SPAN: self._wrap_span, KEPT: self._wrap_kept,
                HOT: self._wrap_hot, FACTORY: self._wrap_factory}
        for group, dotted, kind in TABLE:
            if dotted.endswith(".*"):
                cls_owner, cls_name = _resolve(dotted[:-2])
                cls = getattr(cls_owner, cls_name)
                targets = [(cls, n) for n in _plain_public_methods(cls)]
            else:
                targets = [_resolve(dotted)]
            for owner, attr in targets:
                raw = vars(owner)[attr] if inspect.isclass(owner) \
                    else getattr(owner, attr)
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                if isinstance(raw, classmethod):
                    new = classmethod(wrap[kind](raw.__func__, group, label))
                else:
                    new = wrap[kind](raw, group, label)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- the root span -----------------------------------------------------

    def start(self) -> None:
        """Open the root span: wrappers record from here on."""
        self.spans.append(None)
        self._stack.append([0, 0])
        self._root_t0 = time.perf_counter_ns()
        self.active = True

    def stop(self) -> None:
        t1 = time.perf_counter_ns()
        self.active = False
        frame = self._stack.pop()
        self.root_ns = t1 - self._root_t0
        self.root_self_ns = self.root_ns - frame[0]
        self.spans[0] = (0, -1, "bench.timed", ROOT_GROUP, self._root_t0, t1)

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (first component of the group)."""
        out: Dict[str, float] = {}
        for group, (_calls, self_ns, _incl, _open) in self.groups.items():
            layer = group.split(".")[0]
            out[layer] = out.get(layer, 0.0) + self_ns * 1e-9
        return out

    def rows(self) -> List[Dict[str, Any]]:
        """Trace rows: one per span, then one per hot aggregate."""
        out = [
            {"kind": "span", "id": sid, "parent": parent, "name": name,
             "layer": group.split(".")[0], "group": group,
             "start_ns": t0 - self._root_t0, "end_ns": t1 - self._root_t0}
            for sid, parent, name, group, t0, t1 in self.spans
        ]
        out.extend(
            {"kind": "aggregate", "parent": parent, "name": name,
             "layer": group.split(".")[0], "group": group,
             "calls": calls, "self_ns": self_ns}
            for (parent, name), (group, calls, self_ns)
            in self.aggregates.items()
        )
        return out

    def write_jsonl(self, path) -> int:
        rows = self.rows()
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        return len(rows)
