"""Wiring helpers: attach one Observability to a built rig.

Components expose an optional ``obs`` attachment point (arena/device,
PM-octree, replication session, simulation driver); :func:`observe_rig`
flips them all on in one call, and the snapshot helpers record derived
state (wear histograms, per-rank phase timers) into the registry.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability


def sim_phase(sim, name: str) -> ExitStack:
    """Context for one phase of a simulation driver (``sim.clock``,
    ``sim.obs``, ``sim.step_count``): a ``SimClock`` phase, doubling as a
    ``sim.<name>`` trace span when obs is attached.  Phases nest; clock
    time goes to the innermost one."""
    stack = ExitStack()
    if sim.clock is not None:
        stack.enter_context(sim.clock.phase(name))
    if sim.obs is not None:
        stack.enter_context(
            sim.obs.tracer.span("sim." + name, step=sim.step_count))
    return stack


def observe_rig(obs: "Observability", *, arenas: Iterable = (),
                tree=None, session=None, sim=None) -> "Observability":
    """Attach everything at once; returns ``obs`` for chaining.

    Counters go on each arena and its device, on the PM-octree (baseline
    trees have none), and on the replication session's protocol; the
    simulation driver gets phase/step spans."""
    for arena in arenas:
        arena.attach_obs(obs)
    if tree is not None and hasattr(tree, "attach_obs"):
        tree.attach_obs(obs)
    if session is not None:
        session.attach_obs(obs)
    if sim is not None:
        sim.obs = obs
    return obs


def snapshot_wear(obs: "Observability", device, device_label: str) -> None:
    """Record the device's per-slot write counts as an endurance histogram.

    One observation per *slot* (its current write count), so the histogram
    answers "how many slots have seen ~2^k writes" — the endurance-headroom
    distribution the bench envelope tracks.
    """
    hist = obs.metrics.histogram("device.wear_writes_per_slot",
                                 device=device_label)
    wear = device._wear
    for writes in wear[wear > 0]:
        hist.observe(float(writes))
    obs.metrics.gauge("device.wear_max", device=device_label).set(
        device.wear_max())
    obs.metrics.gauge("device.wear_headroom", device=device_label).set(
        device.wear_headroom())


def snapshot_clock(obs: "Observability", clock, rank=None) -> None:
    """Record one clock's per-phase and per-category totals as gauges."""
    labels = {} if rank is None else {"rank": rank}
    for phase, ns in clock.by_phase.items():
        obs.metrics.gauge("clock.phase_ns", phase=phase, **labels).set(ns)
    for category, ns in clock.by_category.items():
        obs.metrics.gauge("clock.category_ns", category=category,
                          **labels).set(ns)
    obs.metrics.gauge("clock.now_ns", **labels).set(clock.now_ns)
