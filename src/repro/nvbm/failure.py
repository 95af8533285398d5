"""Deterministic crash injection.

The §5.6 experiments "kill the processes at time step 20"; the consistency
tests go further and kill *inside* individual PM-octree operations (mid-merge,
mid-COW-propagation, between a record store and the root swap).  Code under
test declares named crash *sites*; a test arms a :class:`CrashPlan` naming a
site and the hit count at which to fire, and the injector raises
:class:`~repro.errors.SimulatedCrash` there.  The owner of the arenas then
calls their ``crash()`` methods to apply power-loss semantics before
attempting recovery.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import SimulatedCrash, UnknownCrashSiteError
from repro.nvbm import sites as site_registry


class UnknownCrashSiteWarning(UserWarning):
    """An armed crash-site name is not in :mod:`repro.nvbm.sites`.

    A typo'd site name is otherwise a silent no-op: the plan never fires and
    the arming test "passes" without exercising anything.
    """


def _strict_sites() -> bool:
    """Whether arming an unknown site should raise instead of warn.

    An explicit ``REPRO_STRICT_SITES`` value wins (``1``/``true`` →
    strict, ``0``/``false``/empty → permissive); otherwise strict mode is
    on whenever a pytest test is executing (``PYTEST_CURRENT_TEST``) —
    ``repro analyze`` sets the variable itself.  Library consumers outside
    those contexts keep the historical warn-only behaviour.
    """
    explicit = os.environ.get("REPRO_STRICT_SITES")
    if explicit is not None:
        return explicit.strip().lower() in ("1", "true", "yes", "on")
    return "PYTEST_CURRENT_TEST" in os.environ


@dataclass
class CrashPlan:
    """When an armed site fires, in order of precedence:

    * ``every_hit`` — every execution of the site fires (the plan is never
      exhausted; chaos trials crash the same site repeatedly);
    * ``hits`` — an explicit 1-based hit list, e.g. ``(2, 5)``; the plan is
      exhausted after its largest hit;
    * ``at_hit`` — the classic single 1-based hit count.
    """

    site: str
    at_hit: int = 1
    hits: Optional[tuple] = None
    every_hit: bool = False

    def __post_init__(self) -> None:
        if self.at_hit < 1:
            raise ValueError("at_hit is 1-based and must be >= 1")
        if self.hits is not None:
            self.hits = tuple(sorted(set(int(h) for h in self.hits)))
            if not self.hits or self.hits[0] < 1:
                raise ValueError("hits must be a non-empty list of ints >= 1")

    def next_fire(self, hit: int) -> Optional[int]:
        """The first hit after ``hit`` that fires, or None."""
        if self.every_hit:
            return hit + 1
        if self.hits is not None:
            return next((h for h in self.hits if h > hit), None)
        return self.at_hit if self.at_hit > hit else None


class FailureInjector:
    """Registry of armed crash plans and per-site hit counters.

    A disarmed injector is free: :meth:`site` is a counter bump and a dict
    miss.  Sites are plain strings like ``"merge.mid"`` or
    ``"persist.before_root_swap"``; the list of sites a structure exposes is
    part of its testable surface.
    """

    def __init__(self) -> None:
        self._plans: Dict[str, CrashPlan] = {}
        self.hits: Dict[str, int] = {}
        self.fired: List[str] = []

    def arm(self, site: str, at_hit: int = 1, *,
            hits: Optional[Sequence[int]] = None,
            every_hit: bool = False) -> None:
        """Schedule a crash at visits of ``site``.

        ``at_hit`` fires once at the given 1-based visit; ``hits`` fires at
        each listed visit (e.g. ``hits=[2, 5]``); ``every_hit=True`` fires
        at *every* visit until the site is disarmed — chaos trials use the
        latter two to crash the same site more than once in one run.

        Overwrite semantics: at most one plan exists per site.  Arming a
        site that already has a plan **replaces** the old plan entirely
        (its remaining hits are forgotten); it never merges hit lists.
        Use :meth:`disarm` first if the replacement should be explicit.

        When ``site`` is not in the central registry
        (:mod:`repro.nvbm.sites`) the plan would never fire: under pytest
        or ``repro analyze`` (see :func:`_strict_sites`) this **raises**
        :class:`~repro.errors.UnknownCrashSiteError`; elsewhere it warns.
        """
        if not site_registry.is_known(site):
            message = (
                f"arming unknown crash site {site!r}; it is not in "
                "repro.nvbm.sites and will never fire unless code declares "
                "it — register() it if intentional"
            )
            if _strict_sites():
                raise UnknownCrashSiteError(message)
            warnings.warn(message, UnknownCrashSiteWarning, stacklevel=2)
        self._plans[site] = CrashPlan(
            site, at_hit, hits=tuple(hits) if hits is not None else None,
            every_hit=every_hit,
        )

    def disarm(self, site: Optional[str] = None) -> None:
        """Remove one plan, or all plans when ``site`` is None."""
        if site is None:
            self._plans.clear()
        else:
            self._plans.pop(site, None)

    def visits_before_fire(self, name: str, limit: int) -> int:
        """How many of the next visits of ``name`` pass before one fires,
        at most ``limit`` — asked, not made: a batch that stands for
        several visits declares the ones that pass grouped and the one that
        fires at its place."""
        plan = self._plans.get(name)
        if plan is None:
            return limit
        hit = self.hits.get(name, 0)
        fire = plan.next_fire(hit)
        return limit if fire is None else min(limit, fire - hit - 1)

    def site(self, name: str, count: int = 1) -> None:
        """Declare a crash site; raises SimulatedCrash when an armed plan
        fires.  ``count`` declares that many visits in a row — what a batch
        owes for the per-record visits it stands for, stopping at the one
        that fires."""
        passed = self.visits_before_fire(name, count)
        hit = self.hits[name] = self.hits.get(name, 0) + passed
        if passed < count:
            self.hits[name] = hit + 1
            if self._plans[name].next_fire(hit + 1) is None:
                del self._plans[name]  # spent
            self.fired.append(name)
            raise SimulatedCrash(name)

    def reset_hits(self) -> None:
        self.hits.clear()

    def reset(self) -> None:
        """Return to the freshly-constructed state: no plans, counters or
        history.  Harnesses call this between experiment repetitions so hit
        counts (and the ``fired`` log) do not leak across runs."""
        self._plans.clear()
        self.hits.clear()
        self.fired.clear()

    @property
    def armed_sites(self) -> List[str]:
        return sorted(self._plans)


#: A process-wide injector used when callers do not supply their own.
_default_injector = FailureInjector()


def default_injector() -> FailureInjector:
    """The shared injector (convenient for examples; tests pass their own)."""
    return _default_injector
