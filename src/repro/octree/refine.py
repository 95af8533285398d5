"""Criterion-driven refinement/coarsening (the *Refine & Coarsen* routine).

A refinement *criterion* is an array predicate (:data:`soa.Predicate`): it
takes the sweep's gathered leaves and returns one :class:`Action` code per
leaf — the callable shape of the "feature function" the paper's
feature-directed sampling pre-executes (§3.3), so the solver and PM-octree's
layout policy share it.  :func:`soa.per_octant` lifts a per-octant
``(loc, payload) -> Action`` callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

import numpy as np

from repro.octree import morton, soa
from repro.octree.balance import balance_tree
from repro.octree.store import AdaptiveTree


class Action(IntEnum):
    """What the criterion wants done with a leaf (the int8 codes of a
    criterion's result array)."""

    KEEP = 0
    REFINE = 1
    COARSEN = 2


@dataclass
class RefinementResult:
    """Counts from one adaptation sweep."""

    refined: int = 0
    coarsened: int = 0
    balance_refined: int = 0

    @property
    def changed(self) -> bool:
        return bool(self.refined or self.coarsened or self.balance_refined)


class RefinementEngine:
    """Applies a criterion over all leaves, then restores 2:1 balance.

    ``min_level``/``max_level`` clamp the adaptation; coarsening happens only
    when *all* siblings vote COARSEN (the standard conservative rule, which
    Gerris also uses).
    """

    def __init__(self, criterion: soa.Predicate, min_level: int = 0,
                 max_level: int = 30, balance: bool = True):
        if min_level > max_level:
            raise ValueError("min_level must not exceed max_level")
        self.criterion = criterion
        self.min_level = min_level
        self.max_level = max_level
        self.balance = balance

    def adapt(self, tree: AdaptiveTree, rounds: int = 1) -> RefinementResult:
        """Run up to ``rounds`` sweeps; stops early once nothing changes."""
        total = RefinementResult()
        for _ in range(rounds):
            res = self._sweep(tree)
            total.refined += res.refined
            total.coarsened += res.coarsened
            total.balance_refined += res.balance_refined
            if not res.changed:
                break
        return total

    def _sweep(self, tree: AdaptiveTree) -> RefinementResult:
        dim = tree.dim
        res = RefinementResult()
        # one gather and one criterion call per round; nothing mutates the
        # tree until every leaf has been read, so the batch is metered as
        # the per-leaf get_payload calls in the same order
        batch = soa.gather(tree, tree.leaves())
        actions = np.asarray(self.criterion(batch))
        to_refine = batch.locs[(actions == Action.REFINE)
                               & (batch.levels < self.max_level)]
        voters = batch.locs[(actions == Action.COARSEN)
                            & (batch.levels > self.min_level)]
        for loc in to_refine.tolist():
            if tree.is_leaf(loc):  # a metered index search out of core
                tree.refine(loc)
                res.refined += 1
        # A parent coarsens when all its children voted.  Parents are
        # visited in the order their first vote was cast (leaf order), so
        # the copy-on-write allocations happen in the per-leaf order.
        parents, first, votes = np.unique(voters >> dim, return_index=True,
                                          return_counts=True)
        agreed = votes == morton.fanout(dim)
        for parent in parents[agreed][np.argsort(first[agreed])].tolist():
            # Re-check children are all still leaves (none refined above).
            if tree.exists(parent) and not tree.is_leaf(parent) \
                    and all(tree.is_leaf(c)
                            for c in morton.children_of(parent, dim)):
                tree.coarsen(parent)
                res.coarsened += 1
        if self.balance and (res.refined or res.coarsened):
            res.balance_refined = balance_tree(
                tree, max_level=self.max_level,
            )
        return res


def refine_where(tree: AdaptiveTree, predicate: Callable[[int], bool],
                 max_level: int) -> int:
    """Refine every leaf satisfying ``predicate`` until none qualify below
    ``max_level``; returns the number of refinements."""
    n = 0
    frontier = [loc for loc in tree.leaves() if predicate(loc)]
    while frontier:
        nxt = []
        for loc in frontier:
            if not tree.is_leaf(loc):
                continue
            if morton.level_of(loc, tree.dim) >= max_level:
                continue
            for child in tree.refine(loc):
                if predicate(child):
                    nxt.append(child)
            n += 1
        frontier = nxt
    return n
