"""Crash-site coverage prover.

``analyze --sweep`` can only exercise sites someone remembered to declare;
this module closes the converse gap by *proving*, statically, that every
mutate→publish path the static pass discovered has a crash site
inside its window — so the sweep genuinely tears every commit protocol the
tree contains.

Inputs are the :class:`~repro.analysis.dataflow.AnalysisResult` path and
retire records:

* a **window** runs from the first unflushed NVBM store on a path to the
  publish that commits it.  The prover demands at least one site in the
  window that the central registry (:mod:`repro.nvbm.sites`) knows —
  ``sweep_all`` iterates the whole registry, so *registered* is the static
  proxy for *sweep-exercised* (the ``--sweep`` run then proves the site
  actually fires).  A window observed with an empty (or unregistered-only)
  site set on **any** call chain is an ``uncovered-path`` finding: there
  exists an entry point from which a crash between first-dirty and publish
  is never simulated.
* a **retire** of a migration-journal entry must likewise have a
  registered site earlier on its path (``uncovered-retire``): the
  publish-before-retire discipline is only testable if the sweep can lose
  power before the retire lands.

The prover also cross-references the registry against the site
declarations the call graph actually contains: a registered site that no
``injector.site(...)`` in the scanned tree declares can never fire and is
reported as ``unanchored-site`` (tests register ad-hoc names at runtime,
so this rule only makes sense over the whole of ``src/repro`` — which is
what ``analyze --static`` scans unless ``--path`` narrows it, and then the
rule is off).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.analysis.dataflow import (
    AnalysisResult, DataflowFinding, site_name,
)
from repro.nvbm import sites as default_sites_module


@dataclass
class WindowReport:
    """One unique mutate→publish window, aggregated over every call chain
    that reached it."""

    first_dirty: str            #: "file.py:line" of the first dirty store
    publish: str                #: "file.py:line" of the commit point
    sites: Tuple[str, ...]      #: union of registered sites seen inside
    covered: bool
    roots: Tuple[str, ...]      #: entry points that exhibited the window

    def to_row(self) -> Dict[str, object]:
        return {"first_dirty": self.first_dirty, "publish": self.publish,
                "sites": list(self.sites), "covered": self.covered,
                "roots": list(self.roots)}


@dataclass
class CoverageReport:
    """What the prover established about the scanned tree."""

    findings: List[DataflowFinding]
    windows: List[WindowReport]
    retires: List[Dict[str, object]]
    unanchored_sites: List[str]
    declared_sites: List[str]

    @property
    def uncovered(self) -> int:
        return sum(1 for w in self.windows if not w.covered)

    def finding_rows(self) -> List[Dict[str, object]]:
        return [f.to_row() for f in self.findings]

    def summary(self) -> Dict[str, object]:
        return {
            "windows": len(self.windows),
            "uncovered": self.uncovered,
            "retires": len(self.retires),
            "declared_sites": len(self.declared_sites),
            "unanchored_sites": list(self.unanchored_sites),
        }


def _declared_sites(result: AnalysisResult, sites_module) -> Set[str]:
    """Every site name an ``injector.site(...)`` call in the scanned tree
    declares (resolved as the static pass resolves it)."""
    declared: Set[str] = set()
    for info in result.graph.functions.values():
        minfo = result.graph.modules.get(info.module)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "site" and node.args:
                name = site_name(minfo, node.args[0], sites_module)
                if name is not None:
                    declared.add(name)
    return declared


def _aggregate(records, sites_of, registered):
    """(key, registered sites, roots, first record with none) per unique
    key of ``records``, in key order: one entry over every call chain."""
    by_key: Dict[tuple, list] = {}
    for rec in records:
        entry = by_key.setdefault(rec.key(), [set(), set(), None])
        entry[1].add(rec.root)
        good = [s for s in sites_of(rec) if s in registered]
        entry[0].update(good)
        if not good and entry[2] is None:
            entry[2] = rec      # witness of the uncovered chain
    return [(key, tuple(sorted(by_key[key][0])), tuple(sorted(by_key[key][1])),
             by_key[key][2]) for key in sorted(by_key)]


def prove_coverage(result: AnalysisResult, sites_module=None,
                   check_anchors: bool = True) -> CoverageReport:
    """Check every discovered window and retire for site coverage, and
    (``check_anchors``, for a scan of the whole package) that every
    registered site is declared somewhere."""
    sites_module = sites_module or default_sites_module
    registered = sites_module.all_sites()
    findings: List[DataflowFinding] = []

    windows: List[WindowReport] = []
    for key, sites, roots, bare in _aggregate(
            result.path_records, lambda rec: rec.sites, registered):
        first_dirty = f"{Path(key[0]).name}:{key[1]}"
        windows.append(WindowReport(
            first_dirty=first_dirty, publish=f"{Path(key[2]).name}:{key[3]}",
            sites=sites, covered=bare is None, roots=roots,
        ))
        if bare is not None:
            findings.append(DataflowFinding(
                rule="uncovered-path", path=key[2], line=key[3],
                message=(
                    f"mutate->publish path (first dirty at {first_dirty}) "
                    "reaches its commit point with no registered crash "
                    f"site in the window when entered from {bare.root} — "
                    "the sweep never simulates a power loss here; declare "
                    "an injector.site(...) between the store and the "
                    "publish and register it in repro.nvbm.sites"
                ),
                chain=bare.publish.chain,
            ))

    retires: List[Dict[str, object]] = []
    for key, sites, roots, bare in _aggregate(
            result.retire_records, lambda rec: rec.sites_before, registered):
        where = f"{Path(key[0]).name}:{key[1]}"
        retires.append({"retire": where, "covered": bare is None,
                        "sites": list(sites), "roots": list(roots)})
        if bare is not None:
            findings.append(DataflowFinding(
                rule="uncovered-retire", path=key[0], line=key[1],
                message=(
                    f"journal-entry retire at {where} has no registered "
                    f"crash site on its path when entered from {bare.root} "
                    "— the sweep can never lose power before this retire, "
                    "so the publish-before-retire bracket is untested"
                ),
                chain=bare.witness.chain,
            ))

    declared = _declared_sites(result, sites_module)
    unanchored = sorted(registered - declared) if check_anchors else []
    for name in unanchored:
        findings.append(DataflowFinding(
            rule="unanchored-site", path="<registry>", line=0,
            message=(
                f"registered crash site {name!r} is declared by no "
                "injector.site(...) in the scanned tree — armed plans for "
                "it never fire"
            ),
        ))

    findings.sort(key=lambda f: (f.rule, f.path, f.line))
    return CoverageReport(
        findings=findings, windows=windows, retires=retires,
        unanchored_sites=unanchored, declared_sites=sorted(declared),
    )
