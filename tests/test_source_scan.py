"""Source-scan guards: one kernel body in ``src``, and docs that name real code.

* ``src/repro`` ships no kernel twins: no ``vectorized`` knob, no
  ``scalar_fallbacks`` counter, and no ``hasattr``/``getattr`` probe for a
  data-access method that is part of the :class:`AdaptiveTree` protocol (the
  scalar oracle lives in ``tests/oracles``).
* criteria and features are array predicates: no per-octant
  ``def criterion(loc``/``def fn(loc`` body and no ``near_cache`` in ``src``,
  and ``soa`` (under ``repro.octree``, so nothing needs to hide a cycle) is
  imported at module top only.
* components count in one place, their ``*Stats`` dataclass, and obs folds
  it (``MetricsRegistry.fold``): no bound ``_m_x = None`` counter handle
  (the ``replication.ship_attempts`` histogram has no stats twin and is
  the one handle left), no ``_obs_count``/``_count_partial_`` mirror and no
  ``.inc(`` push anywhere under ``repro/nvbm`` or ``repro/core``.
* every backticked ``repro.*`` dotted name in DESIGN.md, README.md and
  ``docs/*.md`` imports or resolves, so the docs cannot drift to modules
  that no longer exist.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_DIR = ROOT / "src" / "repro"

FORBIDDEN = re.compile(
    r"vectorized|scalar_fallbacks"
    r"|\b(?:has|get)attr\([^)\n]*"
    r"[\"'](?:batch_\w+|get_field|set_field|num_leaves)[\"']"
    r"|def (?:criterion|fn)\(loc\b|near_cache"
    r"|^[ \t]+(?:from|import)\b[^\n]*\bsoa\b",
    re.MULTILINE,
)


def _offenders(pattern, packages=None):
    """``file:line: match`` for every hit in ``src/repro`` (or only in the
    named sub-packages)."""
    out = []
    for path in sorted(SRC_DIR.rglob("*.py")):
        if packages and path.parent.name not in packages:
            continue
        text = path.read_text()
        for m in pattern.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            out.append(f"{path.relative_to(ROOT)}:{line}: {m.group(0)}")
    return out


def test_no_kernel_twins_or_capability_probes_in_src():
    offenders = _offenders(FORBIDDEN)
    assert not offenders, (
        "kernel twin / capability probe in src (the tree protocol defines "
        "these; the scalar oracle belongs in tests/oracles):\n"
        + "\n".join(offenders)
    )


MIRRORS = re.compile(
    r"_m_(?!attempts\b)\w+ = None|_obs_count|_count_partial_")
PUSH = re.compile(r"\.inc\(")


def test_stats_are_the_only_ledger():
    offenders = _offenders(MIRRORS) + _offenders(PUSH, ("nvbm", "core"))
    assert not offenders, (
        "hand-pushed obs mirror in src (count in the *Stats dataclass and "
        "fold it):\n" + "\n".join(offenders)
    )


DOCS = [ROOT / "DESIGN.md", ROOT / "README.md",
        *sorted((ROOT / "docs").glob("*.md"))]

#: `repro.a.b`, `repro.a.b.Name`, `repro.a.b.fn(args)`; `repro.a.*` names
#: the package before the star
DOTTED = re.compile(r"`(repro(?:\.\w+)+)(?:\.\*)?(?:\([^`]*\))?`")


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_documented_repro_names_resolve(doc):
    names = sorted(set(DOTTED.findall(doc.read_text())))
    stale = [name for name in names if not _resolves(name)]
    assert not stale, f"{doc.name} names code that does not exist: {stale}"
