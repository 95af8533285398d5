"""Source-scan guards: one kernel body in ``src``, and docs that name real code.

* ``src/repro`` ships no kernel twins: no ``vectorized`` knob, no
  ``scalar_fallbacks`` counter, and no ``hasattr``/``getattr`` probe for a
  data-access method that is part of the :class:`AdaptiveTree` protocol (the
  scalar oracle lives in ``tests/oracles``).
* criteria and features are array predicates: no per-octant
  ``def criterion(loc``/``def fn(loc`` body and no ``near_cache`` in ``src``,
  and ``soa`` (under ``repro.octree``, so nothing needs to hide a cycle) is
  imported at module top only.
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


def test_no_kernel_twins_or_capability_probes_in_src():
    offenders = []
    for path in sorted(SRC_DIR.rglob("*.py")):
        text = path.read_text()
        for m in FORBIDDEN.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            offenders.append(
                f"{path.relative_to(ROOT)}:{line}: {m.group(0)}")
    assert not offenders, (
        "kernel twin / capability probe in src (the tree protocol defines "
        "these; the scalar oracle belongs in tests/oracles):\n"
        + "\n".join(offenders)
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
