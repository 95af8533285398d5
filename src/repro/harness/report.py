"""Plain-text tables in the style of the paper's figures, plus a
machine-readable JSON envelope for CI gating (``repro analyze --json``)."""

from __future__ import annotations

import json
import numbers
from typing import Any, Dict, Iterable, List, Sequence

#: Version tag of the ``repro analyze --json`` envelope.  Bump only on
#: breaking shape changes; *additive* fields (new sections, new row keys)
#: keep the version, which is what lets CI diff baselines across them.
ANALYZE_SCHEMA = "repro-analyze/v1"


def fmt(value: Any) -> str:
    """Human-friendly cell formatting.

    Any real zero — including ``-0.0`` and NumPy scalar zeros, which are not
    ``float`` instances and used to fall through to ``str()`` and render as
    ``"-0.0"`` — formats as plain ``"0"``; a non-zero value whose rounded
    rendering collapses to zero is likewise normalised so no stray sign
    survives into the tables.
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        value = float(value)
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            out = f"{value:.3g}"
        else:
            out = f"{value:.2f}"
        if float(out) == 0:
            return "0"
        return out
    return str(value)


def table(title: str, headers: Sequence[str],
          rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned table with a title rule."""
    srows: List[List[str]] = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [f"== {title} =="]
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in srows:
        out.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence[Any]]) -> None:
    print()
    print(table(title, headers, rows))


def seconds(ns: float) -> float:
    return ns * 1e-9


def json_payload(sections: Dict[str, Iterable[Dict[str, Any]]],
                 ok: bool) -> Dict[str, Any]:
    """Normalise analysis results into one machine-readable envelope.

    ``sections`` maps a section name (e.g. ``"static"``) to dict rows, one
    per finding/outcome.  The envelope carries an overall verdict so CI can
    gate on ``payload["ok"]`` (or the process exit code) alone, and a
    schema tag (:data:`ANALYZE_SCHEMA`) so baseline diffs stay stable
    across additive field changes.
    """
    norm = {name: [dict(r) for r in rows] for name, rows in sections.items()}
    return {
        "schema": ANALYZE_SCHEMA,
        "ok": bool(ok),
        "sections": norm,
        "counts": {name: len(rows) for name, rows in norm.items()},
    }


def render_json(sections: Dict[str, Iterable[Dict[str, Any]]],
                ok: bool) -> str:
    return json.dumps(json_payload(sections, ok), indent=2,
                      sort_keys=True)
