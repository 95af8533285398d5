"""Planted bugs past any inlining bound: a store thirteen frames below its
publish, a store behind a fan-out of more than six hundred frames, and a
store that reaches a publish only through a mutual recursion.  Parsed,
never imported, like the rest of ``tests.analysis.fixtures``."""

from pathlib import Path

UNBOUNDED_DIR = Path(__file__).parent
