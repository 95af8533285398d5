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
* the arena has one store and the device one charge body per direction: no
  ``Dict[int, bytes]`` in ``nvbm/arena.py``, one site each that counts a
  read, counts a write and ages a line; the read-only structure walks
  (GC mark, ``reachable_from``, the restore traversal) gather a frontier
  per call and never ``read_octant(``; and every name ``bench/trace.py``
  patches from outside still resolves.
* the persist point is a batch: the merge moves a chunk of postorder
  visits per arena call and the §3.3 sampler reads every candidate's picks
  with one gather — no ``read_octant(``/``new_octant(`` in the merge, one
  ``soa.gather(`` in ``core/transform.py`` — and ``core`` asks the injector
  through its public queries, never ``injector._plans``/``injector.hits``.
* structure is a batch too: ``face_neighbor_leaves(`` is called only where
  it is defined (``octree/neighbors.py``) and by the loop-backed default in
  ``octree/store.py``; and ``src/repro`` imports nothing a clean
  ``pip install -e .`` does not bring (stdlib, ``numpy``, ``scipy``).
* one crash runner, one migration audit, one chaos pool: nothing outside
  ``repro/analysis`` imports a private name from the sweep,
  ``SweepOutcome(`` is built only inside ``sweep_site``, the migration
  audit's text and ``def _signature`` occur once under ``src``, and the
  chaos mode flags (``media=``/``pipeline=``, their pools, ``--media``/
  ``--pipeline`` in the CLI, docs and CI) stay gone.
"""

import ast
import importlib
import pathlib
import re
import sys

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


# ------------------------------------------------- one store, one charge path

def _function_source(path: pathlib.Path, qualname: str) -> str:
    """Source text of ``Class.method`` or ``function`` in ``path``."""
    text = path.read_text()
    scope = ast.parse(text).body
    node = None
    for name in qualname.split("."):
        node = next(n for n in scope if getattr(n, "name", None) == name)
        scope = getattr(node, "body", [])
    return ast.get_source_segment(text, node)


def test_structure_walks_go_level_by_level():
    """The read-only walks gather a frontier per call; a ``read_octant(``
    in one of them is the record-by-record walk creeping back."""
    core = SRC_DIR / "core"
    bodies = {
        "core/gc.py": (core / "gc.py").read_text(),
        "PMOctree.reachable_from": _function_source(
            core / "pmoctree.py", "PMOctree.reachable_from"),
        "recovery._restore_traverse": _function_source(
            core / "recovery.py", "_restore_traverse"),
    }
    for where, body in bodies.items():
        assert "read_octant(" not in body, where
        assert re.search(r"walks\.reach\(|read_rows\(", body), where
    assert "read_rows(" in (core / "walks.py").read_text()


def test_persist_point_is_a_batch():
    """A ``read_octant(``/``new_octant(`` in the merge is the per-record
    loop creeping back (its verbatim body: ``tests/oracles``); a second
    ``soa.gather(`` in the sampler is the per-candidate gather."""
    core = SRC_DIR / "core"
    merge = "\n".join(_function_source(core / "merge.py", name)
                      for name in ("merge_subtree", "_merge_chunk"))
    transform = (core / "transform.py").read_text()
    for where, body in (("merge", merge), ("transform.py", transform)):
        assert not re.search(r"(?:read|new)_octant\(", body), where
    assert "read_rows(" in merge and "write_rows(" in merge
    assert len(re.findall(r"soa\.gather\(", transform)) == 1
    reaching_in = _offenders(re.compile(r"injector\.(?:_plans|hits)\b"),
                             ("core",))
    assert not reaching_in, "\n".join(reaching_in)


def test_arena_has_one_store_and_device_one_charge():
    arena = (SRC_DIR / "nvbm" / "arena.py").read_text()
    assert not re.search(r"Dict\[int,\s*bytes\]", arena), \
        "a per-record dict store is back in nvbm/arena.py"
    nvbm = arena + (SRC_DIR / "nvbm" / "device.py").read_text()
    # one place each: counts a read, counts a write, ages a line from a
    # batch, and advances the clock for a device access (reads + writes;
    # the arena's own advance is the flush fence)
    for pattern, count in ((r"\.reads \+=", 1), (r"\.writes \+=", 1),
                           (r"np\.add\.at\(", 1), (r"wear\[g\] \+= 1", 1),
                           (r"clock\.advance\(", 3)):
        found = len(re.findall(pattern, nvbm))
        assert found == count, f"{pattern!r}: {found} sites, expected {count}"


def test_bench_trace_table_resolves():
    """``bench/`` may not be edited and patches these names from outside: a
    rename in ``src`` must keep the old name as a thin caller."""
    import inspect

    from bench.trace import TABLE, _plain_public_methods, _resolve

    for _group, dotted, _kind in TABLE:
        if dotted.endswith(".*"):
            owner, name = _resolve(dotted[:-2])
            assert _plain_public_methods(getattr(owner, name))
            continue
        owner, name = _resolve(dotted)
        target = vars(owner)[name] if inspect.isclass(owner) \
            else getattr(owner, name)
        assert callable(target) or isinstance(target, classmethod), dotted
    # the metering names the ledger counts, spelled out
    from repro.nvbm.clock import SimClock
    from repro.nvbm.device import MemoryDevice

    for name in ("on_read", "on_write", "on_read_batch"):
        assert inspect.isfunction(vars(MemoryDevice)[name])
    assert inspect.isfunction(vars(SimClock)["advance"])


# --------------------------------------------------- batch structure queries

def test_face_neighbor_walk_has_one_loop_backed_caller():
    """Kernels ask the tree for a table; a ``face_neighbor_leaves(`` call
    anywhere else is a per-leaf topology loop creeping back."""
    callers = {line.split(":")[0]
               for line in _offenders(re.compile(r"face_neighbor_leaves\("))}
    assert callers == {"src/repro/octree/neighbors.py",
                       "src/repro/octree/store.py"}


def test_src_imports_only_declared_dependencies():
    """pyproject.toml declares numpy and scipy; a clean install has nothing
    else (``count_droplets`` once imported networkx inside the function)."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "repro"}
    offenders = []
    for path in sorted(SRC_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                          for name in names
                          if name.split(".")[0] not in allowed]
    assert not offenders, "\n".join(offenders)
    assert not _offenders(re.compile(r"networkx"))


# ------------------------------------ one runner, one audit, one chaos pool

def test_sweep_has_one_runner_and_privates_stay_private():
    private_import = re.compile(
        r"from repro\.analysis\.sweep import\s*(?:\([^)]*|[^\n]*)\b_\w+")
    outside = [hit for hit in _offenders(private_import)
               if not hit.startswith("src/repro/analysis/")]
    assert not outside, "\n".join(outside)
    built = _offenders(re.compile(r"SweepOutcome\("))
    assert len(built) == 1 and built[0].startswith(
        "src/repro/analysis/sweep.py"), built
    assert "SweepOutcome(" in _function_source(
        SRC_DIR / "analysis" / "sweep.py", "sweep_site")


@pytest.mark.parametrize("text", ["duplicated across ranks",
                                  "def _signature"])
def test_shared_checker_pieces_exist_once(text):
    hits = _offenders(re.compile(re.escape(text)))
    assert len(hits) == 1, hits


def test_chaos_has_one_event_pool_and_no_mode_flags():
    chaos = (SRC_DIR / "harness" / "chaos.py").read_text()
    gone = re.findall(
        r"\b(?:media|pipeline)(?::\s*bool)?\s*=(?!=)"
        r"|_(?:MEDIA|PIPELINE)_EVENT_KINDS", chaos)
    assert not gone, gone
    flagged = [
        str(path.relative_to(ROOT))
        for path in [SRC_DIR / "cli.py", ROOT / "EXPERIMENTS.md",
                     ROOT / ".github" / "workflows" / "ci.yml",
                     ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
                     *DOCS]
        if path.exists() and re.search(r"--media\b|--pipeline\b",
                                       path.read_text())]
    assert not flagged, flagged
