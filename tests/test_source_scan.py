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
* copy-on-write is a batch: ``PMOctree._batch_store`` stores in one
  ``batch()`` scope, its NVBM items through the one field-store body.
* one body per mutation: no ``src`` file defines the per-item twins the
  landing buffer replaced (``_ensure_writable``, ``refine_leaves``,
  ``_CowBatch``, ...) or calls ``LoopBackedAccess.`` outside
  ``octree/store.py``; ``refine``/``coarsen``/``set_payload``/``set_field``
  go through the tree's landing buffer; and ``balance_tree`` and
  ``RefinementEngine._sweep`` mutate inside ``tree.batch()``.
* structure is a batch too: ``face_neighbor_leaves(`` is called only where
  it is defined (``octree/neighbors.py``) and by the loop-backed default in
  ``octree/store.py``; and ``src/repro`` imports nothing a clean
  ``pip install -e .`` does not bring (stdlib, ``numpy``, ``scipy``).
* the in-core comparator is a batch: ``InCoreOctree``'s ``batch_*`` and
  ``batch`` are its own, and the only class
  in ``src`` that inherits ``LoopBackedAccess`` is ``EtreeOctree`` (its
  index searches are metered, so its batches are the loop).
* one crash runner, one migration audit, one chaos pool: nothing outside
  ``repro/analysis`` imports a private name from the sweep,
  ``SweepOutcome(`` is built only inside ``sweep_site``, the migration
  audit's text and ``def _signature`` occur once under ``src``, and the
  chaos mode flags (``media=``/``pipeline=``, their pools, ``--media``/
  ``--pipeline`` in the CLI, docs and CI) stay gone.
* one static pass: ``analysis/pmlint.py`` stays gone, ``def _classify``
  occurs once under ``src/repro/analysis``, the retired
  ``allow-direct-write`` pragma is nowhere in ``src``, and ``analyze`` has
  no ``--interprocedural``/``--coverage`` flag.  Nor does the pass bound
  its reach: no frame budget, depth cap or truncation counter
  (``FRAME_BUDGET``, ``MAX_INLINE_DEPTH``, ``budget_exhausted``,
  ``analysis.static.*``) in ``src``, ``docs``, ``.github`` or the verify
  skill.
* one landing path: ``_cow_record_by_record``, ``_record_by_record``,
  ``media_faults_possible``, ``COW_SITES`` and ``.armed(`` stay out of
  ``src``, ``docs``, ``.github`` and the verify skill.
* media faults are planted: ``rot_mtbf_ns``, ``wear_fraction``,
  ``transient_rate``, ``note_write(`` and ``fm.armed`` stay out of the same
  places.
* the C0 budget is configuration: ``autotune``, ``C0AutoTuner`` and
  ``autotuned_persistence`` stay out of the same places, the examples,
  README.md, DESIGN.md and EXPERIMENTS.md.
* ``src`` keeps only code that runs outside its tests: every public
  function, class, method and property has a use in ``src`` outside its
  own body or in ``bench``/``benchmarks``/``examples``/``tests/oracles``,
  except a short allowlist of invariant checkers, test hooks and
  read-only introspection, each with its reason.
"""

import ast
import collections
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


def test_copy_on_write_is_a_batch():
    """``_batch_store`` is one scope: the DRAM rows take one scatter, the
    NVBM items the one field-store body (its copy-on-write included)."""
    store = _function_source(SRC_DIR / "core" / "pmoctree.py",
                             "PMOctree._batch_store")
    assert "with self.batch() as buf:" in store
    assert "self._store_span(" in store and "writable(" not in store


#: per-item twins of the mutation bodies; their verbatim text is in
#: tests/oracles/structure_walks.py
DELETED = ("_ensure_writable", "_is_writable", "_path_to", "_refine_dram",
           "_refine_nvbm", "refine_leaves", "coarsen_parents", "_split",
           "_CowBatch", "set_many")


def _within_batch_scopes(body: ast.AST):
    """Nodes under a ``with tree.batch():`` block of ``body``."""
    return [node for with_ in ast.walk(body) if isinstance(with_, ast.With)
            and any(ast.unparse(item.context_expr) == "tree.batch()"
                    for item in with_.items)
            for node in ast.walk(with_)]


def test_one_body_per_mutation():
    defined = [f"{path.relative_to(ROOT)}: {node.name}"
               for path in sorted(SRC_DIR.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in DELETED]
    assert not defined, defined
    looped = [hit for hit in _offenders(re.compile(r"LoopBackedAccess\.\w+\("))
              if not hit.startswith("src/repro/octree/store.py")]
    assert not looped, looped
    # each mutation is one body, and it lands through the buffer
    pm = SRC_DIR / "core" / "pmoctree.py"
    for name in ("refine", "coarsen", "_store_span"):
        body = _function_source(pm, f"PMOctree.{name}")
        assert "buf." in body and not re.search(
            r"\.(?:read|new|write)_octant\(|\.write_field\(|\.set_flags\(",
            body), name
    for name in ("set_payload", "set_field"):
        assert "self._store_span(" in _function_source(pm, f"PMOctree.{name}")
    pointer = SRC_DIR / "octree" / "tree.py"
    for name in ("refine", "coarsen"):
        body = _function_source(pointer, f"PointerOctree.{name}")
        assert "self._landing." in body and "_octant(" not in body, name
    # the sweep and Balance's ripple mutate inside one scope
    sweep = ast.parse(_function_source(SRC_DIR / "octree" / "refine.py",
                                       "RefinementEngine._sweep"))
    mutations = [node for node in ast.walk(sweep)
                 if isinstance(node, ast.Call)
                 and re.fullmatch(r"tree\.(?:refine|coarsen)",
                                  ast.unparse(node.func))]
    scoped = _within_batch_scopes(sweep)
    assert len(mutations) == 2 and all(m in scoped for m in mutations)
    balance = ast.parse((SRC_DIR / "octree" / "balance.py").read_text())
    ripples = [node for node in ast.walk(balance)
               if isinstance(node, ast.Call)
               and ast.unparse(node.func) == "_ripple"]
    assert ripples and all(r in _within_batch_scopes(balance)
                           for r in ripples)
    refines = [node for node in ast.walk(balance)
               if isinstance(node, ast.FunctionDef)
               and "tree.refine(" in ast.unparse(node)]
    assert [node.name for node in refines] == ["_ripple"]


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


def test_only_etree_inherits_the_loop():
    from repro.baselines.incore import InCoreOctree
    from repro.octree.store import LoopBackedAccess

    for name in ("batch_read_payloads", "batch_read_fields",
                 "batch_set_payloads", "batch_set_fields", "batch"):
        assert getattr(InCoreOctree, name) \
            is not getattr(LoopBackedAccess, name), name
    heirs = [f"{path.relative_to(ROOT)}: {node.name}"
             for path in sorted(SRC_DIR.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)
             and "LoopBackedAccess" in map(ast.unparse, node.bases)]
    assert heirs == ["src/repro/baselines/etree.py: EtreeOctree"], heirs


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


def test_one_static_pass():
    assert not (SRC_DIR / "analysis" / "pmlint.py").exists()
    classify = [hit for hit in _offenders(re.compile(r"def _classify\b"))
                if hit.startswith("src/repro/analysis/")]
    assert len(classify) == 1, classify
    assert not _offenders(re.compile(r"allow-direct-write"))
    assert not _offenders(re.compile(r"--interprocedural|--coverage\b"))
    bounds = re.compile(r"FRAME_BUDGET|MAX_INLINE_DEPTH|budget_exhausted"
                        r"|analysis\.static\.")
    assert not _mentions(bounds), _mentions(bounds)


def _mentions(pattern, also=()):
    """``file: match`` for every hit in ``src``, ``docs``, ``.github``, the
    verify skill and the files ``also`` names."""
    files = [*SRC_DIR.rglob("*.py"), *(ROOT / "docs").rglob("*"),
             *(ROOT / ".github").rglob("*"),
             ROOT / ".claude" / "skills" / "verify" / "SKILL.md", *also]
    return [f"{path.relative_to(ROOT)}: {m.group(0)}"
            for path in files if path.is_file()
            for m in pattern.finditer(path.read_text())]


def test_one_landing_path():
    """A ``tree.batch()`` scope and the merge's chunks land grouped under
    crash plans and media faults alike: no per-record mode, no predicate
    that picks one, and no injector query that asks whether a site is
    armed."""
    gone = re.compile(r"_record_by_record|media_faults_possible"
                      r"|\bCOW_SITES\b|\.armed\(")
    assert not _mentions(gone), _mentions(gone)


def test_one_persist_path():
    """A persist at every window is the epoch pipeline's enqueue and
    settle: no second persist body, no guard that picks one, and no
    crash-site alias for a position the ``persist.*`` sites name."""
    gone = re.compile(r"_persist_impl|EPOCH_ENQUEUE_MID"
                      r"|EPOCH_COMMIT_PRE_PUBLISH|epoch\.enqueue\.mid"
                      r"|epoch\.commit\.pre_publish|_pipeline is (not )?None")
    assert not _mentions(gone), _mentions(gone)



def test_media_faults_are_planted():
    """A media fault is a planted line, so a read's outcome depends on
    nothing but what is planted: no rate, clock or wear knob, no per-line
    write hook and no armed fallback in the batch read."""
    gone = re.compile(r"rot_mtbf_ns|wear_fraction|transient_rate"
                      r"|note_write\(|fm\.armed")
    assert not _mentions(gone), _mentions(gone)


def test_c0_budget_is_configuration():
    """The C0 DRAM budget is ``PMOctreeConfig.dram_capacity_octants``,
    set when the tree is built: no controller rewrites a live tree's
    budget between steps."""
    gone = re.compile(r"autotune|C0AutoTuner|autotuned_persistence")
    hits = _mentions(gone, also=[*(ROOT / "examples").rglob("*.py"),
                                 ROOT / "README.md", ROOT / "DESIGN.md",
                                 ROOT / "EXPERIMENTS.md"])
    assert not hits, hits


def test_replica_is_fed_by_the_write_set():
    """A replica DELTA carries the published epochs' write sets: no
    whole-tree delta walk and no second ship path beside
    ``ReplicaSession.ship``."""
    gone = re.compile(r"compute_delta|ship_delta")
    hits = _mentions(gone, also=[*(ROOT / "examples").rglob("*.py")])
    assert not hits, hits


# ------------------------------------------------- no test-only surface

#: directories whose code calls ``src`` the way the system does: the
#: benchmark, the paper's experiments, the examples and the reference bodies
CALLER_DIRS = ("bench", "benchmarks", "examples", "tests/oracles")

#: ``repro.<module>.<qualname>`` of public definitions only tests call, each
#: kept on purpose
TEST_ONLY_ALLOWED = {
    "repro.octree.store.validate_tree":
        "invariant checker every structure test leans on",
    "repro.octree.linear.LinearOctree.validate_complete":
        "invariant checker for linear octrees",
    "repro.octree.soa.LeafSetStructure.find_leaf_at":
        "invariant checker: point location against the leaf set",
    "repro.nvbm.sites.register":
        "test hook: plants a site in the process-global registry",
    "repro.nvbm.sites.unregister":
        "test hook: removes a planted site again",
    "repro.nvbm.failure.FailureInjector.armed_sites":
        "read-only introspection; the alternative is injector._plans",
    "repro.nvbm.arena.MemoryArena.dirty_records":
        "read-only introspection; the alternative is the dirty bitmap",
    "repro.nvbm.allocator.RecordAllocator.is_retired":
        "read-only introspection; the alternative is the retired set",
    "repro.analysis.tracker.OrderingTracker.trace_of":
        "read-only introspection; the alternative is the tracker's log",
    "repro.analysis.tracker.OrderingTracker.open_epochs":
        "read-only introspection; the alternative is the open-epoch dict",
    "repro.core.api.pm_delete":
        "one of the paper's four API calls",
}

#: a string constant that may name code: ``getattr(x, "name")``, bench's
#: ``"repro.core.pmoctree.PMOctree.persist"``, ``"...MemoryArena.*"``
_IDENT = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\.\*)?")


def _uses(tree: ast.AST, imports: bool = True) -> "collections.Counter":
    """Names a piece of code uses: ``Name`` ids, ``Attribute`` attrs, import
    aliases (unless ``imports`` is False) and the parts of identifier-like
    string constants (an ``__all__`` list exports names, it does not use
    them)."""
    exported = {id(node) for assign in ast.walk(tree)
                if isinstance(assign, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in assign.targets)
                for node in ast.walk(assign.value)}
    used = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias) and imports:
            used.update(node.name.split("."))
            if node.asname:
                used[node.asname] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported and _IDENT.fullmatch(node.value)):
            used.update(node.value.rstrip(".*").split("."))
    return used


def _public_definitions(path: pathlib.Path, tree: ast.Module):
    """``(dotted name, node)`` of the module's public functions and classes
    and of those classes' public methods and properties."""
    module = ".".join(path.relative_to(SRC_DIR.parent).with_suffix("").parts)
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{module}.{node.name}.{sub.name}", sub


def test_src_has_no_test_only_surface():
    """Every public definition in ``src`` has a caller outside ``tests/``:
    ``src`` itself (outside the definition's own body) or a directory in
    :data:`CALLER_DIRS`.  A helper only tests reach is code the system
    never runs; delete it (and the tests that check only it), or allowlist
    it with a reason."""
    modules = {path: ast.parse(path.read_text())
               for path in sorted(SRC_DIR.rglob("*.py"))}
    used = collections.Counter()
    for path, tree in modules.items():
        # a package re-exporting a name does not call it
        used += _uses(tree, imports=path.name != "__init__.py")
    for caller_dir in CALLER_DIRS:
        for path in sorted((ROOT / caller_dir).rglob("*.py")):
            used += _uses(ast.parse(path.read_text()))
    test_only = sorted(
        dotted for path, tree in modules.items()
        for dotted, node in _public_definitions(path, tree)
        if used[node.name] == _uses(node)[node.name])
    unlisted = [name for name in test_only if name not in TEST_ONLY_ALLOWED]
    assert not unlisted, (
        f"{len(unlisted)} public definitions in src have no caller outside "
        "tests/:\n" + "\n".join(unlisted))
    stale = sorted(set(TEST_ONLY_ALLOWED) - set(test_only))
    assert not stale, f"allowlisted but no longer test-only: {stale}"
