"""Project-wide call graph for the interprocedural persistence analysis.

The dataflow pass (:mod:`repro.analysis.dataflow`) needs to follow flush /
publish obligations *across* function boundaries — ``persist`` flushes on
behalf of the stores ``merge_subtree`` issued three frames down.  This
module parses every ``*.py`` file under the analysis roots once and builds:

* a table of every function/method with its AST body, source lines and a
  stable qualified name (``repro.core.merge.merge_subtree``,
  ``repro.core.pmoctree.PMOctree.persist``);
* per-module import information (aliases of :mod:`repro.nvbm.sites`, names
  imported from project modules) so site constants and cross-module calls
  resolve;
* best-effort call resolution: a ``Call`` node maps to the project
  functions it may invoke.

Resolution is deliberately name-based (this is Python): a bare call
resolves to the same-module function or an imported project function; an
attribute call ``x.m(...)`` resolves to the enclosing class's ``m`` when
``x`` is ``self``, otherwise to every project method named ``m``.  Calls
with too many candidates, or whose name is on the :data:`NOISE` list of
ubiquitous collection/IO verbs, yield no edge — a missing edge makes the
analysis *less* interprocedural, never wrong about what it did see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Attribute names never treated as project-call edges: collection and IO
#: verbs that would wire unrelated classes together, plus the persistence
#: primitives the dataflow pass classifies *before* consulting the graph.
NOISE = frozenset({
    # persistence primitives (classified as effects, not edges)
    "write", "write_octant", "new_octant", "write_field", "write_payload",
    "write_child_slot", "write_child_slots", "write_rows", "set_flags",
    "flush", "set",
    "swap", "site", "published", "retired",
    # collections / builtins / IO
    "append", "add", "extend", "insert", "remove", "discard", "pop",
    "clear", "update", "copy", "keys", "values", "items", "get",
    "setdefault", "sort", "reverse", "index", "count", "join", "split",
    "strip", "lstrip", "rstrip", "startswith", "endswith", "format",
    "encode", "decode", "read", "readline", "readlines", "close", "open",
    "mean", "sum", "min", "max", "any", "all", "difference_update",
    "intersection", "union", "issubset", "to_row", "describe", "warn",
    "debug", "info", "error", "exception", "group", "match", "search",
    "sub", "findall", "heapify", "heappush", "heappop", "exists",
    "is_dir", "is_file", "read_text", "write_text", "rglob", "glob",
    "advance", "now_ns", "inc", "dec", "observe", "span", "counter",
    "gauge", "histogram", "barrier", "random", "integers", "choice",
    "shuffle", "default_rng",
})

#: A call with more than this many candidate targets is left unresolved.
MAX_CANDIDATES = 6


@dataclass
class FunctionInfo:
    """One function or method definition in the scanned tree."""

    qualname: str                 #: module.[Class.]name
    module: str
    name: str
    cls: Optional[str]
    path: str
    lineno: int
    node: ast.AST                 #: the FunctionDef / AsyncFunctionDef
    source_lines: List[str] = field(repr=False, default_factory=list)

    def where(self) -> str:
        return f"{Path(self.path).name}:{self.lineno}"


@dataclass
class ModuleInfo:
    """Per-module context the dataflow pass needs."""

    module: str
    path: str
    source_lines: List[str] = field(repr=False, default_factory=list)
    #: local aliases of the repro.nvbm.sites module ("sites", "site_registry")
    sites_aliases: List[str] = field(default_factory=list)
    #: names imported directly from repro.nvbm.sites
    sites_names: List[str] = field(default_factory=list)
    #: from-imports of project callables: local name -> source module
    from_imports: Dict[str, str] = field(default_factory=dict)


SITES_MODULE = "repro.nvbm.sites"


def _module_name_for(path: Path) -> str:
    """Dotted module name: anchored at the ``repro`` package when the path
    runs through one, else the file stem (fixture directories)."""
    parts = list(path.with_suffix("").parts)
    for anchor in ("repro",):
        if anchor in parts:
            return ".".join(parts[parts.index(anchor):])
    return path.stem


class CallGraph:
    """Functions, modules and name indexes over one set of analysis roots."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.modules: Dict[str, ModuleInfo] = {}
        #: bare method name -> qualnames of methods with that name
        self._methods: Dict[str, List[str]] = {}
        #: (module, bare name) -> qualname of the module-level function
        self._module_funcs: Dict[Tuple[str, str], str] = {}
        #: method name within one class: (module, cls, name) -> qualname
        self._class_methods: Dict[Tuple[str, str, str], str] = {}
        self.parse_errors: List[Tuple[str, str]] = []

    # -- construction --------------------------------------------------------

    def add_module(self, path: Union[str, Path], source: str) -> None:
        path = str(path)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.parse_errors.append((path, str(exc.msg)))
            return
        module = _module_name_for(Path(path))
        lines = source.splitlines()
        minfo = ModuleInfo(module=module, path=path, source_lines=lines)
        self._scan_imports(tree, minfo)
        self.modules[module] = minfo

        def visit(node: ast.AST, cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = ".".join(
                        p for p in (module, cls, child.name) if p
                    )
                    info = FunctionInfo(
                        qualname=qual, module=module, name=child.name,
                        cls=cls, path=path, lineno=child.lineno,
                        node=child, source_lines=lines,
                    )
                    self.functions[qual] = info
                    if cls is None:
                        self._module_funcs[(module, child.name)] = qual
                    else:
                        self._methods.setdefault(child.name, []).append(qual)
                        self._class_methods[(module, cls, child.name)] = qual
                    # nested defs are indexed too (rare, but cheap)
                    visit(child, cls)
                elif isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                else:
                    visit(child, cls)

        visit(tree, None)

    def _scan_imports(self, tree: ast.Module, minfo: ModuleInfo) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == SITES_MODULE:
                        minfo.sites_aliases.append(
                            alias.asname or alias.name.split(".")[-1]
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == SITES_MODULE:
                    for alias in node.names:
                        minfo.sites_names.append(alias.asname or alias.name)
                elif node.module == "repro.nvbm":
                    for alias in node.names:
                        if alias.name == "sites":
                            minfo.sites_aliases.append(alias.asname or "sites")
                elif node.module:
                    for alias in node.names:
                        minfo.from_imports[alias.asname or alias.name] = \
                            node.module

    # -- resolution ----------------------------------------------------------

    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> List[FunctionInfo]:
        """Project functions this call may invoke (possibly empty)."""
        func = call.func
        quals: List[str] = []
        if isinstance(func, ast.Name):
            name = func.id
            qual = self._module_funcs.get((caller.module, name))
            if qual is None:
                minfo = self.modules.get(caller.module)
                if minfo is not None:
                    src = minfo.from_imports.get(name)
                    if src is not None:
                        qual = self._module_funcs.get((src, name))
                        if qual is None and src in {
                            f.module for f in self.functions.values()
                        }:
                            qual = None
            if qual is None:
                # class instantiation: Name matching a known class resolves
                # to its __init__
                for (mod, cls, meth), q in self._class_methods.items():
                    if meth == "__init__" and cls == name and (
                        mod == caller.module
                        or self.modules.get(caller.module) is not None
                        and self.modules[caller.module].from_imports.get(name)
                        == mod
                    ):
                        quals.append(q)
            else:
                quals.append(qual)
        elif isinstance(func, ast.Attribute):
            name = func.attr
            if name in NOISE:
                return []
            if isinstance(func.value, ast.Name) and func.value.id == "self" \
                    and caller.cls is not None:
                own = self._class_methods.get(
                    (caller.module, caller.cls, name)
                )
                if own is not None:
                    return [self.functions[own]]
            # module-qualified call: sweep.trace_run(...), E.exp_fig10(...)
            if isinstance(func.value, ast.Name):
                minfo = self.modules.get(caller.module)
                if minfo is not None:
                    src = minfo.from_imports.get(func.value.id)
                    if src is not None:
                        qual = self._module_funcs.get((src, name))
                        if qual is not None:
                            return [self.functions[qual]]
            quals.extend(self._methods.get(name, []))
            if not quals:
                qual = self._module_funcs.get((caller.module, name))
                if qual is not None:
                    quals.append(qual)
        seen: List[FunctionInfo] = []
        for q in quals:
            info = self.functions.get(q)
            if info is not None and info not in seen:
                seen.append(info)
        if len(seen) > MAX_CANDIDATES:
            return []
        return seen

    def callers_of(self) -> Dict[str, int]:
        """qualname -> number of in-project call sites naming it (used to
        pick analysis roots; recomputed on demand, not cached)."""
        counts: Dict[str, int] = {q: 0 for q in self.functions}
        for info in self.functions.values():
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    for callee in self.resolve_call(info, node):
                        if callee.qualname != info.qualname:
                            counts[callee.qualname] += 1
        return counts


def build_callgraph(paths: Iterable[Union[str, Path]]) -> CallGraph:
    """Parse every ``*.py`` under the given files/directories."""
    graph = CallGraph()
    for entry in paths:
        entry = Path(entry)
        files = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for file in files:
            try:
                source = file.read_text(encoding="utf-8")
            except OSError as exc:
                graph.parse_errors.append((str(file), str(exc)))
                continue
            graph.add_module(file, source)
    return graph


def default_roots() -> Sequence[Path]:
    """The installed ``repro`` package (what ``analyze`` scans by default)."""
    import repro

    return [Path(repro.__file__).parent]
