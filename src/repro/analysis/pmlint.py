"""pmlint: an AST static pass that knows the PM-octree persistence API.

The checker understands the NVBM API surface — ``MemoryArena.write`` /
``write_octant`` / ``new_octant``, the field-granular stores
(``write_field`` / ``write_payload`` / ``write_child_slot`` /
``write_child_slots`` / ``set_flags``, which are flush-tracked and
COW-checked exactly like full-record stores), ``RootSlots.set`` / ``swap``,
``flush()`` and ``injector.site(...)`` — and enforces three rules over
``src/repro``:

``missing-flush``
    Within a function, an NVBM store can reach a root-slot *publish* (a
    store to a publish slot such as ``SLOT_PREV``) with no intervening
    ``flush()``; or a publishing function exits with NVBM stores issued
    after its last ``flush()``.  Either way the commit point could expose a
    handle whose record lines are still in the volatile cache.
``bypass-cow``
    A function in ``core/`` stores to an existing NVBM record directly
    (``.nvbm.write`` / ``.nvbm.write_octant``) without going through
    ``writable`` (``repro.core.cow.Landing.writable``, the one
    copy-on-write entry point) — the discipline invariant I2 depends on.
    Fresh allocations (``new_octant``) are exempt; reviewed exceptions
    carry a ``# pmlint: allow-direct-write`` pragma stating why.
``unknown-site``
    An ``injector.site(...)`` argument that the central registry
    (:mod:`repro.nvbm.sites`) does not know.  A typo here fails silently —
    the armed crash plan never fires.

The pass is intra-procedural and linearizes control flow in source order
(branches are scanned sequentially); that approximation is deliberate — the
persistence call sites in this codebase are straight-line, and a linter
must never hang on loops.  Lines containing ``pmlint: ignore`` suppress any
finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.nvbm import sites as default_sites_module

#: attribute names whose call on an NVBM receiver counts as a store.
WRITE_ATTRS = ("write", "write_octant", "new_octant", "write_field",
               "write_payload", "write_child_slot", "write_child_slots",
               "write_rows", "set_flags")
#: attribute names that can mutate an *existing* record in place.
INPLACE_WRITE_ATTRS = ("write", "write_octant", "write_field",
                       "write_payload", "write_child_slot",
                       "write_child_slots", "write_rows", "set_flags")
#: names of the slot constants / literals whose store is a commit point.
PUBLISH_SLOT_CONSTS = ("SLOT_PREV",)
PUBLISH_SLOT_LITERALS = ("V_prev",)
NULL_HANDLE_NAMES = ("NULL_HANDLE",)
ALLOW_DIRECT_WRITE_PRAGMA = "pmlint: allow-direct-write"
IGNORE_PRAGMA = "pmlint: ignore"
SITES_MODULE = "repro.nvbm.sites"


@dataclass
class Finding:
    """One static-analysis finding."""

    rule: str
    path: str
    line: int
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_row(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}


# --------------------------------------------------------------- AST helpers

def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression ('self.nvbm.roots', ...)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.append("()")
    return ".".join(reversed(parts))


def _receiver_mentions(node: ast.AST, needle: str) -> bool:
    return needle in _dotted(node).split(".")


def _is_publish_slot_arg(arg: ast.AST) -> bool:
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value in PUBLISH_SLOT_LITERALS
    if isinstance(arg, ast.Name):
        return arg.id in PUBLISH_SLOT_CONSTS
    if isinstance(arg, ast.Attribute):
        return arg.attr in PUBLISH_SLOT_CONSTS
    return False


def _is_null_handle_arg(arg: ast.AST) -> bool:
    if isinstance(arg, ast.Name):
        return arg.id in NULL_HANDLE_NAMES
    if isinstance(arg, ast.Attribute):
        return arg.attr in NULL_HANDLE_NAMES
    return isinstance(arg, ast.Constant) and arg.value == 0


def _linearize_calls(body: Sequence[ast.stmt]) -> List[ast.Call]:
    """Every Call node under ``body`` in source order, without descending
    into nested function/class definitions (they are separate scopes)."""
    calls: List[ast.Call] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                calls.append(child)
            visit(child)

    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue  # nested scopes are checked separately
        visit(stmt)
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


# ------------------------------------------------------------------ the pass

class _ModuleChecker:
    def __init__(self, tree: ast.Module, path: str, source_lines: List[str],
                 sites_module) -> None:
        self.tree = tree
        self.path = path
        self.lines = source_lines
        self.sites_module = sites_module
        self.findings: List[Finding] = []
        self.in_core = "core" in Path(path).parts
        #: local alias names for the sites module / names imported from it
        self.sites_aliases: List[str] = []
        self.sites_names: List[str] = []
        self._scan_imports()

    # -- imports ------------------------------------------------------------

    def _scan_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == SITES_MODULE:
                        self.sites_aliases.append(
                            alias.asname or alias.name.split(".")[-1]
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == SITES_MODULE:
                    for alias in node.names:
                        self.sites_names.append(alias.asname or alias.name)
                elif node.module == "repro.nvbm":
                    for alias in node.names:
                        if alias.name == "sites":
                            self.sites_aliases.append(alias.asname or "sites")

    # -- pragma handling ----------------------------------------------------

    def _line_has(self, lineno: int, pragma: str) -> bool:
        """True if the line, or the contiguous comment block directly above
        it, carries ``pragma`` (multi-line pragma comments are common)."""
        if 1 <= lineno <= len(self.lines) \
                and pragma in self.lines[lineno - 1]:
            return True
        candidate = lineno - 1
        while 1 <= candidate <= len(self.lines):
            text = self.lines[candidate - 1].strip()
            if not text.startswith("#"):
                break
            if pragma in text:
                return True
            candidate -= 1
        return False

    def _emit(self, rule: str, lineno: int, message: str) -> None:
        if self._line_has(lineno, IGNORE_PRAGMA):
            return
        self.findings.append(
            Finding(rule=rule, path=self.path, line=lineno, message=message)
        )

    # -- classification of one call -----------------------------------------

    def _classify(self, call: ast.Call) -> Optional[Tuple[str, dict]]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        recv = func.value
        if attr in ("flush", "flush_records") and \
                _receiver_mentions(recv, "nvbm"):
            # the pipeline's selective flush_records discharges the dirty
            # snapshot it is handed; for lint purposes it is a flush
            return "flush", {}
        if attr in WRITE_ATTRS and _receiver_mentions(recv, "nvbm") \
                and not _receiver_mentions(recv, "roots"):
            return "write", {"inplace": attr in INPLACE_WRITE_ATTRS}
        if attr == "set" and _receiver_mentions(recv, "roots") and call.args:
            if _is_publish_slot_arg(call.args[0]) and (
                len(call.args) < 2 or not _is_null_handle_arg(call.args[1])
            ):
                return "publish", {"slot": _dotted(call.args[0]) or "V_prev"}
            return None
        if attr == "swap" and _receiver_mentions(recv, "roots"):
            return "publish", {"slot": "swap"}
        if attr == "site" and _receiver_mentions(recv, "injector"):
            return "site", {}
        if attr == "writable":
            return "writable", {}
        return None

    # -- rules --------------------------------------------------------------

    def check_scope(self, name: str, body: Sequence[ast.stmt]) -> None:
        events: List[Tuple[ast.Call, str, dict]] = []
        for call in _linearize_calls(body):
            classified = self._classify(call)
            if classified is not None:
                events.append((call, *classified))

        # missing-flush: NVBM store reaching a publish / publishing scope
        # exit with no intervening flush.
        pending: List[ast.Call] = []
        published = False
        for call, kind, _info in events:
            if kind == "write":
                pending.append(call)
            elif kind == "flush":
                pending.clear()
            elif kind == "publish":
                published = True
                if pending:
                    first = pending[0]
                    self._emit(
                        "missing-flush", call.lineno,
                        f"{name}: root-slot publish reachable from the NVBM "
                        f"store at line {first.lineno} with no intervening "
                        "flush() — the commit point may expose unflushed "
                        "cache lines",
                    )
                    pending.clear()
        if published and pending:
            self._emit(
                "missing-flush", pending[0].lineno,
                f"{name}: function publishes a root slot but exits with "
                "NVBM stores issued after its last flush()",
            )

        # bypass-cow: direct in-place NVBM stores in core/ without the COW
        # discipline.
        if self.in_core and name != "writable":
            guarded = any(kind == "writable" for _, kind, _ in events)
            if not guarded:
                for call, kind, info in events:
                    if kind == "write" and info.get("inplace") \
                            and not self._line_has(
                                call.lineno, ALLOW_DIRECT_WRITE_PRAGMA):
                        self._emit(
                            "bypass-cow", call.lineno,
                            f"{name}: direct NVBM record store without "
                            "writable() (COW bypass; if the record is "
                            "provably fresh, annotate with "
                            f"'# {ALLOW_DIRECT_WRITE_PRAGMA}: <reason>')",
                        )

        # unknown-site: site names the registry does not know.
        for call, kind, _info in events:
            if kind == "site" and call.args:
                self._check_site_arg(name, call)

    def _check_site_arg(self, scope: str, call: ast.Call) -> None:
        arg = call.args[0]
        known = None
        shown = ""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            shown = repr(arg.value)
            known = self.sites_module.is_known(arg.value)
        elif isinstance(arg, ast.Attribute) and \
                isinstance(arg.value, ast.Name) and \
                arg.value.id in self.sites_aliases:
            shown = _dotted(arg)
            known = hasattr(self.sites_module, arg.attr)
        elif isinstance(arg, ast.Name) and arg.id in self.sites_names:
            shown = arg.id
            known = hasattr(self.sites_module, arg.id)
        if known is False:
            self._emit(
                "unknown-site", call.lineno,
                f"{scope}: crash site {shown} is not in the registry "
                "(repro.nvbm.sites) — an armed plan for it never fires",
            )

    # -- driver -------------------------------------------------------------

    def run(self) -> List[Finding]:
        self.check_scope("<module>", self.tree.body)
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.check_scope(node.name, node.body)
        return self.findings


# ----------------------------------------------------------------- public API

def lint_source(source: str, path: str = "<memory>",
                sites_module=None) -> List[Finding]:
    """Run every rule over one source string."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(rule="syntax-error", path=path,
                        line=exc.lineno or 0, message=str(exc.msg))]
    checker = _ModuleChecker(
        tree, path, source.splitlines(),
        sites_module or default_sites_module,
    )
    return checker.run()


def lint_paths(paths: Iterable[Union[str, Path]],
               sites_module=None) -> List[Finding]:
    """Lint files and directories (recursing into ``*.py``)."""
    findings: List[Finding] = []
    for entry in paths:
        entry = Path(entry)
        files = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for file in files:
            try:
                source = file.read_text(encoding="utf-8")
            except OSError as exc:
                findings.append(Finding(rule="io-error", path=str(file),
                                        line=0, message=str(exc)))
                continue
            findings.extend(lint_source(source, path=str(file),
                                        sites_module=sites_module))
    return findings


def lint_repo(root: Optional[Union[str, Path]] = None) -> List[Finding]:
    """Lint the installed ``repro`` package (default) or a given tree."""
    if root is None:
        import repro

        root = Path(repro.__file__).parent
    return lint_paths([root])
