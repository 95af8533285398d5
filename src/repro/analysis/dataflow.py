"""The static pass: flush/publish obligations along call chains, plus the
copy-on-write and crash-site rules, over one parsed tree.

The pass knows the NVBM API surface — ``MemoryArena.write`` /
``write_octant`` / ``new_octant``, the field-granular stores
(``write_field`` / ``write_payload`` / ``write_child_slot`` /
``write_child_slots`` / ``write_rows`` / ``set_flags``), ``RootSlots.set``
/ ``swap``, ``flush()`` / ``flush_records()`` and ``injector.site(...)``.
It evaluates an abstract *obligation state* along call chains: every
function in the scanned tree (and every module's top-level statements) is
taken as an entry point with a clean state, and project calls discovered
by :mod:`repro.analysis.callgraph` are inlined (cycle-guarded, depth- and
budget-capped) so that a store issued three frames below a publish still
reaches it.  The abstract state models what the runtime tracker
(:mod:`repro.analysis.tracker`) observes dynamically:

* ``dirty`` — NVBM stores whose cache lines have not been flushed, each
  carrying the full call-chain witness of how the store was reached;
* whether a ``flush()`` was seen earlier on the path (classifies a dirty
  publish as ``double-flush-elision`` — flushed once, re-stored, second
  flush elided — rather than ``missing-flush``);
* the *coverage window* — from the first dirty store to the next publish —
  and every crash site observed inside it (consumed by
  :mod:`repro.analysis.coverage`);
* migration-journal evidence: which locals have been observed
  ``published`` (method call, ``.state`` store, or a dominating
  ``.state == "published"`` guard), so retiring an entry that was never
  published is reported as ``publish-before-retire``.

Rules:

``missing-flush``
    a publish is reachable with dirty stores that were never preceded by a
    flush on the path (with a call-chain witness); or a function publishes
    a root slot and exits with stores of its *own* body issued after its
    last flush.  Dirt a callee leaves behind is not an exit finding: a
    function may leave stores for its caller, or the next epoch's persist,
    to flush.
``double-flush-elision``
    a publish is reachable with dirty stores that were all issued *after*
    a flush on the path — the "we already flushed this" bug.
``publish-before-retire``
    a migration-journal entry is retired on a path with no publish
    evidence for it (violates the publish-before-retire discipline that
    recovery depends on).
``raw-write``
    a store through the raw record accessors (``write`` /
    ``write_octant``) instead of the field-granular API.
``bypass-cow``
    a function in ``core/`` stores to an existing NVBM record in place and
    does not call ``writable`` (``repro.core.cow.Landing.writable``, the one
    copy-on-write entry point) in its own body — the discipline invariant
    I2 depends on.  Fresh allocations (``new_octant``) are exempt.
``unknown-site``
    an ``injector.site(...)`` argument — a literal, a ``sites.X``
    attribute or a name imported from :mod:`repro.nvbm.sites` — that the
    registry does not know.  A typo here fails silently: the armed crash
    plan never fires.
``syntax-error`` / ``io-error``
    a scanned file that does not parse or cannot be read.

A reviewed exception carries ``# pmlint: allow[<rule>]: <reason>`` on the
flagged line or in the comment block directly above it.  The reason is
mandatory: a bare pragma is itself reported as ``<rule>-no-reason``.
``# pmlint: ignore`` suppresses any finding on its line.

Control flow is branch-sensitive for ``if`` (both arms evaluated, states
joined: dirty and observed sites union, journal evidence intersects) and
linearized for loops (one body pass — the persistence call sites in this
tree are not loop-carried).  Nested functions are scopes of their own.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.analysis.callgraph import (
    CallGraph, FunctionInfo, ModuleInfo, build_callgraph, default_roots,
)
from repro.nvbm import sites as default_sites_module

#: attribute names whose call on an NVBM receiver counts as a store.
WRITE_ATTRS = ("write", "write_octant", "new_octant", "write_field",
               "write_payload", "write_child_slot", "write_child_slots",
               "write_rows", "set_flags")
#: Raw record accessors: whole-record stores that bypass the field-granular
#: API.  ``new_octant`` is exempt — a fresh allocation has no old contents
#: to tear (and is no in-place store either).
RAW_WRITE_ATTRS = ("write", "write_octant")
#: names of the slot constants / literals whose store is a commit point.
PUBLISH_SLOT_CONSTS = ("SLOT_PREV",)
PUBLISH_SLOT_LITERALS = ("V_prev",)
NULL_HANDLE_NAMES = ("NULL_HANDLE",)

IGNORE_PRAGMA = "pmlint: ignore"
_ALLOW_RE = re.compile(r"pmlint:\s*allow\[([\w-]+)\](?:\s*:\s*(\S.*))?")

#: The crash site RootSlots.swap fires between its two device stores; the
#: analyzer credits a swap-publish with it (the site is inside the arena,
#: below the API surface this pass models).
SWAP_INTERNAL_SITE = "roots.swap.mid"

#: Inlining limits.  Depth bounds one chain; the frame budget bounds the
#: whole evaluation of one root (multi-candidate calls fan out).
MAX_INLINE_DEPTH = 12
FRAME_BUDGET = 600


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


def _calls(node: Optional[ast.AST]) -> List[ast.Call]:
    """Every call under ``node``, itself included, in source order —
    without entering nested function, class or lambda bodies (separate
    scopes)."""
    calls: List[ast.Call] = []

    def visit(n: ast.AST) -> None:
        if isinstance(n, ast.Call):
            calls.append(n)
        for child in ast.iter_child_nodes(n):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef, ast.Lambda)):
                visit(child)

    if node is not None:
        visit(node)
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


def site_name(minfo: Optional[ModuleInfo], arg: ast.AST,
              sites_module) -> Optional[str]:
    """The crash-site name an ``injector.site(...)`` argument denotes: a
    string literal, a ``sites.X`` attribute or a name imported from the
    sites module (``"<X>"`` when the module has no such constant).  None
    when the name is only known at runtime."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    attr = None
    if minfo is not None:
        if isinstance(arg, ast.Attribute) and \
                isinstance(arg.value, ast.Name) and \
                arg.value.id in minfo.sites_aliases:
            attr = arg.attr
        elif isinstance(arg, ast.Name) and arg.id in minfo.sites_names:
            attr = arg.id
    if attr is None:
        return None
    value = getattr(sites_module, attr, None)
    return value if isinstance(value, str) else f"<{attr}>"


def _pragma_lines(lines: List[str], lineno: int) -> Iterator[str]:
    """The line itself and the contiguous comment block directly above it
    (multi-line pragma comments are common)."""
    if 1 <= lineno <= len(lines):
        yield lines[lineno - 1]
    above = lineno - 1
    while 1 <= above <= len(lines):
        text = lines[above - 1].strip()
        if not text.startswith("#"):
            return
        yield text
        above -= 1


def _allow_reason(lines: List[str], lineno: int,
                  rule: str) -> Optional[str]:
    """The reason of an ``allow[rule]`` pragma at/above the line; '' when
    the pragma is bare; None when there is none."""
    for text in _pragma_lines(lines, lineno):
        for m in _ALLOW_RE.finditer(text):
            if m.group(1) == rule:
                return (m.group(2) or "").strip()
    return None


@dataclass
class Witness:
    """Where an event happened and how execution got there."""

    path: str
    line: int
    chain: Tuple[str, ...]  #: call-chain frames, root first

    def where(self) -> str:
        return f"{Path(self.path).name}:{self.line}"


@dataclass
class DataflowFinding:
    """One finding of the static pass, with its call-chain witness."""

    rule: str
    path: str
    line: int
    message: str
    chain: Tuple[str, ...] = ()

    def describe(self) -> str:
        via = f"  [via {' -> '.join(self.chain)}]" if self.chain else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{via}"

    def to_row(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message, "chain": list(self.chain)}

    def fingerprint(self) -> str:
        """Stable identity for baseline diffs: rule + file + innermost
        frame, without line numbers (insertions above must not churn)."""
        tail = self.chain[-1] if self.chain else ""
        tail = re.sub(r":\d+", "", tail)
        return f"{self.rule}//{Path(self.path).name}//{tail}"


@dataclass
class PathRecord:
    """One mutate→publish window discovered on some call chain."""

    root: str                  #: entry-point qualname
    first_dirty: Witness
    publish: Witness
    sites: Tuple[str, ...]     #: crash sites observed inside the window

    def key(self) -> Tuple[str, int, str, int]:
        return (self.first_dirty.path, self.first_dirty.line,
                self.publish.path, self.publish.line)


@dataclass
class RetireRecord:
    """One journal-entry retire observed on some call chain."""

    root: str
    witness: Witness
    var: str
    sites_before: Tuple[str, ...]  #: crash sites observed earlier on path

    def key(self) -> Tuple[str, int]:
        return (self.witness.path, self.witness.line)


@dataclass
class _StoreEvt:
    witness: Witness
    attr: str
    after_flush: bool


class _AbsState:
    """Abstract obligation state along one path."""

    __slots__ = ("dirty", "flush_seen", "first_dirty", "window_sites",
                 "sites_seen", "evidence")

    def __init__(self) -> None:
        self.dirty: List[_StoreEvt] = []
        self.flush_seen = False
        self.first_dirty: Optional[Witness] = None
        self.window_sites: List[str] = []
        self.sites_seen: List[str] = []
        self.evidence: set = set()      #: locals with publish evidence

    def copy(self) -> "_AbsState":
        out = _AbsState()
        out.dirty = list(self.dirty)
        out.flush_seen = self.flush_seen
        out.first_dirty = self.first_dirty
        out.window_sites = list(self.window_sites)
        out.sites_seen = list(self.sites_seen)
        out.evidence = set(self.evidence)
        return out

    def join(self, other: "_AbsState") -> None:
        """Merge ``other`` (the sibling branch) into self.

        Obligations are *may* facts — union keeps every possibly-dirty
        store and every possibly-reached site (a site behind an
        ``if injector`` guard does exist on the armed path the sweep
        exercises).  Journal evidence is a *must* fact — only what both
        branches established survives the join.
        """
        seen = {id(e) for e in self.dirty}
        self.dirty.extend(e for e in other.dirty if id(e) not in seen)
        self.flush_seen = self.flush_seen and other.flush_seen
        if self.first_dirty is None:
            self.first_dirty = other.first_dirty
        for s in other.window_sites:
            if s not in self.window_sites:
                self.window_sites.append(s)
        for s in other.sites_seen:
            if s not in self.sites_seen:
                self.sites_seen.append(s)
        self.evidence &= other.evidence


class _Analyzer:
    def __init__(self, graph: CallGraph, sites_module) -> None:
        self.graph = graph
        self.sites_module = sites_module
        #: (rule, path, line) -> finding; longest chain wins (fullest
        #: interprocedural context for the same defect).
        self._findings: Dict[Tuple[str, str, int], DataflowFinding] = {}
        self.path_records: List[PathRecord] = []
        self.retire_records: List[RetireRecord] = []
        self.stats = {"roots": 0, "frames": 0, "budget_exhausted": 0}
        self._budget = 0
        #: facts about the current root's own body (depth 0): its in-place
        #: NVBM stores, and whether it published or called ``writable``
        self._own_inplace: List[Witness] = []
        self._own_published = False
        self._own_writable = False

    # -- findings ------------------------------------------------------------

    def _emit(self, info: FunctionInfo, rule: str, witness: Witness,
              message: str) -> None:
        lines = info.source_lines
        if any(IGNORE_PRAGMA in text
               for text in _pragma_lines(lines, witness.line)):
            return
        reason = _allow_reason(lines, witness.line, rule)
        if reason:
            return
        if reason == "":
            message = (f"allow[{rule}] pragma has no reason string — the "
                       "reason is mandatory")
            rule = f"{rule}-no-reason"
        key = (rule, witness.path, witness.line)
        finding = DataflowFinding(rule=rule, path=witness.path,
                                  line=witness.line, message=message,
                                  chain=witness.chain)
        prior = self._findings.get(key)
        if prior is None or len(finding.chain) > len(prior.chain):
            self._findings[key] = finding

    # -- classification ------------------------------------------------------

    def _classify(self, call: ast.Call) -> Optional[Tuple[str, dict]]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        recv = func.value
        if attr in ("flush", "flush_records") and \
                _receiver_mentions(recv, "nvbm"):
            # flush_records is the pipeline's selective flush: callers pass
            # the full dirty snapshot of the epoch being settled, so for
            # path-sensitive obligation tracking it discharges dirt the
            # same way the whole-arena flush does.
            return "flush", {}
        if attr in WRITE_ATTRS and _receiver_mentions(recv, "nvbm") \
                and not _receiver_mentions(recv, "roots"):
            return "store", {"attr": attr}
        if attr == "set" and _receiver_mentions(recv, "roots") and call.args:
            if _is_publish_slot_arg(call.args[0]) and (
                len(call.args) < 2 or not _is_null_handle_arg(call.args[1])
            ):
                slot = _dotted(call.args[0]) or "V_prev"
                return "publish", {"slot": slot, "swap": False}
            return None
        if attr == "swap" and _receiver_mentions(recv, "roots"):
            return "publish", {"slot": "swap", "swap": True}
        if attr == "site" and _receiver_mentions(recv, "injector"):
            return "site", {"arg": call.args[0] if call.args else None}
        if attr == "published" and not call.args:
            return "journal-publish", {"var": _dotted(recv)}
        if attr == "retired" and not call.args:
            return "journal-retire", {"var": _dotted(recv)}
        if attr == "writable":
            return "writable", {}
        return None

    # -- event application ---------------------------------------------------

    def _apply_store(self, info: FunctionInfo, call: ast.Call, attr: str,
                     state: _AbsState, chain: Tuple[str, ...]) -> None:
        witness = Witness(info.path, call.lineno, chain)
        if attr in RAW_WRITE_ATTRS:
            self._emit(
                info, "raw-write", witness,
                f"store through raw record accessor .{attr}() bypasses "
                "the field-granular API (write_field/write_payload/"
                "write_child_slot[s]); if the whole-record store is "
                "intentional, annotate with "
                "'# pmlint: allow[raw-write]: <reason>'",
            )
        if len(chain) == 1 and attr != "new_octant":
            self._own_inplace.append(witness)
        evt = _StoreEvt(witness=witness, attr=attr,
                        after_flush=state.flush_seen)
        state.dirty.append(evt)
        if state.first_dirty is None:
            state.first_dirty = witness
            state.window_sites = []

    def _apply_publish(self, info: FunctionInfo, call: ast.Call, opts: dict,
                       state: _AbsState, chain: Tuple[str, ...],
                       root: str) -> None:
        witness = Witness(info.path, call.lineno, chain)
        self._own_published |= len(chain) == 1
        if opts.get("swap"):
            # RootSlots.swap fires roots.swap.mid between its two device
            # stores — inside the window by construction.
            if state.first_dirty is not None \
                    and SWAP_INTERNAL_SITE not in state.window_sites:
                state.window_sites.append(SWAP_INTERNAL_SITE)
            if SWAP_INTERNAL_SITE not in state.sites_seen:
                state.sites_seen.append(SWAP_INTERNAL_SITE)
        if state.dirty:
            never_flushed = [e for e in state.dirty if not e.after_flush]
            culprit = (never_flushed or state.dirty)[0]
            if never_flushed:
                rule = "missing-flush"
                msg = (
                    f"publish of {opts['slot']} reachable from the NVBM "
                    f"store at {culprit.witness.where()} with no "
                    "intervening flush() — the commit point may expose "
                    "unflushed cache lines"
                )
            else:
                rule = "double-flush-elision"
                msg = (
                    f"publish of {opts['slot']} reachable from the NVBM "
                    f"store at {culprit.witness.where()}; the path flushed "
                    "once before that store and the needed second flush "
                    "was elided"
                )
            self._emit(info, rule, witness,
                       msg + f" (store via {' -> '.join(culprit.witness.chain)})")
            state.dirty = []
        if state.first_dirty is not None:
            self.path_records.append(PathRecord(
                root=root, first_dirty=state.first_dirty, publish=witness,
                sites=tuple(state.window_sites),
            ))
            state.first_dirty = None
            state.window_sites = []

    def _apply_site(self, info: FunctionInfo, call: ast.Call, opts: dict,
                    state: _AbsState, chain: Tuple[str, ...]) -> None:
        arg = opts.get("arg")
        if arg is None:
            return
        name = site_name(self.graph.modules.get(info.module), arg,
                         self.sites_module)
        if name is None:
            name = "<dynamic>"
        elif len(chain) == 1 and not self.sites_module.is_known(name):
            self._emit(
                info, "unknown-site", Witness(info.path, call.lineno, chain),
                f"{info.name}: crash site {ast.unparse(arg)} is not in the "
                "registry (repro.nvbm.sites) — an armed plan for it never "
                "fires",
            )
        if state.first_dirty is not None and name not in state.window_sites:
            state.window_sites.append(name)
        if name not in state.sites_seen:
            state.sites_seen.append(name)

    def _apply_retire(self, info: FunctionInfo, lineno: int, var: str,
                      state: _AbsState, chain: Tuple[str, ...],
                      root: str) -> None:
        witness = Witness(info.path, lineno, chain)
        if var not in state.evidence:
            self._emit(
                info, "publish-before-retire", witness,
                f"journal entry {var!r} retired on a path with no publish "
                "evidence (.published() call, state store, or a dominating "
                "state == \"published\" guard) — recovery would drop "
                "records the receiver never durably owned",
            )
        self.retire_records.append(RetireRecord(
            root=root, witness=witness, var=var,
            sites_before=tuple(state.sites_seen),
        ))

    # -- statement evaluation ------------------------------------------------

    def _eval_call(self, info: FunctionInfo, call: ast.Call,
                   state: _AbsState, chain: Tuple[str, ...],
                   root: str, depth: int) -> None:
        kind, opts = self._classify(call) or (None, None)
        if kind == "writable":
            # the copy-on-write entry point: noted for bypass-cow, and
            # inlined like any other call
            self._own_writable |= depth == 0
        elif kind is not None:
            if kind == "flush":
                state.dirty = []
                state.flush_seen = True
            elif kind == "store":
                self._apply_store(info, call, opts["attr"], state, chain)
            elif kind == "publish":
                self._apply_publish(info, call, opts, state, chain, root)
            elif kind == "site":
                self._apply_site(info, call, opts, state, chain)
            elif kind == "journal-publish":
                state.evidence.add(opts["var"])
            elif kind == "journal-retire":
                self._apply_retire(info, call.lineno, opts["var"], state,
                                   chain, root)
            return
        if depth >= MAX_INLINE_DEPTH or self._budget <= 0:
            if self._budget <= 0:
                self.stats["budget_exhausted"] += 1
            return
        callees = [c for c in self.graph.resolve_call(info, call)
                   if c.qualname not in chain_quals(chain)]
        if not callees:
            return
        callsite = f"{Path(info.path).name}:{call.lineno}"
        if len(callees) == 1:
            callee = callees[0]
            self._eval_function(
                callee, state,
                chain + (f"{callee.qualname} (at {callsite})",),
                root, depth + 1,
            )
            return
        branches = []
        for callee in callees:
            sub = state.copy()
            self._eval_function(
                callee, sub,
                chain + (f"{callee.qualname} (at {callsite})",),
                root, depth + 1,
            )
            branches.append(sub)
        merged = branches[0]
        for sub in branches[1:]:
            merged.join(sub)
        _copy_into(merged, state)

    def _guard_evidence(self, test: ast.AST) -> List[str]:
        """Vars granted publish evidence in the true branch of this test."""
        out: List[str] = []
        if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                and isinstance(test.ops[0], ast.Eq) \
                and isinstance(test.left, ast.Attribute) \
                and test.left.attr == "state":
            comp = test.comparators[0]
            if isinstance(comp, ast.Constant) and comp.value == "published":
                out.append(_dotted(test.left.value))
        return out

    def _eval_stmts(self, info: FunctionInfo, body: Sequence[ast.stmt],
                    state: _AbsState, chain: Tuple[str, ...],
                    root: str, depth: int) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                for call in _calls(stmt.test):
                    self._eval_call(info, call, state, chain, root, depth)
                then = state.copy()
                for var in self._guard_evidence(stmt.test):
                    then.evidence.add(var)
                self._eval_stmts(info, stmt.body, then, chain, root, depth)
                other = state.copy()
                self._eval_stmts(info, stmt.orelse, other, chain, root,
                                 depth)
                then.join(other)
                _copy_into(then, state)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                header = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) \
                    else stmt.test
                for call in _calls(header):
                    self._eval_call(info, call, state, chain, root, depth)
                self._eval_stmts(info, stmt.body, state, chain, root, depth)
                self._eval_stmts(info, stmt.orelse, state, chain, root,
                                 depth)
                continue
            if isinstance(stmt, ast.Try):
                self._eval_stmts(info, stmt.body, state, chain, root, depth)
                for handler in stmt.handlers:
                    self._eval_stmts(info, handler.body, state, chain, root,
                                     depth)
                self._eval_stmts(info, stmt.orelse, state, chain, root,
                                 depth)
                self._eval_stmts(info, stmt.finalbody, state, chain, root,
                                 depth)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    for call in _calls(item.context_expr):
                        self._eval_call(info, call, state, chain, root,
                                        depth)
                self._eval_stmts(info, stmt.body, state, chain, root, depth)
                continue
            if isinstance(stmt, ast.Assign):
                for call in _calls(stmt):
                    self._eval_call(info, call, state, chain, root, depth)
                self._eval_journal_assign(info, stmt, state, chain, root)
                continue
            for call in _calls(stmt):
                self._eval_call(info, call, state, chain, root, depth)

    def _eval_journal_assign(self, info: FunctionInfo, stmt: ast.Assign,
                             state: _AbsState, chain: Tuple[str, ...],
                             root: str) -> None:
        if not (isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)):
            return
        value = stmt.value.value
        for target in stmt.targets:
            if not (isinstance(target, ast.Attribute)
                    and target.attr == "state"):
                continue
            var = _dotted(target.value)
            # the journal primitives themselves (MigrationEntry.published /
            # .retired) are the event source, not a use of it
            if info.name in ("published", "retired"):
                continue
            if value == "published":
                state.evidence.add(var)
            elif value == "retired":
                self._apply_retire(info, stmt.lineno, var, state, chain,
                                   root)

    # -- entry points --------------------------------------------------------

    def _eval_function(self, info: FunctionInfo, state: _AbsState,
                       chain: Tuple[str, ...], root: str,
                       depth: int) -> None:
        self._budget -= 1
        self.stats["frames"] += 1
        self._eval_stmts(info, info.node.body, state, chain, root, depth)

    def analyze_root(self, qualname: str) -> None:
        info = self.graph.functions[qualname]
        self.stats["roots"] += 1
        self._budget = FRAME_BUDGET
        self._own_inplace = []
        self._own_published = self._own_writable = False
        state = _AbsState()
        chain = (f"{info.qualname} ({info.where()})",)
        self._eval_function(info, state, chain, qualname, 0)
        own_dirty = [e for e in state.dirty if len(e.witness.chain) == 1]
        if self._own_published and own_dirty:
            self._emit(
                info, "missing-flush", own_dirty[0].witness,
                f"{info.name}: function publishes a root slot but exits "
                "with NVBM stores issued after its last flush()",
            )
        if "core" in Path(info.path).parts and info.name != "writable" \
                and not self._own_writable:
            for witness in self._own_inplace:
                self._emit(
                    info, "bypass-cow", witness,
                    f"{info.name}: direct NVBM record store without "
                    "writable() (COW bypass; if the record is provably "
                    "fresh, annotate with "
                    "'# pmlint: allow[bypass-cow]: <reason>')",
                )

    def findings(self) -> List[DataflowFinding]:
        return sorted(self._findings.values(),
                      key=lambda f: (f.path, f.line, f.rule))


def chain_quals(chain: Tuple[str, ...]) -> set:
    """The qualnames already on a chain (cycle guard)."""
    return {frame.split(" (", 1)[0] for frame in chain}


def _copy_into(src: _AbsState, dst: _AbsState) -> None:
    dst.dirty = src.dirty
    dst.flush_seen = src.flush_seen
    dst.first_dirty = src.first_dirty
    dst.window_sites = src.window_sites
    dst.sites_seen = src.sites_seen
    dst.evidence = src.evidence


@dataclass
class AnalysisResult:
    """Everything one run of the static pass produced."""

    findings: List[DataflowFinding]
    path_records: List[PathRecord]
    retire_records: List[RetireRecord]
    graph: CallGraph
    stats: Dict[str, int] = field(default_factory=dict)

    def finding_rows(self) -> List[Dict[str, object]]:
        return [f.to_row() for f in self.findings]


def analyze_paths(paths: Sequence[Union[str, Path]],
                  sites_module=None) -> AnalysisResult:
    """Run the static pass over files/directories."""
    graph = build_callgraph(paths)
    analyzer = _Analyzer(graph, sites_module or default_sites_module)
    for qualname in sorted(graph.functions):
        analyzer.analyze_root(qualname)
    return AnalysisResult(
        findings=analyzer.findings() + [DataflowFinding(*err)
                                        for err in graph.parse_errors],
        path_records=analyzer.path_records,
        retire_records=analyzer.retire_records,
        graph=graph,
        stats=dict(analyzer.stats),
    )


def analyze_repo(root: Optional[Union[str, Path]] = None) -> AnalysisResult:
    """Analyze the installed ``repro`` package (default) or a given tree."""
    roots = [root] if root is not None else list(default_roots())
    return analyze_paths(roots)
