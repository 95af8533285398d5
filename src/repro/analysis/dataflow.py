"""The static pass: flush/publish obligations across calls, plus the
copy-on-write and crash-site rules, over one parsed tree.

The pass knows the NVBM API surface — ``MemoryArena.write`` /
``write_octant`` / ``new_octant``, the field-granular stores
(``write_field`` / ``write_payload`` / ``write_child_slot`` /
``write_child_slots`` / ``write_rows`` / ``set_flags``), ``RootSlots.set``
/ ``swap``, ``flush()`` / ``flush_records()`` and ``injector.site(...)``.
It evaluates an abstract *obligation state* — what the runtime tracker
(:mod:`repro.analysis.tracker`) observes dynamically:

* ``dirty`` — NVBM stores not yet flushed, each with the call-chain
  witness of how it was reached, and whether a ``flush()`` came before it
  (a dirty publish is ``double-flush-elision`` when every store followed a
  flush, else ``missing-flush``);
* the *coverage window* — from the first dirty store to the next publish —
  and the crash sites inside it (consumed by :mod:`repro.analysis.coverage`);
* migration-journal evidence: the locals observed ``published`` (method
  call, ``.state`` store, or a dominating ``.state == "published"`` guard).

Each function body (and each module's top-level statements) is read once,
from a placeholder entry state standing for whatever its caller had; the
result is its *effect summary*.  Summaries are computed callees first,
over the strongly connected components of the call graph
(:mod:`repro.analysis.callgraph`), and a recursive component is iterated
from the no-op summary to a fixpoint.  A call composes the callee's
summary into the caller's state, so a store any number of frames below a
publish reaches it.  Every function is then a root: its summary composed
into the clean state gives its findings, windows and retires.

Rules (docs/crash-consistency.md has the table): ``missing-flush`` (also:
a function publishes and exits with stores of its *own* body after its
last flush), ``double-flush-elision``, ``publish-before-retire``,
``raw-write`` (a ``write`` / ``write_octant`` whole-record store),
``bypass-cow`` (an in-place store in ``core/`` by a function whose own
body never calls ``writable``; ``new_octant`` is exempt), ``unknown-site``
(an ``injector.site(...)`` name the registry does not know), and
``syntax-error`` / ``io-error`` for files that do not parse or read.

A reviewed exception carries ``# pmlint: allow[<rule>]: <reason>`` on the
flagged line or in the comment block directly above it; a bare pragma is
itself reported as ``<rule>-no-reason``, and ``# pmlint: ignore``
suppresses any finding on its line.

``if`` is branch-sensitive (both arms evaluated and joined: dirt and sites
union, flush and journal evidence intersect); loops are one body pass
(the persistence call sites in this tree are not loop-carried).  Nested
functions are scopes of their own.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.analysis.callgraph import (
    CallGraph, FunctionInfo, ModuleInfo, build_callgraph, default_roots,
    strongly_connected,
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


#: Placeholders a summary holds for what its caller had at the call: its
#: unflushed stores (one ``dirty`` key, value None), the first store and
#: the sites of its open window, and the sites it had seen.  A
#: ``flush_seen`` or a store's ``after_flush`` of None is the caller's.
CALLER_DIRT = ("<caller>",)
CALLER_W = Witness("<caller>", 0, ())
CALLER_SITES = "<caller window>"
CALLER_SEEN = "<caller seen>"
#: The two window cases a body is evaluated in: the caller's window is
#: open (``first_dirty`` starts as ``CALLER_W``) or closed (None).
OPEN, CLOSED = 0, 1


def _keep(table: dict, key: tuple, item) -> None:
    """One entry per key; the longest chain wins.  ``item`` is a witness
    or a tuple led by one (None: the caller's dirt)."""
    prior = table.get(key)
    if key not in table or prior is not None and \
            len(_lead(item).chain) > len(_lead(prior).chain):
        table[key] = item


def _lead(item) -> Witness:
    return item if isinstance(item, Witness) else item[0]


def _union(into: List[str], items: Sequence[str]) -> List[str]:
    for s in items:
        if s not in into:
            into.append(s)
    return into


def _subst(items: Sequence[str], token: str,
           caller: Sequence[str]) -> List[str]:
    """``items`` with the placeholder ``token`` replaced by ``caller``."""
    out: List[str] = []
    for s in items:
        _union(out, caller if s == token else (s,))
    return out


def _extend(chain: Tuple[str, ...], callee: str, frame: str,
            caller: Optional[str]) -> Tuple[str, ...]:
    """``chain`` (frames below ``callee``'s body) seen from the body of
    ``caller`` (None: from a root, whose ``frame`` heads the chain).  A
    loop back through ``caller`` is cut, so a chain names each function
    at most once and the summaries stay finite."""
    if caller == callee:
        return chain
    quals = [f.split(" (", 1)[0] for f in chain]
    if caller in quals:
        return chain[len(quals) - quals[::-1].index(caller):]
    return (frame,) + chain


class _AbsState:
    """Abstract obligation state along one path of one body."""

    __slots__ = ("dirty", "flush_seen", "first_dirty", "window_sites",
                 "sites_seen", "evidence")

    def __init__(self, entry: bool) -> None:
        """``entry``: the placeholder state a body's summary starts from;
        else the clean state of a root."""
        #: unflushed stores: (path, line, attr, after_flush) -> witness
        self.dirty: dict = {CALLER_DIRT: None} if entry else {}
        self.flush_seen: Optional[bool] = None if entry else False
        #: per window case: the open window's first store, and its sites
        self.first_dirty = [CALLER_W if entry else None, None]
        self.window_sites = [[CALLER_SITES] if entry else [], []]
        self.sites_seen = [CALLER_SEEN] if entry else []
        self.evidence: set = set()      #: locals with publish evidence

    def copy(self) -> "_AbsState":
        out = _AbsState.__new__(_AbsState)
        out.dirty, out.flush_seen = dict(self.dirty), self.flush_seen
        out.first_dirty = list(self.first_dirty)
        out.window_sites = [list(s) for s in self.window_sites]
        out.sites_seen, out.evidence = list(self.sites_seen), set(self.evidence)
        return out

    def join(self, other: "_AbsState") -> "_AbsState":
        """Merge ``other`` (the sibling branch) into self.

        Obligations are *may* facts — union keeps every possibly-dirty
        store and every possibly-reached site (a site behind an
        ``if injector`` guard does exist on the armed path the sweep
        exercises).  ``flush_seen`` and journal evidence are *must* facts
        — only what both branches established survives the join.
        """
        for key, witness in other.dirty.items():
            _keep(self.dirty, key, witness)
        self.flush_seen = self.flush_seen and other.flush_seen
        for case in (OPEN, CLOSED):
            if self.first_dirty[case] is None:
                self.first_dirty[case] = other.first_dirty[case]
            _union(self.window_sites[case], other.window_sites[case])
        _union(self.sites_seen, other.sites_seen)
        self.evidence &= other.evidence
        return self

    def key(self) -> tuple:
        return (tuple(self.dirty.items()), self.flush_seen,
                tuple(self.first_dirty), tuple(map(tuple, self.window_sites)),
                tuple(self.sites_seen), frozenset(self.evidence))


class _Summary:
    """One body's effect on any caller: its exit state from the placeholder
    entry, and tables of what it did, one entry per key (the longest chain
    wins): raw-write findings, publishes with the dirt each can see, the
    windows it closed and its retires.  ``published``: its own statements
    publish.  A fresh summary is the no-op."""

    TABLES = ("findings", "publishes", "records", "retires")
    __slots__ = ("exit", "published") + TABLES

    def __init__(self) -> None:
        self.exit = _AbsState(entry=True)
        self.published = False
        for name in self.TABLES:
            setattr(self, name, {})

    def join(self, other: "_Summary") -> "_Summary":
        out = _Summary()
        out.exit = self.exit.copy().join(other.exit)
        out.published = self.published or other.published
        for name in self.TABLES:
            for src in (self, other):
                for key, item in getattr(src, name).items():
                    _keep(getattr(out, name), key, item)
        return out

    def key(self) -> tuple:
        return (self.exit.key(), self.published,
                *(getattr(self, name) for name in self.TABLES))


class _Analyzer:
    def __init__(self, graph: CallGraph, sites_module) -> None:
        self.graph = graph
        self.sites_module = sites_module
        self._lines = {m.path: m.source_lines for m in graph.modules.values()}
        #: (rule, path, line) -> finding; longest chain wins (fullest
        #: interprocedural context for the same defect).
        self._findings: Dict[Tuple[str, str, int], DataflowFinding] = {}
        self.path_records: List[PathRecord] = []
        self.retire_records: List[RetireRecord] = []
        self._summaries: Dict[str, _Summary] = {}
        #: project callees of each call node, resolved once
        self._callees: Dict[ast.Call, List[FunctionInfo]] = {}
        #: the body being summarised (None while composing a root), what
        #: it accumulates, and facts about its own statements: in-place
        #: NVBM stores, and whether it called ``writable``
        self._body: Optional[str] = None
        self._out = _Summary()
        self._own_inplace: List[Witness] = []
        self._own_writable = False

    # -- findings ------------------------------------------------------------

    def _emit(self, rule: str, witness: Witness, message: str) -> None:
        """A finding of one root, ``witness.chain`` headed by it."""
        lines = self._lines.get(witness.path, [])
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
        prior = self._findings.get(key)
        if prior is None or len(witness.chain) > len(prior.chain):
            self._findings[key] = DataflowFinding(
                rule=rule, path=witness.path, line=witness.line,
                message=message, chain=witness.chain)

    def _judge(self, witness: Witness, slot: str, dirty: dict) -> None:
        """A root's publish of ``slot`` with ``dirty`` still unflushed."""
        never_flushed = [w for key, w in dirty.items() if not key[3]]
        culprit = (never_flushed or list(dirty.values()))[0]
        message = (f"publish of {slot} reachable from the NVBM store at "
                   f"{culprit.where()}")
        if never_flushed:
            rule = "missing-flush"
            message += (" with no intervening flush() — the commit point "
                        "may expose unflushed cache lines")
        else:
            rule = "double-flush-elision"
            message += ("; the path flushed once before that store and the "
                        "needed second flush was elided")
        self._emit(rule, witness, message +
                   f" (store via {' -> '.join(culprit.chain)})")

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

    # -- events --------------------------------------------------------------

    def _apply_store(self, info: FunctionInfo, call: ast.Call, attr: str,
                     state: _AbsState) -> None:
        witness = Witness(info.path, call.lineno, ())
        if attr in RAW_WRITE_ATTRS:
            _keep(self._out.findings, (info.path, call.lineno), (
                witness, "raw-write",
                f"store through raw record accessor .{attr}() bypasses "
                "the field-granular API (write_field/write_payload/"
                "write_child_slot[s]); if the whole-record store is "
                "intentional, annotate with "
                "'# pmlint: allow[raw-write]: <reason>'"))
        if attr != "new_octant":
            self._own_inplace.append(witness)
        _keep(state.dirty, (info.path, call.lineno, attr, state.flush_seen),
              witness)
        for case in (OPEN, CLOSED):
            if state.first_dirty[case] is None:
                state.first_dirty[case] = witness
                state.window_sites[case] = []

    def _apply_publish(self, info: FunctionInfo, call: ast.Call, opts: dict,
                       state: _AbsState) -> None:
        witness = Witness(info.path, call.lineno, ())
        self._out.published = True
        if opts["swap"]:
            # RootSlots.swap fires roots.swap.mid between its two device
            # stores — inside the window by construction.
            self._site_seen(SWAP_INTERNAL_SITE, state)
        self._publish(witness, opts["slot"], state.dirty)
        state.dirty = {}
        for case in (OPEN, CLOSED):
            self._close(case, state.first_dirty[case], witness,
                        state.window_sites[case])
            state.first_dirty[case], state.window_sites[case] = None, []

    def _publish(self, witness: Witness, slot: str, dirty: dict) -> None:
        """A publish that exposes ``dirty``: judged at the root, where the
        caller's dirt and flush are known."""
        if dirty:
            _keep(self._out.publishes,
                  (witness.path, witness.line, slot, tuple(dirty)),
                  (witness, slot, dirty))

    def _close(self, case: int, first: Optional[Witness], publish: Witness,
               sites: Sequence[str]) -> None:
        """A publish closing the window opened at ``first`` (if any)."""
        if first is not None:
            sites = tuple(sorted(set(sites)))
            _keep(self._out.records, (case, first.path, first.line,
                                      publish.path, publish.line, sites),
                  (publish, case, first, sites))

    def _site_seen(self, name: str, state: _AbsState) -> None:
        for case in (OPEN, CLOSED):
            if state.first_dirty[case] is not None:
                _union(state.window_sites[case], (name,))
        _union(state.sites_seen, (name,))

    def _apply_site(self, info: FunctionInfo, call: ast.Call, opts: dict,
                    state: _AbsState) -> None:
        arg = opts["arg"]
        if arg is None:
            return
        name = site_name(self.graph.modules.get(info.module), arg,
                         self.sites_module)
        if name is None:
            name = "<dynamic>"
        elif not self.sites_module.is_known(name):
            self._emit(
                "unknown-site", Witness(info.path, call.lineno, _root(info)),
                f"{info.name}: crash site {ast.unparse(arg)} is not in the "
                "registry (repro.nvbm.sites) — an armed plan for it never "
                "fires",
            )
        self._site_seen(name, state)

    def _retire(self, witness: Witness, var: str, needs: bool,
                sites: Sequence[str]) -> None:
        """A retire; ``needs``: no publish evidence for ``var`` so far."""
        sites = tuple(sorted(set(sites)))
        _keep(self._out.retires, (witness.path, witness.line, var, needs,
                                  sites), (witness, var, needs, sites))

    # -- composition ---------------------------------------------------------

    def _apply(self, callee: str, frame: str, summary: _Summary,
               state: _AbsState) -> None:
        """Compose ``callee``'s summary into ``state`` at a call (or at a
        root, into the clean state): its placeholders resolve to what
        ``state`` holds, and ``frame`` goes in front of its chains."""
        memo: Dict[int, Witness] = {}

        def wit(w: Witness) -> Witness:
            if id(w) not in memo:
                memo[id(w)] = Witness(w.path, w.line, _extend(
                    w.chain, callee, frame, self._body))
            return memo[id(w)]

        def dirt(dirty: dict) -> dict:
            out: dict = {}
            for key, w in dirty.items():
                if w is None:
                    for k, caller_w in state.dirty.items():
                        _keep(out, k, caller_w)
                else:
                    after = state.flush_seen if key[3] is None else key[3]
                    _keep(out, key[:3] + (after,), wit(w))
            return out

        out, exit = self._out, summary.exit
        cases = [CLOSED if first is None else OPEN
                 for first in state.first_dirty]
        for key, (w, rule, message) in summary.findings.items():
            _keep(out.findings, key, (wit(w), rule, message))
        for w, slot, dirty in summary.publishes.values():
            self._publish(wit(w), slot, dirt(dirty))
        for publish, case, first, sites in summary.records.values():
            for mine in (OPEN, CLOSED):
                if cases[mine] == case:
                    self._close(mine, state.first_dirty[mine]
                                if first is CALLER_W else wit(first),
                                wit(publish), _subst(sites, CALLER_SITES,
                                                     state.window_sites[mine]))
        for w, var, needs, sites in summary.retires.values():
            self._retire(wit(w), var, needs and var not in state.evidence,
                         _subst(sites, CALLER_SEEN, state.sites_seen))
        state.dirty = dirt(exit.dirty)
        state.flush_seen = exit.flush_seen or state.flush_seen
        for mine in (OPEN, CLOSED):
            first = exit.first_dirty[cases[mine]]
            if first is not CALLER_W:
                state.first_dirty[mine] = first and wit(first)
            state.window_sites[mine] = _subst(
                exit.window_sites[cases[mine]], CALLER_SITES,
                state.window_sites[mine])
        state.sites_seen = _subst(exit.sites_seen, CALLER_SEEN,
                                  state.sites_seen)
        state.evidence |= exit.evidence

    # -- statement evaluation ------------------------------------------------

    def _eval_call(self, info: FunctionInfo, call: ast.Call,
                   state: _AbsState) -> None:
        kind, opts = self._classify(call) or (None, None)
        if kind == "flush":
            state.dirty, state.flush_seen = {}, True
        elif kind == "store":
            self._apply_store(info, call, opts["attr"], state)
        elif kind == "publish":
            self._apply_publish(info, call, opts, state)
        elif kind == "site":
            self._apply_site(info, call, opts, state)
        elif kind == "journal-publish":
            state.evidence.add(opts["var"])
        elif kind == "journal-retire":
            self._retire(Witness(info.path, call.lineno, ()), opts["var"],
                         opts["var"] not in state.evidence, state.sites_seen)
        if kind is not None and kind != "writable":
            return
        # the copy-on-write entry point is noted for bypass-cow, and
        # composed like any other call
        self._own_writable |= kind == "writable"
        callsite = f"{Path(info.path).name}:{call.lineno}"
        targets = [c.qualname for c in self._callees.get(call, ())
                   if c.qualname in self._summaries]
        branches = [state.copy() if len(targets) > 1 else state
                    for _ in targets]
        for qual, sub in zip(targets, branches):
            self._apply(qual, f"{qual} (at {callsite})",
                        self._summaries[qual], sub)
        if len(branches) > 1:
            merged = branches[0]
            for sub in branches[1:]:
                merged.join(sub)
            for name in _AbsState.__slots__:
                setattr(state, name, getattr(merged, name))

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
                    state: _AbsState) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                for call in _calls(stmt.test):
                    self._eval_call(info, call, state)
                then = state.copy()
                for var in self._guard_evidence(stmt.test):
                    then.evidence.add(var)
                self._eval_stmts(info, stmt.body, then)
                other = state.copy()
                self._eval_stmts(info, stmt.orelse, other)
                then.join(other)
                for name in _AbsState.__slots__:
                    setattr(state, name, getattr(then, name))
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While, ast.Try,
                                   ast.With, ast.AsyncWith)):
                # header calls, then each block once, in source order
                headers = [getattr(stmt, "iter", None),
                           getattr(stmt, "test", None),
                           *(i.context_expr for i in getattr(stmt, "items", ()))]
                for header in headers:
                    for call in _calls(header):
                        self._eval_call(info, call, state)
                for block in (stmt.body,
                              *(h.body for h in getattr(stmt, "handlers", ())),
                              getattr(stmt, "orelse", ()),
                              getattr(stmt, "finalbody", ())):
                    self._eval_stmts(info, block, state)
            else:
                for call in _calls(stmt):
                    self._eval_call(info, call, state)
                if isinstance(stmt, ast.Assign):
                    self._eval_journal_assign(info, stmt, state)

    def _eval_journal_assign(self, info: FunctionInfo, stmt: ast.Assign,
                             state: _AbsState) -> None:
        # the journal primitives themselves (MigrationEntry.published /
        # .retired) are the event source, not a use of it
        if not (isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)) \
                or info.name in ("published", "retired"):
            return
        for target in stmt.targets:
            if isinstance(target, ast.Attribute) and target.attr == "state":
                var = _dotted(target.value)
                if stmt.value.value == "published":
                    state.evidence.add(var)
                elif stmt.value.value == "retired":
                    self._retire(Witness(info.path, stmt.lineno, ()), var,
                                 var not in state.evidence, state.sites_seen)

    # -- summaries and roots -------------------------------------------------

    def _summarize(self, info: FunctionInfo) -> _Summary:
        """Read one body once, from the placeholder entry state."""
        self._body, self._out = info.qualname, _Summary()
        self._own_inplace, self._own_writable = [], False
        self._eval_stmts(info, info.node.body, self._out.exit)
        if "core" in Path(info.path).parts and info.name != "writable" \
                and not self._own_writable:
            for witness in self._own_inplace:
                self._emit(
                    "bypass-cow",
                    Witness(witness.path, witness.line, _root(info)),
                    f"{info.name}: direct NVBM record store without "
                    "writable() (COW bypass; if the record is provably "
                    "fresh, annotate with "
                    "'# pmlint: allow[bypass-cow]: <reason>')",
                )
        return self._out

    def summarize_all(self) -> None:
        """One summary per function, callees first; a recursive component
        is iterated from the no-op summary, each round joined with the
        last, to a fixpoint."""
        edges: Dict[str, List[str]] = {}
        for qual, info in self.graph.functions.items():
            edges[qual] = []
            for call in _calls(info.node):
                callees = self._callees[call] = \
                    self.graph.resolve_call(info, call)
                edges[qual].extend(c.qualname for c in callees)
        for component in strongly_connected(edges):
            if len(component) == 1 and component[0] not in edges[component[0]]:
                self._summaries[component[0]] = self._summarize(
                    self.graph.functions[component[0]])
                continue
            for qual in component:
                self._summaries[qual] = _Summary()
            changed = True
            while changed:
                changed = False
                for qual in component:
                    old = self._summaries[qual]
                    new = old.join(self._summarize(self.graph.functions[qual]))
                    if new.key() != old.key():
                        self._summaries[qual], changed = new, True

    def analyze_root(self, root: str) -> None:
        """A function's verdict: its summary composed into the clean
        state, every chain headed by the function itself."""
        info, summary = self.graph.functions[root], self._summaries[root]
        self._body, self._out = None, _Summary()
        state = _AbsState(entry=False)
        self._apply(info.qualname, _root(info)[0], summary, state)
        for witness, rule, message in self._out.findings.values():
            self._emit(rule, witness, message)
        for witness, slot, dirty in self._out.publishes.values():
            self._judge(witness, slot, dirty)
        for publish, case, first, sites in self._out.records.values():
            if case == CLOSED:
                self.path_records.append(PathRecord(
                    root=root, first_dirty=first, publish=publish,
                    sites=sites))
        for witness, var, needs, sites in self._out.retires.values():
            if needs:
                self._emit(
                    "publish-before-retire", witness,
                    f"journal entry {var!r} retired on a path with no "
                    "publish evidence (.published() call, state store, or "
                    "a dominating state == \"published\" guard) — recovery "
                    "would drop records the receiver never durably owned",
                )
            self.retire_records.append(RetireRecord(
                root=root, witness=witness, var=var, sites_before=sites))
        own_dirty = [w for w in state.dirty.values() if len(w.chain) == 1]
        if summary.published and own_dirty:
            self._emit(
                "missing-flush", own_dirty[0],
                f"{info.name}: function publishes a root slot but exits "
                "with NVBM stores issued after its last flush()",
            )

    def findings(self) -> List[DataflowFinding]:
        return sorted(self._findings.values(),
                      key=lambda f: (f.path, f.line, f.rule))


def _root(info: FunctionInfo) -> Tuple[str]:
    """The one-frame chain of a function taken as a root."""
    return (f"{info.qualname} ({info.where()})",)


@dataclass
class AnalysisResult:
    """Everything one run of the static pass produced."""

    findings: List[DataflowFinding]
    path_records: List[PathRecord]
    retire_records: List[RetireRecord]
    graph: CallGraph

    def finding_rows(self) -> List[Dict[str, object]]:
        return [f.to_row() for f in self.findings]


def analyze_paths(paths: Sequence[Union[str, Path]],
                  sites_module=None) -> AnalysisResult:
    """Run the static pass over files/directories."""
    graph = build_callgraph(paths)
    analyzer = _Analyzer(graph, sites_module or default_sites_module)
    analyzer.summarize_all()
    for qualname in sorted(graph.functions):
        analyzer.analyze_root(qualname)
    return AnalysisResult(
        findings=analyzer.findings() + [DataflowFinding(*err)
                                        for err in graph.parse_errors],
        path_records=analyzer.path_records,
        retire_records=analyzer.retire_records,
        graph=graph,
    )


def analyze_repo(root: Optional[Union[str, Path]] = None) -> AnalysisResult:
    """Analyze the installed ``repro`` package (default) or a given tree."""
    roots = [root] if root is not None else list(default_roots())
    return analyze_paths(roots)
