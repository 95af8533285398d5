"""Runtime persistence-ordering tracker (the pmemcheck/PMTest analogue).

The tracker is a shadow state installed into one or more
:class:`~repro.nvbm.arena.MemoryArena` objects (and their ``RootSlots``).
It observes every store, flush, free, publish and crash, keeps a per-handle
event trace, and classifies ordering violations the instant they occur:

``publish-before-flush``
    a *publish slot* (by default ``V_prev``, the §3.2 commit point) received
    a handle that has dirty cache lines and was **never** flushed.
``double-flush-elision``
    the published handle *was* flushed once, then stored to again, and the
    needed second flush was elided — the classic "we already flushed this"
    bug that a single-bit dirty flag cannot catch but an event trace can.
``publish-of-volatile``
    a publish slot received a DRAM handle: the persistent root would point
    into memory that any crash erases wholesale.
``free-of-published``
    an arena freed a handle currently held by a publish slot (GC reclaiming
    the persistent root out from under recovery).
``store-to-published``
    an in-place store to a currently-published handle — invariant I2 says
    records reachable from ``V_{i-1}`` are never written in place.

``cross-epoch-waf``
    (epoch happens-before checker) a store landed on a record that a
    still-open persist epoch snapshotted as pending-flush — a
    write-after-flush race.  Epoch windows are opened/closed by the
    persist point (``on_epoch_open`` / ``on_epoch_close``); each window
    carries a vector-clock-style position ``(epoch, rank, record)`` — the
    epoch counter, the arena rank that opened it, and the pending set its
    opener passes: the dirty records the epoch's drain must flush.  That
    set is final the moment the epoch is enqueued, so any store touching
    it before the drain flushed it raced the drain.  At a persist window
    of 0 the drain runs before any later store, so only an overlapped
    (Ben-David et al. delay-free) pipeline can trip the rule.

In ``strict`` mode (default) a violation raises
:class:`~repro.errors.OrderingViolationError` at the offending call, so the
failing stack trace points at the buggy store/publish, not at a later
recovery.  In non-strict mode violations accumulate in
:attr:`OrderingTracker.violations` for reporting.  ``strict_epochs``
controls the cross-epoch rule separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.errors import OrderingViolationError
from repro.nvbm.pointers import NULL_HANDLE, is_dram

#: The slots whose stores are commit points.  ``V_curr`` is working-version
#: bookkeeping (rebuilt by recovery) and deliberately not a publish slot.
DEFAULT_PUBLISH_SLOTS = ("V_prev",)


@dataclass
class Violation:
    """One observed ordering violation."""

    kind: str
    handle: int
    slot: str = ""
    detail: str = ""

    def describe(self) -> str:
        where = f" via slot {self.slot!r}" if self.slot else ""
        return f"{self.kind}: handle {self.handle:#x}{where} — {self.detail}"

    def to_row(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "handle": f"{self.handle:#x}",
            "slot": self.slot,
            "detail": self.detail,
        }


@dataclass
class _HandleState:
    """Shadow state of one record handle."""

    dirty: bool = False        #: has unflushed stores
    ever_flushed: bool = False
    trace: List[str] = field(default_factory=list)


@dataclass
class _EpochWindow:
    """One open persist epoch: its vector-clock position and flush set."""

    epoch: int                 #: monotonic epoch counter (the clock)
    rank: int                  #: arena rank that opened the window
    pending: Set[int]          #: dirty handles snapshotted at enqueue —
    #: the records THIS epoch's flush is responsible for making durable

    def position(self, handle: int) -> Tuple[int, int, int]:
        return (self.epoch, self.rank, handle)


class OrderingTracker:
    """Shadow-state observer for persistence ordering.

    One tracker may observe several arenas (handles embed their arena id, so
    traces never collide).  Install with :func:`install_tracker`.
    """

    def __init__(self, publish_slots: Sequence[str] = DEFAULT_PUBLISH_SLOTS,
                 strict: bool = True, trace_limit: int = 64,
                 strict_epochs: bool = False):
        self.publish_slots: Set[str] = set(publish_slots)
        self.strict = strict
        self.strict_epochs = strict_epochs
        self.trace_limit = trace_limit
        self.violations: List[Violation] = []
        self._state: Dict[int, _HandleState] = {}
        self._published: Dict[str, int] = {}  # publish slot -> handle
        self._seq = 0
        self._epoch_clock = 0
        self._windows: List[_EpochWindow] = []  # open epochs, oldest first
        self.counts = {"stores": 0, "flushes": 0, "publishes": 0,
                       "frees": 0, "crashes": 0, "epochs": 0}

    # -- event helpers ------------------------------------------------------

    def _get(self, handle: int) -> _HandleState:
        st = self._state.get(handle)
        if st is None:
            st = self._state[handle] = _HandleState()
        return st

    def _record(self, handle: int, event: str) -> None:
        st = self._get(handle)
        if len(st.trace) < self.trace_limit:
            st.trace.append(f"{self._seq}:{event}")
        self._seq += 1

    def _violate(self, kind: str, handle: int, slot: str = "",
                 detail: str = "") -> None:
        v = Violation(kind=kind, handle=handle, slot=slot, detail=detail)
        self.violations.append(v)
        if self.strict:
            raise OrderingViolationError(v.describe())

    def trace_of(self, handle: int) -> Tuple[str, ...]:
        """The recorded event trace of one handle (debugging aid)."""
        st = self._state.get(handle)
        return tuple(st.trace) if st is not None else ()

    @property
    def published(self) -> Dict[str, int]:
        return dict(self._published)

    @property
    def open_epochs(self) -> Tuple[int, ...]:
        """Epoch numbers of the currently open persist windows, oldest
        first."""
        return tuple(w.epoch for w in self._windows)

    # -- epoch hooks --------------------------------------------------------

    def on_epoch_open(self, pending: Iterable[int], rank: int = 0) -> int:
        """A persist epoch was enqueued with the dirty set ``pending`` its
        drain must flush: advance the epoch clock and return the window
        id."""
        self._epoch_clock += 1
        self.counts["epochs"] += 1
        self._windows.append(
            _EpochWindow(epoch=self._epoch_clock, rank=rank,
                         pending=set(pending))
        )
        return self._epoch_clock

    def on_epoch_close(self, epoch: int) -> None:
        """A persist epoch retired (an unknown id is a no-op)."""
        for i, win in enumerate(self._windows):
            if win.epoch == epoch:
                del self._windows[i]
                return

    def _check_epoch_store(self, handle: int) -> None:
        """A store landing on a handle an open window still has pending
        raced that epoch's drain."""
        for win in self._windows:
            if handle in win.pending:
                current = self._windows[-1].epoch
                v = Violation(
                    kind="cross-epoch-waf", handle=handle,
                    detail=(
                        f"store from epoch {current} hit a record that "
                        f"open epoch {win.epoch} (rank {win.rank}) "
                        "snapshotted as pending-flush — write-after-flush "
                        f"race at position {win.position(handle)}"
                    ),
                )
                self.violations.append(v)
                if self.strict_epochs:
                    raise OrderingViolationError(v.describe())

    # -- arena hooks --------------------------------------------------------

    def on_store(self, handle: int, cached: bool = True) -> None:
        self.counts["stores"] += 1
        self._record(handle, "store")
        st = self._get(handle)
        if cached:
            st.dirty = True
            self._check_epoch_store(handle)
        for slot, published in self._published.items():
            if published == handle:
                self._violate(
                    "store-to-published", handle, slot,
                    "in-place store to a record the persistent version "
                    "reaches (I2: COW must copy it instead)",
                )

    def on_flush(self, handles: Iterable[int]) -> None:
        self.counts["flushes"] += 1
        for handle in handles:
            self._record(handle, "flush")
            st = self._get(handle)
            st.dirty = False
            st.ever_flushed = True
            for win in self._windows:
                win.pending.discard(handle)

    def on_publish(self, slot: str, handle: int) -> None:
        self.counts["publishes"] += 1
        if slot not in self.publish_slots:
            return
        if handle == NULL_HANDLE:
            self._published.pop(slot, None)
            return
        self._record(handle, f"publish[{slot}]")
        if is_dram(handle):
            self._violate(
                "publish-of-volatile", handle, slot,
                "persistent root slot points at a DRAM record",
            )
        st = self._get(handle)
        if st.dirty:
            if st.ever_flushed:
                self._violate(
                    "double-flush-elision", handle, slot,
                    "record was flushed once, re-stored, and published "
                    "without the needed second flush",
                )
            else:
                self._violate(
                    "publish-before-flush", handle, slot,
                    "record lines are still in the volatile cache at the "
                    "commit point",
                )
        self._published[slot] = handle

    def on_free(self, handle: int) -> None:
        self.counts["frees"] += 1
        self._record(handle, "free")
        for slot, published in self._published.items():
            if published == handle:
                self._violate(
                    "free-of-published", handle, slot,
                    "freed the record a persistent root slot still names",
                )
        # the slot may be recycled: a later store starts a fresh life —
        # and a freed record carries no flush obligation, so drop it from
        # every open epoch window (otherwise the recycled handle's first
        # store would read as a cross-epoch race with a dead record)
        for win in self._windows:
            win.pending.discard(handle)
        self._state.pop(handle, None)

    def on_crash(self) -> None:
        """Power loss: every dirty line is potentially gone; shadow state of
        unflushed stores is dropped (their records never became durable),
        and every open epoch window dies with the volatile state — the
        epoch that recovery re-drives opens a fresh window."""
        self.counts["crashes"] += 1
        for st in self._state.values():
            st.dirty = False
        self._windows.clear()

    # -- reporting ----------------------------------------------------------

    def report_rows(self) -> List[Dict[str, object]]:
        return [v.to_row() for v in self.violations]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OrderingTracker(stores={self.counts['stores']}, "
            f"flushes={self.counts['flushes']}, "
            f"violations={len(self.violations)})"
        )


def install_tracker(*arenas, publish_slots: Sequence[str] = DEFAULT_PUBLISH_SLOTS,
                    strict: bool = True,
                    strict_epochs: bool = False) -> OrderingTracker:
    """Create one tracker and hook it into every given arena (and roots)."""
    tracker = OrderingTracker(publish_slots=publish_slots, strict=strict,
                              strict_epochs=strict_epochs)
    for arena in arenas:
        arena.tracer = tracker
        arena.roots.tracer = tracker
    return tracker
