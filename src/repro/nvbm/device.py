"""Memory-device latency, wear and media-fault model.

A :class:`MemoryDevice` does no storage itself — it is the *meter* through
which an arena charges simulated time and counts accesses.  The latency model
follows the paper's emulator: a fixed per-access latency (Table 2), charged
once per cache line touched, which is how a CPU actually issues the traffic.
An attached :class:`MediaFaultModel` holds planted faults (stuck and rotted
lines), which a metered read of the medium surfaces; nothing about it
depends on the clock, the wear or how often a line was read.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Set, Tuple

import numpy as np

from repro.config import CACHE_LINE_SIZE, OCTANT_RECORD_SIZE, DeviceSpec
from repro.errors import UncorrectableError
from repro.nvbm.clock import Category, SimClock

#: Cache lines per octant record — wear and media faults are tracked at this
#: granularity (a *global line id* is ``slot * LINES_PER_RECORD + line``).
LINES_PER_RECORD = OCTANT_RECORD_SIZE // CACHE_LINE_SIZE


def lines_spanned(offset: int, nbytes: int) -> int:
    """Cache lines the byte range ``[offset, offset + nbytes)`` touches.

    This is what a CPU actually pays for a field access: a 1-byte flag at
    offset 9 costs one line, a 32-byte payload at offset 16 costs one line,
    a full 128-byte record costs two.
    """
    if nbytes <= 0:
        return 1
    first = offset // CACHE_LINE_SIZE
    last = (offset + nbytes - 1) // CACHE_LINE_SIZE
    return last - first + 1


@dataclass
class DeviceStats:
    """Raw access counters for one device."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    lines_read: int = 0
    lines_written: int = 0


class MediaFaultModel:
    """Planted NVBM media faults surfacing on read.

    The medium itself is no longer assumed perfect: a read of a cache line
    can return an *uncorrectable error* (UE) — the DIMM's internal ECC
    detected corruption it could not fix.  A fault is *planted* on a global
    line id, where a checker chooses to put it (chaos, the crash-site
    sweep, the bench's repair scenario); nothing is sampled, so a read's
    outcome depends only on what is planted:

    ``stuck``
        :meth:`plant_stuck`: every read of the line fails until its slot is
        retired.  Rewrites do not help.
    ``rot``
        :meth:`plant_rot`: reads of the line fail until a metered write
        rewrites it (a write refreshes the cells).

    ``seed`` is accepted and ignored: a planted fault draws nothing.
    """

    def __init__(self, seed: int = 0):
        self._stuck: Set[int] = set()
        self._rotted: Set[int] = set()

    def plant_stuck(self, gline: int) -> None:
        """Mark a global line as stuck: every read fails until retirement."""
        self._stuck.add(int(gline))

    def plant_rot(self, gline: int) -> None:
        """Rot a global line (cleared by the next rewrite)."""
        self._rotted.add(int(gline))

    @property
    def quiescent(self) -> bool:
        """Nothing planted: no read can fault."""
        return not (self._stuck or self._rotted)

    def rewritten(self, glines) -> None:
        """A metered write refreshed ``glines`` (a ``range`` or an int64
        array): their rot clears.  Free while nothing is rotted."""
        if self._rotted:
            self._rotted.difference_update(
                glines if type(glines) is range else glines.tolist())

    def fault(self, glines) -> Optional[Tuple[int, str]]:
        """The first of ``glines`` (global line ids in read order) a read
        fails on and its kind, or None: the one media check, of one
        record's lines or of a whole batch's."""
        stuck, rotted = self._stuck, self._rotted
        if stuck.isdisjoint(glines) and rotted.isdisjoint(glines):
            return None
        for g in glines:
            if g in stuck:
                return g, "stuck"
            if g in rotted:
                return g, "rot"
        return None


class MemoryDevice:
    """Charges a :class:`SimClock` for accesses and tracks per-line wear.

    Parameters
    ----------
    spec:
        Latency/endurance characteristics (e.g. :data:`repro.config.NVBM_SPEC`).
    clock:
        The simulated clock to charge.  A rank's arenas share one clock.

    There is **one charge body per direction**: :meth:`on_read_batch` and
    :meth:`on_write_batch` take a ``(count, bytes, lines)`` total and are the
    only code that counts into :class:`DeviceStats`, advances the clock for
    a device access and ages lines.  :meth:`on_read` / :meth:`on_write` are
    the ``count == 1`` spelling of the same call.  Every per-access charge
    is an integer number of nanoseconds far below 2**53, so one summed
    advance is bit-identical to the per-access advance sequence.

    A per-cache-line write counter lets benches report endurance headroom
    (writes/line vs ``spec.endurance_writes``).  Wear is indexed by *global line id*
    (``slot * LINES_PER_RECORD + line``): a multi-line write ages every
    line it spans, not just the record's first.
    """

    def __init__(self, spec: DeviceSpec, clock: SimClock):
        self.spec = spec
        self.clock = clock
        #: the one place accesses are counted; obs folds this very object
        #: (attach_obs), so it is never replaced
        self.stats = DeviceStats()
        #: attached MediaFaultModel, or None (the common, zero-overhead case)
        self.fault_model: Optional[MediaFaultModel] = None
        self._wear = np.zeros(0, dtype=np.int64)
        self._wear_mv = memoryview(self._wear)
        self._category = Category.MEM_DRAM if spec.volatile else Category.MEM_NVBM
        #: depth of nested unmetered() sections; >0 suppresses all charging
        self._unmetered = 0
        #: active deferred-writes sink, or None.  When set, the *clock*
        #: charge of each write is redirected into the sink instead of
        #: advancing the clock — stats, wear and the fault model still
        #: update, because the stores really happen (write-back model); only
        #: their device time is deferred, to be drained later as background
        #: work by the epoch pipeline.  Reads stay synchronous.
        self._deferred_sink = None

    def attach_obs(self, obs, device: str = None) -> None:
        """Report :class:`DeviceStats` as ``device.*`` counters of an
        :class:`repro.obs.Observability`."""
        obs.metrics.fold("device", self.stats,
                         device=device or self.spec.name)

    @contextmanager
    def unmetered(self) -> Iterator[None]:
        """Suppress all charging (clock, stats, wear) inside the block.

        This is the *inspection* mode: structural queries such as
        ``overlap_ratio()`` or ``check_invariants()`` read the same records
        the application does, but they are measurement probes, not simulated
        work — metering them would make every metrics sample an
        observer-effect bug.  Nesting is allowed; writes inside an unmetered
        block still land (the data path is unaffected, only the meter is).
        """
        self._unmetered += 1
        try:
            yield
        finally:
            self._unmetered -= 1

    @contextmanager
    def deferred_writes(self, sink) -> Iterator[None]:
        """Redirect write *time* into ``sink`` for the duration of the block.

        ``sink`` is any object with a mutable ``ns`` attribute (the epoch
        pipeline passes a :class:`~repro.core.pipeline.DrainCost`; at a
        window of 0 it passes None, and writes charge the clock).  Inside
        the block each metered write accumulates ``lines * write_latency_ns``
        onto ``sink.ns`` instead of advancing the clock; everything else
        about the write (stats, wear, fault-model refresh) is
        unchanged.  Reads are unaffected — a compute-path read of a cached
        record is synchronous whether or not its store has drained.

        Nesting replaces the sink for the inner block and restores the
        outer one on exit.
        """
        prev = self._deferred_sink
        self._deferred_sink = sink
        try:
            yield
        finally:
            self._deferred_sink = prev

    # -- the charge path ---------------------------------------------------

    def on_read_batch(self, count: int, nbytes: int, lines: int) -> None:
        """Charge ``count`` reads totalling ``nbytes`` bytes / ``lines``
        cache lines: the one read charge (one latency per line)."""
        if self._unmetered or count <= 0:
            return
        stats = self.stats
        stats.reads += count
        stats.bytes_read += nbytes
        stats.lines_read += lines
        self.clock.advance(lines * self.spec.read_latency_ns, self._category)

    def on_read(self, nbytes: int, lines: int = 0) -> None:
        """Charge one read of ``nbytes``.

        ``lines`` overrides the line count for field-granular accesses whose
        spanned lines differ from ``ceil(nbytes / 64)`` (an unaligned field
        can straddle a boundary; a sub-line field still costs a full line).
        """
        self.on_read_batch(1, nbytes,
                           lines if lines > 0 else lines_spanned(0, nbytes))

    def on_write_batch(self, count: int, nbytes: int, lines: int,
                       line_ids=None) -> None:
        """Charge ``count`` writes totalling ``nbytes`` bytes / ``lines``
        cache lines and age ``line_ids``: the one write charge.

        ``line_ids`` holds the global id of every line written, once per
        write that spans it — a ``range`` for one record's contiguous lines
        (the scalar stores), an int64 array for a scatter.  The latency goes
        to the active :meth:`deferred_writes` sink, else to the clock.  The
        rewrite clears an attached fault model's rot on those lines.
        """
        if self._unmetered or count <= 0:
            return
        stats = self.stats
        stats.writes += count
        stats.bytes_written += nbytes
        stats.lines_written += lines
        ns = lines * self.spec.write_latency_ns
        if self._deferred_sink is not None:
            self._deferred_sink.ns += ns
        else:
            self.clock.advance(ns, self._category)
        if line_ids is None:
            return
        scalar = type(line_ids) is range
        end = line_ids.stop if scalar else int(line_ids.max()) + 1
        if end > self._wear.size:
            # as the per-write calls (one row of line_ids each) would grow it
            peaks = (np.array([end]) if scalar else np.maximum.accumulate(
                line_ids.reshape(count, -1).max(axis=1) + 1))
            size = self._wear.size
            while peaks[-1] > size:
                size = max(int(peaks[np.searchsorted(peaks, size, "right")]),
                           2 * size, 1024)
            grown = np.zeros(size, dtype=np.int64)
            grown[: self._wear.size] = self._wear
            self._wear = grown
            self._wear_mv = memoryview(grown)
        if scalar:
            wear = self._wear_mv
            for g in line_ids:
                wear[g] += 1
        else:
            np.add.at(self._wear, line_ids, 1)
        if self.fault_model is not None:
            self.fault_model.rewritten(line_ids)

    def on_write(self, nbytes: int, slot: int = -1, lines: int = 0,
                 line0: int = 0) -> None:
        """Charge one write of ``nbytes``; age every spanned line of ``slot``.

        ``line0`` is the first record-relative cache line the write touches
        (0 for whole-record writes; field writes pass ``offset // 64``).
        Each of the ``lines`` spanned lines gets its own wear bump — a
        2-line record write ages both lines, a 1-byte flag flip only the
        line holding it.
        """
        if lines <= 0:
            lines = lines_spanned(0, nbytes)
        base = slot * LINES_PER_RECORD + line0
        self.on_write_batch(1, nbytes, lines,
                            range(base, base + lines) if slot >= 0 else None)

    # -- media faults ------------------------------------------------------

    def attach_fault_model(self, model: MediaFaultModel) -> None:
        """Arm a media-fault model against this device's lines."""
        self.fault_model = model

    def check_media(self, slot: int, line0: int = 0, lines: int = 0) -> None:
        """Raise :class:`UncorrectableError` if a metered read of ``slot``'s
        lines ``[line0, line0 + lines)`` hits a media fault.

        Free when no fault model is attached (single attribute test) and
        skipped entirely inside :meth:`unmetered` inspection blocks —
        measurement probes never trip media faults.
        """
        fm = self.fault_model
        if fm is None or self._unmetered or fm.quiescent:
            return
        if lines <= 0:
            lines = LINES_PER_RECORD
        base = slot * LINES_PER_RECORD + line0
        hit = fm.fault(range(base, base + lines))
        if hit is not None:
            raise UncorrectableError(self.spec.name, slot, hit[1],
                                     lines=(hit[0],))

    # -- wear reporting ----------------------------------------------------

    def wear_max(self) -> int:
        """Highest write count seen on any single cache line."""
        return int(self._wear.max()) if self._wear.size else 0

    def wear_total(self) -> int:
        return int(self._wear.sum()) if self._wear.size else 0

    def wear_headroom(self) -> float:
        """Fraction of the endurance budget left on the most-worn line."""
        if self.spec.endurance_writes <= 0:
            return 0.0
        return 1.0 - self.wear_max() / self.spec.endurance_writes
