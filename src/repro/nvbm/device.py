"""Memory-device latency and wear model.

A :class:`MemoryDevice` does no storage itself — it is the *meter* through
which an arena charges simulated time and counts accesses.  The latency model
follows the paper's emulator: a fixed per-access latency (Table 2), charged
once per cache line touched, which is how a CPU actually issues the traffic.
"""

from __future__ import annotations

import math
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set

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

    @property
    def lines_touched(self) -> int:
        return self.lines_read + self.lines_written

    def merged_with(self, other: "DeviceStats") -> "DeviceStats":
        return DeviceStats(
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            lines_read=self.lines_read + other.lines_read,
            lines_written=self.lines_written + other.lines_written,
        )


class MediaFaultModel:
    """Deterministic, seeded model of NVBM media faults surfacing on read.

    The medium itself is no longer assumed perfect: reads of a cache line
    can return an *uncorrectable error* (UE) — the DIMM's internal ECC
    detected corruption it could not fix.  Four mechanisms are modelled,
    each driven purely by the simulated clock and a seeded hash (no
    wall-clock, no ambient ``random``), so a given (seed, access sequence)
    always produces the same faults:

    ``stuck``
        A line from a chaos-supplied plan (:meth:`plant_stuck`) fails every
        read until the slot is retired.  Rewrites do not help.
    ``rot``
        Background bit-rot.  Each line gets a per-generation exponential
        age-to-failure deadline drawn from ``rot_mtbf_ns``; once the sim
        clock passes it, reads fail until the line is rewritten (a write
        refreshes the cells and redraws the deadline).  Chaos can also
        plant an immediate rot (:meth:`plant_rot`).
    ``wear``
        Endurance exhaustion.  Each line draws a deterministic write-count
        limit around ``wear_fraction * spec.endurance_writes``; once its
        tracked wear crosses the limit, reads fail permanently — the line
        must be retired.
    ``transient``
        A one-off upset with probability ``transient_rate`` per read; the
        next read of the same line succeeds (bounded re-read clears it).

    All mechanisms default *off* (rate/fraction 0.0 and nothing planted);
    a constructed-but-idle model injects nothing.
    """

    def __init__(self, seed: int, rot_mtbf_ns: float = 0.0,
                 wear_fraction: float = 0.0, transient_rate: float = 0.0):
        self.seed = int(seed)
        self.rot_mtbf_ns = float(rot_mtbf_ns)
        self.wear_fraction = float(wear_fraction)
        self.transient_rate = float(transient_rate)
        self._stuck: Set[int] = set()
        self._rotted: Set[int] = set()   # chaos-planted, cleared by rewrite
        self._gen: Dict[int, int] = {}   # rewrite generation per line
        self._born_ns: Dict[int, float] = {}
        self._reads: Dict[int, int] = {}
        self._endurance = 0
        self._attach_ns = 0.0

    def _u(self, tag: str, *ints) -> float:
        """Deterministic uniform in [0, 1) from the seed and integer keys."""
        key = f"{tag}:{self.seed}:" + ":".join(str(i) for i in ints)
        return zlib.crc32(key.encode("ascii")) / 2**32

    # -- chaos plan hooks --------------------------------------------------

    def plant_stuck(self, gline: int) -> None:
        """Mark a global line as stuck: every read fails until retirement."""
        self._stuck.add(int(gline))

    def plant_rot(self, gline: int) -> None:
        """Rot a global line immediately (cleared by the next rewrite)."""
        self._rotted.add(int(gline))

    # -- device callbacks --------------------------------------------------

    @property
    def armed(self) -> bool:
        """True when a rate-driven mechanism is on (a read's outcome then
        depends on the clock, the wear or the read count)."""
        return (self.wear_fraction > 0.0 or self.rot_mtbf_ns > 0.0
                or self.transient_rate > 0.0)

    @property
    def quiescent(self) -> bool:
        """Nothing armed and nothing planted: no read can fault."""
        return not (self._stuck or self._rotted or self.armed)

    def note_write(self, gline: int, now_ns: float) -> None:
        """A metered write refreshed this line's cells."""
        self._rotted.discard(gline)
        self._gen[gline] = self._gen.get(gline, 0) + 1
        self._born_ns[gline] = now_ns

    def check(self, gline: int, now_ns: float, wear: int) -> Optional[str]:
        """Return the fault kind a read of ``gline`` hits now, or ``None``."""
        if gline in self._stuck:
            return "stuck"
        if gline in self._rotted:
            return "rot"
        if self.wear_fraction > 0.0 and self._endurance > 0:
            limit = self._endurance * self.wear_fraction
            limit *= 1.0 + 0.5 * self._u("wl", gline)
            if wear > limit:
                return "wear"
        if self.rot_mtbf_ns > 0.0:
            gen = self._gen.get(gline, 0)
            u = self._u("rot", gline, gen)
            deadline = self._born_ns.get(gline, self._attach_ns)
            deadline += self.rot_mtbf_ns * -math.log(1.0 - u)
            if now_ns >= deadline:
                return "rot"
        if self.transient_rate > 0.0:
            n = self._reads.get(gline, 0)
            self._reads[gline] = n + 1
            if self._u("tr", gline, n) < self.transient_rate:
                return "transient"
        return None

    def planted_among(self, glines: np.ndarray) -> bool:
        """True when a planted (stuck or rotted) line is among ``glines``.
        With no rate armed that is all a read's outcome depends on, so a
        whole batch of reads is cleared by one set intersection."""
        planted = self._stuck | self._rotted
        return bool(np.isin(
            glines, np.fromiter(planted, np.int64, len(planted))).any())


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
    (writes/line vs ``spec.endurance_writes``) and the media-fault model
    trigger wear-out faults.  Wear is indexed by *global line id*
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
        pipeline passes a :class:`~repro.core.pipeline.DrainCost`).  Inside
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
        to the active :meth:`deferred_writes` sink, else to the clock.  An
        attached fault model sees every line refreshed at the post-charge
        clock.
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
            grown = np.zeros(max(end, 2 * self._wear.size, 1024),
                             dtype=np.int64)
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
            now = self.clock.now_ns
            for g in (line_ids if scalar else line_ids.tolist()):
                self.fault_model.note_write(g, now)

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
        model._endurance = self.spec.endurance_writes
        model._attach_ns = self.clock.now_ns
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
        now = self.clock.now_ns
        for g in range(base, base + lines):
            wear = self._wear_mv[g] if g < self._wear.size else 0
            kind = fm.check(g, now, wear)
            if kind is not None:
                raise UncorrectableError(self.spec.name, slot, kind, lines=(g,))

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
