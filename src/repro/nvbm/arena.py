"""Memory arenas: record-addressed DRAM and NVBM with crash semantics.

An arena is the byte store behind one memory technology on one node.  Octant
records are addressed by *handles* (:mod:`repro.nvbm.pointers`), each access
is charged to the simulated clock by the arena's
:class:`~repro.nvbm.device.MemoryDevice`, and — the part the paper's
emulator could not exercise — stores to a non-volatile arena first land in a
volatile write-back cache whose lines are dropped or torn on a crash.

The store
---------
``_rows`` is an ``(n, 128) uint8`` array, one row per slot: what the medium
holds.  A non-volatile arena adds ``_crows``, the write-back cache —
compact, one row per *cached* record, found through the per-slot ``_crow``
array and the insertion-ordered directory ``_cdir`` (slot -> cache row).
Per-slot side arrays: ``_present`` (the row holds a record — *not* "the row
is non-zero": a slot allocated but never persisted reads as a dangling
pointer whatever bytes its row last held), ``_dirty_mask`` (the dirty cache
lines of a cached record: a field store dirties only the lines it spans and
a crash tears exactly those) and ``_seal`` (the record's CRC32, -1 =
unsealed, kept *out-of-band* the way a DIMM keeps ECC in extra device bits).
Everything grows lazily and in place.  A **batch** access is *defined* as
the per-record calls in order; a **scalar** access is a ``memoryview`` slice
of the same buffers feeding the same device charge.  docs/performance.md
("The columnar arena") has the layout, the costs and the reasons.

Crash model
-----------
* A **volatile** arena loses everything: backing store, cache, allocations.
* A **non-volatile** arena keeps its backing store.  Each dirty cached record
  is persisted *per 64-byte line* with independent probability 1/2 (the CPU
  may have evicted any subset of lines, in any order), its seal is voided
  (torn bytes carry no integrity claim) and the cache is discarded.  One
  ``rng.random()`` is drawn per *dirty line*: records in the order they
  entered the cache (a re-store keeps a record's place,
  :meth:`MemoryArena.flush_records` + re-store moves it to the end), lines
  ascending — that order is part of every seeded crash-recovered state.
  Allocator metadata is assumed persistent, as a real NVBM allocator's
  would be; slots holding torn or never-persisted records are reclaimed by
  PM-octree's mark-and-sweep GC after recovery.
* :meth:`MemoryArena.flush` persists all dirty lines (the analogue of a
  ``clflush``/``mfence`` sequence at a persist point) and *seals* them — the
  only point the bytes are known durable.  Root-slot updates are 8-byte
  atomic write-throughs — the *only* ordered write PM-octree needs (§3).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.config import CACHE_LINE_SIZE, OCTANT_RECORD_SIZE, DeviceSpec
from repro.errors import ConsistencyError, InvalidHandleError, MediaError
from repro.nvbm.allocator import RecordAllocator
from repro.nvbm.clock import SimClock
from repro.nvbm.device import MemoryDevice
from repro.nvbm.pointers import _INDEX_BITS, _INDEX_MASK, arena_of, index_of
from repro.nvbm.records import (
    CRC_SPAN,
    EPOCH_SPAN,
    FLAGS_SPAN,
    PAYLOAD_SPAN,
    OctantRecord,
    child_span,
    pack_handles,
    pack_payload,
    pack_record,
    unpack_epoch,
    unpack_payload,
    unpack_record,
)

#: Cost of the ordering instruction sequence at a flush/persist point.
FENCE_NS = 250.0

_REC = OCTANT_RECORD_SIZE
_LINES_PER_RECORD = OCTANT_RECORD_SIZE // CACHE_LINE_SIZE
#: bytes of a record its CRC seal covers
_CRC_COVER = CRC_SPAN[0]
_BITS64 = np.uint64(_INDEX_BITS)
_MASK64 = np.uint64(_INDEX_MASK)


def _lines_of(offset: int, nbytes: int):
    """``(first line, line count, line bitmask)`` of the record cache lines
    the byte range ``[offset, offset + nbytes)`` spans."""
    first = offset // CACHE_LINE_SIZE
    count = (offset + max(1, nbytes) - 1) // CACHE_LINE_SIZE - first + 1
    return first, count, ((1 << count) - 1) << first


def _extend(arr: np.ndarray, size: int) -> None:
    """Resize ``arr`` along axis 0 to ``size`` entries (new ones zero), in
    place: ``ndarray.resize`` reallocates, so a big store never holds two
    copies of itself while it grows (``peak_rss_mb`` is a gated metric).
    The caller owns ``arr`` outright and has released every memoryview of
    it — nothing else may alias the old buffer."""
    arr.resize((size,) + arr.shape[1:], refcheck=False)


def _row_crcs(rows: np.ndarray) -> List[int]:
    """CRC32 seal of each whole record in an ``(n, 128)`` block."""
    buf = rows.tobytes()
    return [zlib.crc32(buf[o:o + _CRC_COVER])
            for o in range(0, len(buf), _REC)]


class RootSlots:
    """Named 8-byte persistent slots for ``ADDR(V_i)`` / ``ADDR(V_{i-1})``.

    Updates are write-through and atomic: an 8-byte aligned store is atomic
    on x86, which is the primitive PM-octree's persist-point swap relies on.

    ``injector`` (optional) makes :meth:`swap` crash-testable: the site
    ``roots.swap.mid`` fires between the two device stores, *before* either
    slot value changes — the model's claim is that the exchange is
    all-or-nothing, so a mid-swap crash must leave both slots untouched.
    ``tracer`` (optional, see :mod:`repro.analysis.tracker`) observes every
    slot publish for ordering verification.
    """

    def __init__(self, device: MemoryDevice, injector=None):
        self._device = device
        self._slots: Dict[str, int] = {}
        self.injector = injector
        self.tracer = None

    def get(self, name: str) -> int:
        self._device.on_read(8)
        return self._slots.get(name, 0)

    def set(self, name: str, handle: int) -> None:
        self._device.on_write(8)
        self._slots[name] = handle
        if self.tracer is not None:
            self.tracer.on_publish(name, handle)

    def swap(self, a: str, b: str) -> None:
        """Atomically exchange two root slots (the §3.2 persist point)."""
        va, vb = self._slots.get(a, 0), self._slots.get(b, 0)
        self._device.on_write(8)
        if self.injector is not None:
            from repro.nvbm.sites import ROOTS_SWAP_MID

            self.injector.site(ROOTS_SWAP_MID)
        self._device.on_write(8)
        self._slots[a], self._slots[b] = vb, va
        if self.tracer is not None:
            self.tracer.on_publish(a, vb)
            self.tracer.on_publish(b, va)

    def names(self) -> Iterator[str]:
        return iter(self._slots)


@dataclass
class ArenaStats:
    """Record-level traffic of one arena."""

    stores: int = 0
    #: metered flushes only: one replayed under ``unmetered()`` for its
    #: durability effect was pre-charged elsewhere and is not counted
    flush_calls: int = 0
    flush_records: int = 0
    allocs: int = 0
    frees: int = 0


class MemoryArena:
    """Record-granular memory of one technology (DRAM or NVBM) on one node."""

    def __init__(
        self,
        arena_id: int,
        spec: DeviceSpec,
        clock: SimClock,
        capacity_octants: int,
        name: Optional[str] = None,
        wear_leveling: bool = False,
        injector=None,
    ):
        self.arena_id = arena_id
        self.spec = spec
        self.name = name or spec.name
        self.device = MemoryDevice(spec, clock)
        self.stats = ArenaStats()
        #: optional ordering observer (see repro.analysis.tracker); checked
        #: on every store/flush/free, None in normal operation.
        self.tracer = None
        if wear_leveling:
            from repro.nvbm.allocator import WearLevelingAllocator

            self.allocator = WearLevelingAllocator(capacity_octants,
                                                   name=self.name)
        else:
            self.allocator = RecordAllocator(capacity_octants, name=self.name)
        self._volatile = spec.volatile
        self._tag = arena_id << _INDEX_BITS
        self._allocated_mv = self.allocator._alloc_mv
        self._cap = self.allocator.capacity
        # the store (module docstring)
        self._rows = np.zeros((0, _REC), dtype=np.uint8)
        self._present = np.zeros(0, dtype=bool)
        self._seal = np.zeros(0, dtype=np.int64)
        self._dirty_mask = np.zeros(0, dtype=np.uint8)
        self._crow = np.zeros(0, dtype=np.int32)
        self._crows = np.zeros((0, _REC), dtype=np.uint8)
        #: cache rows in use are ``[0, _crows_used)`` minus ``_crows_free``
        self._crows_used = 0
        self._crows_free: List[int] = []
        self._cdir: Dict[int, int] = {}
        self._bind()
        # Root slots only make sense on a persistent arena but are harmless
        # on DRAM (they just vanish with everything else on a crash).
        self.roots = RootSlots(self.device, injector=injector)

    def _bind(self) -> None:
        """The scalar accessors' view of the store: a byte slice or a flag
        test on a memoryview costs a fraction of a numpy scalar."""
        self._bmv = memoryview(self._rows.reshape(-1))
        self._cmv = memoryview(self._crows.reshape(-1))
        self._present_mv = memoryview(self._present)
        self._crow_mv = memoryview(self._crow)
        self._dirty_mv = memoryview(self._dirty_mask)
        self._seal_mv = memoryview(self._seal)

    def _grow(self, idx: int) -> None:
        """Extend the per-slot arrays to cover slot ``idx``."""
        old = self._present.size
        size = min(self.capacity, max(idx + 1, 3 * old // 2, 1024))
        self._unbind()
        for arr in (self._rows, self._present, self._crow, self._dirty_mask,
                    self._seal):
            _extend(arr, size)
        self._crow[old:] = -1
        self._seal[old:] = -1
        self._bind()

    def _unbind(self) -> None:
        for mv in (self._bmv, self._cmv, self._present_mv, self._crow_mv,
                   self._dirty_mv, self._seal_mv):
            mv.release()

    def _cache_rows(self, count: int) -> List[int]:
        """Claim ``count`` free rows of the write-back cache."""
        free = self._crows_free
        rows = [free.pop() for _ in range(min(count, len(free)))]
        if len(rows) < count:
            start = self._crows_used
            self._crows_used = stop = start + count - len(rows)
            rows.extend(range(start, stop))
            if stop > len(self._crows):
                self._unbind()
                _extend(self._crows, max(stop, 3 * len(self._crows) // 2, 256))
                self._bind()
        return rows

    def attach_obs(self, obs) -> None:
        """Report :class:`ArenaStats` as ``arena.*`` counters (and the
        device's as ``device.*``) of an :class:`repro.obs.Observability`,
        labeled by arena name."""
        self.device.attach_obs(obs, device=self.name)
        obs.metrics.fold("arena", self.stats, arena=self.name)

    # -- capacity ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.allocator.capacity

    @property
    def used(self) -> int:
        return self.allocator.used

    @property
    def free_fraction(self) -> float:
        return self.allocator.free_fraction

    # -- handles -------------------------------------------------------------

    def _check(self, handle: int) -> int:
        if arena_of(handle) != self.arena_id:
            raise InvalidHandleError(
                f"handle {handle:#x} does not belong to arena {self.name!r}"
            )
        idx = index_of(handle)
        if not self.allocator.is_allocated(idx):
            raise InvalidHandleError(f"{self.name}: handle {handle:#x} is not allocated")
        return idx

    def _indices(self, handles) -> np.ndarray:
        """:meth:`_check` of a whole batch: the slot indices, or the error
        of the first handle the per-record sequence would reject."""
        h = np.asarray(handles, dtype=np.uint64)
        ok = self.contains_mask(h)
        if not ok.all():
            self._check(int(h[int(ok.argmin())]))
        return self.slots_of(h)

    def contains(self, handle: int) -> bool:
        """True when the handle is a live allocation in this arena."""
        return (handle >> _INDEX_BITS == self.arena_id
                and self.allocator.is_allocated(handle & _INDEX_MASK))

    def contains_mask(self, handles: np.ndarray) -> np.ndarray:
        """:meth:`contains` of every handle in a uint64 array."""
        idx = (handles & _MASK64).astype(np.intp)
        ok = ((handles >> _BITS64) == self.arena_id) & (idx < self.capacity)
        ok[ok] = self.allocator._allocated[idx[ok]]
        return ok

    @property
    def slots(self) -> int:
        """Slots the store covers so far (every allocated index is below)."""
        return self._present.size

    def slots_of(self, handles: np.ndarray) -> np.ndarray:
        """Slot indices of a uint64 handle array (no validity check)."""
        return (handles & _MASK64).astype(np.intp)

    def handles_of(self, slots: np.ndarray) -> np.ndarray:
        """Handles of a slot-index array, as uint64."""
        return slots.astype(np.uint64) | np.uint64(self._tag)

    def alloc(self) -> int:
        """Allocate a record slot and return its handle (contents undefined)."""
        self.stats.allocs += 1
        idx = self.allocator.alloc()
        if idx >= self._present.size:
            self._grow(idx)
        return self._tag | idx

    def _drop(self, handle: int, release) -> None:
        """Hand a slot back through ``release`` (the allocator's ``free`` or
        ``retire``) and forget its record: backing, cache, dirty mask, seal."""
        idx = self._check(handle)
        if self.tracer is not None:
            self.tracer.on_free(handle)
        self.stats.frees += 1
        release(idx)
        self._present_mv[idx] = False
        self._seal_mv[idx] = -1
        crow = self._cdir.pop(idx, None)
        if crow is not None:
            self._crows_free.append(crow)
            self._crow_mv[idx] = -1
            self._dirty_mv[idx] = 0

    def free(self, handle: int) -> None:
        """Release a record slot (GC only, per §3.2's deferred deletion)."""
        self._drop(handle, self.allocator.free)

    def retire(self, handle: int) -> None:
        """Release a slot *and* take its media out of rotation: the repair
        ladder's answer to stuck or worn-out lines — the allocator's
        retired-set guarantees the slot is never handed out again."""
        self._drop(handle, self.allocator.retire)

    def attach_fault_model(self, model) -> None:
        """Arm a :class:`repro.nvbm.device.MediaFaultModel` on this arena."""
        self.device.attach_fault_model(model)

    # -- scalar record access ------------------------------------------------
    #
    # The §5.4 economy ("PM-octree only needs to write new and updated
    # octants") extends *inside* the record: a payload update, a child-slot
    # splice or a flag flip touches one cache line, not the whole record.
    # Every accessor is ``_load`` or ``_store`` of a byte span, charged for
    # exactly the lines the span covers.

    def _never_written(self, handle: int) -> ConsistencyError:
        return ConsistencyError(
            f"{self.name}: handle {handle:#x} allocated but never written "
            "(likely a dangling pointer into torn/unflushed memory)"
        )

    def _crc_error(self, idx: int) -> MediaError:
        base = idx * _LINES_PER_RECORD
        return MediaError(
            self.name, idx, "crc",
            lines=tuple(range(base, base + _LINES_PER_RECORD)),
            detail="sealed record failed CRC verification",
        )

    def _load(self, handle: int, offset: int, size: int):
        """Check, charge and verify one read of ``[offset, offset + size)``;
        returns ``(buffer, byte position of the span)``.

        Read-your-writes through the cache.  A read served by the *medium*
        passes media-fault checks on the spanned lines and CRC verification
        of the covering record (the CRC protects the whole record).
        Verification charges nothing (it models the DIMM's ECC riding along
        with the read); only the faults it *surfaces* cost anything, via
        the repair ladder's retries and rebuild traffic.
        """
        idx = handle & _INDEX_MASK
        if (handle >> _INDEX_BITS != self.arena_id
                or idx >= self._cap or not self._allocated_mv[idx]):
            self._check(handle)
        dev = self.device
        first = offset // CACHE_LINE_SIZE
        nlines = (offset + (size or 1) - 1) // CACHE_LINE_SIZE - first + 1
        metered = not dev._unmetered
        if metered:
            dev.on_read_batch(1, size, nlines)
        crow = self._cdir.get(idx)
        if crow is not None:
            return self._cmv, crow * _REC + offset
        pos = idx * _REC
        if not self._present_mv[idx]:
            raise self._never_written(handle)
        if metered:
            if dev.fault_model is not None:
                dev.check_media(idx, first, nlines)
            crc = self._seal_mv[idx]
            if crc >= 0 and zlib.crc32(
                    self._bmv[pos:pos + _CRC_COVER]) != crc:
                raise self._crc_error(idx)
        return self._bmv, pos + offset

    def _store(self, handle: int, offset: int, data) -> None:
        """Check, charge and land one store of ``data`` at ``offset``.

        On NVBM the store lands in the volatile cache and only the spanned
        lines turn dirty: a crash after a partial store can tear the
        *stored* lines, never the rest of the record.  A field store needs
        an existing record.
        """
        idx = handle & _INDEX_MASK
        if (handle >> _INDEX_BITS != self.arena_id
                or idx >= self._cap or not self._allocated_mv[idx]):
            self._check(handle)
        size = len(data)
        if offset < 0 or offset + size > _REC:
            raise ValueError(
                f"field [{offset}, {offset + size}) outside the record"
            )
        crow = self._cdir.get(idx)
        if size != _REC and crow is None and not self._present_mv[idx]:
            raise self._never_written(handle)
        first = offset // CACHE_LINE_SIZE
        nlines = (offset + (size or 1) - 1) // CACHE_LINE_SIZE - first + 1
        dev = self.device
        if not dev._unmetered:
            base = idx * _LINES_PER_RECORD + first
            dev.on_write_batch(1, size, nlines, range(base, base + nlines))
        if self.tracer is not None:
            self.tracer.on_store(handle, cached=not self._volatile)
        self.stats.stores += 1
        if self._volatile:
            pos = idx * _REC + offset
            self._bmv[pos:pos + size] = data
            self._present_mv[idx] = True
            return
        if crow is None:
            free = self._crows_free
            crow = free.pop() if free else self._cache_rows(1)[0]
            self._cdir[idx] = self._crow_mv[idx] = crow
            if size != _REC:
                # the cached image starts as the medium's bytes
                self._cmv[crow * _REC:(crow + 1) * _REC] = \
                    self._bmv[idx * _REC:(idx + 1) * _REC]
        pos = crow * _REC + offset
        self._cmv[pos:pos + size] = data
        self._dirty_mv[idx] |= ((1 << nlines) - 1) << first

    def read(self, handle: int) -> bytes:
        """Load a whole record."""
        return self.read_field(handle, 0, _REC)

    def write(self, handle: int, data: bytes) -> None:
        """Store a whole record."""
        if len(data) != _REC:
            raise ValueError(f"record must be {_REC} bytes")
        self._store(handle, 0, data)

    def read_field(self, handle: int, offset: int, size: int) -> bytes:
        """Load ``size`` bytes at ``offset`` of a record."""
        buf, pos = self._load(handle, offset, size)
        return bytes(buf[pos:pos + size])

    write_field = _store

    # typed field convenience -------------------------------------------------

    def read_payload(self, handle: int):
        """The 4-float payload alone (one cache line, not two)."""
        return unpack_payload(*self._load(handle, *PAYLOAD_SPAN))

    def write_payload(self, handle: int, payload) -> None:
        self._store(handle, PAYLOAD_SPAN[0], pack_payload(payload))

    def read_epoch(self, handle: int) -> int:
        return unpack_epoch(*self._load(handle, *EPOCH_SPAN))

    def read_flags(self, handle: int) -> int:
        buf, pos = self._load(handle, *FLAGS_SPAN)
        return buf[pos]

    def set_flags(self, handle: int, flags: int) -> None:
        """Store the one-byte flags field (a single-line flag flip)."""
        self._store(handle, FLAGS_SPAN[0], bytes((flags & 0xFF,)))

    def write_child_slot(self, handle: int, index: int, child: int) -> None:
        """Splice one child handle in place (an 8-byte, single-line store)."""
        self._store(handle, child_span(index)[0], pack_handles((child,)))

    def write_child_slots(self, handle: int, index: int, children) -> None:
        """Store contiguous child slots ``[index, index + len(children))``."""
        self._store(handle, child_span(index, len(children))[0],
                    pack_handles(children))

    # -- octant-level convenience -------------------------------------------

    def read_octant(self, handle: int) -> OctantRecord:
        return unpack_record(*self._load(handle, 0, _REC))

    def write_octant(self, handle: int, rec: OctantRecord) -> None:
        self._store(handle, 0, pack_record(rec))

    def new_octant(self, rec: OctantRecord) -> int:
        """Allocate and store a fresh octant; return its handle."""
        handle = self.alloc()
        self._store(handle, 0, pack_record(rec))
        return handle

    # -- batch record access -------------------------------------------------
    #
    # A batch is the per-record scalar calls in order: same values, same
    # stats/clock/wear totals, and on a fault the same error after the same
    # charges (every read before the faulting one, plus the faulting read
    # itself — a read is charged before it is verified).  The vectorised
    # path serves the batch nothing goes wrong in.

    def read_rows(self, handles, offset: int = 0,
                  size: int = _REC) -> np.ndarray:
        """Bytes ``[offset, offset + size)`` of many records as an
        ``(n, size) uint8`` array: ``n`` :meth:`read_field` calls (whole
        records by default: ``n`` :meth:`read` calls)."""
        idx = self._indices(handles)
        whole = offset == 0 and size == _REC
        span = slice(offset, offset + size)
        rows = self._rows[idx] if whole else self._rows[idx, span]
        on_medium = self._present[idx]
        clean = on_medium.all()
        if self._cdir:
            crow = self._crow[idx]
            cached = crow >= 0
            if cached.any():
                rows[cached] = self._crows[crow[cached], span]
                clean = (on_medium | cached).all()
                on_medium &= ~cached
        dev = self.device
        first, nlines, _mask = _lines_of(offset, size)
        if clean and not dev._unmetered:
            fm = dev.fault_model
            if fm is not None and not fm.quiescent:
                clean = not fm.armed and not fm.planted_among(
                    (idx[on_medium] * _LINES_PER_RECORD + first)[:, None]
                    + np.arange(nlines))
            sealed = np.flatnonzero(on_medium & (self._seal[idx] >= 0))
            if clean and sealed.size:
                full = rows[sealed] if whole else self._rows[idx[sealed]]
                clean = _row_crcs(full) == self._seal[idx[sealed]].tolist()
        if not clean:
            # a read of this batch raises, or an armed fault model has to
            # see each read at its own clock and count: the per-record
            # sequence is the definition, so run it
            return np.array([
                list(self.read_field(h, offset, size))
                for h in np.asarray(handles, dtype=np.uint64).tolist()
            ], dtype=np.uint8).reshape(idx.size, size)
        dev.on_read_batch(idx.size, idx.size * size, idx.size * nlines)
        return rows

    def write_rows(self, handles, offset: int, data: np.ndarray) -> None:
        """Store ``data`` (``(n, size) uint8``) at ``offset`` of many
        records: ``n`` :meth:`write_field` calls (``offset == 0`` and
        ``size == 128``: ``n`` :meth:`write` calls)."""
        idx = self._indices(handles)
        n, size = data.shape
        if n != idx.size:
            raise ValueError(f"{idx.size} handles but {n} rows")
        if offset < 0 or offset + size > _REC:
            raise ValueError(
                f"field [{offset}, {offset + size}) outside the record"
            )
        whole = size == _REC
        cached = self._crow[idx] >= 0
        if not whole:
            bad = ~(cached | self._present[idx])
            if bad.any():
                raise self._never_written(self._tag | int(idx[bad.argmax()]))
        first, nlines, mask = _lines_of(offset, size)
        dev = self.device
        if not dev._unmetered:
            ids = (idx * _LINES_PER_RECORD + first)[:, None] \
                + np.arange(nlines, dtype=np.intp)
            dev.on_write_batch(n, n * size, n * nlines, ids.ravel())
        if self.tracer is not None:
            for i in idx.tolist():
                self.tracer.on_store(self._tag | i, cached=not self._volatile)
        self.stats.stores += n
        span = slice(offset, offset + size)
        if self._volatile:
            self._rows[idx, span] = data
            self._present[idx] = True
            return
        fresh = list(dict.fromkeys(idx[~cached].tolist()))
        if fresh:
            crows = self._cache_rows(len(fresh))
            self._cdir.update(zip(fresh, crows))
            self._crow[fresh] = crows
            if not whole:
                self._crows[crows] = self._rows[fresh]
        self._crows[self._crow[idx], span] = data
        self._dirty_mask[idx] |= mask

    # -- durability ----------------------------------------------------------

    @property
    def dirty_records(self) -> int:
        return len(self._cdir)

    def dirty_handles(self) -> list:
        """Handles of every record currently dirty in the write-back cache,
        in cache-insertion order.

        The epoch pipeline snapshots this at enqueue time: the set is
        exactly what the drain phase must make durable before the epoch's
        root may be published.
        """
        tag = self._tag
        return [tag | idx for idx in self._cdir]

    def _persist(self, slots: List[int]) -> None:
        """Fence, then move the cached ``slots`` onto the medium, sealed."""
        # unmetered means *all* charging is suppressed, stats included: the
        # epoch pipeline pre-charges its fences through the drain cost model
        # and replays the flush here only for its durability effect.
        if not self.device._unmetered:
            self.device.clock.advance(FENCE_NS, self.device._category)
            self.stats.flush_calls += 1
            self.stats.flush_records += len(slots)
        if self.tracer is not None:
            tag = self._tag
            self.tracer.on_flush([tag | idx for idx in slots])
        if not slots:
            return
        idx = np.array(slots, dtype=np.intp)
        rows = self._crows[self._crow[idx]]
        self._rows[idx] = rows
        self._present[idx] = True
        self._seal[idx] = _row_crcs(rows)
        self._crow[idx] = -1
        self._dirty_mask[idx] = 0

    def _drop_cache(self) -> None:
        self._cdir.clear()
        self._crows_used = 0
        self._crows_free.clear()
        if len(self._crows) > 1024:
            # a bulk load (first persist, replica materialisation) is no
            # reason to keep a cache that size resident from here on
            self._unbind()
            _extend(self._crows, 0)
            self._bind()

    def flush(self) -> None:
        """Persist every dirty cached record (persist-point fence)."""
        self._persist(list(self._cdir))
        self._drop_cache()

    def flush_records(self, handles) -> None:
        """Persist (and seal) exactly the given records, leaving the rest
        of the write-back cache dirty.

        The selective analogue of :meth:`flush` for the epoch pipeline: an
        in-flight epoch drains only the records *it* snapshotted, so a
        later epoch's still-cooking stores are not prematurely persisted
        (which would re-order durability across epochs).  Handles that are
        no longer cached (already flushed, or freed by GC) are skipped, and
        so is a handle named twice.
        """
        h = np.asarray(handles, dtype=np.uint64)
        idx = self.slots_of(h[(h >> _BITS64) == self.arena_id])
        idx = idx[idx < self._crow.size]
        idx = idx[self._crow[idx] >= 0]  # still cached
        # each slot once, in the order first named
        slots = idx[np.sort(np.unique(idx, return_index=True)[1])].tolist()
        self._persist(slots)
        self._crows_free.extend(map(self._cdir.pop, slots))

    def crash(self, rng: Optional[np.random.Generator] = None) -> None:
        """Apply power-loss semantics (see module docstring)."""
        if self.tracer is not None:
            self.tracer.on_crash()
        if self._volatile:
            self._present[:] = False
            self.allocator.reset()
            self.roots._slots.clear()
            return
        rng = rng or np.random.default_rng()
        bmv, cmv = self._bmv, self._cmv
        for idx, crow in self._cdir.items():
            # old and new lines side by side: the old seal no longer holds
            self._seal_mv[idx] = -1
            pos = idx * _REC
            present = self._present_mv[idx]
            if not present:
                bmv[pos:pos + _REC] = bytes(_REC)
            # only *dirty* lines are in flight: a partial store can tear
            # at most the lines it touched
            mask = self._dirty_mv[idx]
            for line in range(_LINES_PER_RECORD):
                if mask & (1 << line) and rng.random() < 0.5:
                    lo = line * CACHE_LINE_SIZE
                    hi = lo + CACHE_LINE_SIZE
                    bmv[pos + lo:pos + hi] = \
                        cmv[crow * _REC + lo:crow * _REC + hi]
            # a slot nothing (or only zero lines) reached stays unwritten
            if not present and any(bmv[pos:pos + _REC]):
                self._present_mv[idx] = True
            self._crow_mv[idx] = -1
            self._dirty_mv[idx] = 0
        self._drop_cache()

    # -- introspection ---------------------------------------------------------

    def live_handles(self) -> Iterator[int]:
        """All allocated handles (GC sweep order)."""
        tag = self._tag
        for idx in self.allocator.live_indices().tolist():
            yield tag | idx
