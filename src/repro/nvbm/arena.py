"""Memory arenas: record-addressed DRAM and NVBM with crash semantics.

An arena is the byte store behind one memory technology on one node.  Octant
records are addressed by *handles* (:mod:`repro.nvbm.pointers`), each access
is charged to the simulated clock by the arena's
:class:`~repro.nvbm.device.MemoryDevice`, and — the part the paper's
emulator could not exercise — stores to a non-volatile arena first land in a
volatile write-back cache whose lines are dropped or torn on a crash.

Crash model
-----------
* A **volatile** arena loses everything: backing store, cache, allocations.
* A **non-volatile** arena keeps its backing store.  Each dirty cached record
  is persisted *per 64-byte line* with independent probability 1/2 (the CPU
  may have evicted any subset of lines, in any order) and the cache is then
  discarded.  Allocator metadata is assumed persistent, as a real NVBM
  allocator's would be; slots holding torn or never-persisted records are
  reclaimed by PM-octree's mark-and-sweep GC after recovery.
* :meth:`MemoryArena.flush` persists all dirty lines (the analogue of a
  ``clflush``/``mfence`` sequence at a persist point), and root-slot updates
  are 8-byte atomic write-throughs — the *only* ordered write PM-octree
  needs (§3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

from repro.config import CACHE_LINE_SIZE, OCTANT_RECORD_SIZE, DeviceSpec
from repro.errors import ConsistencyError, InvalidHandleError, MediaError
from repro.nvbm.allocator import RecordAllocator
from repro.nvbm.clock import SimClock
from repro.nvbm.device import MemoryDevice, lines_spanned
from repro.nvbm.pointers import arena_of, index_of, make_handle
from repro.nvbm.records import (
    EPOCH_SPAN,
    FLAGS_SPAN,
    PAYLOAD_SPAN,
    OctantRecord,
    child_span,
    pack_handles,
    pack_payload,
    pack_record,
    record_crc,
    unpack_epoch,
    unpack_payload,
    unpack_record,
)

#: Cost of the ordering instruction sequence at a flush/persist point.
FENCE_NS = 250.0

_LINES_PER_RECORD = OCTANT_RECORD_SIZE // CACHE_LINE_SIZE
_ALL_LINES_MASK = (1 << _LINES_PER_RECORD) - 1


def _line_mask(offset: int, nbytes: int) -> int:
    """Bitmask of the record cache lines ``[offset, offset + nbytes)`` spans."""
    first = offset // CACHE_LINE_SIZE
    last = (offset + max(1, nbytes) - 1) // CACHE_LINE_SIZE
    mask = 0
    for line in range(first, last + 1):
        mask |= 1 << line
    return mask


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
        self._backing: Dict[int, bytes] = {}
        self._cache: Dict[int, bytes] = {}
        #: per-record CRC seal, kept *out-of-band* (idx -> CRC32 over the
        #: record bytes) the way a DIMM keeps ECC metadata in extra device
        #: bits: the byte stream an application stores is exactly what the
        #: medium holds, so the per-line crash-tear model stays honest.
        #: Sealing happens at :meth:`flush` (the only point the bytes are
        #: known durable); a crash voids the seal of anything that was
        #: dirty — torn records carry no integrity claim and are left to GC.
        self._sealed: Dict[int, int] = {}
        #: per-record bitmask of *dirty* cache lines (non-volatile arenas
        #: only).  A full-record store dirties every line; a field store
        #: dirties only the lines it spans — the crash model tears exactly
        #: these, so a torn partial store is modelled faithfully.
        self._dirty_lines: Dict[int, int] = {}
        # Root slots only make sense on a persistent arena but are harmless
        # on DRAM (they just vanish with everything else on a crash).
        self.roots = RootSlots(self.device, injector=injector)

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

    # -- raw record access ---------------------------------------------------

    def _check(self, handle: int) -> int:
        if arena_of(handle) != self.arena_id:
            raise InvalidHandleError(
                f"handle {handle:#x} does not belong to arena {self.name!r}"
            )
        idx = index_of(handle)
        if not self.allocator.is_allocated(idx):
            raise InvalidHandleError(f"{self.name}: handle {handle:#x} is not allocated")
        return idx

    def alloc(self) -> int:
        """Allocate a record slot and return its handle (contents undefined)."""
        self.stats.allocs += 1
        return make_handle(self.arena_id, self.allocator.alloc())

    def free(self, handle: int) -> None:
        """Release a record slot (GC only, per §3.2's deferred deletion)."""
        idx = self._check(handle)
        if self.tracer is not None:
            self.tracer.on_free(handle)
        self.stats.frees += 1
        self.allocator.free(idx)
        self._backing.pop(idx, None)
        self._cache.pop(idx, None)
        self._dirty_lines.pop(idx, None)
        self._sealed.pop(idx, None)

    def retire(self, handle: int) -> None:
        """Release a record slot *and* take its media out of rotation.

        Used by the repair ladder when a slot's lines are stuck or worn out:
        the slot is deallocated like :meth:`free` but the allocator's
        retired-set guarantees it is never handed out again.
        """
        idx = self._check(handle)
        if self.tracer is not None:
            self.tracer.on_free(handle)
        self.stats.frees += 1
        self.allocator.retire(idx)
        self._backing.pop(idx, None)
        self._cache.pop(idx, None)
        self._dirty_lines.pop(idx, None)
        self._sealed.pop(idx, None)

    def attach_fault_model(self, model) -> None:
        """Arm a :class:`repro.nvbm.device.MediaFaultModel` on this arena."""
        self.device.attach_fault_model(model)

    def _verify_media(self, idx: int, line0: int, nlines: int,
                      data: bytes) -> None:
        """Media-fault + CRC checks for a metered read served from backing.

        Verification itself charges nothing (it models the DIMM's per-line
        ECC riding along with the read); only the faults it *surfaces* cost
        anything, via the repair ladder's retries and rebuild traffic.
        """
        dev = self.device
        if dev._unmetered:
            return
        if dev.fault_model is not None:
            dev.check_media(idx, line0, nlines)
        crc = self._sealed.get(idx)
        if crc is not None and record_crc(data) != crc:
            base = idx * _LINES_PER_RECORD
            raise MediaError(
                self.name, idx, "crc",
                lines=tuple(range(base, base + _LINES_PER_RECORD)),
                detail="sealed record failed CRC verification",
            )

    def read(self, handle: int) -> bytes:
        """Load a record, read-your-writes through the cache.

        A read served by the *backing store* (the medium, not the volatile
        write-back cache) passes through media-fault and CRC verification;
        see :meth:`_verify_media`.
        """
        idx = self._check(handle)
        self.device.on_read(OCTANT_RECORD_SIZE)
        data = self._cache.get(idx)
        if data is None:
            data = self._backing.get(idx)
            if data is not None and (
                self.device.fault_model is not None or idx in self._sealed
            ):
                self._verify_media(idx, 0, _LINES_PER_RECORD, data)
        if data is None:
            raise ConsistencyError(
                f"{self.name}: handle {handle:#x} allocated but never written "
                "(likely a dangling pointer into torn/unflushed memory)"
            )
        return data

    def write(self, handle: int, data: bytes) -> None:
        """Store a record.  On NVBM the store lands in the volatile cache."""
        idx = self._check(handle)
        if len(data) != OCTANT_RECORD_SIZE:
            raise ValueError(f"record must be {OCTANT_RECORD_SIZE} bytes")
        self.device.on_write(OCTANT_RECORD_SIZE, slot=idx)
        if self.tracer is not None:
            self.tracer.on_store(handle, cached=not self.spec.volatile)
        self.stats.stores += 1
        if self.spec.volatile:
            self._backing[idx] = data
        else:
            self._cache[idx] = data
            self._dirty_lines[idx] = _ALL_LINES_MASK

    # -- field-granular access ------------------------------------------------
    #
    # The §5.4 economy ("PM-octree only needs to write new and updated
    # octants") extends *inside* the record: a payload update, a child-slot
    # splice or a flag flip touches one cache line, not the whole 128-byte
    # record.  These methods pack/unpack only the requested field and charge
    # the device for exactly the lines the field spans.

    def _base_bytes(self, idx: int, handle: int) -> bytes:
        data = self._cache.get(idx)
        if data is None:
            data = self._backing.get(idx)
        if data is None:
            raise ConsistencyError(
                f"{self.name}: handle {handle:#x} allocated but never written "
                "(field access needs an existing record)"
            )
        return data

    def read_field(self, handle: int, offset: int, size: int) -> bytes:
        """Load ``size`` bytes at ``offset`` of a record, charging only the
        cache lines the span touches (read-your-writes through the cache).

        A backing-served field read checks media faults on the spanned
        lines and CRC-verifies the *covering record* (the CRC's unit of
        protection is the whole 128-byte record)."""
        idx = self._check(handle)
        nlines = lines_spanned(offset, size)
        self.device.on_read(size, lines=nlines)
        data = self._cache.get(idx)
        if data is None:
            data = self._backing.get(idx)
            if data is not None and (
                self.device.fault_model is not None or idx in self._sealed
            ):
                self._verify_media(idx, offset // CACHE_LINE_SIZE,
                                   nlines, data)
        if data is None:
            raise ConsistencyError(
                f"{self.name}: handle {handle:#x} allocated but never written "
                "(field access needs an existing record)"
            )
        return data[offset:offset + size]

    def write_field(self, handle: int, offset: int, data: bytes) -> None:
        """Store a field in place; on NVBM only the spanned lines turn dirty.

        The untouched lines of the record keep whatever durability state
        they had: a crash after a partial store can tear the *stored* lines
        (each persists independently with probability 1/2) but never the
        rest of the record.
        """
        idx = self._check(handle)
        size = len(data)
        if offset < 0 or offset + size > OCTANT_RECORD_SIZE:
            raise ValueError(
                f"field [{offset}, {offset + size}) outside the record"
            )
        base = self._base_bytes(idx, handle)
        merged = base[:offset] + data + base[offset + size:]
        self.device.on_write(size, slot=idx,
                             lines=lines_spanned(offset, size),
                             line0=offset // CACHE_LINE_SIZE)
        if self.tracer is not None:
            self.tracer.on_store(handle, cached=not self.spec.volatile)
        self.stats.stores += 1
        if self.spec.volatile:
            self._backing[idx] = merged
        else:
            self._cache[idx] = merged
            self._dirty_lines[idx] = (
                self._dirty_lines.get(idx, 0) | _line_mask(offset, size)
            )

    # typed field convenience -------------------------------------------------

    def read_payload(self, handle: int):
        """The 4-float payload alone (one cache line, not two)."""
        return unpack_payload(self.read_field(handle, *PAYLOAD_SPAN))

    def write_payload(self, handle: int, payload) -> None:
        self.write_field(handle, PAYLOAD_SPAN[0], pack_payload(payload))

    # batched field reads ---------------------------------------------------
    #
    # The SoA gather path loads one field (or the payload) of many records
    # at once.  Each record still goes through the scalar read's validity
    # check and — when served from the backing store — media-fault/CRC
    # verification, in order; only the *device charge* is batched, as one
    # ``on_read_batch`` carrying the exact per-element totals (n reads,
    # n * size bytes, n * lines_spanned lines).  Verification runs before
    # the charge, so under a rot-enabled fault model the deadline check
    # sees a clock that lags the scalar trajectory by at most the batch's
    # own read latency; every other device observable is identical.

    def _read_field_chunks(self, handles, offset: int, size: int) -> bytes:
        nlines = lines_spanned(offset, size)
        line0 = offset // CACHE_LINE_SIZE
        verify = self.device.fault_model is not None
        cache = self._cache
        backing = self._backing
        sealed = self._sealed
        chunks = []
        for handle in handles:
            idx = self._check(handle)
            data = cache.get(idx)
            if data is None:
                data = backing.get(idx)
                if data is not None and (verify or idx in sealed):
                    self._verify_media(idx, line0, nlines, data)
            if data is None:
                raise ConsistencyError(
                    f"{self.name}: handle {handle:#x} allocated but never "
                    "written (field access needs an existing record)"
                )
            chunks.append(data[offset:offset + size])
        self.device.on_read_batch(len(chunks), size * len(chunks),
                                  nlines * len(chunks))
        return b"".join(chunks)

    def read_payload_batch(self, handles) -> np.ndarray:
        """Payload rows of many records as an ``(n, 4)`` float64 array.

        Metering-equivalent to ``n`` :meth:`read_payload` calls."""
        off, size = PAYLOAD_SPAN
        blob = self._read_field_chunks(handles, off, size)
        return np.frombuffer(blob, dtype="<f8").reshape(-1, 4)

    def read_f64_field_batch(self, handles, offset: int) -> np.ndarray:
        """One float64 field at ``offset`` from each record.

        Metering-equivalent to ``n`` ``read_field(handle, offset, 8)``
        calls (the field-granular single-slot read)."""
        blob = self._read_field_chunks(handles, offset, 8)
        return np.frombuffer(blob, dtype="<f8")

    def read_epoch(self, handle: int) -> int:
        return unpack_epoch(self.read_field(handle, *EPOCH_SPAN))

    def read_flags(self, handle: int) -> int:
        return self.read_field(handle, *FLAGS_SPAN)[0]

    def set_flags(self, handle: int, flags: int) -> None:
        """Store the one-byte flags field (a single-line flag flip)."""
        self.write_field(handle, FLAGS_SPAN[0], bytes((flags & 0xFF,)))

    def write_child_slot(self, handle: int, index: int, child: int) -> None:
        """Splice one child handle in place (an 8-byte, single-line store)."""
        offset, _size = child_span(index)
        self.write_field(handle, offset, pack_handles((child,)))

    def write_child_slots(self, handle: int, index: int, children) -> None:
        """Store contiguous child slots ``[index, index + len(children))``."""
        offset, _size = child_span(index, len(children))
        self.write_field(handle, offset, pack_handles(children))

    def contains(self, handle: int) -> bool:
        """True when the handle is a live allocation in this arena."""
        return (
            arena_of(handle) == self.arena_id
            and self.allocator.is_allocated(index_of(handle))
        )

    # -- octant-level convenience -------------------------------------------

    def read_octant(self, handle: int) -> OctantRecord:
        return unpack_record(self.read(handle))

    def write_octant(self, handle: int, rec: OctantRecord) -> None:
        self.write(handle, pack_record(rec))

    def new_octant(self, rec: OctantRecord) -> int:
        """Allocate and store a fresh octant; return its handle."""
        handle = self.alloc()
        self.write(handle, pack_record(rec))
        return handle

    # -- durability ----------------------------------------------------------

    @property
    def dirty_records(self) -> int:
        return len(self._cache)

    def dirty_handles(self) -> list:
        """Handles of every record currently dirty in the write-back cache.

        The epoch pipeline snapshots this at enqueue time: the set is
        exactly what the drain phase must make durable before the epoch's
        root may be published.
        """
        return [make_handle(self.arena_id, idx) for idx in self._cache]

    def flush(self) -> None:
        """Persist every dirty cached record (persist-point fence).

        On a non-volatile arena this is also the *sealing* point: every
        record reaching the medium gets a CRC stamped into the out-of-band
        seal table.  Only a completed flush seals — bytes torn onto the
        medium by a crash carry no integrity claim.
        """
        # unmetered means *all* charging is suppressed, stats included: the
        # epoch pipeline pre-charges its fences through the drain cost model
        # and replays the flush here only for its durability effect.
        if not self.device._unmetered:
            self.device.clock.advance(FENCE_NS, self.device._category)
            self.stats.flush_calls += 1
            self.stats.flush_records += len(self._cache)
        if self.tracer is not None:
            self.tracer.on_flush(
                [make_handle(self.arena_id, idx) for idx in self._cache]
            )
        self._backing.update(self._cache)
        if not self.spec.volatile:
            for idx, data in self._cache.items():
                self._sealed[idx] = record_crc(data)
        self._cache.clear()
        self._dirty_lines.clear()

    def flush_records(self, handles) -> None:
        """Persist (and seal) exactly the given records, leaving the rest
        of the write-back cache dirty.

        The selective analogue of :meth:`flush` for the epoch pipeline: an
        in-flight epoch drains only the records *it* snapshotted, so a
        later epoch's still-cooking stores are not prematurely persisted
        (which would re-order durability across epochs).  Handles that are
        no longer cached (already flushed, or freed by GC) are skipped.
        """
        idxs = [index_of(h) for h in handles
                if arena_of(h) == self.arena_id and index_of(h) in self._cache]
        if not self.device._unmetered:
            self.device.clock.advance(FENCE_NS, self.device._category)
            self.stats.flush_calls += 1
            self.stats.flush_records += len(idxs)
        if self.tracer is not None:
            self.tracer.on_flush(
                [make_handle(self.arena_id, idx) for idx in idxs]
            )
        for idx in idxs:
            data = self._cache.pop(idx)
            self._backing[idx] = data
            if not self.spec.volatile:
                self._sealed[idx] = record_crc(data)
            self._dirty_lines.pop(idx, None)

    def crash(self, rng: Optional[np.random.Generator] = None) -> None:
        """Apply power-loss semantics (see module docstring)."""
        if self.tracer is not None:
            self.tracer.on_crash()
        if self.spec.volatile:
            self._backing.clear()
            self._cache.clear()
            self.allocator.reset()
            self._sealed.clear()
            self.roots._slots.clear()
            return
        rng = rng or np.random.default_rng()
        for idx, data in self._cache.items():
            # a dirty record's on-medium bytes are now an unordered merge of
            # old and new lines — whatever seal the old bytes carried no
            # longer describes what is actually stored
            self._sealed.pop(idx, None)
            old = self._backing.get(idx, b"\x00" * OCTANT_RECORD_SIZE)
            # only *dirty* lines are in flight; clean cached lines already
            # equal the backing store, so a partial store can tear at most
            # the lines it actually touched
            mask = self._dirty_lines.get(idx, _ALL_LINES_MASK)
            pieces = []
            for line in range(_LINES_PER_RECORD):
                lo, hi = line * CACHE_LINE_SIZE, (line + 1) * CACHE_LINE_SIZE
                dirty = mask & (1 << line)
                pieces.append(
                    data[lo:hi] if dirty and rng.random() < 0.5 else old[lo:hi]
                )
            merged = b"".join(pieces)
            if merged != old:
                self._backing[idx] = merged
        self._cache.clear()
        self._dirty_lines.clear()

    # -- introspection ---------------------------------------------------------

    def live_handles(self) -> Iterator[int]:
        """All allocated handles (GC sweep order)."""
        for idx in self.allocator.live_indices():
            yield make_handle(self.arena_id, int(idx))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryArena({self.name}, used={self.used}/{self.capacity}, "
            f"dirty={self.dirty_records})"
        )
