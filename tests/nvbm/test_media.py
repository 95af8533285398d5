"""Media-fault model, CRC sealing and per-line wear accounting."""

import dataclasses

import numpy as np
import pytest

from repro.config import CACHE_LINE_SIZE, NVBM_SPEC, OCTANT_RECORD_SIZE
from repro.errors import MediaError, UncorrectableError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
from repro.nvbm.pointers import ARENA_NVBM, index_of
from repro.nvbm.records import (
    CRC_SPAN,
    OctantRecord,
    PAYLOAD_SPAN,
    pack_record,
    record_crc,
    seal_record,
    verify_record,
)


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def nvbm(clock):
    return MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=64)


def _rec(loc=1, level=0):
    return OctantRecord(loc=loc, level=level)


def _gline(handle, line=0):
    return index_of(handle) * LINES_PER_RECORD + line


# ------------------------------------------------------------- wear accounting


def test_full_record_write_wears_every_line(nvbm):
    """Regression: a 2-line record write must age both lines, not just the
    record's first (the old per-slot accounting under-counted line 1)."""
    h = nvbm.new_octant(_rec())
    idx = index_of(h)
    wear = nvbm.device._wear
    base = idx * LINES_PER_RECORD
    assert list(wear[base: base + LINES_PER_RECORD]) == [1] * LINES_PER_RECORD


def test_field_write_wears_only_spanned_line(nvbm):
    h = nvbm.new_octant(_rec())
    nvbm.write_payload(h, (1.0, 2.0, 3.0, 4.0))  # one-line field
    base = index_of(h) * LINES_PER_RECORD
    line = PAYLOAD_SPAN[0] // CACHE_LINE_SIZE
    wear = nvbm.device._wear
    expect = [1] * LINES_PER_RECORD
    expect[line] += 1
    assert list(wear[base: base + LINES_PER_RECORD]) == expect


def test_wear_max_counts_per_line_writes(nvbm):
    h = nvbm.alloc()
    for _ in range(10):
        nvbm.write(h, pack_record(_rec()))
    assert nvbm.device.wear_max() == 10
    assert nvbm.device.wear_total() == 10 * LINES_PER_RECORD
    assert nvbm.device.wear_headroom() == pytest.approx(
        1.0 - 10 / NVBM_SPEC.endurance_writes)


# ------------------------------------------------------------ CRC seal helpers


def test_seal_and_verify_roundtrip():
    data = pack_record(_rec(loc=7))
    sealed = seal_record(data)
    assert len(sealed) == OCTANT_RECORD_SIZE
    assert verify_record(sealed)
    assert sealed[: CRC_SPAN[0]] == data[: CRC_SPAN[0]]


def test_verify_detects_any_covered_byte_flip():
    sealed = seal_record(pack_record(_rec(loc=7)))
    for off in (0, CRC_SPAN[0] // 2, CRC_SPAN[0] - 1):
        corrupt = bytearray(sealed)
        corrupt[off] ^= 0x01
        assert not verify_record(bytes(corrupt))


def test_record_crc_is_stable_and_ignores_crc_field():
    data = pack_record(_rec(loc=9))
    assert record_crc(data) == record_crc(seal_record(data))


# ----------------------------------------------------- arena-level CRC sealing


def test_backing_corruption_raises_crc_media_error(clock, nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()  # sealing point
    idx = index_of(h)
    nvbm._rows[idx, 4] ^= 0xFF  # silent medium corruption, no fault model
    with pytest.raises(MediaError) as ei:
        nvbm.read(h)
    assert ei.value.kind == "crc"
    assert ei.value.slot == idx


def test_cache_hit_skips_media_checks(nvbm):
    """The write-back cache is the writer's own bytes: a dirty record is
    readable even while the backing copy is corrupt."""
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    idx = index_of(h)
    nvbm._rows[idx, 4] ^= 0xFF
    rec = _rec(loc=5)
    nvbm.write_octant(h, rec)  # re-dirties the cache
    assert nvbm.read_octant(h).loc == 5


def test_crash_voids_seal_of_torn_records(clock, nvbm):
    """A record dirty at power loss is an old/new line merge: whatever seal
    the old bytes carried must not condemn the merged image."""
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    rec = nvbm.read_octant(h)
    rec.loc = 77
    nvbm.write_octant(h, rec)  # dirty again
    nvbm.crash(np.random.default_rng(1))
    # the merged bytes may be old, new, or torn — but never a CRC error
    got = nvbm.read_octant(h)
    assert got.loc in (3, 77)


def test_flush_reseals_and_unmetered_skips_checks(nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    idx = index_of(h)
    nvbm._rows[idx, 4] ^= 0xFF
    with nvbm.device.unmetered():  # inspection probes never trip faults
        nvbm.read(h)
    with pytest.raises(MediaError):
        nvbm.read(h)


# ------------------------------------------------------------ MediaFaultModel


def test_unattached_model_changes_nothing(clock, nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    t0 = clock.now_ns
    nvbm.read(h)
    cost_plain = clock.now_ns - t0
    nvbm.attach_fault_model(MediaFaultModel(seed=5))  # quiescent
    t0 = clock.now_ns
    assert nvbm.read_octant(h).loc == 3
    assert clock.now_ns - t0 == cost_plain  # verification charges nothing


def test_planted_rot_faults_until_rewritten(clock, nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    model = MediaFaultModel(seed=5)
    nvbm.attach_fault_model(model)
    model.plant_rot(_gline(h))
    with pytest.raises(UncorrectableError) as ei:
        nvbm.read(h)
    assert ei.value.kind == "rot"
    nvbm.write_octant(h, _rec(loc=4))  # rewrite refreshes the cells
    nvbm.flush()
    assert nvbm.read_octant(h).loc == 4


def test_stuck_line_survives_rewrite(nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    model = MediaFaultModel(seed=5)
    nvbm.attach_fault_model(model)
    model.plant_stuck(_gline(h))
    nvbm.write_octant(h, _rec(loc=4))
    nvbm.flush()
    with pytest.raises(UncorrectableError) as ei:
        nvbm.read(h)
    assert ei.value.kind == "stuck"


def test_field_read_checks_only_spanned_lines(nvbm):
    """A fault on line 1 must not fail a line-0 field read — but must fail
    a whole-record read, which spans it."""
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    model = MediaFaultModel(seed=5)
    nvbm.attach_fault_model(model)
    model.plant_stuck(_gline(h, line=1))
    assert PAYLOAD_SPAN[0] // CACHE_LINE_SIZE == 0
    nvbm.read_payload(h)  # line 0 only: clean
    with pytest.raises(UncorrectableError):
        nvbm.read(h)


def test_transient_clears_on_reread(clock, nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    nvbm.flush()
    model = MediaFaultModel(seed=5, transient_rate=1.0)
    nvbm.attach_fault_model(model)
    with pytest.raises(UncorrectableError) as ei:
        nvbm.read(h)
    assert ei.value.kind == "transient"
    # rate 1.0 keeps faulting, but each read consumes its own draw — a
    # realistic rate lets the retry rung clear it deterministically
    model.transient_rate = 0.0
    assert nvbm.read_octant(h).loc == 3


def test_wear_out_faults_past_fraction(clock, nvbm):
    h = nvbm.alloc()
    spec_limit = NVBM_SPEC.endurance_writes
    model = MediaFaultModel(seed=5, wear_fraction=3.0 / spec_limit)
    nvbm.attach_fault_model(model)
    for i in range(8):  # drive wear far past limit * 1.5 (the max jitter)
        nvbm.write(h, pack_record(_rec(loc=i)))
    nvbm.flush()
    with pytest.raises(UncorrectableError) as ei:
        nvbm.read(h)
    assert ei.value.kind == "wear"


def test_fault_model_is_deterministic():
    a = MediaFaultModel(seed=9, rot_mtbf_ns=1e6, transient_rate=0.3)
    b = MediaFaultModel(seed=9, rot_mtbf_ns=1e6, transient_rate=0.3)
    a._endurance = b._endurance = 10**7
    seq = [(g, t) for g in range(6) for t in (0.0, 5e5, 5e6, 5e7)]
    got_a = [a.check(g, t, wear=0) for g, t in seq]
    got_b = [b.check(g, t, wear=0) for g, t in seq]
    assert got_a == got_b
    assert any(k is not None for k in got_a)  # the model actually fires


# ------------------------------------------------------------ batch media check


def _batch_rig(**model_kwargs):
    """32 sealed records, a re-dirtied (cache-served) one among them, and a
    fault model with two planted lines."""
    clock = SimClock()
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=64)
    handles = [nvbm.new_octant(_rec(loc=i + 1)) for i in range(32)]
    nvbm.flush()
    nvbm.write_payload(handles[5], (1.0,) * 4)  # served from the cache
    model = MediaFaultModel(seed=21, **model_kwargs)
    nvbm.attach_fault_model(model)
    model.plant_rot(_gline(handles[20], line=1))
    model.plant_stuck(_gline(handles[11], line=0))
    model.plant_rot(_gline(handles[5], line=0))  # masked by the cache
    return clock, nvbm, handles


def _outcome(clock, nvbm, fn):
    try:
        value = fn()
    except MediaError as exc:
        value = (type(exc).__name__, exc.kind, exc.slot, exc.lines, str(exc))
    return (value, dataclasses.asdict(nvbm.device.stats), clock.now_ns,
            dict(nvbm.device.fault_model._reads))


@pytest.mark.parametrize("span", [(0, OCTANT_RECORD_SIZE), PAYLOAD_SPAN,
                                  (64, 8)],
                         ids=["record", "payload", "line1-field"])
@pytest.mark.parametrize("model_kwargs", [
    {},                                          # planted faults only
    {"transient_rate": 0.08},                    # counts reads
    {"rot_mtbf_ns": 4e4},                        # samples the clock per read
    {"transient_rate": 0.05, "rot_mtbf_ns": 2e5, "wear_fraction": 1e-7},
], ids=["planted", "transient", "rot", "all-armed"])
def test_batch_media_check_equals_per_read_sequence(span, model_kwargs):
    """``read_rows`` raises what the per-record loop raises — the first
    faulting record in batch order, same error fields — after the same
    charges, and leaves the fault model in the same state."""
    offset, size = span

    def scalar(nvbm, handles):
        return b"".join(nvbm.read_field(h, offset, size) for h in handles)

    def batch(nvbm, handles):
        return nvbm.read_rows(handles, offset, size).tobytes()

    got = []
    for read in (scalar, batch):
        clock, nvbm, handles = _batch_rig(**model_kwargs)
        first = _outcome(clock, nvbm, lambda: read(nvbm, handles))
        # and again from the faulting state (transient draws moved on)
        second = _outcome(clock, nvbm, lambda: read(nvbm, handles[12:]))
        got.append((first, second))
    assert got[0] == got[1]
    (value, *_), _ = got[0]
    if not model_kwargs and size == OCTANT_RECORD_SIZE:
        # planted only: record 11 (stuck, line 0) precedes record 20
        assert value[:3] == ("UncorrectableError", "stuck",
                             index_of(handles[11]))


def test_batch_samples_the_rot_deadline_per_read():
    """A line whose rot deadline passes *during* the batch faults exactly
    where the per-record loop finds it: each read is evaluated at the clock
    its own charge leaves, not at the clock the batch started on."""
    mid_batch = 0
    for seed in range(12):
        outcomes = []
        for batch in (False, True):
            clock = SimClock()
            nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock,
                               capacity_octants=128)
            handles = [nvbm.new_octant(_rec(loc=i + 1)) for i in range(64)]
            nvbm.flush()
            model = MediaFaultModel(seed=seed, rot_mtbf_ns=3e5)
            nvbm.attach_fault_model(model)
            at_start = [model.check(g, clock.now_ns, 0)
                        for g in range(2 * len(handles))]
            outcomes.append(_outcome(
                clock, nvbm,
                (lambda: nvbm.read_rows(handles).tobytes()) if batch else
                (lambda: b"".join(nvbm.read(h) for h in handles))))
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0][0], tuple) and not any(at_start):
            mid_batch += 1
    assert mid_batch >= 3  # the scenario does occur at this MTBF


def test_batch_crc_failure_charges_like_the_loop():
    rigs = []
    for batch in (False, True):
        clock = SimClock()
        nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, capacity_octants=64)
        handles = [nvbm.new_octant(_rec(loc=i + 1)) for i in range(8)]
        nvbm.flush()
        nvbm._rows[index_of(handles[3]), 70] ^= 0x01  # line 1 of record 3
        with pytest.raises(MediaError) as ei:
            if batch:
                nvbm.read_rows(handles, *PAYLOAD_SPAN)
            else:
                for h in handles:
                    nvbm.read_payload(h)
        assert ei.value.kind == "crc" and ei.value.slot == index_of(handles[3])
        rigs.append((ei.value.lines, dataclasses.asdict(nvbm.device.stats),
                     clock.now_ns))
    assert rigs[0] == rigs[1]
    # three clean reads, then the faulting one: charged before it is verified
    assert rigs[0][1]["reads"] == 4


# ------------------------------------------------------------ retire semantics


def test_retire_removes_slot_from_rotation(nvbm):
    h = nvbm.new_octant(_rec(loc=3))
    idx = index_of(h)
    used_before = nvbm.used
    nvbm.retire(h)
    assert nvbm.allocator.is_retired(idx)
    assert nvbm.used == used_before - 1
    # the retired index is never handed out again
    handles = [nvbm.alloc() for _ in range(nvbm.capacity - nvbm.used - 1)]
    assert idx not in {index_of(x) for x in handles}


def test_retired_capacity_counts_as_spent(nvbm):
    h = nvbm.new_octant(_rec())
    free_before = nvbm.free_fraction
    nvbm.retire(h)
    assert nvbm.free_fraction == pytest.approx(free_before)
    assert nvbm.allocator.retired == 1
