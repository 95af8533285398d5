"""Round-trip and flag tests for the packed octant record format."""

import pytest
from hypothesis import given, strategies as st

from repro.config import OCTANT_RECORD_SIZE
from repro.nvbm.records import (
    FLAG_DELETED,
    FLAG_LEAF,
    MAX_CHILDREN,
    OctantRecord,
    pack_record,
    unpack_record,
)


def test_default_record_is_leaf():
    rec = OctantRecord()
    assert rec.is_leaf
    assert not rec.is_deleted
    assert rec.live_children() == []


def test_pack_size():
    assert len(pack_record(OctantRecord())) == OCTANT_RECORD_SIZE


def test_roundtrip_simple():
    rec = OctantRecord(
        loc=12345,
        level=4,
        flags=FLAG_LEAF | FLAG_DELETED,
        epoch=7,
        payload=(1.0, -2.5, 3.25, 0.0),
        parent=0xDEAD,
        children=[1, 2, 3, 4, 5, 6, 7, 8],
    )
    back = unpack_record(pack_record(rec))
    assert back.loc == rec.loc
    assert back.level == rec.level
    assert back.flags == rec.flags
    assert back.epoch == rec.epoch
    assert back.payload == rec.payload
    assert back.parent == rec.parent
    assert back.children == rec.children


def test_unpack_rejects_wrong_size():
    with pytest.raises(ValueError):
        unpack_record(b"\x00" * 64)


def test_pack_rejects_wrong_child_count():
    rec = OctantRecord(children=[0] * 3)
    with pytest.raises(ValueError):
        pack_record(rec)


def test_flag_setters():
    rec = OctantRecord()
    rec.set_leaf(False)
    assert not rec.is_leaf
    rec.set_leaf(True)
    assert rec.is_leaf and not rec.is_deleted


def test_copy_is_deep_for_children():
    rec = OctantRecord(children=[9] * MAX_CHILDREN)
    dup = rec.copy()
    dup.children[0] = 42
    assert rec.children[0] == 9


@given(
    loc=st.integers(min_value=0, max_value=2**64 - 1),
    level=st.integers(min_value=0, max_value=255),
    flags=st.integers(min_value=0, max_value=255),
    epoch=st.integers(min_value=0, max_value=2**32 - 1),
    payload=st.tuples(*[st.floats(allow_nan=False, width=64)] * 4),
    parent=st.integers(min_value=0, max_value=2**64 - 1),
    children=st.lists(
        st.integers(min_value=0, max_value=2**64 - 1),
        min_size=MAX_CHILDREN,
        max_size=MAX_CHILDREN,
    ),
)
def test_roundtrip_property(loc, level, flags, epoch, payload, parent, children):
    rec = OctantRecord(
        loc=loc, level=level, flags=flags, epoch=epoch,
        payload=payload, parent=parent, children=children,
    )
    back = unpack_record(pack_record(rec))
    assert (back.loc, back.level, back.flags, back.epoch) == (loc, level, flags, epoch)
    assert back.payload == payload
    assert back.parent == parent
    assert back.children == children
