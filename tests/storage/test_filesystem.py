"""Filesystem tests: append/read semantics across page boundaries."""

import pytest

from repro.config import NVBM_FS_SPEC
from repro.errors import StorageError
from repro.nvbm.clock import SimClock
from repro.storage.block import BlockDevice
from repro.storage.filesystem import SimFileSystem


@pytest.fixture
def fs():
    return SimFileSystem(BlockDevice(NVBM_FS_SPEC, SimClock()))


def test_create_write_read(fs):
    f = fs.create("snapshot.gfs")
    f.append(b"abc")
    assert f.read_all() == b"abc"


def test_multi_page_file(fs):
    f = fs.create("big")
    blob = bytes(range(256)) * 64  # 16 KiB = 4 pages
    f.append(blob)
    assert f.read_all() == blob
    assert len(f.pages) == 4


def test_append_across_partial_page(fs):
    f = fs.create("log")
    f.append(b"a" * 100)
    f.append(b"b" * 5000)
    data = f.read_all()
    assert data == b"a" * 100 + b"b" * 5000
    assert f.length == 5100


def test_many_small_appends(fs):
    f = fs.create("steps")
    for i in range(50):
        f.append(f"record-{i};".encode())
    data = f.read_all().decode()
    assert data.startswith("record-0;")
    assert data.endswith("record-49;")


def test_open_missing_raises(fs):
    with pytest.raises(StorageError):
        fs.open("ghost")


def test_create_no_overwrite(fs):
    fs.create("x")
    with pytest.raises(StorageError):
        fs.create("x", overwrite=False)


def test_overwrite_truncates(fs):
    f = fs.create("x")
    f.append(b"old-data")
    f2 = fs.create("x")
    assert f2.read_all() == b""


def test_delete_and_listdir(fs):
    fs.create("a")
    fs.create("b")
    assert fs.exists("a") and fs.exists("b")
    fs.delete("a")
    assert not fs.exists("a")
    assert fs.exists("b")
    with pytest.raises(StorageError):
        fs.delete("a")


def test_file_survives_crash(fs):
    f = fs.create("checkpoint")
    f.append(b"state")
    fs.device.crash()
    assert fs.open("checkpoint").read_all() == b"state"
