"""Minimal filesystem over a block device: named append/read files.

Just enough POSIX-flavour for the in-core baseline's snapshot path
(``gfs_output_write`` / ``gfs_output_read`` in Gerris): create a file,
stream bytes into it, read it back after a restart.  Data goes through the
block device page by page, so snapshot cost scales with snapshot bytes at
I/O-bus latency — the bottleneck §1 complains about.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import StorageError
from repro.storage.block import BlockDevice


class SimFile:
    """One file: an ordered list of page ids plus a byte length."""

    def __init__(self, name: str, device: BlockDevice):
        self.name = name
        self.device = device
        self.pages: List[int] = []
        self.length = 0

    def append(self, data: bytes) -> None:
        """Append bytes, filling pages; partial tail pages are rewritten."""
        page_size = self.device.page_size
        offset = self.length % page_size
        if offset and self.pages:
            # top up the partial tail page
            tail = self.device.read_page(self.pages[-1])[:offset]
            room = page_size - offset
            chunk, data = data[:room], data[room:]
            self.device.write_page(self.pages[-1], tail + chunk)
            self.length += len(chunk)
        while data:
            chunk, data = data[: page_size], data[page_size:]
            pid = self.device.alloc_page()
            self.device.write_page(pid, chunk)
            self.pages.append(pid)
            self.length += len(chunk)

    def read_all(self) -> bytes:
        """Stream the whole file back."""
        out = bytearray()
        for pid in self.pages:
            out.extend(self.device.read_page(pid))
        return bytes(out[: self.length])


class SimFileSystem:
    """A flat namespace of :class:`SimFile` objects on one device."""

    def __init__(self, device: BlockDevice):
        self.device = device
        self._files: Dict[str, SimFile] = {}

    def create(self, name: str, overwrite: bool = True) -> SimFile:
        """Create (or truncate) a file."""
        if name in self._files and not overwrite:
            raise StorageError(f"file {name!r} already exists")
        f = SimFile(name, self.device)
        self._files[name] = f
        return f

    def open(self, name: str) -> SimFile:
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no such file: {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        if name not in self._files:
            raise StorageError(f"no such file: {name!r}")
        del self._files[name]
