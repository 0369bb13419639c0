"""Directory entry blocks.

A directory's data blocks hold a packed sequence of entries::

    [u32 inode][u8 name_len][name bytes]

An inode of 0 with a non-zero name length is a tombstone (the name is kept
so the scan can skip it); a zero inode with zero length terminates the
block.  Names are UTF-8, at most 255 bytes.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import FsError

_HEAD = struct.Struct("<IB")

MAX_NAME = 255


def entry_size(name: bytes) -> int:
    return _HEAD.size + len(name)


def encode_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if not raw or len(raw) > MAX_NAME:
        raise FsError("invalid file name %r" % name)
    if "/" in name:
        raise FsError("file name may not contain '/'")
    return raw


class DirectoryBlock:
    """Mutable view over one directory data block.

    The bytes are parsed once, into the live entries by offset and an
    index from each name to its first live entry; :meth:`append` and
    :meth:`remove` resume the parse at the offset they change, so both
    always equal a fresh parse of :attr:`data`.  Change the bytes only
    through those two methods.
    """

    def __init__(self, data: bytes):
        self.data = bytearray(data)
        #: offset -> (inode, name) of every live entry, in block order.
        self._live: Dict[int, Tuple[int, str]] = {}
        #: name -> offset of its first live entry.
        self._first: Dict[str, int] = {}
        #: Where the parse stopped: the terminator, or past the last entry.
        self._end = 0
        self._parse_from(0)

    def _parse_from(self, offset: int) -> None:
        """Forget what the parse found at or after ``offset`` and parse the
        bytes from there on.  A name that runs past the end of the block
        is cut short; bytes that are not UTF-8 decode to U+FFFD."""
        if offset < self._end:
            self._live = {at: e for at, e in self._live.items() if at < offset}
            self._first = {n: at for n, at in self._first.items() if at < offset}
        data = self.data
        limit = len(data) - _HEAD.size
        live = self._live
        first = self._first
        while offset <= limit:
            ino, name_len = _HEAD.unpack_from(data, offset)
            if ino == 0 and name_len == 0:
                break
            if ino != 0:
                start = offset + _HEAD.size
                name = data[start : start + name_len].decode("utf-8", errors="replace")
                live[offset] = (ino, name)
                first.setdefault(name, offset)
            offset += _HEAD.size + name_len
        self._end = offset

    def entries(self) -> Iterator[Tuple[int, int, str]]:
        """Yield (offset, inode, name) for every live entry."""
        for offset, (ino, name) in list(self._live.items()):
            yield offset, ino, name

    def find(self, name: str) -> Optional[int]:
        """Inode for ``name``, or None."""
        offset = self._first.get(name)
        return None if offset is None else self._live[offset][0]

    def append(self, ino: int, name: str) -> bool:
        """Add an entry; False when the block has no room."""
        raw = encode_name(name)
        offset = self._end
        needed = entry_size(raw)
        # Keep room for the (implicit, zeroed) terminator.
        if offset + needed + _HEAD.size > len(self.data):
            return False
        _HEAD.pack_into(self.data, offset, ino, len(raw))
        self.data[offset + _HEAD.size : offset + needed] = raw
        # Whatever follows the old terminator is parsed as entries now.
        self._parse_from(offset)
        return True

    def remove(self, name: str) -> bool:
        """Tombstone an entry; False when absent."""
        offset = self._first.pop(name, None)
        if offset is None:
            return False
        del self._live[offset]
        _ino, name_len = _HEAD.unpack_from(self.data, offset)
        _HEAD.pack_into(self.data, offset, 0, name_len)
        if name_len == 0:
            # A live entry with an empty name becomes the terminator.
            self._parse_from(offset)
        elif len(self._first) < len(self._live):
            # Some name has a second live entry; it may be this one.
            for later, (_ino, other) in self._live.items():
                if other == name:
                    self._first[name] = later
                    break
        return True

    def live_entries(self) -> List[Tuple[int, str]]:
        return list(self._live.values())

    def to_bytes(self) -> bytes:
        return bytes(self.data)
