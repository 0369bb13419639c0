"""Unit tests for ext4 building blocks: CRC-32C, superblock, inodes,
directory blocks, allocators, permissions."""

import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FsCorruptionError, FsError, FsNoSpaceError
from repro.ext4 import Credentials, ROOT, crc32c, may_read, may_write
from repro.ext4.consts import (
    EXTENTS_PER_INODE,
    INODE_SIZE,
    S_IFDIR,
    S_IFREG,
    S_ISUID,
)
from repro.ext4.dirent import DirectoryBlock, encode_name
from repro.ext4.inode import Extent, Inode, make_inode
from repro.ext4.permissions import may_execute
from repro.ext4.superblock import Superblock


def _crc32c_table():
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC32C_TABLE = _crc32c_table()


def crc32c_reference(data: bytes, crc: int = 0) -> int:
    """The byte-at-a-time CRC-32C loop, the reference for the kernel."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC32C_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


class TestCrc32c:
    def test_known_vector(self):
        # The canonical CRC-32C check value.
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty(self):
        assert crc32c(b"") == 0

    def test_chaining_matches_whole(self):
        data = b"hello, rowhammer world"
        assert crc32c(data) == crc32c(data[7:], crc32c(data[:7]))

    def test_detects_single_bitflip(self):
        data = bytearray(b"indirect block pointers")
        reference = crc32c(bytes(data))
        data[3] ^= 0x10
        assert crc32c(bytes(data)) != reference

    @given(
        length=st.integers(min_value=0, max_value=9000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fill=st.sampled_from([None, 0x00, 0xFF]),
        crc=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(length=4092, seed=1, fill=None, crc=0)
    @example(length=4096, seed=2, fill=None, crc=0xFFFFFFFF)
    @example(length=4097, seed=3, fill=0xFF, crc=0x12345678)
    @example(length=8195, seed=4, fill=None, crc=1)
    @example(length=3, seed=5, fill=None, crc=0xDEADBEEF)
    @settings(max_examples=60, deadline=None)
    def test_matches_byte_loop(self, length, seed, fill, crc):
        """Every length across the 4 KiB window, aligned or not, and any
        chain value: the whole-block kernel equals the byte loop."""
        if fill is None:
            data = random.Random(seed).getrandbits(8 * length).to_bytes(length, "little")
        else:
            data = bytes([fill]) * length
        assert crc32c(data, crc) == crc32c_reference(data, crc)


class TestSuperblock:
    def test_layout_for_is_consistent(self):
        sb = Superblock.layout_for(block_size=512, total_blocks=1024)
        assert sb.block_bitmap_start == 1
        assert sb.inode_bitmap_start == sb.block_bitmap_start + sb.block_bitmap_blocks
        assert sb.inode_table_start == sb.inode_bitmap_start + 1
        assert sb.data_start == sb.inode_table_start + sb.inode_table_blocks
        assert sb.data_start < sb.total_blocks

    def test_pack_unpack_roundtrip(self):
        sb = Superblock.layout_for(block_size=512, total_blocks=1024)
        again = Superblock.unpack(sb.pack())
        assert again == sb

    def test_checksum_detects_corruption(self):
        sb = Superblock.layout_for(block_size=512, total_blocks=1024)
        raw = bytearray(sb.pack())
        raw[8] ^= 0xFF
        with pytest.raises(FsCorruptionError):
            Superblock.unpack(bytes(raw))

    def test_bad_magic_detected(self):
        sb = Superblock.layout_for(block_size=512, total_blocks=1024)
        # Corrupt the magic but fix the checksum: magic check must fire.
        sb2 = Superblock(**{**sb.__dict__})
        raw = bytearray(sb2.pack())
        import struct

        struct.pack_into("<H", raw, 0, 0xDEAD)
        body = bytes(raw[:-4])
        raw[-4:] = struct.pack("<I", crc32c(body))
        with pytest.raises(FsCorruptionError):
            Superblock.unpack(bytes(raw))

    def test_too_small_device_rejected(self):
        with pytest.raises(FsCorruptionError):
            Superblock.layout_for(block_size=512, total_blocks=4)

    def test_enforce_extents_persisted(self):
        sb = Superblock.layout_for(512, 1024, enforce_extents=True)
        assert Superblock.unpack(sb.pack()).enforce_extents == 1


class TestInode:
    def test_pack_size(self):
        inode = make_inode(0o644, S_IFREG, uid=5, gid=7, use_extents=False)
        assert len(inode.pack()) == INODE_SIZE

    def test_indirect_roundtrip(self):
        inode = make_inode(0o640, S_IFREG, uid=5, gid=7, use_extents=False)
        inode.size = 12345
        inode.block[0] = 99
        inode.block[12] = 1234
        again = Inode.unpack(inode.pack())
        assert again.mode == inode.mode
        assert again.size == 12345
        assert again.block == inode.block
        assert not again.uses_extents

    def test_extent_roundtrip(self):
        inode = make_inode(0o644, S_IFREG, uid=1, gid=1, use_extents=True)
        inode.extents.append(Extent(logical=0, length=3, physical=70))
        inode.extents.append(Extent(logical=12, length=1, physical=99))
        again = Inode.unpack(inode.pack())
        assert again.uses_extents
        assert again.extents == inode.extents

    def test_extent_lookup(self):
        inode = make_inode(0o644, S_IFREG, 1, 1, use_extents=True)
        inode.extents.append(Extent(logical=2, length=3, physical=50))
        assert inode.extent_lookup(2) == 50
        assert inode.extent_lookup(4) == 52
        assert inode.extent_lookup(5) == 0  # hole
        assert inode.extent_lookup(0) == 0

    def test_add_extent_merges_contiguous(self):
        inode = make_inode(0o644, S_IFREG, 1, 1, use_extents=True)
        inode.add_extent_block(0, 10)
        inode.add_extent_block(1, 11)
        inode.add_extent_block(2, 12)
        assert len(inode.extents) == 1
        assert inode.extents[0].length == 3

    def test_extent_overflow_detected(self):
        inode = make_inode(0o644, S_IFREG, 1, 1, use_extents=True)
        for i in range(EXTENTS_PER_INODE):
            inode.add_extent_block(i * 10, 100 + i * 10)
        with pytest.raises(FsCorruptionError):
            inode.add_extent_block(999, 999)

    def test_bad_extent_magic_detected(self):
        inode = make_inode(0o644, S_IFREG, 1, 1, use_extents=True)
        raw = bytearray(inode.pack())
        raw[22] ^= 0xFF  # clobber the extent magic (i_block starts at 22)
        with pytest.raises(FsCorruptionError):
            Inode.unpack(bytes(raw))

    def test_type_predicates(self):
        assert make_inode(0o644, S_IFREG, 0, 0, False).is_regular
        assert make_inode(0o755, S_IFDIR, 0, 0, False).is_directory
        assert not make_inode(0o755, S_IFDIR, 0, 0, False).is_regular

    def test_setuid_bit(self):
        inode = make_inode(0o4755, S_IFREG, 0, 0, True)
        assert inode.is_setuid
        assert inode.mode & S_ISUID

    def test_unallocated_inode(self):
        assert not Inode().allocated


class ReferenceDirectoryBlock:
    """The walking parser, the reference for :class:`DirectoryBlock`:
    every call walks the entries from offset 0."""

    _HEAD = struct.Struct("<IB")

    def __init__(self, data: bytes):
        self.data = bytearray(data)

    def entries(self):
        offset = 0
        limit = len(self.data)
        while offset + self._HEAD.size <= limit:
            ino, name_len = self._HEAD.unpack_from(self.data, offset)
            if ino == 0 and name_len == 0:
                return
            start = offset + self._HEAD.size
            name_raw = bytes(self.data[start : start + name_len])
            if ino != 0:
                yield offset, ino, name_raw.decode("utf-8", errors="replace")
            offset += self._HEAD.size + name_len

    def find(self, name):
        for _offset, ino, entry_name in self.entries():
            if entry_name == name:
                return ino
        return None

    def append(self, ino, name):
        raw = encode_name(name)
        offset = self._end_offset()
        needed = self._HEAD.size + len(raw)
        if offset + needed + self._HEAD.size > len(self.data):
            return False
        self._HEAD.pack_into(self.data, offset, ino, len(raw))
        self.data[offset + self._HEAD.size : offset + needed] = raw
        return True

    def remove(self, name):
        for offset, _ino, entry_name in self.entries():
            if entry_name == name:
                _stored, name_len = self._HEAD.unpack_from(self.data, offset)
                self._HEAD.pack_into(self.data, offset, 0, name_len)
                return True
        return False

    def _end_offset(self):
        offset = 0
        limit = len(self.data)
        while offset + self._HEAD.size <= limit:
            ino, name_len = self._HEAD.unpack_from(self.data, offset)
            if ino == 0 and name_len == 0:
                return offset
            offset += self._HEAD.size + name_len
        return offset

    def live_entries(self):
        return [(ino, name) for _offset, ino, name in self.entries()]

    def to_bytes(self):
        return bytes(self.data)


#: Names the block operations draw from: short names that collide, the
#: empty name, U+FFFD (what invalid UTF-8 decodes to), a name with '/',
#: and names at and past the 255-byte limit.
_NAMES = ["a", "b", "ab", "", "\ufffd", "\xe9", "a/b", "n" * 255, "n" * 256]

_name = st.sampled_from(_NAMES) | st.text(max_size=3)

_entry = st.tuples(
    st.sampled_from([0, 1, 2, 2**32 - 1]) | st.integers(0, 2**32 - 1),
    st.sampled_from([n.encode("utf-8") for n in _NAMES[:6]])
    | st.binary(max_size=10),
).map(lambda e: struct.pack("<IB", e[0], len(e[1])) + e[1])


@st.composite
def _directory_bytes(draw):
    """Arbitrary starting bytes: live entries (some with empty names),
    tombstones, invalid UTF-8, terminators with bytes after them, a name
    length that runs past the end, and blocks with no room left."""
    pieces = draw(
        st.lists(
            _entry
            | st.just(b"\x00" * 5)
            | st.binary(max_size=7)
            | st.binary(max_size=6).map(lambda raw: struct.pack("<IB", 9, 200) + raw),
            max_size=10,
        )
    )
    raw = b"".join(pieces)
    size = draw(st.integers(0, len(raw) + 40))
    return raw[:size] + b"\x00" * (size - len(raw))


_operation = st.one_of(
    st.tuples(
        st.just("append"),
        st.sampled_from([0, 1, 5, 2**32 - 1]) | st.integers(0, 2**33),
        _name,
    ),
    st.tuples(st.just("remove"), _name),
    st.tuples(st.just("find"), _name),
    st.tuples(st.just("entries")),
    st.tuples(st.just("live_entries")),
    st.tuples(st.just("to_bytes")),
)


def _apply(block, op):
    """One operation's result, or the exception it raised as (type, text)."""
    try:
        result = getattr(block, op[0])(*op[1:])
    except (FsError, struct.error) as exc:
        return type(exc), str(exc)
    return list(result) if op[0] == "entries" else result


class TestDirectoryBlockIndex:
    @given(data=_directory_bytes(), ops=st.lists(_operation, max_size=25))
    @settings(max_examples=150, deadline=None)
    @example(data=b"\x01\x00\x00\x00\x00" * 3, ops=[("remove", ""), ("entries",)])
    @example(
        data=b"\x00" * 5 + b"\x07\x00\x00\x00\x01a",
        ops=[("append", 3, "b"), ("find", "a"), ("live_entries",)],
    )
    @example(
        data=b"\x01\x00\x00\x00\x01a\x02\x00\x00\x00\x01a",
        ops=[("remove", "a"), ("find", "a"), ("remove", "a"), ("find", "a")],
    )
    def test_matches_walking_parser(self, data, ops):
        """Every result of the indexed block equals the walking parser's
        over the same sequence, from arbitrary starting bytes."""
        block = DirectoryBlock(data)
        reference = ReferenceDirectoryBlock(data)
        for op in ops:
            assert _apply(block, op) == _apply(reference, op), op
            assert block.to_bytes() == reference.to_bytes()
        for name in set(_NAMES) | {name for _ino, name in reference.live_entries()}:
            assert block.find(name) == reference.find(name)
        assert list(block.entries()) == list(reference.entries())


class TestDirectoryBlock:
    def test_append_and_find(self):
        block = DirectoryBlock(b"\x00" * 256)
        assert block.append(5, "hello.txt")
        assert block.find("hello.txt") == 5
        assert block.find("missing") is None

    def test_multiple_entries(self):
        block = DirectoryBlock(b"\x00" * 256)
        for i, name in enumerate(["a", "bb", "ccc"], start=1):
            assert block.append(i, name)
        assert block.live_entries() == [(1, "a"), (2, "bb"), (3, "ccc")]

    def test_block_fills_up(self):
        block = DirectoryBlock(b"\x00" * 32)
        added = 0
        while block.append(1, "name%02d" % added):
            added += 1
        assert 0 < added < 10

    def test_remove_tombstones(self):
        block = DirectoryBlock(b"\x00" * 256)
        block.append(1, "a")
        block.append(2, "b")
        assert block.remove("a")
        assert block.find("a") is None
        assert block.find("b") == 2

    def test_remove_missing(self):
        assert not DirectoryBlock(b"\x00" * 64).remove("ghost")

    def test_roundtrip_through_bytes(self):
        block = DirectoryBlock(b"\x00" * 128)
        block.append(7, "persisted")
        again = DirectoryBlock(block.to_bytes())
        assert again.find("persisted") == 7

    def test_invalid_names_rejected(self):
        block = DirectoryBlock(b"\x00" * 64)
        with pytest.raises(FsError):
            block.append(1, "")
        with pytest.raises(FsError):
            block.append(1, "a/b")

    @given(
        names=st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=48, max_codepoint=122),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    @settings(max_examples=30)
    def test_property_all_added_found(self, names):
        names = [n for n in names if "/" not in n]
        block = DirectoryBlock(b"\x00" * 1024)
        for i, name in enumerate(names, start=1):
            assert block.append(i, name)
        for i, name in enumerate(names, start=1):
            assert block.find(name) == i


class TestPermissions:
    OWNER = Credentials(uid=100, gid=10)
    GROUPMATE = Credentials(uid=101, gid=10)
    OTHER = Credentials(uid=200, gid=20)

    def test_owner_bits(self):
        assert may_read(0o400, 100, 10, self.OWNER)
        assert not may_write(0o400, 100, 10, self.OWNER)

    def test_group_bits(self):
        assert may_read(0o040, 100, 10, self.GROUPMATE)
        assert not may_read(0o040, 100, 10, self.OTHER)

    def test_other_bits(self):
        assert may_read(0o004, 100, 10, self.OTHER)
        assert not may_write(0o004, 100, 10, self.OTHER)

    def test_root_bypasses_everything(self):
        assert may_read(0o000, 100, 10, ROOT)
        assert may_write(0o000, 100, 10, ROOT)
        assert may_execute(0o000, 100, 10, ROOT)

    def test_owner_triplet_takes_precedence(self):
        # Owner with 0 bits is denied even if "other" bits allow.
        assert not may_read(0o007, 100, 10, self.OWNER)


class TestBitmapAllocator:
    def make(self):
        from tests.conftest import build_stack

        controller, _, _ = build_stack()
        controller.create_namespace(1, 0, 64)
        from repro.host.blockdev import BlockDevice
        from repro.ext4.alloc import BitmapAllocator

        device = BlockDevice(controller, 1)
        return BitmapAllocator(device, bitmap_start_block=0, count=100), device

    def test_allocate_distinct(self):
        alloc, _ = self.make()
        alloc.wipe()
        items = {alloc.allocate() for _ in range(50)}
        assert len(items) == 50

    def test_free_and_reuse(self):
        alloc, _ = self.make()
        alloc.wipe()
        item = alloc.allocate()
        alloc.free(item)
        assert not alloc.is_allocated(item)
        assert alloc.free_count == 100

    def test_double_free_rejected(self):
        alloc, _ = self.make()
        alloc.wipe()
        item = alloc.allocate()
        alloc.free(item)
        with pytest.raises(FsNoSpaceError):
            alloc.free(item)

    def test_exhaustion(self):
        alloc, _ = self.make()
        alloc.wipe()
        for _ in range(100):
            alloc.allocate()
        with pytest.raises(FsNoSpaceError):
            alloc.allocate()

    def test_allocate_specific(self):
        alloc, _ = self.make()
        alloc.wipe()
        alloc.allocate_specific(7)
        assert alloc.is_allocated(7)
        with pytest.raises(FsNoSpaceError):
            alloc.allocate_specific(7)

    def test_persistence_via_load(self):
        from tests.conftest import build_stack
        from repro.ext4.alloc import BitmapAllocator
        from repro.host.blockdev import BlockDevice

        controller, _, _ = build_stack()
        controller.create_namespace(1, 0, 64)
        device = BlockDevice(controller, 1)
        alloc = BitmapAllocator(device, bitmap_start_block=0, count=100)
        alloc.wipe()
        taken = sorted(alloc.allocate() for _ in range(10))
        fresh = BitmapAllocator(device, bitmap_start_block=0, count=100)
        fresh.load()
        assert sorted(i for i in range(100) if fresh.is_allocated(i)) == taken
        assert fresh.allocated_count == 10
