"""The filesystem proper: paths, inodes, block mapping, permissions.

Design notes relevant to the reproduction:

* **No page cache.**  Every read walks superblock -> inode -> (indirect
  block | extent list) -> data block through the block device, so every
  access generates FTL L2P traffic and a redirected block is visible on
  the very next read of it.  The one exception is the dentry cache: a
  lookup of a name it holds reads no directory block, so it does not see
  a directory block that a redirected read changed (``listdir`` does).
* **Directories always use the indirect scheme** (they are filesystem-
  internal and never user-selectable); *files* default to extent trees
  and may opt into indirect addressing — unless the superblock's
  ``enforce_extents`` flag (the §5 mitigation) forbids it.
* Indirect blocks are raw pointer arrays with **no checksum**; extent
  roots are validated by magic and the separate leaf checksum machinery.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    FsCorruptionError,
    FsError,
    FsExistsError,
    FsNotFoundError,
    FsPermissionError,
)
from repro.ext4.alloc import BitmapAllocator
from repro.ext4.consts import (
    ADDR_EXTENTS,
    ADDR_INDIRECT,
    DOUBLE_INDIRECT_SLOT,
    INODE_SIZE,
    NO_BLOCK,
    NUM_DIRECT,
    PERM_MASK,
    ROOT_INO,
    S_IFDIR,
    S_IFREG,
    SINGLE_INDIRECT_SLOT,
)
from repro.ext4.dirent import DirectoryBlock
from repro.ext4.extent import ExtentTree
from repro.ext4.inode import Inode, make_inode
from repro.ext4.permissions import Credentials, ROOT, may_execute, may_read, may_write
from repro.ext4.superblock import Superblock
from repro.host.blockdev import BlockDevice

_PTR = struct.Struct("<I")


@dataclass(frozen=True)
class StatResult:
    """Metadata snapshot of one file."""

    ino: int
    mode: int
    uid: int
    gid: int
    size: int
    addressing: str
    is_directory: bool


@dataclass
class FileLayout:
    """Where a file's blocks live — the attacker's map of its own files.

    An attacker knows this for files it created (it chose the write
    pattern); experiments and the spray stage use it to find the LBA of
    the sprayed indirect block.
    """

    ino: int
    addressing: str
    direct: List[int] = field(default_factory=list)
    indirect_block: Optional[int] = None
    double_indirect_block: Optional[int] = None
    mid_indirect_blocks: List[int] = field(default_factory=list)
    data_blocks: List[int] = field(default_factory=list)

    @property
    def metadata_blocks(self) -> List[int]:
        out = []
        if self.indirect_block:
            out.append(self.indirect_block)
        if self.double_indirect_block:
            out.append(self.double_indirect_block)
        out.extend(self.mid_indirect_blocks)
        return out


class Ext4Fs:
    """An ext4-like filesystem mounted on a block device."""

    def __init__(self, device: BlockDevice, superblock: Superblock):
        self.device = device
        self.sb = superblock
        self.block_bytes = superblock.block_size
        self._pointers_per_block = self.block_bytes // _PTR.size
        data_blocks = superblock.total_blocks - superblock.data_start
        self.block_alloc = BitmapAllocator(
            device, superblock.block_bitmap_start, data_blocks
        )
        self.inode_alloc = BitmapAllocator(
            device, superblock.inode_bitmap_start, superblock.inode_count
        )
        #: (parent_ino, name) -> ino lookup cache (a dentry cache).  A hit
        #: is answered without reading the directory, so it outlives a
        #: change to the directory's blocks that bypasses _dir_add and
        #: _dir_remove; a miss falls back to scanning.
        self._dcache: Dict[Tuple[int, str], int] = {}
        #: physical block -> its last parsed directory block.  Every use
        #: still reads the block; the parse is reused only while the bytes
        #: read equal the bytes it was made from.
        self._dblocks: Dict[int, DirectoryBlock] = {}

    # ------------------------------------------------------------------
    # formatting and mounting
    # ------------------------------------------------------------------

    @classmethod
    def mkfs(cls, device: BlockDevice, enforce_extents: bool = False) -> "Ext4Fs":
        """Format the device and mount the fresh filesystem."""
        superblock = Superblock.layout_for(
            device.block_bytes, device.num_blocks, enforce_extents=enforce_extents
        )
        device.write_block(0, superblock.pack())
        fs = cls(device, superblock)
        fs.block_alloc.wipe()
        fs.inode_alloc.wipe()
        zero = b"\x00" * device.block_bytes
        for i in range(superblock.inode_table_blocks):
            device.write_block(superblock.inode_table_start + i, zero)
        # Root directory: inode 1, empty.  World-writable (like /tmp): the
        # threat model's unprivileged attacker process must be able to
        # create files on the victim filesystem.
        fs.inode_alloc.allocate_specific(0)  # inode numbers are 1-based
        root = make_inode(0o777, S_IFDIR, uid=0, gid=0, use_extents=False)
        fs._write_inode(ROOT_INO, root)
        return fs

    @classmethod
    def mount(cls, device: BlockDevice) -> "Ext4Fs":
        """Mount an existing filesystem (validates the superblock CRC)."""
        superblock = Superblock.unpack(device.read_block(0))
        fs = cls(device, superblock)
        fs.block_alloc.load()
        fs.inode_alloc.load()
        return fs

    @property
    def enforce_extents(self) -> bool:
        return bool(self.sb.enforce_extents)

    # ------------------------------------------------------------------
    # inode table I/O
    # ------------------------------------------------------------------

    def _inode_location(self, ino: int) -> Tuple[int, int]:
        if not 1 <= ino <= self.sb.inode_count:
            raise FsNotFoundError("inode %d out of range" % ino)
        byte_offset = (ino - 1) * INODE_SIZE
        block = self.sb.inode_table_start + byte_offset // self.block_bytes
        return block, byte_offset % self.block_bytes

    def _read_inode(self, ino: int) -> Inode:
        block, offset = self._inode_location(ino)
        raw = self.device.read_block(block)
        inode = Inode.unpack(raw[offset : offset + INODE_SIZE])
        # Sanity limits, as a real fs driver applies before trusting disk
        # state: a redirected inode-table block otherwise yields inodes
        # with absurd sizes that would send walks off the deep end.
        # Regular files may be sparse (larger than the device), so their
        # bound is the *addressing limit* of the double-indirect format;
        # directories are never sparse, so they get the capacity bound.
        ppb = self._pointers_per_block
        addressing_limit = (NUM_DIRECT + ppb + ppb * ppb) * self.block_bytes
        limit = (
            self.sb.total_blocks * self.block_bytes
            if inode.is_directory
            else addressing_limit
        )
        if inode.size > limit:
            raise FsCorruptionError(
                "inode %d claims size %d beyond its format limit"
                % (ino, inode.size)
            )
        return inode

    def _write_inode(self, ino: int, inode: Inode) -> None:
        block, offset = self._inode_location(ino)
        raw = bytearray(self.device.read_block(block))
        raw[offset : offset + INODE_SIZE] = inode.pack()
        self.device.write_block(block, bytes(raw))

    # ------------------------------------------------------------------
    # block mapping
    # ------------------------------------------------------------------

    def _read_pointer_block(self, block: int) -> List[int]:
        """Read an indirect block as a pointer array — no checksum; this is
        the structure the exploit forges."""
        raw = self.device.read_block(block)
        return list(
            struct.unpack("<%dI" % self._pointers_per_block, raw)
        )

    def _write_pointer_block(self, block: int, pointers: List[int]) -> None:
        raw = struct.pack("<%dI" % self._pointers_per_block, *pointers)
        self.device.write_block(block, raw)

    def _check_pointer(self, pointer: int) -> int:
        if pointer >= self.sb.total_blocks:
            raise FsCorruptionError(
                "block pointer %d beyond filesystem of %d blocks"
                % (pointer, self.sb.total_blocks)
            )
        return pointer

    def _block_lookup(self, inode: Inode, logical: int) -> int:
        """Logical file block -> filesystem block; 0 inside a hole.

        Indirect traversal re-reads pointer blocks from disk on every call
        — there is no cache to hide a redirected block.
        """
        if inode.uses_extents:
            return self._check_pointer(ExtentTree(self, inode).lookup(logical))
        ppb = self._pointers_per_block
        if logical < NUM_DIRECT:
            return self._check_pointer(inode.block[logical])
        logical -= NUM_DIRECT
        if logical < ppb:
            indirect = inode.block[SINGLE_INDIRECT_SLOT]
            if indirect == NO_BLOCK:
                return NO_BLOCK
            pointers = self._read_pointer_block(self._check_pointer(indirect))
            return self._check_pointer(pointers[logical])
        logical -= ppb
        if logical < ppb * ppb:
            double = inode.block[DOUBLE_INDIRECT_SLOT]
            if double == NO_BLOCK:
                return NO_BLOCK
            level1 = self._read_pointer_block(self._check_pointer(double))
            mid = level1[logical // ppb]
            if mid == NO_BLOCK:
                return NO_BLOCK
            level2 = self._read_pointer_block(self._check_pointer(mid))
            return self._check_pointer(level2[logical % ppb])
        raise FsError("file offset beyond double-indirect reach")

    def _allocate_block(self) -> int:
        return self.sb.data_start + self.block_alloc.allocate()

    def _free_block(self, block: int) -> None:
        self.block_alloc.free(block - self.sb.data_start)
        # Tell the device the block is dead: creates the trimmed fast path
        # and mirrors real discard-on-delete mounts.
        self.device.trim_block(block)

    def _block_allocate_for(self, inode: Inode, logical: int) -> int:
        """Ensure ``logical`` has a backing block; returns it.  May mutate
        the inode (pointers/extents); caller persists the inode."""
        existing = self._block_lookup(inode, logical)
        if existing != NO_BLOCK:
            return existing
        physical = self._allocate_block()
        if inode.uses_extents:
            ExtentTree(self, inode).insert(logical, physical)
            return physical
        ppb = self._pointers_per_block
        if logical < NUM_DIRECT:
            inode.block[logical] = physical
            return physical
        index = logical - NUM_DIRECT
        if index < ppb:
            indirect = inode.block[SINGLE_INDIRECT_SLOT]
            if indirect == NO_BLOCK:
                indirect = self._allocate_block()
                self._write_pointer_block(indirect, [NO_BLOCK] * ppb)
                inode.block[SINGLE_INDIRECT_SLOT] = indirect
            pointers = self._read_pointer_block(indirect)
            pointers[index] = physical
            self._write_pointer_block(indirect, pointers)
            return physical
        index -= ppb
        if index < ppb * ppb:
            double = inode.block[DOUBLE_INDIRECT_SLOT]
            if double == NO_BLOCK:
                double = self._allocate_block()
                self._write_pointer_block(double, [NO_BLOCK] * ppb)
                inode.block[DOUBLE_INDIRECT_SLOT] = double
            level1 = self._read_pointer_block(double)
            mid = level1[index // ppb]
            if mid == NO_BLOCK:
                mid = self._allocate_block()
                self._write_pointer_block(mid, [NO_BLOCK] * ppb)
                level1[index // ppb] = mid
                self._write_pointer_block(double, level1)
            level2 = self._read_pointer_block(mid)
            level2[index % ppb] = physical
            self._write_pointer_block(mid, level2)
            return physical
        raise FsError("file offset beyond double-indirect reach")

    # ------------------------------------------------------------------
    # path resolution
    # ------------------------------------------------------------------

    @staticmethod
    def _split(path: str) -> List[str]:
        if not path.startswith("/"):
            raise FsError("paths must be absolute, got %r" % path)
        return [part for part in path.split("/") if part]

    def _dir_find(self, dir_ino: int, name: str) -> Optional[int]:
        cached = self._dcache.get((dir_ino, name))
        if cached is not None:
            return cached
        inode = self._read_inode(dir_ino)
        for _physical, block in self._iter_dir_blocks(inode):
            found = block.find(name)
            if found is not None:
                self._dcache[(dir_ino, name)] = found
                return found
        return None

    def _iter_dir_blocks(self, inode: Inode) -> Iterator[Tuple[int, DirectoryBlock]]:
        """(physical block, parsed block) for each directory block, read
        from the device in logical order; holes hold no entries."""
        count = -(-inode.size // self.block_bytes)
        for logical in range(count):
            physical = self._block_lookup(inode, logical)
            if physical == NO_BLOCK:
                continue
            raw = self.device.read_block(physical)
            block = self._dblocks.get(physical)
            if block is None or block.data != raw:
                block = self._dblocks[physical] = DirectoryBlock(raw)
            yield physical, block

    def _resolve(self, path: str, cred: Credentials) -> int:
        parts = self._split(path)
        ino = ROOT_INO
        for part in parts:
            inode = self._read_inode(ino)
            if not inode.is_directory:
                raise FsNotFoundError("%r: not a directory on the way" % path)
            if not may_execute(inode.permissions, inode.uid, inode.gid, cred):
                raise FsPermissionError("search denied in path %r" % path)
            child = self._dir_find(ino, part)
            if child is None:
                raise FsNotFoundError(path)
            ino = child
        return ino

    def _resolve_parent(self, path: str, cred: Credentials) -> Tuple[int, str]:
        parts = self._split(path)
        if not parts:
            raise FsError("cannot operate on the root directory itself")
        parent_path = "/" + "/".join(parts[:-1])
        return self._resolve(parent_path, cred), parts[-1]

    # ------------------------------------------------------------------
    # directory mutation
    # ------------------------------------------------------------------

    def _dir_add(self, dir_ino: int, name: str, ino: int) -> None:
        inode = self._read_inode(dir_ino)
        for physical, block in self._iter_dir_blocks(inode):
            if block.append(ino, name):
                self.device.write_block(physical, block.to_bytes())
                self._dcache[(dir_ino, name)] = ino
                return
        # Need a fresh directory block.
        count = -(-inode.size // self.block_bytes)
        physical = self._block_allocate_for(inode, count)
        block = DirectoryBlock(b"\x00" * self.block_bytes)
        if not block.append(ino, name):
            raise FsError("directory entry does not fit an empty block")
        self.device.write_block(physical, block.to_bytes())
        inode.size = (count + 1) * self.block_bytes
        self._write_inode(dir_ino, inode)
        self._dcache[(dir_ino, name)] = ino

    def _dir_remove(self, dir_ino: int, name: str) -> None:
        inode = self._read_inode(dir_ino)
        for physical, block in self._iter_dir_blocks(inode):
            if block.remove(name):
                self.device.write_block(physical, block.to_bytes())
                self._dcache.pop((dir_ino, name), None)
                return
        raise FsNotFoundError(name)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def create(
        self,
        path: str,
        cred: Credentials,
        mode: int = 0o644,
        addressing: Optional[str] = None,
    ) -> int:
        """Create an empty regular file; returns its inode number.

        ``addressing`` is "extents" (default) or "indirect" — the paper's
        user-selectable legacy scheme.  With the ``enforce_extents``
        mitigation active, requesting "indirect" is refused.
        """
        addressing = addressing or ADDR_EXTENTS
        if addressing not in (ADDR_EXTENTS, ADDR_INDIRECT):
            raise FsError("unknown addressing mode %r" % addressing)
        if addressing == ADDR_INDIRECT and self.enforce_extents:
            raise FsPermissionError(
                "this filesystem enforces extent addressing (mitigation)"
            )
        parent_ino, name = self._resolve_parent(path, cred)
        parent = self._read_inode(parent_ino)
        if not parent.is_directory:
            raise FsNotFoundError("parent of %r is not a directory" % path)
        if not may_write(parent.permissions, parent.uid, parent.gid, cred):
            raise FsPermissionError("no write permission in parent of %r" % path)
        if self._dir_find(parent_ino, name) is not None:
            raise FsExistsError(path)
        ino = self.inode_alloc.allocate() + 1
        inode = make_inode(
            mode, S_IFREG, cred.uid, cred.gid, use_extents=(addressing == ADDR_EXTENTS)
        )
        self._write_inode(ino, inode)
        self._dir_add(parent_ino, name, ino)
        return ino

    def mkdir(self, path: str, cred: Credentials, mode: int = 0o755) -> int:
        """Create a directory."""
        parent_ino, name = self._resolve_parent(path, cred)
        parent = self._read_inode(parent_ino)
        if not may_write(parent.permissions, parent.uid, parent.gid, cred):
            raise FsPermissionError("no write permission in parent of %r" % path)
        if self._dir_find(parent_ino, name) is not None:
            raise FsExistsError(path)
        ino = self.inode_alloc.allocate() + 1
        inode = make_inode(mode, S_IFDIR, cred.uid, cred.gid, use_extents=False)
        self._write_inode(ino, inode)
        self._dir_add(parent_ino, name, ino)
        return ino

    def write(self, path: str, data: bytes, cred: Credentials, offset: int = 0) -> None:
        """Write ``data`` at ``offset``; writing past the end grows the
        file, skipping blocks creates holes (how the spray files are
        shaped)."""
        if offset < 0:
            raise FsError("negative offset")
        ino = self._resolve(path, cred)
        inode = self._read_inode(ino)
        if not inode.is_regular:
            raise FsError("%r is not a regular file" % path)
        if not may_write(inode.permissions, inode.uid, inode.gid, cred):
            raise FsPermissionError("no write permission on %r" % path)
        position = offset
        cursor = 0
        while cursor < len(data):
            logical = position // self.block_bytes
            within = position % self.block_bytes
            chunk = min(len(data) - cursor, self.block_bytes - within)
            physical = self._block_allocate_for(inode, logical)
            if within == 0 and chunk == self.block_bytes:
                block = data[cursor : cursor + chunk]
            else:
                block = bytearray(self.device.read_block(physical))
                block[within : within + chunk] = data[cursor : cursor + chunk]
                block = bytes(block)
            self.device.write_block(physical, block)
            position += chunk
            cursor += chunk
        inode.size = max(inode.size, offset + len(data))
        self._write_inode(ino, inode)

    def read(
        self,
        path: str,
        cred: Credentials,
        offset: int = 0,
        length: Optional[int] = None,
    ) -> bytes:
        """Read file contents; holes read as zeros."""
        ino = self._resolve(path, cred)
        inode = self._read_inode(ino)
        if not inode.is_regular:
            raise FsError("%r is not a regular file" % path)
        if not may_read(inode.permissions, inode.uid, inode.gid, cred):
            raise FsPermissionError("no read permission on %r" % path)
        if offset >= inode.size:
            return b""
        if length is None:
            length = inode.size - offset
        length = min(length, inode.size - offset)
        out = bytearray()
        position = offset
        while len(out) < length:
            logical = position // self.block_bytes
            within = position % self.block_bytes
            chunk = min(length - len(out), self.block_bytes - within)
            physical = self._block_lookup(inode, logical)
            if physical == NO_BLOCK:
                out += b"\x00" * chunk
            else:
                block = self.device.read_block(physical)
                out += block[within : within + chunk]
            position += chunk
        return bytes(out)

    def listdir(self, path: str, cred: Credentials) -> List[str]:
        """Names in a directory."""
        ino = self._resolve(path, cred)
        inode = self._read_inode(ino)
        if not inode.is_directory:
            raise FsError("%r is not a directory" % path)
        if not may_read(inode.permissions, inode.uid, inode.gid, cred):
            raise FsPermissionError("no read permission on %r" % path)
        names: List[str] = []
        for _physical, block in self._iter_dir_blocks(inode):
            names.extend(name for _ino, name in block.live_entries())
        return names

    def unlink(self, path: str, cred: Credentials) -> None:
        """Remove a file, freeing (and trimming) its blocks."""
        parent_ino, name = self._resolve_parent(path, cred)
        parent = self._read_inode(parent_ino)
        if not may_write(parent.permissions, parent.uid, parent.gid, cred):
            raise FsPermissionError("no write permission in parent of %r" % path)
        ino = self._dir_find(parent_ino, name)
        if ino is None:
            raise FsNotFoundError(path)
        inode = self._read_inode(ino)
        if inode.is_directory:
            raise FsError("use rmdir semantics for directories (not supported)")
        layout = self._layout_of(inode)
        for block in layout.data_blocks + layout.metadata_blocks:
            if block != NO_BLOCK:
                self._free_block(block)
        self._write_inode(ino, Inode())
        self.inode_alloc.free(ino - 1)
        self._dir_remove(parent_ino, name)

    def stat(self, path: str, cred: Credentials) -> StatResult:
        """Metadata of a file or directory."""
        ino = self._resolve(path, cred)
        inode = self._read_inode(ino)
        return StatResult(
            ino=ino,
            mode=inode.mode,
            uid=inode.uid,
            gid=inode.gid,
            size=inode.size,
            addressing=ADDR_EXTENTS if inode.uses_extents else ADDR_INDIRECT,
            is_directory=inode.is_directory,
        )

    def chmod(self, path: str, cred: Credentials, mode: int) -> None:
        """Change permission bits (owner or root only)."""
        ino = self._resolve(path, cred)
        inode = self._read_inode(ino)
        if not (cred.is_root or cred.uid == inode.uid):
            raise FsPermissionError("only the owner may chmod %r" % path)
        inode.mode = (inode.mode & ~PERM_MASK) | (mode & PERM_MASK)
        self._write_inode(ino, inode)

    def chown(self, path: str, cred: Credentials, uid: int, gid: int) -> None:
        """Change ownership (root only, as on real systems)."""
        if not cred.is_root:
            raise FsPermissionError("only root may chown")
        ino = self._resolve(path, cred)
        inode = self._read_inode(ino)
        inode.uid = uid
        inode.gid = gid
        self._write_inode(ino, inode)

    def exists(self, path: str, cred: Credentials = ROOT) -> bool:
        try:
            self._resolve(path, cred)
            return True
        except (FsNotFoundError, FsPermissionError):
            return False

    def check(self) -> None:
        """Verify filesystem structural invariants: every tree walk from
        the root parses, extent leaves pass their checksums, no two files
        claim the same block, and every reachable block is marked allocated.
        Performs real device reads (checking IS I/O); raises
        :class:`~repro.testkit.invariants.InvariantViolation` on breakage.
        """
        from repro.testkit.invariants import check_fs

        check_fs(self)

    # ------------------------------------------------------------------
    # layout inspection (experiments / the spray stage)
    # ------------------------------------------------------------------

    def file_layout(self, path: str, cred: Credentials) -> FileLayout:
        """The file's block map, as its owner can reconstruct it."""
        ino = self._resolve(path, cred)
        inode = self._read_inode(ino)
        if not inode.is_regular:
            raise FsError("%r is not a regular file" % path)
        if not (cred.is_root or cred.uid == inode.uid):
            raise FsPermissionError("layout inspection is owner-only")
        layout = self._layout_of(inode)
        layout.ino = ino
        return layout

    def _layout_of(self, inode: Inode) -> FileLayout:
        layout = FileLayout(
            ino=0,
            addressing=ADDR_EXTENTS if inode.uses_extents else ADDR_INDIRECT,
        )
        count = -(-inode.size // self.block_bytes)
        if inode.uses_extents:
            tree = ExtentTree(self, inode)
            for logical in range(count):
                physical = tree.lookup(logical)
                if physical != NO_BLOCK:
                    layout.data_blocks.append(physical)
            layout.mid_indirect_blocks.extend(tree.metadata_blocks())
            return layout
        layout.direct = [b for b in inode.block[:NUM_DIRECT] if b != NO_BLOCK]
        single = inode.block[SINGLE_INDIRECT_SLOT]
        if single != NO_BLOCK:
            layout.indirect_block = single
        double = inode.block[DOUBLE_INDIRECT_SLOT]
        if double != NO_BLOCK:
            layout.double_indirect_block = double
        for logical in range(count):
            physical = self._block_lookup(inode, logical)
            if physical != NO_BLOCK:
                layout.data_blocks.append(physical)
        # Mid-level blocks of the double-indirect tree are metadata too.
        if double != NO_BLOCK:
            for mid in self._read_pointer_block(double):
                if mid != NO_BLOCK:
                    layout.mid_indirect_blocks.append(mid)
        return layout
