"""Integration tests for the ext4-like filesystem over the full stack.

:class:`ListPointerFs` is the reference for indirect block mapping: it
decodes a whole pointer block into a list to follow or set one slot, and
packs the whole list back, where :class:`Ext4Fs` reads and rewrites the
one slot in the block's bytes.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FsCorruptionError,
    FsError,
    FsExistsError,
    FsNotFoundError,
    FsPermissionError,
)
from repro.ext4 import (
    ADDR_EXTENTS,
    ADDR_INDIRECT,
    Credentials,
    Ext4Fs,
    ROOT,
)
from repro.ext4.consts import (
    DOUBLE_INDIRECT_SLOT,
    NO_BLOCK,
    NUM_DIRECT,
    ROOT_INO,
    SINGLE_INDIRECT_SLOT,
)
from repro.ext4.dirent import DirectoryBlock
from repro.host.blockdev import BlockDevice

from tests.conftest import build_stack

ALICE = Credentials(uid=1000, gid=1000)
MALLORY = Credentials(uid=2000, gid=2000)


def make_fs(num_lbas=1024, enforce_extents=False, fs_class=Ext4Fs):
    controller, dram, ftl = build_stack(num_lbas=num_lbas)
    controller.create_namespace(1, 0, num_lbas)
    device = BlockDevice(controller, 1)
    fs = fs_class.mkfs(device, enforce_extents=enforce_extents)
    return fs, device, dram


class ListPointerFs(Ext4Fs):
    """The reference: whole-block pointer lists, read-modify-write."""

    def _write_pointer_block(self, block, pointers):
        raw = struct.pack("<%dI" % self._pointers_per_block, *pointers)
        self.device.write_block(block, raw)

    def _block_lookup(self, inode, logical):
        if inode.uses_extents:
            return super()._block_lookup(inode, logical)
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

    def _block_allocate_for(self, inode, logical):
        ppb = self._pointers_per_block
        if inode.uses_extents or logical < NUM_DIRECT:
            return super()._block_allocate_for(inode, logical)
        existing = self._block_lookup(inode, logical)
        if existing != NO_BLOCK:
            return existing
        physical = self._allocate_block()
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


class TestBasics:
    def test_create_and_stat(self):
        fs, _, _ = make_fs()
        fs.create("/hello.txt", ALICE, mode=0o644)
        st_result = fs.stat("/hello.txt", ALICE)
        assert st_result.uid == 1000
        assert st_result.size == 0
        assert st_result.addressing == ADDR_EXTENTS
        assert not st_result.is_directory

    def test_write_read_roundtrip(self):
        fs, _, _ = make_fs()
        fs.create("/f", ALICE)
        fs.write("/f", b"some file content", ALICE)
        assert fs.read("/f", ALICE) == b"some file content"

    def test_multi_block_file(self):
        fs, device, _ = make_fs()
        fs.create("/big", ALICE)
        payload = bytes(range(256)) * 8  # spans several 512-byte blocks
        fs.write("/big", payload, ALICE)
        assert fs.read("/big", ALICE) == payload

    def test_partial_overwrite(self):
        fs, _, _ = make_fs()
        fs.create("/f", ALICE)
        fs.write("/f", b"AAAAAAAAAA", ALICE)
        fs.write("/f", b"BB", ALICE, offset=4)
        assert fs.read("/f", ALICE) == b"AAAABBAAAA"

    def test_read_with_offset_and_length(self):
        fs, _, _ = make_fs()
        fs.create("/f", ALICE)
        fs.write("/f", b"0123456789", ALICE)
        assert fs.read("/f", ALICE, offset=3, length=4) == b"3456"
        assert fs.read("/f", ALICE, offset=20) == b""

    def test_duplicate_create_rejected(self):
        fs, _, _ = make_fs()
        fs.create("/f", ALICE)
        with pytest.raises(FsExistsError):
            fs.create("/f", ALICE)

    def test_missing_file(self):
        fs, _, _ = make_fs()
        with pytest.raises(FsNotFoundError):
            fs.read("/ghost", ALICE)

    def test_relative_path_rejected(self):
        fs, _, _ = make_fs()
        with pytest.raises(FsError):
            fs.create("oops", ALICE)

    def test_listdir_root(self):
        fs, _, _ = make_fs()
        fs.create("/a", ALICE)
        fs.create("/b", ALICE)
        assert sorted(fs.listdir("/", ALICE)) == ["a", "b"]

    def test_unlink(self):
        fs, _, _ = make_fs()
        fs.create("/f", ALICE)
        fs.write("/f", b"data", ALICE)
        fs.unlink("/f", ALICE)
        assert not fs.exists("/f")
        with pytest.raises(FsNotFoundError):
            fs.read("/f", ALICE)

    def test_unlink_frees_blocks(self):
        fs, _, _ = make_fs()
        fs.create("/anchor", ALICE)  # forces the root dir block to exist
        before = fs.block_alloc.free_count
        fs.create("/f", ALICE)
        fs.write("/f", b"x" * 2048, ALICE)
        fs.unlink("/f", ALICE)
        assert fs.block_alloc.free_count == before

    def test_subdirectories(self):
        fs, _, _ = make_fs()
        fs.mkdir("/home", ROOT)
        fs.mkdir("/home/alice", ROOT)
        fs.chown("/home/alice", ROOT, ALICE.uid, ALICE.gid)
        fs.create("/home/alice/notes", ALICE)
        fs.write("/home/alice/notes", b"nested", ALICE)
        assert fs.read("/home/alice/notes", ALICE) == b"nested"
        assert fs.listdir("/home", ROOT) == ["alice"]

    def test_many_files_in_one_directory(self):
        fs, _, _ = make_fs(num_lbas=2048)
        for i in range(120):
            fs.create("/spray-%03d" % i, ALICE)
        assert len(fs.listdir("/", ALICE)) == 120
        assert fs.exists("/spray-077")


class TestMountPersistence:
    def test_remount_sees_files(self):
        fs, device, _ = make_fs()
        fs.create("/persist", ALICE)
        fs.write("/persist", b"still here", ALICE)
        again = Ext4Fs.mount(device)
        assert again.read("/persist", ALICE) == b"still here"

    def test_remount_preserves_allocators(self):
        fs, device, _ = make_fs()
        fs.create("/f", ALICE)
        fs.write("/f", b"x" * 1024, ALICE)
        used = fs.block_alloc.allocated_count
        again = Ext4Fs.mount(device)
        assert again.block_alloc.allocated_count == used

    def test_mount_rejects_unformatted(self):
        _, device, _ = make_fs()
        device.write_block(0, b"\x00" * device.block_bytes)
        with pytest.raises(FsCorruptionError):
            Ext4Fs.mount(device)


class TestHolesAndIndirect:
    def test_hole_reads_zeros(self):
        fs, _, _ = make_fs()
        fs.create("/holey", ALICE)
        fs.write("/holey", b"end", ALICE, offset=5 * 512)
        data = fs.read("/holey", ALICE)
        assert data[: 5 * 512] == b"\x00" * (5 * 512)
        assert data[-3:] == b"end"

    def test_spray_shape_hole_then_indirect_block(self):
        """The paper's sprayed file: a 12-block hole, then one data block
        reached through the single indirect block."""
        fs, _, _ = make_fs()
        fs.create("/sprayed", ALICE, addressing=ADDR_INDIRECT)
        bs = fs.block_bytes
        fs.write("/sprayed", b"M" * bs, ALICE, offset=12 * bs)
        layout = fs.file_layout("/sprayed", ALICE)
        assert layout.addressing == ADDR_INDIRECT
        assert layout.direct == []  # the hole skipped all direct pointers
        assert layout.indirect_block is not None
        assert len(layout.data_blocks) == 1
        assert fs.read("/sprayed", ALICE, offset=12 * bs) == b"M" * bs

    def test_indirect_reaches_many_blocks(self):
        fs, _, _ = make_fs(num_lbas=2048)
        fs.create("/big", ALICE, addressing=ADDR_INDIRECT)
        bs = fs.block_bytes
        blocks = 12 + 20  # well into single-indirect territory
        payload = bytes([i % 251 for i in range(blocks * bs)])
        fs.write("/big", payload, ALICE)
        assert fs.read("/big", ALICE) == payload

    def test_double_indirect(self):
        fs, _, _ = make_fs(num_lbas=4096)
        fs.create("/huge", ALICE, addressing=ADDR_INDIRECT)
        bs = fs.block_bytes
        ppb = bs // 4
        # One block past the single-indirect range.
        offset = (12 + ppb) * bs
        fs.write("/huge", b"deep", ALICE, offset=offset)
        assert fs.read("/huge", ALICE, offset=offset, length=4) == b"deep"
        layout = fs.file_layout("/huge", ALICE)
        assert layout.double_indirect_block is not None
        assert layout.mid_indirect_blocks

    def test_extent_file_layout(self):
        fs, _, _ = make_fs()
        fs.create("/ext", ALICE)  # default extents
        fs.write("/ext", b"x" * (3 * 512), ALICE)
        layout = fs.file_layout("/ext", ALICE)
        assert layout.addressing == ADDR_EXTENTS
        assert layout.indirect_block is None
        assert len(layout.data_blocks) == 3

    def test_enforce_extents_blocks_indirect(self):
        """§5 mitigation: indirect addressing refused at creation."""
        fs, _, _ = make_fs(enforce_extents=True)
        with pytest.raises(FsPermissionError):
            fs.create("/sprayed", ALICE, addressing=ADDR_INDIRECT)
        fs.create("/fine", ALICE)  # extents still work


class TestPermissionsEnforced:
    def test_other_user_cannot_read_0600(self):
        fs, _, _ = make_fs()
        fs.create("/secret", ALICE, mode=0o600)
        fs.write("/secret", b"alice only", ALICE)
        with pytest.raises(FsPermissionError):
            fs.read("/secret", MALLORY)

    def test_other_user_cannot_write(self):
        fs, _, _ = make_fs()
        fs.create("/mine", ALICE, mode=0o644)
        with pytest.raises(FsPermissionError):
            fs.write("/mine", b"no", MALLORY)

    def test_root_reads_anything(self):
        fs, _, _ = make_fs()
        fs.create("/secret", ALICE, mode=0o600)
        fs.write("/secret", b"data", ALICE)
        assert fs.read("/secret", ROOT) == b"data"

    def test_world_readable(self):
        fs, _, _ = make_fs()
        fs.create("/pub", ALICE, mode=0o644)
        fs.write("/pub", b"open", ALICE)
        assert fs.read("/pub", MALLORY) == b"open"

    def test_chmod_owner_only(self):
        fs, _, _ = make_fs()
        fs.create("/f", ALICE)
        with pytest.raises(FsPermissionError):
            fs.chmod("/f", MALLORY, 0o777)
        fs.chmod("/f", ALICE, 0o600)
        assert fs.stat("/f", ALICE).mode & 0o777 == 0o600

    def test_chown_root_only(self):
        fs, _, _ = make_fs()
        fs.create("/f", ALICE)
        with pytest.raises(FsPermissionError):
            fs.chown("/f", ALICE, 0, 0)
        fs.chown("/f", ROOT, 0, 0)
        assert fs.stat("/f", ROOT).uid == 0

    def test_directory_search_permission(self):
        fs, _, _ = make_fs()
        fs.mkdir("/vault", ROOT, mode=0o700)
        fs.create("/vault/key", ROOT, mode=0o644)
        with pytest.raises(FsPermissionError):
            fs.read("/vault/key", MALLORY)

    def test_create_needs_parent_write(self):
        fs, _, _ = make_fs()
        fs.mkdir("/ro", ROOT, mode=0o755)
        with pytest.raises(FsPermissionError):
            fs.create("/ro/f", MALLORY)

    def test_layout_inspection_owner_only(self):
        fs, _, _ = make_fs()
        fs.create("/f", ALICE)
        with pytest.raises(FsPermissionError):
            fs.file_layout("/f", MALLORY)


class TestRedirectionPrimitive:
    """The filesystem-level consequence of an L2P flip: a forged indirect
    block reads privileged data straight past permissions."""

    def test_forged_indirect_block_leaks_secret(self):
        fs, device, dram = make_fs()
        bs = fs.block_bytes
        # A root-owned secret.
        fs.create("/etc-shadow", ROOT, mode=0o600)
        fs.write("/etc-shadow", b"root:secret-hash" + b"\x00" * (bs - 16), ROOT)
        secret_block = fs.file_layout("/etc-shadow", ROOT).data_blocks[0]
        # Attacker's sprayed file: hole + indirect block + one data block.
        fs.create("/sprayed", MALLORY, addressing=ADDR_INDIRECT)
        fs.write("/sprayed", b"A" * bs, MALLORY, offset=12 * bs)
        layout = fs.file_layout("/sprayed", MALLORY)
        # Simulate the FTL redirect: overwrite the indirect block's
        # *device-side* content with a forged pointer array (in reality a
        # bitflip redirects the LBA to such a forged block).
        import struct

        forged = struct.pack("<I", secret_block) + b"\x00" * (bs - 4)
        ftl_lba = layout.indirect_block
        device.controller.ftl.write(ftl_lba, forged)
        # The unprivileged attacker now reads the secret through its own file.
        leaked = fs.read("/sprayed", MALLORY, offset=12 * bs, length=bs)
        assert leaked.startswith(b"root:secret-hash")

    def test_forged_pointer_out_of_range_detected(self):
        fs, device, _ = make_fs()
        bs = fs.block_bytes
        fs.create("/sprayed", MALLORY, addressing=ADDR_INDIRECT)
        fs.write("/sprayed", b"A" * bs, MALLORY, offset=12 * bs)
        layout = fs.file_layout("/sprayed", MALLORY)
        import struct

        forged = struct.pack("<I", 0xFFFFFF) + b"\x00" * (bs - 4)
        device.controller.ftl.write(layout.indirect_block, forged)
        with pytest.raises(FsCorruptionError):
            fs.read("/sprayed", MALLORY, offset=12 * bs, length=bs)


class TestDirectoryParseReuse:
    """A directory block's parse is reused only while the device returns
    the bytes it was made from."""

    def test_block_rewritten_behind_the_fs_is_parsed_again(self):
        fs, _, _ = make_fs()
        a = fs.create("/a", ALICE)
        fs.create("/b", ALICE)
        assert fs.listdir("/", ALICE) == ["a", "b"]
        # What a redirected read would return: other bytes at the same
        # physical block, written past the filesystem.
        physical = fs._block_lookup(fs._read_inode(ROOT_INO), 0)
        forged = DirectoryBlock(bytes(fs.block_bytes))
        forged.append(a, "a")
        forged.append(a, "planted")
        fs.device.write_block(physical, forged.to_bytes())
        assert fs.listdir("/", ALICE) == ["a", "planted"]
        assert fs.stat("/planted", ALICE).ino == a
        # A create appends to the bytes on the device, not to the old parse.
        fs.create("/c", ALICE)
        assert fs.listdir("/", ALICE) == ["a", "planted", "c"]
        assert DirectoryBlock(fs.device.read_block(physical)).live_entries()[:2] == [
            (a, "a"),
            (a, "planted"),
        ]


class TestPropertyFs:
    @given(
        files=st.dictionaries(
            keys=st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1,
                max_size=8,
            ),
            values=st.binary(min_size=0, max_size=900),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_files_are_independent(self, files):
        """Property: contents never bleed between files."""
        fs, _, _ = make_fs(num_lbas=2048)
        for name, content in files.items():
            fs.create("/" + name, ALICE)
            if content:
                fs.write("/" + name, content, ALICE)
        for name, content in files.items():
            assert fs.read("/" + name, ALICE) == content


#: Logical blocks of a sparse indirect file on 512-byte blocks (128
#: pointers a block): direct, single-indirect, and double-indirect blocks
#: under the first two mid-level blocks.  Farther blocks would make each
#: block map walk thousands of holes: it looks up every block up to the
#: file's size.
SPARSE_BLOCKS = st.one_of(
    st.integers(0, NUM_DIRECT - 1),
    st.integers(NUM_DIRECT, NUM_DIRECT + 127),
    st.integers(NUM_DIRECT + 128, NUM_DIRECT + 128 + 2 * 128 - 1),
)


class TestPointerSlots:
    """Slot-at-a-time pointer block I/O against :class:`ListPointerFs`."""

    @staticmethod
    def spray(fs, files):
        for name, blocks in files.items():
            fs.create("/" + name, ALICE, addressing=ADDR_INDIRECT)
            for logical in blocks:
                data = bytes([logical % 251 + 1]) * fs.block_bytes
                fs.write("/" + name, data, ALICE, offset=logical * fs.block_bytes)

    @staticmethod
    def observe(fs, device, files, probes):
        observed = []
        for name in files:
            layout = fs.file_layout("/" + name, ALICE)
            inode = fs._read_inode(layout.ino)
            observed.append((
                layout,
                [fs._block_lookup(inode, logical) for logical in probes],
                [device.read_block(block) for block in layout.metadata_blocks],
            ))
        return observed

    @settings(max_examples=20, deadline=None)
    @given(
        files=st.dictionaries(
            keys=st.sampled_from(("a", "b", "c")),
            values=st.lists(SPARSE_BLOCKS, min_size=1, max_size=6),
            min_size=1,
        ),
        probes=st.lists(SPARSE_BLOCKS, max_size=8),
    )
    def test_slot_io_matches_the_list_reference(self, files, probes):
        """Same block maps, lookups (holes included), pointer-block bytes
        and device commands; unlinking frees the same blocks."""
        sides = []
        for fs_class in (Ext4Fs, ListPointerFs):
            fs, device, _dram = make_fs(num_lbas=2048, fs_class=fs_class)
            assert fs.block_bytes == 512
            self.spray(fs, files)
            probes_all = sorted(set(probes) | {b for blocks in files.values() for b in blocks})
            observed = self.observe(fs, device, files, probes_all)
            for name in files:
                fs.unlink("/" + name, ALICE)
            sides.append((
                observed,
                fs.block_alloc.free_count,
                device.controller.stack_snapshot(),
            ))
        assert sides[0] == sides[1]

    def test_fresh_pointer_blocks_hold_no_block(self):
        fs, device, _dram = make_fs(num_lbas=2048)
        fs.create("/deep", ALICE, addressing=ADDR_INDIRECT)
        fs.write("/deep", b"x", ALICE, offset=(NUM_DIRECT + 128 + 130) * fs.block_bytes)
        layout = fs.file_layout("/deep", ALICE)
        (mid,) = layout.mid_indirect_blocks
        assert fs._read_pointer_block(mid) == [NO_BLOCK] * 2 + layout.data_blocks + [
            NO_BLOCK
        ] * 125
        assert fs._read_pointer_block(layout.double_indirect_block) == [NO_BLOCK, mid] + [
            NO_BLOCK
        ] * 126
