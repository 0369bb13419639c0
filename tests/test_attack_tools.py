"""Tests for hammer plans, polyglot crafting, spray, and scan stages."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack import (
    DeviceProfile,
    craft_indirect_block,
    craft_polyglot_block,
    double_sided_plan,
    find_cross_partition_triples,
    many_sided_plan,
    parse_polyglot,
    scan_sprayed_files,
    single_sided_plan,
    spray_attacker_partition,
    spray_victim_filesystem,
)
from repro.attack.polyglot import is_malicious_block, read_indirect_block
from repro.attack.spray import spread_targets, unspray_victim_filesystem
from repro.errors import AttackError, ConfigError
from repro.scenarios import ATTACKER_PROCESS, build_cloud_testbed


def craft_indirect_block_from_list(target_lbas, block_bytes, fill_lba=0):
    """The reference forged block: a full pointer list, packed whole."""
    pointers_per_block = block_bytes // 4
    if len(target_lbas) > pointers_per_block:
        raise AttackError("too many targets")
    pointers = list(target_lbas) + [fill_lba] * (pointers_per_block - len(target_lbas))
    return struct.pack("<%dI" % pointers_per_block, *pointers)


POINTERS = st.integers(0, 0xFFFFFFFF)


@st.composite
def forged_blocks(draw):
    """(targets, block size, fill): block sizes from 4 bytes up, not only
    multiples of 4; blocks of up to 512 bytes are sometimes full."""
    block_bytes = draw(st.one_of(st.sampled_from((512, 1024, 4096)), st.integers(4, 300)))
    slots = block_bytes // 4
    full = st.just(slots) if slots <= 128 else st.nothing()
    count = draw(st.one_of(full, st.integers(0, min(slots, 40))))
    targets = draw(st.lists(POINTERS, min_size=count, max_size=count))
    return targets, block_bytes, draw(POINTERS)


@pytest.fixture()
def testbed():
    return build_cloud_testbed(seed=13)


@pytest.fixture()
def triples(testbed):
    profile = DeviceProfile.from_device(testbed.controller)
    return find_cross_partition_triples(
        profile, testbed.attacker_ns, testbed.victim_ns
    )


class TestPolyglot:
    def test_indirect_block_layout(self):
        block = craft_indirect_block([100, 200], block_bytes=512)
        pointers = read_indirect_block(block)
        assert pointers[0] == 100
        assert pointers[1] == 200
        assert all(p == 0 for p in pointers[2:])
        assert len(block) == 512

    def test_fill_lba(self):
        block = craft_indirect_block([7], block_bytes=64, fill_lba=3)
        assert read_indirect_block(block) == [7] + [3] * 15

    def test_too_many_targets(self):
        with pytest.raises(AttackError):
            craft_indirect_block(list(range(200)), block_bytes=512)

    @settings(max_examples=150, deadline=None)
    @given(forged=forged_blocks())
    def test_matches_the_packed_list(self, forged):
        """Packing the targets and repeating the fill's four bytes gives
        the whole list's bytes, for a full block (no fill slot) too."""
        targets, block_bytes, fill = forged
        assert craft_indirect_block(targets, block_bytes, fill) == (
            craft_indirect_block_from_list(targets, block_bytes, fill)
        )

    def test_full_block_has_no_fill(self):
        targets = list(range(100, 228))
        block = craft_indirect_block(targets, block_bytes=512, fill_lba=-1)
        assert read_indirect_block(block) == targets

    def test_polyglot_roundtrip(self):
        block = craft_polyglot_block("chmod u+s /bin/sh", block_bytes=512)
        assert parse_polyglot(block) == "chmod u+s /bin/sh"

    def test_polyglot_rejects_normal_data(self):
        assert parse_polyglot(b"\x7fELF" + b"\x00" * 100) is None

    def test_polyglot_with_pointer_tail(self):
        block = craft_polyglot_block("id", block_bytes=512, target_lbas=[42, 43])
        assert parse_polyglot(block) == "id"
        (last,) = struct.unpack("<I", block[-4:])
        assert last == 43

    def test_polyglot_payload_too_long(self):
        with pytest.raises(AttackError):
            craft_polyglot_block("x" * 1000, block_bytes=512)

    def test_is_malicious_block(self):
        block = craft_indirect_block([55], block_bytes=64)
        assert is_malicious_block(block, known_targets=[55, 77])
        assert not is_malicious_block(block, known_targets=[77])


class TestSpreadTargets:
    def test_round_robin_coverage(self):
        groups = spread_targets([1, 2, 3, 4, 5], groups=5, per_group=2)
        flat = [x for group in groups for x in group]
        assert set(flat) == {1, 2, 3, 4, 5}

    def test_empty_candidates_rejected(self):
        with pytest.raises(AttackError):
            spread_targets([], 2, 1)


class TestHammerPlans:
    def test_double_sided_shape(self, testbed, triples):
        plan = double_sided_plan(triples[0], testbed.attacker_ns)
        assert plan.name == "double-sided"
        assert len(plan.lbas) == 2
        assert all(0 <= lba < testbed.attacker_ns.num_lbas for lba in plan.lbas)

    def test_many_sided_interleaves(self, testbed, triples):
        plan = many_sided_plan(triples[:3], testbed.attacker_ns)
        assert len(plan.lbas) == 6
        assert len(plan.triples) == 3

    def test_many_sided_needs_triples(self, testbed):
        with pytest.raises(ConfigError):
            many_sided_plan([], testbed.attacker_ns)

    def test_single_sided_picks_conflict(self, testbed, triples):
        plan = single_sided_plan(triples[0], testbed.attacker_ns)
        assert len(plan.lbas) == 2
        assert plan.lbas[0] != plan.lbas[1]

    def test_plan_execution_hammers(self, testbed, triples):
        plan = double_sided_plan(triples[0], testbed.attacker_ns)
        result = plan.execute(testbed.attacker_vm, total_ios=100_000)
        assert result.ios > 0
        assert result.activation_rate > 0

    def test_foreign_lba_rejected(self, testbed, triples):
        triple = triples[0]
        bad = type(triple)(
            bank=triple.bank,
            victim_row=triple.victim_row,
            left_lbas=[0],  # device LBA 0 belongs to the victim partition
            right_lbas=triple.right_lbas,
            victim_lbas=triple.victim_lbas,
        )
        with pytest.raises(ConfigError):
            double_sided_plan(bad, testbed.attacker_ns)


class TestSpray:
    def test_victim_spray_shape(self, testbed):
        records = spray_victim_filesystem(
            testbed.victim_fs,
            ATTACKER_PROCESS,
            count=8,
            target_fs_blocks=[100, 101, 102],
        )
        assert len(records) == 8
        fs = testbed.victim_fs
        for record in records:
            layout = fs.file_layout(record.path, ATTACKER_PROCESS)
            assert layout.direct == []  # the 12-block hole
            assert layout.indirect_block == record.indirect_fs_block
            assert layout.data_blocks == [record.data_fs_block]
            assert record.targets[0] in (100, 101, 102)

    def test_spray_content_is_forged_pointers(self, testbed):
        records = spray_victim_filesystem(
            testbed.victim_fs, ATTACKER_PROCESS, count=2, target_fs_blocks=[42]
        )
        pointers = read_indirect_block(records[0].original_content)
        assert pointers[0] == 42

    def test_unspray_removes_files(self, testbed):
        records = spray_victim_filesystem(
            testbed.victim_fs, ATTACKER_PROCESS, count=4, target_fs_blocks=[1]
        )
        removed = unspray_victim_filesystem(
            testbed.victim_fs, ATTACKER_PROCESS, records
        )
        assert removed == 4
        assert not any(
            testbed.victim_fs.exists(r.path, ATTACKER_PROCESS) for r in records
        )

    def test_attacker_partition_spray(self, testbed):
        device = testbed.attacker_vm.blockdev
        payloads = spray_attacker_partition(device, range(16), target_fs_blocks=[9])
        assert len(payloads) == 16
        assert device.read_block(3) == payloads[3]
        assert read_indirect_block(payloads[3])[0] == 9

    def test_wide_spray_extends_size(self, testbed):
        fs = testbed.victim_fs
        records = spray_victim_filesystem(
            fs, ATTACKER_PROCESS, count=2, target_fs_blocks=list(range(100, 140)),
            wide=True,
        )
        stat = fs.stat(records[0].path, ATTACKER_PROCESS)
        pointers_per_block = fs.block_bytes // 4
        assert stat.size >= (12 + pointers_per_block - 1) * fs.block_bytes
        assert len(records[0].targets) > 1


class TestScan:
    def test_clean_scan_is_quiet(self, testbed):
        records = spray_victim_filesystem(
            testbed.victim_fs, ATTACKER_PROCESS, count=6, target_fs_blocks=[55]
        )
        assert scan_sprayed_files(testbed.victim_fs, ATTACKER_PROCESS, records) == []

    def test_scan_detects_redirection(self, testbed):
        """Manually corrupt one sprayed file's indirect-block mapping the
        way a flip would, and check the scanner catches it."""
        fs = testbed.victim_fs
        secret_block = fs.file_layout(
            testbed.secret_paths["ssh-key"], __import__("repro.ext4", fromlist=["ROOT"]).ROOT
        ).data_blocks[0]
        records = spray_victim_filesystem(
            fs, ATTACKER_PROCESS, count=4, target_fs_blocks=[secret_block]
        )
        victim_record = records[2]
        # Redirect the indirect block's L2P entry onto the data block of
        # another sprayed file (a malicious block), as a useful flip does.
        provider = records[0]
        device_lba_i = testbed.victim_fs_block_to_device_lba(
            victim_record.indirect_fs_block
        )
        provider_ppa = testbed.ftl.l2p.lookup(
            testbed.victim_fs_block_to_device_lba(provider.data_fs_block)
        )
        testbed.ftl.l2p.update(device_lba_i, provider_ppa)

        hits = scan_sprayed_files(fs, ATTACKER_PROCESS, records)
        assert len(hits) == 1
        assert hits[0].record.path == victim_record.path
        assert hits[0].usable
        # And the leak is the planted SSH key.
        assert b"BEGIN OPENSSH PRIVATE KEY" in hits[0].leaked
