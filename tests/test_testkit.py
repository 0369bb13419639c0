"""Unit tests for the testkit: reference models, invariant layer, traces,
and the differential oracle's flip-exemption logic."""

import pytest

from repro.dram import DramAddress, FlipEvent
from repro.ext4 import Credentials, Ext4Fs, ROOT
from repro.host.blockdev import BlockDevice
from repro.testkit import (
    DifferentialOracle,
    DisturbanceAccumulator,
    InvariantViolation,
    ShadowL2p,
    ShadowStore,
    Trace,
    check_dram,
    check_fs,
    check_ftl,
    flip_affected_lbas,
    generate_trace,
)
from repro.testkit.oracle import NSID, build_stack_for
from repro.testkit.trace import Op, payload_for

from tests.conftest import FRAGILE, build_stack

ALICE = Credentials(uid=1000, gid=1000)


class TestShadowModels:
    def test_shadow_l2p_mirrors_mapping_semantics(self):
        shadow = ShadowL2p(16)
        assert shadow.lookup(3) is None
        shadow.update(3, 40)
        shadow.update(5, 41)
        assert shadow.lookup(3) == 40
        assert shadow.mapped_lbas() == [3, 5]
        shadow.clear(3)
        shadow.clear(3)  # double-clear is a no-op, like trim
        assert shadow.lookup(3) is None
        with pytest.raises(ValueError):
            shadow.update(16, 0)

    def test_shadow_store_read_write_trim(self):
        store = ShadowStore(8, page_bytes=16)
        assert store.read(0) is None
        store.write(0, b"\xaa" * 16)
        assert store.read(0) == b"\xaa" * 16
        store.trim(0)
        assert store.read(0) is None
        with pytest.raises(ValueError):
            store.write(1, b"short")

    def test_accumulator_open_row_collapse(self):
        acc = DisturbanceAccumulator()
        assert acc.access(0, 5)
        assert not acc.access(0, 5)  # row-buffer hit
        assert acc.access(0, 6)
        assert acc.access(1, 5)  # other bank has its own buffer
        assert acc.access(0, 5)  # bank 0's buffer now holds row 6
        assert acc.total == 4
        assert acc.counts[(0, 5)] == 2

    def test_accumulator_run_and_bulk(self):
        acc = DisturbanceAccumulator()
        activated = acc.access_run([(0, 1), (0, 1), (0, 2), (0, 1)])
        assert activated == 3
        acc.bulk(0, 9, 100)
        assert acc.total == 103
        assert (0, 9) in acc.touched_rows()
        with pytest.raises(ValueError):
            acc.bulk(0, 9, -1)


class TestFtlInvariants:
    def test_healthy_stack_passes(self):
        controller, dram, ftl = build_stack()
        controller.create_namespace(1, 0, 192)
        for lba in range(0, 64):
            controller.write(1, lba, bytes([lba]) * ftl.page_bytes)
        for lba in range(0, 16):
            controller.trim(1, lba)
        ftl.check()
        dram.check()

    def test_lost_live_page_detected(self):
        _c, _d, ftl = build_stack()
        ftl.write(7, b"\x07" * ftl.page_bytes)
        ftl.l2p.clear(7)  # mapping gone, reverse entry left behind
        with pytest.raises(InvariantViolation, match="live page was lost"):
            ftl.check()

    def test_valid_count_drift_detected(self):
        _c, _d, ftl = build_stack()
        ftl.write(3, b"\x03" * ftl.page_bytes)
        ftl.valid_count[0] += 1
        with pytest.raises(InvariantViolation, match="valid_count"):
            ftl.check()

    def test_reverse_map_disagreement_detected(self):
        _c, _d, ftl = build_stack()
        ftl.write(3, b"\x03" * ftl.page_bytes)
        ppa = ftl.l2p.lookup(3)
        ftl.reverse[ppa] = 4
        with pytest.raises(InvariantViolation):
            ftl.check()

    def test_exempt_lbas_forgive_corrupted_entries(self):
        _c, _d, ftl = build_stack()
        ftl.write(3, b"\x03" * ftl.page_bytes)
        ftl.l2p.update(3, ftl.l2p.lookup(3) + 1)  # "flipped" entry
        with pytest.raises(InvariantViolation):
            ftl.check()
        ftl.check(exempt_lbas=[3])

    def test_block_in_no_pool_detected(self):
        _c, _d, ftl = build_stack()
        for lba in range(20):
            ftl.write(lba, bytes([lba]) * ftl.page_bytes)
        ftl.check()
        ftl.free_blocks.pop()  # the block now sits in no pool
        with pytest.raises(InvariantViolation, match="sit in no pool"):
            ftl.check()

    def test_block_in_two_pools_detected(self):
        _c, _d, ftl = build_stack()
        for lba in range(20):
            ftl.write(lba, bytes([lba]) * ftl.page_bytes)
        ftl._sealed.append(ftl._sealed[0])
        with pytest.raises(InvariantViolation, match="again in the sealed pool"):
            ftl.check()


class TestDramInvariants:
    def test_tampered_counts_detected(self):
        _c, dram, _f = build_stack()
        dram.banks[0].acts[5] = -1
        with pytest.raises(InvariantViolation, match="negative"):
            dram.check()

    def test_unrecorded_flip_detected(self):
        _c, dram, _f = build_stack()
        dram.flips.append(
            FlipEvent(
                bank=0, row=1, byte_offset=0, bit=0, flips_to=1,
                old_byte=0, new_byte=1, time=0.0, in_check_region=False,
            )
        )
        with pytest.raises(InvariantViolation, match="flips counter"):
            dram.check()

    def test_mislabelled_check_region_detected(self):
        _c, dram, _f = build_stack()
        dram.flips.append(
            FlipEvent(
                bank=0, row=1, byte_offset=0, bit=0, flips_to=1,
                old_byte=0, new_byte=1, time=0.0, in_check_region=True,
            )
        )
        dram.metrics.counter("flips").add()
        with pytest.raises(InvariantViolation, match="in_check_region"):
            dram.check()

    @staticmethod
    def charged_victim():
        """A FRAGILE module whose bank-0 row 100 holds every weak cell in
        its charged state, so each one flips."""
        _c, dram, _f = build_stack(profile=FRAGILE)
        content = bytearray(dram.geometry.row_bytes)
        for cell in dram.vulnerability.row_vulnerability(0, 100).cells:
            content[cell.byte_offset] |= (1 - cell.flips_to) << cell.bit
        dram.write(dram.mapping.address_of(DramAddress(0, 100, 0)), bytes(content))
        return dram

    def test_bit_restored_behind_a_flip_mark_detected(self):
        dram = self.charged_victim()
        dram.activate_burst([(0, 99), (0, 101)] * 200)
        flip = dram.flips[0]
        dram.check()
        # Restore the flipped bit without a write: the victim's flip mark
        # still says its cell was applied.
        dram.banks[flip.bank].data_rows[flip.row][flip.byte_offset] = flip.old_byte
        with pytest.raises(InvariantViolation, match="flip mark"):
            dram.check()

    def test_stale_evaluation_bound_detected(self):
        dram = self.charged_victim()
        dram.activate_burst([(0, 99), (0, 101)])
        bank = dram.banks[0]
        assert bank.flip_bounds[100] > 2
        dram.check()
        # A bound the victim's disturbance has outgrown: the stream skips
        # every evaluation the hammering below owes.
        bank.flip_bounds[100] = 10 ** 9
        dram.activate_burst([(0, 99), (0, 101)] * 200)
        assert not [flip for flip in dram.flips if flip.row == 100]
        with pytest.raises(InvariantViolation, match="below its evaluation bound"):
            dram.check()

    def test_evaluation_bound_without_its_flip_mark_detected(self):
        _c, dram, _f = build_stack(profile=FRAGILE)
        dram.activate_burst([(0, 99), (0, 101)])
        dram.check()
        dram.banks[0].flip_marks.pop(100)
        with pytest.raises(InvariantViolation, match="flip mark None"):
            dram.check()

    def test_inspect_is_side_effect_free(self):
        _c, dram, ftl = build_stack()
        ftl.write(0, b"\xab" * ftl.page_bytes)
        before = dram.metrics.snapshot()
        raw = dram.inspect(ftl.l2p.entry_address(0), 4)
        assert len(raw) == 4
        assert dram.metrics.snapshot() == before


class TestFsInvariants:
    def make_fs(self):
        controller, dram, ftl = build_stack(num_lbas=1024)
        controller.create_namespace(1, 0, 1024)
        device = BlockDevice(controller, 1)
        fs = Ext4Fs.mkfs(device)
        fs.mkdir("/home", ROOT, mode=0o777)
        fs.create("/home/a.txt", ALICE)
        fs.write("/home/a.txt", b"hello world" * 100, ALICE)
        return fs

    def test_healthy_fs_passes(self):
        fs = self.make_fs()
        fs.check()

    def test_double_claimed_block_detected(self):
        fs = self.make_fs()
        fs.create("/b.txt", ALICE, addressing="indirect")
        fs.write("/b.txt", b"x" * fs.block_bytes, ALICE)
        block_a = fs.file_layout("/home/a.txt", ROOT).data_blocks[0]
        ino_b = fs._resolve("/b.txt", ROOT)
        inode_b = fs._read_inode(ino_b)
        inode_b.block[0] = block_a  # steal another file's block
        fs._write_inode(ino_b, inode_b)
        with pytest.raises(InvariantViolation, match="claimed by both"):
            fs.check()

    def test_unallocated_block_detected(self):
        fs = self.make_fs()
        block = fs.file_layout("/home/a.txt", ROOT).data_blocks[0]
        fs.block_alloc.free(block - fs.sb.data_start)
        with pytest.raises(InvariantViolation, match="bitmap says is free"):
            fs.check()

    def test_block_map_read_through_a_flipped_entry_is_redirected(self):
        """An indirect block read through a flip-affected LBA yields an
        out-of-range pointer: a violation unless that LBA is exempt, and
        then the file is reported as redirected."""
        fs = self.make_fs()
        fs.create("/b.txt", ALICE, addressing="indirect")
        fs.write("/b.txt", b"x" * (13 * fs.block_bytes), ALICE)
        indirect = fs.file_layout("/b.txt", ROOT).indirect_block
        fs.device.write_block(indirect, b"\xff" * fs.block_bytes)
        lba = fs.device.namespace.translate(indirect)
        with pytest.raises(InvariantViolation, match="corrupt block map"):
            check_fs(fs)
        with pytest.raises(InvariantViolation, match="corrupt block map"):
            check_fs(fs, exempt_lbas={lba + 1})
        ino = fs._resolve("/b.txt", ROOT)
        assert check_fs(fs, exempt_lbas={lba}) == [(ino, "/b.txt")]


class TestFlipAttribution:
    def test_l2p_flip_maps_back_to_lba(self):
        # 1024 entries span 4 DRAM rows, so a double-sided hammer on the
        # table region flips entries attributable to specific LBAs.
        trace = Trace(seed=11, num_lbas=1024, layout="linear", profile="fragile")
        controller, dram, ftl = build_stack_for(trace)
        for lba in range(0, 1024, 3):
            controller.write(NSID, lba, b"\x11" * ftl.page_bytes)
        controller.read_burst(NSID, list(range(0, 1024, 64)), repeats=4000)
        assert dram.flips, "fragile profile did not flip under hammering"
        affected = flip_affected_lbas(ftl)
        assert affected, "no flip landed in the L2P table region"
        for lba in affected:
            assert 0 <= lba < ftl.num_lbas
        # The invariant layer accepts the stack once those LBAs are exempt.
        ftl.check(exempt_lbas=affected)

    def test_hashed_layout_attribution_roundtrips(self):
        _c, _d, ftl = build_stack(num_lbas=1024, layout="hashed")
        for lba in (0, 1, 511, 1023):
            slot = ftl.l2p.slot_of(lba)
            assert ftl.l2p.lba_of_slot(slot) == lba


class TestTraces:
    def test_json_roundtrip(self):
        trace = generate_trace(seed=5, num_ops=40)
        again = Trace.from_json(trace.to_json())
        assert again.to_json() == trace.to_json()
        assert [op.to_dict() for op in again.ops] == [
            op.to_dict() for op in trace.ops
        ]

    def test_generation_is_deterministic(self):
        a = generate_trace(seed=9, num_ops=100)
        b = generate_trace(seed=9, num_ops=100)
        assert a.to_json() == b.to_json()
        c = generate_trace(seed=10, num_ops=100)
        assert c.to_json() != a.to_json()

    def test_subset_preserves_recipe(self):
        trace = generate_trace(seed=5, num_ops=10, layout="hashed")
        sub = trace.subset([0, 3, 7])
        assert len(sub) == 3
        assert sub.layout == "hashed"
        assert sub.ops[1].to_dict() == trace.ops[3].to_dict()

    def test_payload_tags_lba(self):
        a = payload_for(5, 0x20, 64)
        b = payload_for(6, 0x20, 64)
        assert len(a) == 64
        assert a != b  # the LBA tag differentiates identical fills

    def test_op_validation(self):
        with pytest.raises(ValueError):
            Op(kind="nonsense", lbas=[1])
        with pytest.raises(ValueError):
            Op(kind="write", lbas=[1, 2], fills=[0])


class TestOracle:
    def test_clean_trace_has_no_divergences(self):
        trace = generate_trace(seed=3, num_ops=80)
        for mode in ("scalar", "batch"):
            oracle = DifferentialOracle(trace, mode=mode, check_every=20)
            assert oracle.run() == []

    def test_oracle_rejects_unknown_mode(self):
        trace = generate_trace(seed=3, num_ops=5)
        with pytest.raises(ValueError):
            DifferentialOracle(trace, mode="warp")

    def test_misdirected_read_is_reported(self):
        trace = Trace(
            seed=1,
            ops=[
                Op(kind="write", lbas=[10], fills=[0x41]),
                Op(kind="write", lbas=[11], fills=[0x42]),
                Op(kind="read", lbas=[10]),
            ],
        )

        def sabotaged(t):
            controller, dram, ftl = build_stack_for(t)
            # Cross-wire LBA 10's entry to LBA 11's page after the fact.
            original = ftl.read

            def misdirect(lba):
                if lba == 10:
                    ftl.l2p.update(10, ftl.l2p.lookup(11))
                return original(lba)

            ftl.read = misdirect
            return controller, dram, ftl

        oracle = DifferentialOracle(trace, stack_factory=sabotaged)
        found = oracle.run()
        assert any(d.kind in ("read-payload", "invariant") for d in found)
