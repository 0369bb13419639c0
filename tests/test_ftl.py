"""Tests for the page-mapping FTL and garbage collection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (
    CacheMode,
    DramGeometry,
    DramModule,
    FtlCpuCache,
    GenerationProfile,
    VulnerabilityModel,
)
from repro.errors import ConfigError
from repro.flash import FlashArray, FlashGeometry
from repro.ftl import (
    FtlConfig,
    GreedyGarbageCollector,
    PageMappingFtl,
    WearAwareGarbageCollector,
    wear_report,
)
from repro.sim import SimClock

FLASH_GEO = FlashGeometry(
    channels=1,
    chips_per_channel=1,
    planes_per_chip=1,
    blocks_per_plane=16,
    pages_per_block=8,
    page_bytes=512,
)
DRAM_GEO = DramGeometry.small(rows_per_bank=256, row_bytes=1024)
GRANITE = GenerationProfile(name="granite", year=2021, ddr_type="T", min_rate_kps=1e9)


def make_ftl(num_lbas=64, layout="linear", collector=None, cache_mode=CacheMode.NONE):
    clock = SimClock()
    vuln = VulnerabilityModel(GRANITE, DRAM_GEO, seed=1)
    dram = DramModule(DRAM_GEO, vuln, clock)
    memory = FtlCpuCache(dram, cache_mode)
    flash = FlashArray(FLASH_GEO)
    config = FtlConfig(num_lbas=num_lbas, l2p_layout=layout)
    return PageMappingFtl(flash, memory, config, collector=collector), dram


def page(fill, size=512):
    return bytes([fill % 256]) * size


class TestBasicIo:
    def test_unwritten_reads_zeros(self):
        ftl, _ = make_ftl()
        result = ftl.read(0)
        assert result.data == b"\x00" * 512
        assert not result.mapped
        assert result.flash_time == 0.0

    def test_write_read_roundtrip(self):
        ftl, _ = make_ftl()
        ftl.write(5, page(0xAB))
        result = ftl.read(5)
        assert result.data == page(0xAB)
        assert result.mapped
        assert result.flash_time > 0

    def test_overwrite_returns_new_data(self):
        ftl, _ = make_ftl()
        ftl.write(5, page(1))
        ftl.write(5, page(2))
        assert ftl.read(5).data == page(2)

    def test_overwrite_goes_out_of_place(self):
        ftl, _ = make_ftl()
        first = ftl.write(5, page(1)).ppa
        second = ftl.write(5, page(2)).ppa
        assert first != second

    def test_wrong_payload_size_rejected(self):
        ftl, _ = make_ftl()
        with pytest.raises(ConfigError):
            ftl.write(0, b"short")

    def test_lba_bounds(self):
        ftl, _ = make_ftl(num_lbas=64)
        with pytest.raises(ConfigError):
            ftl.read(64)
        with pytest.raises(ConfigError):
            ftl.write(64, page(0))

    def test_trim_unmaps(self):
        ftl, _ = make_ftl()
        ftl.write(5, page(1))
        ftl.trim(5)
        result = ftl.read(5)
        assert not result.mapped
        assert result.data == b"\x00" * 512

    def test_is_mapped(self):
        ftl, _ = make_ftl()
        assert not ftl.is_mapped(3)
        ftl.write(3, page(1))
        assert ftl.is_mapped(3)

    def test_sequential_lbas_fill_sequential_pages(self):
        ftl, _ = make_ftl()
        ppas = [ftl.write(lba, page(lba)).ppa for lba in range(8)]
        assert ppas == list(range(8))


class TestGarbageCollection:
    def test_gc_reclaims_space(self):
        """Overwrite the same small LBA set far beyond raw capacity: GC
        must keep up and data stays intact."""
        ftl, _ = make_ftl(num_lbas=64)
        for round_no in range(8):
            for lba in range(32):
                ftl.write(lba, page(lba + round_no))
        for lba in range(32):
            assert ftl.read(lba).data == page(lba + 7)
        assert ftl.gc_stats.collections > 0

    def test_write_amplification_reported(self):
        ftl, _ = make_ftl(num_lbas=64)
        for round_no in range(8):
            for lba in range(32):
                ftl.write(lba, page(round_no))
        assert ftl.write_amplification >= 1.0

    def test_gc_result_attached_to_write(self):
        ftl, _ = make_ftl(num_lbas=64)
        gc_seen = False
        for round_no in range(10):
            for lba in range(32):
                result = ftl.write(lba, page(round_no))
                if result.gc is not None and result.gc.erased_blocks:
                    gc_seen = True
        assert gc_seen

    def test_capacity_error_when_logical_space_too_big(self):
        with pytest.raises(ConfigError):
            make_ftl(num_lbas=FLASH_GEO.total_pages)

    def test_wear_aware_spreads_erases(self):
        ftl, _ = make_ftl(num_lbas=64, collector=WearAwareGarbageCollector())
        for round_no in range(20):
            for lba in range(32):
                ftl.write(lba, page(round_no))
        report = wear_report(ftl)
        assert report.max_erase > 0
        assert report.wear_spread <= report.max_erase

    def test_greedy_picks_least_valid(self):
        ftl, _ = make_ftl(num_lbas=64)
        # Fill two blocks; invalidate most of the first.
        for lba in range(16):
            ftl.write(lba, page(lba))
        for lba in range(7):
            ftl.write(lba, page(lba + 100))  # re-map away from block 0
        candidates = ftl.sealed_blocks()
        victim = GreedyGarbageCollector().select_victim(ftl, candidates)
        assert ftl.valid_count[victim] == min(
            ftl.valid_count[b] for b in candidates
        )


class TestHashedLayout:
    def test_roundtrip_through_hashed_table(self):
        ftl, _ = make_ftl(layout="hashed")
        for lba in range(16):
            ftl.write(lba, page(lba))
        for lba in range(16):
            assert ftl.read(lba).data == page(lba)

    def test_gc_with_hashed_layout(self):
        ftl, _ = make_ftl(num_lbas=64, layout="hashed")
        for round_no in range(8):
            for lba in range(32):
                ftl.write(lba, page(lba + round_no))
        for lba in range(32):
            assert ftl.read(lba).data == page(lba + 7)


class TestCorruptedMapping:
    """Behaviour under L2P corruption — what the attack produces."""

    def corrupt_entry(self, ftl, dram, lba, new_ppa):
        import struct

        addr = ftl.l2p.entry_address(lba)
        coords = dram.mapping.locate(addr)
        bank = dram.banks[coords.bank]
        import numpy as np

        bank.write(coords.row, coords.column, np.frombuffer(struct.pack("<I", new_ppa), dtype=np.uint8))

    def test_redirected_read_leaks_other_lba(self):
        ftl, dram = make_ftl()
        victim_ppa = ftl.write(1, page(0x5E)).ppa  # "secret"
        ftl.write(2, page(0x00))  # attacker file
        self.corrupt_entry(ftl, dram, 2, victim_ppa)
        # LBA 2 now reads LBA 1's physical page: the information leak.
        assert ftl.read(2).data == page(0x5E)

    def test_out_of_range_flip_reads_erased_pattern(self):
        ftl, dram = make_ftl()
        ftl.write(2, page(0x00))
        self.corrupt_entry(ftl, dram, 2, FLASH_GEO.total_pages + 5)
        result = ftl.read(2)
        assert result.out_of_range
        assert result.data == b"\xff" * 512

    def test_gc_drops_corrupted_mapping_instead_of_healing(self):
        ftl, dram = make_ftl(num_lbas=64)
        victim_ppa = ftl.write(1, page(0x5E)).ppa
        for lba in range(2, 34):
            ftl.write(lba, page(lba))
        self.corrupt_entry(ftl, dram, 2, victim_ppa)
        # Drive GC hard; the corrupted entry for LBA 2 must survive (GC's
        # validation drops the stale page rather than restoring the map).
        for round_no in range(6):
            for lba in range(3, 34):
                ftl.write(lba, page(lba + round_no))
        assert ftl.read(2).data == page(0x5E) or ftl.read(2).data == ftl.read(1).data


class TestConfigValidation:
    def test_overprovision_bounds(self):
        with pytest.raises(ConfigError):
            FtlConfig(overprovision=1.0)

    def test_watermark_ordering(self):
        with pytest.raises(ConfigError):
            FtlConfig(gc_low_watermark=5, gc_high_watermark=2)

    def test_unknown_layout(self):
        with pytest.raises(ConfigError):
            FtlConfig(l2p_layout="btree")


class TestPropertyReadYourWrites:
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=31),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=1,
            max_size=120,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_last_write_wins(self, ops):
        """Property: after any write sequence, every LBA reads back its
        most recent payload (GC included)."""
        ftl, _ = make_ftl(num_lbas=64)
        expected = {}
        for lba, fill in ops:
            ftl.write(lba, page(fill))
            expected[lba] = fill
        for lba, fill in expected.items():
            assert ftl.read(lba).data == page(fill)
