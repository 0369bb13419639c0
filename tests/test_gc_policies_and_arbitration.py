"""Tests for GC policy variants and size parsing."""

import pytest

from repro.ftl import CostBenefitGarbageCollector, FtlConfig, PageMappingFtl
from repro.dram import (
    CacheMode,
    DramGeometry,
    DramModule,
    FtlCpuCache,
    GenerationProfile,
    VulnerabilityModel,
)
from repro.flash import FlashArray, FlashGeometry
from repro.sim import SimClock
from repro.units import GIB, KIB, MIB, parse_size

GRANITE = GenerationProfile(name="granite", year=2021, ddr_type="T", min_rate_kps=1e9)


def make_ftl(collector=None, num_lbas=64, blocks=24):
    clock = SimClock()
    dram_geometry = DramGeometry.small(rows_per_bank=256, row_bytes=1024)
    dram = DramModule(
        dram_geometry, VulnerabilityModel(GRANITE, dram_geometry, seed=1), clock
    )
    flash = FlashArray(
        FlashGeometry(
            channels=1,
            chips_per_channel=1,
            planes_per_chip=1,
            blocks_per_plane=blocks,
            pages_per_block=8,
            page_bytes=512,
        )
    )
    return PageMappingFtl(
        flash,
        FtlCpuCache(dram, CacheMode.NONE),
        FtlConfig(num_lbas=num_lbas),
        collector=collector,
    )


class TestCostBenefitGc:
    def test_data_intact_under_churn(self):
        ftl = make_ftl(collector=CostBenefitGarbageCollector())
        for round_no in range(10):
            for lba in range(32):
                ftl.write(lba, bytes([round_no]) * 512)
        for lba in range(32):
            assert ftl.read(lba).data == bytes([9]) * 512
        assert ftl.gc_stats.collections > 0

    def test_prefers_old_stale_blocks(self):
        """With equal utilization, the older block scores higher."""
        ftl = make_ftl(collector=CostBenefitGarbageCollector())
        # Fill two blocks at different times, invalidate half of each.
        for lba in range(16):
            ftl.write(lba, b"a" * 512)  # blocks 0 and 1, early
        for lba in range(16, 32):
            ftl.write(lba, b"b" * 512)  # blocks 2 and 3, later
        for lba in list(range(0, 8)) + list(range(16, 24)):
            ftl.write(lba, b"c" * 512)  # invalidate half of each pair
        collector = CostBenefitGarbageCollector()
        candidates = [b for b in ftl.sealed_blocks() if ftl.valid_count[b] > 0]
        victim = collector.select_victim(ftl, candidates)
        oldest = min(candidates, key=lambda b: ftl.block_mtime.get(b, 0))
        assert victim == oldest

    def test_fully_stale_block_wins_outright(self):
        ftl = make_ftl(collector=CostBenefitGarbageCollector())
        for lba in range(8):
            ftl.write(lba, b"a" * 512)  # block 0
        for lba in range(8, 16):
            ftl.write(lba, b"b" * 512)  # block 1
        for lba in range(8):
            ftl.write(lba, b"c" * 512)  # block 0 fully stale now
        collector = CostBenefitGarbageCollector()
        assert ftl.valid_count[0] == 0
        assert collector.select_victim(ftl, ftl.sealed_blocks()) == 0

    def test_write_sequence_advances(self):
        ftl = make_ftl()
        assert ftl.write_sequence == 0
        ftl.write(0, b"x" * 512)
        ftl.write(1, b"y" * 512)
        assert ftl.write_sequence == 2
        assert ftl.block_mtime[0] == 2


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4096", 4096),
            ("64KiB", 64 * KIB),
            ("8 MiB", 8 * MIB),
            ("1GiB", GIB),
            ("1.5MiB", int(1.5 * MIB)),
            ("100B", 100),
            ("2gib", 2 * GIB),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_size("lots")
