"""Tests for wear-out handling: bad-block retirement in allocation and GC.

Note on shape: with uniform churn the greedy collector levels wear almost
perfectly, so blocks reach their endurance together — retirement arrives
as a cliff followed by device death, not a gentle slope.  The tests assert
the mechanics (retired blocks leave rotation, the device keeps data intact
until the cliff, death degrades it to read-only with every acknowledged
write still readable) rather than a gradual curve.
"""

import pytest

from repro.dram import (
    CacheMode,
    DramGeometry,
    DramModule,
    FtlCpuCache,
    GenerationProfile,
    VulnerabilityModel,
)
from repro.errors import FlashEraseError, FtlReadOnlyError
from repro.flash import FlashArray, FlashGeometry
from repro.ftl import FtlConfig, PageMappingFtl, wear_report
from repro.sim import SimClock

GRANITE = GenerationProfile(name="granite", year=2021, ddr_type="T", min_rate_kps=1e9)


def make_ftl(endurance=6, blocks=24, num_lbas=64):
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
        ),
        endurance=endurance,
    )
    ftl = PageMappingFtl(
        flash, FtlCpuCache(dram, CacheMode.NONE), FtlConfig(num_lbas=num_lbas)
    )
    return ftl


def churn(ftl, rounds, lbas=32, acked=None):
    """Overwrite ``lbas`` LBAs ``rounds`` times; ``acked`` collects each
    acknowledged LBA's last data."""
    for round_no in range(rounds):
        for lba in range(lbas):
            data = bytes([round_no % 251]) * 512
            ftl.write(lba, data)
            if acked is not None:
                acked[lba] = data


def churn_to_death(ftl, rounds):
    """Churn until the worn device degrades; check the degraded device
    still serves every acknowledged write and keeps its invariants."""
    acked = {}
    with pytest.raises(FtlReadOnlyError):
        churn(ftl, rounds=rounds, acked=acked)
    assert ftl.read_only
    assert not ftl.gc_active  # degraded, not cut by a power loss
    for lba, data in acked.items():
        assert ftl.read(lba).data == data, "lost LBA %d" % lba
    ftl.check()


class TestRetirementMechanics:
    def test_allocation_skips_pre_worn_block(self):
        """A bad block sitting in the free pool is retired, not opened."""
        ftl = make_ftl(endurance=3)
        # Wear out the block at the head of the free pool directly: two
        # erases succeed, the third crosses the endurance limit and fails.
        victim = ftl.free_blocks[0]
        for _ in range(2):
            ftl.flash.erase_block(victim)
        with pytest.raises(FlashEraseError):
            ftl.flash.erase_block(victim)
        assert ftl.flash.block_is_bad(victim)
        ftl.write(0, b"x" * 512)
        assert victim in ftl.retired_blocks
        assert ftl._open_block != victim
        assert ftl.read(0).data == b"x" * 512

    def test_gc_retires_block_worn_by_its_own_erase(self):
        ftl = make_ftl(endurance=2)
        # Every block's *second* erase marks it bad; churn until GC has
        # erased something twice.
        churn_to_death(ftl, rounds=400)
        assert ftl.retired_blocks
        retired = set(ftl.retired_blocks)
        assert not retired & set(ftl.free_blocks)

    def test_retired_counter_tracks(self):
        ftl = make_ftl(endurance=2)
        churn_to_death(ftl, rounds=400)
        assert ftl.metrics.counter("retired_blocks").value == len(
            ftl.retired_blocks
        )


class TestLifecycle:
    def test_data_intact_until_the_cliff(self):
        """Below the endurance cliff everything behaves normally."""
        ftl = make_ftl(endurance=8)
        churn(ftl, rounds=30)
        assert ftl.retired_blocks == []
        for lba in range(32):
            assert ftl.read(lba).data == bytes([29 % 251]) * 512

    def test_device_death_is_a_clean_error(self):
        ftl = make_ftl(endurance=2, blocks=16, num_lbas=64)
        churn_to_death(ftl, rounds=200)

    def test_recovery_keeps_a_full_device_read_only(self):
        """A device that degraded for want of a free block is still full
        after a power cycle: recovery keeps it read-only, so the next
        write is refused without a second transition."""
        ftl = make_ftl(endurance=2, blocks=16, num_lbas=64)
        churn_to_death(ftl, rounds=200)
        ftl.crash()
        assert ftl.recover().read_only
        assert ftl.read_only
        with pytest.raises(FtlReadOnlyError, match="room to write"):
            ftl.write(0, b"q" * 512)
        assert ftl.metrics.counter("read_only_transitions").value == 1
        ftl.check()

    def test_mass_retirement_at_death(self):
        """Uniform wear means the fleet dies together — the retired list
        holds a large share of the device at the point of failure."""
        ftl = make_ftl(endurance=6)
        churn_to_death(ftl, rounds=200)
        assert len(ftl.retired_blocks) >= 8
        assert wear_report(ftl).bad_blocks >= len(ftl.retired_blocks)

    def test_no_retirement_with_high_endurance(self):
        ftl = make_ftl(endurance=10_000)
        churn(ftl, rounds=40)
        assert ftl.retired_blocks == []
        assert ftl.metrics.counter("retired_blocks").value == 0
