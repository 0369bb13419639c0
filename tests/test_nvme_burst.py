"""Tests for the NVMe read-burst hammer path — the attack's hot loop."""

import pytest

from repro.dram import CacheMode
from repro.nvme import DeviceTimingModel, IopsRateLimiter
from repro.units import us

from tests.conftest import FRAGILE, build_stack


def lbas_for_rows(controller, dram, rows, bank=0):
    """Find one LBA per requested DRAM row (linear L2P layout)."""
    ftl = controller.ftl
    out = []
    for row in rows:
        for lba in range(ftl.num_lbas):
            coords = dram.mapping.locate(ftl.l2p.entry_address(lba))
            if coords.bank == bank and coords.row == row:
                out.append(lba)
                break
        else:
            raise AssertionError("no LBA maps to row %d" % row)
    return out


class TestBurstMechanics:
    def test_zero_repeats(self):
        controller, _, _ = build_stack()
        controller.create_namespace(1, 0, 64)
        result = controller.read_burst(1, [0, 1], repeats=0)
        assert result.ios == 0
        assert result.flip_count == 0

    def test_io_accounting(self):
        controller, _, _ = build_stack(num_lbas=1024)
        controller.create_namespace(1, 0, 1024)
        result = controller.read_burst(1, [0, 300], repeats=100)
        assert result.ios == 200
        assert result.duration > 0
        assert result.io_rate > 0

    def test_same_row_lbas_do_not_hammer(self):
        """Adjacent LBAs share a DRAM row: row-buffer hits, no activations."""
        controller, _, _ = build_stack(profile=FRAGILE)
        controller.create_namespace(1, 0, 64)
        result = controller.read_burst(1, [0, 1], repeats=50_000)
        assert result.activation_rate == 0.0
        assert result.flip_count == 0

    def test_cross_row_lbas_hammer(self):
        """LBAs whose entries live in different rows alternate activations
        — and at device speed, that flips bits in the row between them."""
        controller, dram, _ = build_stack(profile=FRAGILE, num_lbas=1024)
        controller.create_namespace(1, 0, 1024)
        aggressors = lbas_for_rows(controller, dram, rows=[0, 2])
        result = controller.read_burst(1, aggressors, repeats=200_000)
        assert result.activation_rate > 0
        assert result.pattern_rows == [(0, 0), (0, 2)]
        victim_flips = [f for f in result.flips if f.row == 1]
        assert victim_flips, "row 1 sits between the aggressors and must flip"

    def test_host_cap_lowers_rate(self):
        controller, _, _ = build_stack(num_lbas=1024)
        controller.create_namespace(1, 0, 1024)
        fast = controller.read_burst(1, [0, 300], repeats=10)
        controller2, _, _ = build_stack(num_lbas=1024)
        controller2.create_namespace(1, 0, 1024)
        slow = controller2.read_burst(1, [0, 300], repeats=10, host_iops_cap=1000)
        assert slow.io_rate == pytest.approx(1000)
        assert fast.io_rate > slow.io_rate

    def test_rate_limiter_caps_burst(self):
        controller, _, _ = build_stack(
            num_lbas=1024, rate_limiter=IopsRateLimiter(max_iops=500)
        )
        controller.create_namespace(1, 0, 1024)
        result = controller.read_burst(1, [0, 300], repeats=10)
        assert result.io_rate <= 500

    def test_unmapped_entries_burst_faster(self):
        controller, _, _ = build_stack(num_lbas=1024)
        controller.create_namespace(1, 0, 1024)
        cold = controller.read_burst(1, [0, 300], repeats=10)
        controller.write(1, 0, b"\x01" * 512)
        controller.write(1, 300, b"\x01" * 512)
        warm = controller.read_burst(1, [0, 300], repeats=10)
        assert cold.io_rate > warm.io_rate


class TestBurstTiming:
    def test_reassigned_timing_prices_the_burst(self):
        """A burst is priced with the timing in force when it runs: after
        ``controller.timing`` is reassigned, it advances the clock exactly
        as on a stack built with that timing."""
        timing = DeviceTimingModel(base_command_time=us(4))
        stacks = []
        for built_with in (None, timing):
            controller, _, _ = build_stack(timing=built_with)
            controller.create_namespace(1, 0, 192)
            controller.write(1, 0, b"\x01" * 512)
            controller.write(1, 100, b"\x01" * 512)
            controller.timing = timing
            controller.clock.advance_to(1.0)
            stacks.append((controller, controller.read_burst(1, [0, 100], 10)))
        (reassigned, late), (built, fresh) = stacks
        assert late.io_rate == fresh.io_rate
        assert late.duration == fresh.duration
        assert reassigned.clock.now == built.clock.now


class TestBurstAmplification:
    def test_amplification_scales_activation_rate(self):
        """§4.1: 5 hammers per I/O — activation rate is 5x the I/O rate."""
        timing = DeviceTimingModel(hammer_amplification=5)
        controller, dram, _ = build_stack(profile=FRAGILE, num_lbas=1024, timing=timing)
        controller.create_namespace(1, 0, 1024)
        aggressors = lbas_for_rows(controller, dram, rows=[0, 2])
        result = controller.read_burst(1, aggressors, repeats=1000)
        assert result.activation_rate == pytest.approx(result.io_rate * 5)


class TestBurstMatchesExactPath:
    def test_activation_counts_agree(self):
        """Semantics check: the closed-form burst accounts the same DRAM
        activations as a per-command loop (uncached, amplification 1)."""
        repeats = 200

        loop_controller, loop_dram, _ = build_stack(num_lbas=1024)
        loop_controller.create_namespace(1, 0, 1024)
        aggressors = lbas_for_rows(loop_controller, loop_dram, rows=[0, 2])
        for _ in range(repeats):
            for lba in aggressors:
                loop_controller.read(1, lba)
        loop_acts = loop_dram.metrics.counter("activations").value

        burst_controller, burst_dram, _ = build_stack(num_lbas=1024)
        burst_controller.create_namespace(1, 0, 1024)
        burst_controller.read_burst(1, aggressors, repeats=repeats)
        burst_acts = burst_dram.metrics.counter("activations").value

        # The burst performs one extra real lookup per LBA to probe
        # mapped-ness; allow that slack.
        assert abs(loop_acts - burst_acts) <= len(aggressors) + 1


class TestCacheAbsorption:
    def test_lru_cache_absorbs_hammer(self):
        """§5: an enabled FTL CPU cache serves the hot entries, so the
        burst produces no DRAM activations and no flips."""
        controller, dram, _ = build_stack(
            profile=FRAGILE, num_lbas=1024, cache_mode=CacheMode.LRU
        )
        controller.create_namespace(1, 0, 1024)
        aggressors = lbas_for_rows(controller, dram, rows=[0, 2])
        result = controller.read_burst(1, aggressors, repeats=200_000)
        assert result.cache_absorbed
        assert result.activation_rate == 0.0
        assert result.flip_count == 0

    def test_invalidate_mode_still_hammers(self):
        """The paper's modified SPDK invalidates per access: the cache is
        present but useless, hammering proceeds."""
        controller, dram, _ = build_stack(
            profile=FRAGILE,
            num_lbas=1024,
            cache_mode=CacheMode.INVALIDATE_EACH_ACCESS,
        )
        controller.create_namespace(1, 0, 1024)
        aggressors = lbas_for_rows(controller, dram, rows=[0, 2])
        result = controller.read_burst(1, aggressors, repeats=200_000)
        assert not result.cache_absorbed
        assert result.flip_count > 0
