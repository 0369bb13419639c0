"""Fuzz campaigns and the shrinker — the acceptance checks for the
differential oracle subsystem.

The ``fuzz`` marker keeps these out of the fast CI tier; they still run
in seconds (the whole stack is a simulator).
"""

import pytest

import repro.ftl.l2p as l2p_mod
from repro.faults import FaultEvent, FaultPlan
from repro.testkit.fuzzer import (
    replay_trace,
    run_campaign,
    shrink_trace,
)
from repro.testkit.oracle import MODES
from repro.testkit.trace import Trace, generate_trace

pytestmark = pytest.mark.fuzz

CAMPAIGN_SEED = 2026
CAMPAIGN_OPS = 500


class TestCleanCampaigns:
    @pytest.mark.parametrize("layout", ["linear", "hashed"])
    def test_500_op_campaign_is_clean(self, layout):
        report = run_campaign(
            seed=CAMPAIGN_SEED, num_ops=CAMPAIGN_OPS, layout=layout
        )
        assert report.ok, report.summary()
        assert report.total_divergences == 0
        # The workload actually exercised the paths under test.
        assert report.stats["scalar_gc_collections"] > 0
        assert report.stats["batch_gc_collections"] > 0

    def test_campaign_report_is_byte_identical_across_runs(self):
        first = run_campaign(seed=CAMPAIGN_SEED, num_ops=CAMPAIGN_OPS)
        second = run_campaign(seed=CAMPAIGN_SEED, num_ops=CAMPAIGN_OPS)
        assert first.to_json() == second.to_json()

    def test_fragile_campaign_tolerates_real_flips(self):
        # Wide logical space -> the table spans DRAM rows -> hammer ops
        # flip real L2P entries; agreement must hold modulo those flips.
        report = run_campaign(
            seed=11,
            num_ops=CAMPAIGN_OPS,
            num_lbas=1024,
            layout="hashed",
            profile="fragile",
        )
        assert report.ok, report.summary()
        assert report.stats["scalar_flips"] > 0, (
            "fragile campaign never flipped — the exemption path went untested"
        )


class TestCrashCampaigns:
    """Differential fuzzing with power cycles mixed into the trace: the
    crash-recovery invariant (rebuilt L2P ≡ shadow for every
    acknowledged-durable write) must hold at every seeded cut point."""

    @pytest.mark.parametrize("layout", ["linear", "hashed"])
    @pytest.mark.parametrize("write_buffer_pages", [0, 4])
    def test_crash_campaign_is_clean(self, layout, write_buffer_pages):
        report = run_campaign(
            seed=CAMPAIGN_SEED,
            num_ops=CAMPAIGN_OPS,
            layout=layout,
            crash_rate=0.03,
            write_buffer_pages=write_buffer_pages,
            spare_blocks=2,
        )
        assert report.ok, report.summary()
        assert report.stats["scalar_recoveries"] > 0
        assert report.stats["batch_recoveries"] > 0
        # Crash-only traces still cross-compare scalar vs batch.
        assert report.stats["scalar_recoveries"] == report.stats["batch_recoveries"]

    def test_crash_campaign_report_is_byte_identical_across_runs(self):
        kwargs = dict(
            seed=CAMPAIGN_SEED,
            num_ops=CAMPAIGN_OPS,
            crash_rate=0.05,
            write_buffer_pages=4,
        )
        assert run_campaign(**kwargs).to_json() == run_campaign(**kwargs).to_json()


class TestFaultCampaigns:
    PLAN = FaultPlan(
        seed=5,
        read_error_rate=0.01,
        retention_rate=0.005,
        program_fail_rate=0.005,
        erase_fail_rate=0.02,
    )

    @pytest.mark.parametrize("layout", ["linear", "hashed"])
    def test_media_fault_campaign_is_clean(self, layout):
        report = run_campaign(
            seed=CAMPAIGN_SEED,
            num_ops=CAMPAIGN_OPS,
            layout=layout,
            crash_rate=0.03,
            write_buffer_pages=4,
            spare_blocks=3,
            fault_plan=self.PLAN,
        )
        assert report.ok, report.summary()
        assert report.stats["scalar_faults_injected"] > 0
        assert report.fault_plan == self.PLAN.to_dict()

    def test_scheduled_power_loss_lands_inside_commands(self):
        # Power cuts scheduled on raw flash-op indices land mid-GC and
        # mid-flush — positions a trace-level crash op can never reach.
        plan = FaultPlan(
            events=(
                FaultEvent(op="erase", index=0, kind="power_loss"),
                FaultEvent(op="program", index=150, kind="power_loss"),
            )
        )
        report = run_campaign(
            seed=CAMPAIGN_SEED,
            num_ops=CAMPAIGN_OPS,
            crash_rate=0.02,
            write_buffer_pages=4,
            spare_blocks=2,
            fault_plan=plan,
        )
        assert report.ok, report.summary()
        assert report.stats["scalar_power_cuts"] == 2
        assert report.stats["batch_power_cuts"] == 2

    def test_fault_campaign_report_is_byte_identical_across_runs(self):
        kwargs = dict(
            seed=CAMPAIGN_SEED,
            num_ops=300,
            crash_rate=0.03,
            write_buffer_pages=4,
            spare_blocks=3,
            fault_plan=self.PLAN,
        )
        assert run_campaign(**kwargs).to_json() == run_campaign(**kwargs).to_json()


def patch_off_by_one(monkeypatch, layout_cls):
    """Shift ``layout_cls.slot_of`` one slot up (clamped to the table)."""
    original = layout_cls.slot_of

    def broken(self, lba):
        slot = original(self, lba)
        return min(slot + 1, self.num_lbas - 1)

    monkeypatch.setattr(layout_cls, "slot_of", broken)


class TestMutationDetection:
    """A deliberately injected off-by-one must be found and shrunk.

    The monkeypatch is test-local (restored by the fixture); the broken
    branch never exists in committed code.  Either replay mode finds it:
    the patched layout is no longer the inverse of ``lba_of_slot``, which
    the FTL invariant check asserts.
    """

    @pytest.fixture
    def off_by_one_l2p(self, monkeypatch):
        patch_off_by_one(monkeypatch, l2p_mod.LinearL2p)

    def test_divergence_found_within_500_ops(self, off_by_one_l2p):
        report = run_campaign(seed=42, num_ops=CAMPAIGN_OPS, shrink=False)
        assert not report.ok
        first_bad = min(
            d.op_index
            for found in report.divergences.values()
            for d in found
            if d.op_index is not None
        )
        assert first_bad < CAMPAIGN_OPS

    def test_shrinks_to_at_most_10_ops(self, off_by_one_l2p):
        report = run_campaign(seed=42, num_ops=CAMPAIGN_OPS)
        assert report.shrunk is not None
        assert len(report.shrunk) <= 10
        # The shrunk trace is a self-sufficient reproducer in the mode
        # the campaign recorded.
        assert replay_trace(
            report.shrunk, mode=report.shrunk_mode, check_every=1
        )

    def test_shrunk_reproducer_survives_json_roundtrip(self, off_by_one_l2p):
        report = run_campaign(seed=42, num_ops=100)
        assert report.shrunk is not None
        reloaded = Trace.from_json(report.shrunk.to_json())
        assert replay_trace(reloaded, mode=report.shrunk_mode, check_every=1)

    @pytest.mark.parametrize("layout", ["linear", "hashed"])
    @pytest.mark.parametrize("mode", MODES)
    def test_found_and_shrunk_in_each_mode_and_layout(
        self, monkeypatch, mode, layout
    ):
        layout_cls = {"linear": l2p_mod.LinearL2p, "hashed": l2p_mod.HashedL2p}
        patch_off_by_one(monkeypatch, layout_cls[layout])
        report = run_campaign(
            seed=42, num_ops=CAMPAIGN_OPS, layout=layout, modes=(mode,)
        )
        assert report.divergences[mode]
        assert report.shrunk_mode == mode
        assert len(report.shrunk) <= 10
        assert replay_trace(report.shrunk, mode=mode, check_every=1)


class TestShrinker:
    def test_shrink_requires_a_failing_trace(self):
        trace = generate_trace(seed=3, num_ops=20)
        with pytest.raises(ValueError):
            shrink_trace(trace)

    def test_shrink_minimizes_against_custom_predicate(self):
        trace = generate_trace(seed=8, num_ops=60)
        # Synthetic oracle: "fails" iff the trace still contains both a
        # write and a trim — minimal reproducer is exactly 2 ops.
        def fails(candidate):
            kinds = {op.kind for op in candidate.ops}
            return "write" in kinds and "trim" in kinds

        assert fails(trace)
        shrunk = shrink_trace(trace, fails=fails)
        assert len(shrunk) == 2
        assert {op.kind for op in shrunk.ops} == {"write", "trim"}
