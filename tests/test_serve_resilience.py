"""Tests for the chaos-hardened serving frontend.

Covers the per-tenant resilience policy surface (flat config round-trip,
validation), retry-with-backoff against injected media errors, deadline
timeouts, hedged reads, the three read-only degradation modes, mid-serve
power cuts (availability gap + replay + durability audit), a multi-cut
seeded campaign with zero lost acked writes, the chaos determinism gate
(report, exposition, and trace byte-identical across runs), and the
``serve_chaos`` sweep trial kind.
"""

import filecmp
import json
import os

import pytest

from repro.engine.runner import execute_trial
from repro.engine.spec import TrialSpec
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.serve import (
    ResiliencePolicy,
    ServeScenario,
    SloPolicy,
    TenantConfig,
    run_scenario,
)
from repro.serve.resilience import POWER_CYCLE_RESET_TIME, recovery_gap

CHAOS_SPEC = os.path.join(
    os.path.dirname(__file__), "..", "examples", "specs", "serve_chaos.json"
)


def chaos_dict(**overrides):
    """A small chaos scenario: read faults against a reader + writer."""
    raw = {
        "name": "resilience-test",
        "seed": 11,
        "device": {"num_lbas": 512, "profile": "granite"},
        "faults": {"seed": 3, "read_error_rate": 0.05},
        "tenants": [
            {"name": "reader", "kind": "bursty_reader", "ops": 300},
            {"name": "logger", "kind": "log_writer", "ops": 300},
        ],
    }
    raw.update(overrides)
    return raw


def degrading_dict(**overrides):
    """Erase faults exhaust a 2-block spare pool mid-run: the device goes
    read-only while the writer still has traffic in flight."""
    raw = {
        "name": "degrade-test",
        "seed": 11,
        "device": {"num_lbas": 512, "profile": "granite", "spare_blocks": 2},
        "faults": {"seed": 3, "erase_fail_rate": 0.4},
        "tenants": [
            {"name": "logger", "kind": "log_writer", "ops": 500},
            {"name": "scanner", "kind": "scan_reader", "ops": 300},
        ],
    }
    raw.update(overrides)
    return raw


def by_name(report):
    return {t["name"]: t for t in report.tenants}


# ---------------------------------------------------------------------------
# Policy configuration
# ---------------------------------------------------------------------------


class TestPolicyConfig:
    def test_shared_retry_policy_is_blockdevs(self):
        """The serving retry semantics are literally the host stack's —
        one shared definition, re-exported for compatibility."""
        import repro.host.blockdev as blockdev
        import repro.policies as policies

        assert blockdev.RetryPolicy is policies.RetryPolicy
        assert blockdev.RETRYABLE_STATUSES is policies.RETRYABLE_STATUSES

    def test_default_tenant_emits_no_resilience_keys(self):
        config = TenantConfig.from_dict(
            {"name": "t", "kind": "scan_reader", "ops": 10}
        )
        out = config.to_dict()
        for key in ResiliencePolicy._FLAT_KEYS:
            assert key not in out

    def test_flat_round_trip(self):
        raw = {
            "name": "t", "kind": "scan_reader", "ops": 10,
            "retry_attempts": 5, "retry_backoff": 2e-4,
            "retry_multiplier": 3.0, "deadline": 0.01, "hedge": True,
            "hedge_delay": 5e-4, "on_read_only": "park",
            "latency_target": 2e-3, "error_budget": 0.1,
        }
        config = TenantConfig.from_dict(dict(raw))
        policy = config.resilience
        assert policy.retry.max_attempts == 5
        assert policy.retry.backoff == 2e-4
        assert policy.retry.multiplier == 3.0
        assert policy.deadline == 0.01
        assert policy.hedge and policy.hedge_delay == 5e-4
        assert policy.on_read_only == "park"
        assert policy.slo == SloPolicy(latency_target=2e-3, error_budget=0.1)
        again = TenantConfig.from_dict(config.to_dict())
        assert again.resilience == policy

    def test_validation(self):
        with pytest.raises(ConfigError):
            ResiliencePolicy(on_read_only="explode")
        with pytest.raises(ConfigError):
            ResiliencePolicy(deadline=0.0)
        with pytest.raises(ConfigError):
            ResiliencePolicy(hedge_delay=-1.0)
        with pytest.raises(ConfigError):
            SloPolicy(latency_target=0.0)
        with pytest.raises(ConfigError):
            SloPolicy(error_budget=0.0)
        with pytest.raises(ConfigError):
            TenantConfig.from_dict(
                {"name": "t", "kind": "scan_reader", "ops": 1,
                 "retry_attempts": 0}
            )

    def test_hedge_after_derivation(self):
        assert ResiliencePolicy(hedge=True).hedge_after() == 1e-3
        assert (
            ResiliencePolicy(hedge=True, hedge_delay=5e-5).hedge_after()
            == 5e-5
        )
        custom = ResiliencePolicy(
            hedge=True, slo=SloPolicy(latency_target=7e-3)
        )
        assert custom.hedge_after() == 7e-3

    def test_slo_arithmetic(self):
        slo = SloPolicy(latency_target=1e-3, error_budget=0.01)
        assert slo.burn_rate(0, 1000) == 0.0
        assert slo.burn_rate(10, 1000) == 1.0
        assert slo.budget_remaining(5, 1000) == 0.5
        assert slo.budget_remaining(20, 1000) == -1.0
        assert slo.burn_rate(5, 0) == 0.0

    def test_recovery_gap_grows_with_fill(self):
        empty = recovery_gap(0, 4e-5, 4.0)
        full = recovery_gap(1000, 4e-5, 4.0)
        assert empty == POWER_CYCLE_RESET_TIME
        assert full > empty

    def test_scenario_round_trips_faults(self):
        scenario = ServeScenario.from_dict(chaos_dict())
        again = ServeScenario.from_dict(scenario.to_dict())
        assert again.faults == scenario.faults
        assert again.to_dict() == scenario.to_dict()


# ---------------------------------------------------------------------------
# Retry with backoff
# ---------------------------------------------------------------------------


class TestRetry:
    def test_retries_cure_transient_errors(self):
        """With injected read errors, bounded retry converts most failures
        into successes: the retrying run surfaces fewer errors."""
        patient = run_scenario(ServeScenario.from_dict(chaos_dict()))
        raw = chaos_dict()
        for tenant in raw["tenants"]:
            tenant["retry_attempts"] = 1  # retry disabled
        impatient = run_scenario(ServeScenario.from_dict(raw))

        assert patient.resilience["retries"] > 0
        assert impatient.resilience["retries"] == 0
        patient_errors = sum(t["errors"] for t in patient.tenants)
        impatient_errors = sum(t["errors"] for t in impatient.tenants)
        assert patient_errors < impatient_errors

    def test_errors_labeled_by_status(self):
        raw = chaos_dict()
        for tenant in raw["tenants"]:
            tenant["retry_attempts"] = 1
        report = run_scenario(ServeScenario.from_dict(raw))
        labeled = {}
        for tenant in report.tenants:
            assert sum(tenant["errors_by_status"].values()) == tenant["errors"]
            for status, count in tenant["errors_by_status"].items():
                labeled[status] = labeled.get(status, 0) + count
        assert labeled.get("MEDIA_READ_ERROR", 0) > 0
        assert 'errors_by_status{status="MEDIA_READ_ERROR"' in (
            report.exposition()
        )

    def test_retry_exhaustion_surfaces_the_error(self):
        """Every read fails: three attempts burn two retries each, then
        the error is surfaced (and counted) — never an infinite loop."""
        raw = chaos_dict()
        raw["faults"] = {"seed": 3, "read_error_rate": 1.0}
        raw["tenants"] = [
            {"name": "reader", "kind": "scan_reader", "ops": 50}
        ]
        report = run_scenario(ServeScenario.from_dict(raw))
        reader = by_name(report)["reader"]
        assert reader["errors"] == 50
        assert reader["errors_by_status"] == {"MEDIA_READ_ERROR": 50}
        assert reader["retries"] == 100  # 2 extra attempts per command
        assert reader["commands"] == 50

    def test_backoff_advances_sim_time_not_other_tenants(self):
        """Retry backoff parks only the failing tenant; an undisturbed
        tenant completes the same command count either way."""
        report = run_scenario(ServeScenario.from_dict(chaos_dict()))
        logger = by_name(report)["logger"]
        assert logger["commands"] == 300


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_over_deadline_commands_are_abandoned(self):
        """An 8 ms power-cut outage blows the 0.2 ms budget of every
        command queued across it — those are abandoned, not served."""
        raw = chaos_dict()
        raw["faults"] = {
            "seed": 3,
            "events": [{"op": "program", "index": 50, "kind": "power_loss"}],
        }
        raw["tenants"] = [
            {"name": "logger", "kind": "log_writer", "ops": 400},
            {"name": "deadliner", "kind": "bursty_reader", "ops": 300,
             "deadline": 2e-4},
        ]
        report = run_scenario(ServeScenario.from_dict(raw))
        deadliner = by_name(report)["deadliner"]
        assert deadliner["timeouts"] > 0
        # A timed-out command still consumed its slot and is counted.
        assert deadliner["commands"] == 300
        assert report.resilience["timeouts"] == deadliner["timeouts"]
        # Timeouts always violate the SLO.
        assert deadliner["slo_violations"] >= deadliner["timeouts"]


# ---------------------------------------------------------------------------
# Hedged reads
# ---------------------------------------------------------------------------


class TestHedge:
    def hedged_raw(self, **tenant_overrides):
        raw = chaos_dict()
        tenant = {
            "name": "reader", "kind": "bursty_reader", "ops": 300,
            "hedge": True, "hedge_delay": 2e-5,
        }
        tenant.update(tenant_overrides)
        raw["tenants"] = [tenant]
        return raw

    def test_hedges_win_over_transient_failures(self):
        report = run_scenario(ServeScenario.from_dict(self.hedged_raw()))
        reader = by_name(report)["reader"]
        assert reader["hedges"] > 0
        assert reader["hedge_wins"] > 0
        assert report.resilience["hedges"] == reader["hedges"]

    def test_hedging_beats_backoff_on_mean_latency(self):
        """A tight hedge delay answers a failed primary faster than the
        100 us retry backoff would."""
        hedged = run_scenario(ServeScenario.from_dict(self.hedged_raw()))
        raw = self.hedged_raw(hedge=False)
        unhedged = run_scenario(ServeScenario.from_dict(raw))
        assert hedged.resilience["hedges"] > 0
        assert unhedged.resilience["hedges"] == 0
        assert unhedged.resilience["retries"] > 0
        h = by_name(hedged)["reader"]
        u = by_name(unhedged)["reader"]
        assert h["errors"] <= u["errors"]
        assert h["mean_latency"] < u["mean_latency"]

    def test_hedge_only_first_attempt(self):
        """Hedging and retry compose: the duplicate goes out once, then
        bounded retry takes over — never hedge-of-hedge."""
        raw = self.hedged_raw()
        raw["faults"] = {"seed": 3, "read_error_rate": 1.0}
        raw["tenants"][0]["ops"] = 40
        report = run_scenario(ServeScenario.from_dict(raw))
        reader = by_name(report)["reader"]
        assert reader["hedges"] == 40  # one duplicate per command
        assert reader["hedge_wins"] == 0  # every attempt fails
        assert reader["errors"] == 40


# ---------------------------------------------------------------------------
# Read-only degradation
# ---------------------------------------------------------------------------


class TestDegradation:
    def run_mode(self, mode):
        raw = degrading_dict()
        for tenant in raw["tenants"]:
            tenant["on_read_only"] = mode
        return run_scenario(ServeScenario.from_dict(raw))

    def test_device_degrades_read_only(self):
        report = self.run_mode("fail_fast")
        assert report.resilience["read_only"] is True

    def test_fail_fast_surfaces_labeled_read_only_errors(self):
        report = self.run_mode("fail_fast")
        logger = by_name(report)["logger"]
        assert logger["errors_by_status"].get("READ_ONLY", 0) > 0
        assert logger["parked"] == 0 and logger["dropped"] == 0

    def test_park_holds_writes_reads_continue(self):
        report = self.run_mode("park")
        tenants = by_name(report)
        assert tenants["logger"]["parked"] > 0
        assert tenants["logger"]["errors_by_status"].get("READ_ONLY", 0) == 0
        # The read-only tenant keeps being served for reads.
        assert tenants["scanner"]["commands"] == 300
        assert report.resilience["parked_writes"] == (
            tenants["logger"]["parked"]
        )

    def test_drop_tenant_evicts_only_the_writer(self):
        report = self.run_mode("drop_tenant")
        tenants = by_name(report)
        assert tenants["logger"]["dropped"] > 0
        assert tenants["logger"]["commands"] < 500
        assert tenants["scanner"]["commands"] == 300

    def test_modes_only_differ_after_degradation(self):
        """All three modes serve identical traffic before the transition:
        command counts for the read-only-immune scanner agree."""
        counts = {
            mode: by_name(self.run_mode(mode))["scanner"]["commands"]
            for mode in ("fail_fast", "park", "drop_tenant")
        }
        assert len(set(counts.values())) == 1


# ---------------------------------------------------------------------------
# Power cuts: availability and durability
# ---------------------------------------------------------------------------


class TestPowerCut:
    def cut_raw(self, indexes=(60,), ops=400):
        return {
            "name": "cut-test",
            "seed": 11,
            "device": {"num_lbas": 512, "profile": "granite"},
            "faults": {
                "seed": 3,
                "events": [
                    {"op": "program", "index": i, "kind": "power_loss"}
                    for i in indexes
                ],
            },
            "tenants": [
                {"name": "logger", "kind": "log_writer", "ops": ops},
                {"name": "reader", "kind": "bursty_reader", "ops": 200},
            ],
        }

    def test_mid_serve_cut_recovers_and_loses_nothing(self):
        report = run_scenario(ServeScenario.from_dict(self.cut_raw()))
        res = report.resilience
        assert res["power_cuts"] == 1
        assert res["availability_gap_s"] > POWER_CYCLE_RESET_TIME
        durability = res["durability"]
        assert durability["acked_writes"] > 0
        assert durability["lost"] == 0
        assert durability["intact"] == durability["audited_lbas"]
        # Every traced op still completes: the in-flight command that the
        # cut interrupted was never acked, and is replayed after recovery.
        assert by_name(report)["logger"]["commands"] == 400
        assert 'availability_gap_seconds' in report.exposition()

    def test_multi_cut_campaign_zero_lost_acked_writes(self):
        """The headline chaos gate: >= 50 seeded mid-serve power cuts,
        every acknowledged write durable through every one of them."""
        indexes = [20 + 20 * k for k in range(55)]
        report = run_scenario(
            ServeScenario.from_dict(self.cut_raw(indexes=indexes, ops=1200))
        )
        res = report.resilience
        assert res["power_cuts"] >= 50
        assert res["durability"]["lost"] == 0
        assert res["durability"]["acked_writes"] > 1000
        assert by_name(report)["logger"]["commands"] == 1200
        assert res["availability_gap_s"] > 50 * POWER_CYCLE_RESET_TIME


# ---------------------------------------------------------------------------
# Program faults at the write frontier
# ---------------------------------------------------------------------------


class TestChaosProgramFaults:
    def test_fault_seeds_complete_with_a_consistent_ftl(self, monkeypatch):
        """The committed chaos scenario under fault seeds whose program
        failures land on GC moves (seed 47) or exhaust the device (rate
        0.01): every run completes, loses no acknowledged write, and
        leaves the FTL's invariants intact."""
        import repro.testkit.fixtures as fixtures

        stacks = []
        build = fixtures.build_stack

        def capture(*args, **kwargs):
            stacks.append(build(*args, **kwargs))
            return stacks[-1]

        monkeypatch.setattr(fixtures, "build_stack", capture)
        scenario = ServeScenario.load(CHAOS_SPEC)
        for seed, rate in ((47, 0.001), (0, 0.01), (1, 0.01), (2, 0.01)):
            scenario.faults = FaultPlan.from_dict({
                "seed": seed,
                "read_error_rate": 0.002,
                "program_fail_rate": rate,
                "events": [{"op": "program", "index": 400, "kind": "power_loss"}],
            })
            res = run_scenario(scenario).resilience
            assert res["power_cuts"] >= 1
            assert res["durability"]["lost"] == 0, (seed, res["durability"])
            ftl = stacks[-1][2]
            if seed == 47:
                # The device fills up inside a GC pass: a read-only
                # outcome that ends the pass, not a crash.
                assert res["read_only"] is True
                assert not ftl.gc_active
            ftl.check()


# ---------------------------------------------------------------------------
# The chaos determinism gate
# ---------------------------------------------------------------------------


class TestChaosDeterminism:
    def test_committed_chaos_scenario_byte_identical(self, tmp_path):
        """The CI-gated property, pinned on the committed chaos scenario:
        faults + retries + hedging + a mid-serve power cut, and two runs
        still agree byte-for-byte on report, exposition, and trace."""
        scenario = ServeScenario.load(CHAOS_SPEC)
        path_a = str(tmp_path / "a.jsonl")
        path_b = str(tmp_path / "b.jsonl")
        a = run_scenario(scenario, trace_path=path_a)
        b = run_scenario(scenario, trace_path=path_b)
        assert a.resilience["power_cuts"] >= 1
        assert a.resilience["retries"] + a.resilience["hedges"] > 0
        assert a.resilience["durability"]["lost"] == 0
        assert a.to_json() == b.to_json()
        assert a.exposition() == b.exposition()
        assert filecmp.cmp(path_a, path_b, shallow=False)

    def test_seed_override_respawns_fault_plan(self):
        """Sweep repeats draw an independent fault universe: overriding
        the seed changes where the faults land, deterministically."""
        scenario = ServeScenario.from_dict(chaos_dict())
        a = run_scenario(scenario, seed=101)
        b = run_scenario(scenario, seed=101)
        c = run_scenario(scenario, seed=102)
        assert a.to_json() == b.to_json()
        assert c.resilience["faults"] != a.resilience["faults"]


# ---------------------------------------------------------------------------
# The serve_chaos sweep trial kind
# ---------------------------------------------------------------------------


def chaos_trial(params, seed=11):
    return TrialSpec(
        trial_id="t", kind="serve_chaos", params=params, point={},
        point_index=0, repeat=0, root_seed=7, spawn_key=(0,), seed=seed,
    )


class TestServeChaosTrial:
    def test_flat_result_fields(self):
        result = execute_trial(
            chaos_trial({"scenario": chaos_dict(), "seed": 11})
        )
        for key in (
            "duration", "flips", "commands", "errors", "retries", "timeouts",
            "hedges", "hedge_wins", "power_cuts", "availability_gap_s",
            "lost_acked_writes", "read_only", "benign_p99_max",
            "error_budget_min", "tenants",
        ):
            assert key in result
        assert result["lost_acked_writes"] == 0
        assert result["retries"] > 0

    def test_fault_axis_respawns_plan(self):
        """A ``faults.*`` axis overrides the plan field and reseeds the
        plan through the trial spawn key."""
        calm = execute_trial(
            chaos_trial({"scenario": chaos_dict(),
                         "faults.read_error_rate": 0.0})
        )
        stormy = execute_trial(
            chaos_trial({"scenario": chaos_dict(),
                         "faults.read_error_rate": 0.2})
        )
        assert calm["retries"] == 0
        assert stormy["retries"] > 0
        assert stormy["errors"] >= calm["errors"]

    def test_policy_axis_applies_to_every_tenant(self):
        result = execute_trial(
            chaos_trial({"scenario": chaos_dict(), "hedge": True,
                         "hedge_delay": 2e-5, "seed": 11})
        )
        assert result["hedges"] > 0

    def test_missing_scenario_rejected(self):
        with pytest.raises(ConfigError):
            execute_trial(chaos_trial({}))

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            execute_trial(chaos_trial({"scenario": chaos_dict(), "bogus": 1}))
