"""The U-TRR reverse-engineering pipeline and its attack surface.

Covers the whole loop the tentpole builds: the parameterized TRR target
(policies, per-bank scope, config round-trip), the black-box probe
battery (capacity/policy/bank-scope recovery across the committed config
grid), the inference report contract, the ``sync_refresh`` payload hint
(parser, compiler guard, expansion per policy), and the end-to-end gate:
a TRR config that fully suppresses the naive double-sided pattern is
defeated by the payload synthesized from its own inference report.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (
    SAMPLING_POLICIES,
    DramAddress,
    TargetRowRefresh,
    trr_from_config,
)
from repro.errors import ConfigError
from repro.payload import (
    Act,
    CompileError,
    Loop,
    Program,
    Refresh,
    SyncRefresh,
    SyncRefreshError,
    Wait,
    apply_sync_refresh,
    compile_program,
    execute_payload,
    format_program,
    parse_program,
    resolve_program,
)
from repro.payload.program import step_from_dict, step_to_dict
from repro.sim import SimClock
from repro.testkit import ShadowTrr
from repro.utrr import (
    POLICY_NONE,
    POLICY_UNKNOWN,
    InferenceReport,
    UtrrError,
    UtrrPipeline,
    build_utrr_target,
)
from repro.utrr.stage import (
    AlignToRefreshStage,
    DisableRefreshStage,
    ProbeContext,
)

#: The config grid the CI gate sweeps (examples/specs/utrr_grid.json).
GRID_CAPACITIES = (2, 4, 8)
GRID_POLICIES = SAMPLING_POLICIES

#: A threshold low enough that the sampler, when it works, always wins:
#: the FRAGILE minimum disturbance is 160, and a tracked aggressor's
#: victim is refreshed every 24 activations.
THRESHOLD = 24


def _config(capacity=4, policy="counter_lru", per_bank=True, seed=0):
    return {
        "tracker_capacity": capacity,
        "refresh_threshold": THRESHOLD,
        "sampling_policy": policy,
        "per_bank": per_bank,
        "seed": seed,
    }


def _infer(trr_config, *, seed=0, **pipeline_kwargs):
    dram = build_utrr_target(trr_config, seed=seed)
    return UtrrPipeline(dram, **pipeline_kwargs).infer()


# ---------------------------------------------------------------------------
# The parameterized TRR target
# ---------------------------------------------------------------------------


class TestTrrTarget:
    def test_policy_validated(self):
        with pytest.raises(ValueError, match="unknown sampling policy"):
            TargetRowRefresh(sampling_policy="fifo")

    def test_config_round_trip(self):
        trr = TargetRowRefresh(
            tracker_capacity=6,
            refresh_threshold=48,
            sampling_policy="random_sample",
            per_bank=False,
            neighbor_radius=2,
            seed=9,
        )
        clone = TargetRowRefresh.from_dict(trr.to_dict())
        assert clone.to_dict() == trr.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown TRR config keys"):
            TargetRowRefresh.from_dict({"tracker_capacity": 4, "color": "red"})

    def test_trr_from_config_coercions(self):
        assert trr_from_config(None) is None
        trr = TargetRowRefresh()
        assert trr_from_config(trr) is trr
        built = trr_from_config({"tracker_capacity": 2})
        assert built.tracker_capacity == 2
        with pytest.raises(ValueError, match="trr config must be"):
            trr_from_config("counter_lru")

    @pytest.mark.parametrize(
        "policy,per_bank,radius,expected",
        [
            ("counter_lru", True, 1, False),
            ("counter_lru", False, 1, True),
            ("counter_lru", True, 2, True),
            ("random_sample", True, 1, True),
            ("first_k_per_window", True, 1, True),
        ],
    )
    def test_exact_batch_replay_matrix(self, policy, per_bank, radius, expected):
        trr = TargetRowRefresh(
            sampling_policy=policy, per_bank=per_bank, neighbor_radius=radius
        )
        assert trr.exact_batch_replay is expected

    def test_first_k_ignores_late_arrivals_until_window_rolls(self):
        trr = TargetRowRefresh(
            tracker_capacity=2, refresh_threshold=3,
            sampling_policy="first_k_per_window",
        )
        for _ in range(3):
            trr.on_activation(0, 10)
            trr.on_activation(0, 20)
            # Row 30 arrives after the registry filled: invisible.
            assert trr.on_activation(0, 30) == []
        assert trr.refreshes_issued == 2  # rows 10 and 20 triggered
        trr.on_window(0)
        # Fresh window: row 30 now claims a slot and can trigger.
        for _ in range(3):
            victims = trr.on_activation(0, 30)
        assert victims == [29, 31]

    def test_random_sample_is_seed_reproducible(self):
        def run(seed):
            trr = TargetRowRefresh(
                tracker_capacity=2, refresh_threshold=4,
                sampling_policy="random_sample", seed=seed,
            )
            out = []
            for i in range(200):
                trr.on_activation(0, i % 5)
                # The tracked set itself witnesses each eviction draw.
                out.append(tuple(sorted(trr._trackers[0])))
            return out

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_shared_tracker_mixes_banks(self):
        trr = TargetRowRefresh(
            tracker_capacity=2, refresh_threshold=100, per_bank=False
        )
        trr.on_activation(0, 10)
        trr.on_activation(1, 10)
        trr.on_activation(2, 10)  # evicts one of the first two
        assert len(trr._trackers[0]) == 2
        trr.on_window(1)  # clears only bank 1's entries
        assert all(key[0] != 1 for key in trr._trackers[0])

    def test_neighbor_radius_widens_the_refresh(self):
        trr = TargetRowRefresh(refresh_threshold=1, neighbor_radius=2)
        assert trr.on_activation(0, 50) == [48, 49, 51, 52]

    def test_closed_form_hammer_refuses_order_sensitive_configs(self):
        dram = build_utrr_target(_config(policy="random_sample"))
        with pytest.raises(ConfigError, match="order-sensitive"):
            dram.hammer([(0, 10), (0, 14)], 1000, 1e6)

    def test_activate_burst_validates_addresses(self):
        from repro.errors import DramAddressError

        dram = build_utrr_target(None)
        with pytest.raises(DramAddressError, match="bank"):
            dram.activate_burst([(99, 0)])
        with pytest.raises(DramAddressError, match="row"):
            dram.activate_burst([(0, 10_000)])
        with pytest.raises(DramAddressError, match="row"):
            dram.activate(0, dram.geometry.rows_per_bank)

    def test_activate_burst_matches_scalar_activations(self):
        """The ordered burst is bit-identical to one-at-a-time ACTs."""
        seq = [(0, 8), (0, 12), (1, 8), (0, 8), (0, 16)] * 200

        def run(burst):
            dram = build_utrr_target(_config(capacity=2), seed=3)
            addr = dram.mapping.address_of(DramAddress(0, 9, 0))
            dram.write(addr, b"\x00" * dram.geometry.row_bytes)
            if burst:
                dram.activate_burst(seq)
            else:
                for bank, row in seq:
                    dram.activate_burst([(bank, row)])
            return dram.flips, dram.trr.refreshes_issued

        assert run(True) == run(False)


# ---------------------------------------------------------------------------
# Satellite: TRR config threading through scenario/profile JSON
# ---------------------------------------------------------------------------


class TestTrrConfigThreading:
    CONFIG = {
        "tracker_capacity": 6,
        "refresh_threshold": 48,
        "sampling_policy": "random_sample",
        "per_bank": False,
        "neighbor_radius": 2,
        "seed": 3,
    }

    def test_build_stack_accepts_a_trr_dict(self):
        from repro.testkit.fixtures import build_stack

        _, dram, _ = build_stack(trr=dict(self.CONFIG))
        assert dram.trr.to_dict() == self.CONFIG

    def test_serve_device_config_round_trips_trr(self):
        from repro.serve.scenario import DeviceConfig

        config = DeviceConfig.from_dict({"trr": dict(self.CONFIG)})
        assert config.to_dict()["trr"] == self.CONFIG
        again = DeviceConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()

    def test_serve_device_config_rejects_bad_trr(self):
        from repro.serve.scenario import DeviceConfig

        with pytest.raises(ConfigError, match="bad trr config"):
            DeviceConfig.from_dict({"trr": {"sampling_policy": "fifo"}})

    def test_device_profile_captures_the_sampler(self):
        from repro.attack.profile import DeviceProfile
        from repro.testkit.fixtures import build_stack

        controller, dram, _ = build_stack(trr=dict(self.CONFIG))
        profile = DeviceProfile.from_device(controller)
        assert profile.trr == self.CONFIG
        controller, _, _ = build_stack()
        assert DeviceProfile.from_device(controller).trr is None


# ---------------------------------------------------------------------------
# The inference report contract
# ---------------------------------------------------------------------------


class TestInferenceReport:
    def _report(self, **overrides):
        kwargs = dict(
            tracker_capacity=4,
            sampling_policy="counter_lru",
            per_bank=True,
            bank=0,
            probes=7,
            activations=123_456,
            flips_observed=9,
            decoy_rows=[160, 164],
            evidence={"onset_scan": [{"aggressors": 2, "flips": 0}]},
        )
        kwargs.update(overrides)
        return InferenceReport(**kwargs)

    def test_dict_round_trip(self):
        report = self._report()
        clone = InferenceReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        data = self._report().to_dict()
        data["confidence"] = 0.9
        with pytest.raises(ValueError, match="unknown report keys"):
            InferenceReport.from_dict(data)

    def test_json_is_canonical(self):
        report = self._report()
        text = report.to_json()
        assert text == report.to_json()
        assert text.endswith("\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_matches_exact_config(self):
        report = self._report()
        assert report.matches(_config(capacity=4, policy="counter_lru"))
        assert not report.matches(_config(capacity=5))
        assert not report.matches(_config(policy="random_sample"))
        assert not report.matches(_config(per_bank=False))

    def test_matches_defaults_policy_to_counter_lru(self):
        report = self._report()
        assert report.matches({"tracker_capacity": 4})

    def test_unprobed_bank_scope_matches_either(self):
        report = self._report(per_bank=None)
        assert report.matches(_config(per_bank=True))
        assert report.matches(_config(per_bank=False))


# ---------------------------------------------------------------------------
# Pipeline validation
# ---------------------------------------------------------------------------


class TestPipelineValidation:
    def test_rejects_bad_knobs(self):
        dram = build_utrr_target(None)
        with pytest.raises(UtrrError, match="max_capacity"):
            UtrrPipeline(dram, max_capacity=0)
        with pytest.raises(UtrrError, match="cycles"):
            UtrrPipeline(dram, cycles=0)
        with pytest.raises(UtrrError, match="spacing"):
            UtrrPipeline(dram, spacing=2)
        with pytest.raises(UtrrError, match="bank 9 out of range"):
            UtrrPipeline(dram, bank=9)

    def test_rejects_probe_rows_beyond_the_bank(self):
        dram = build_utrr_target(None)  # 256 rows per bank
        with pytest.raises(UtrrError, match="only has 256 rows"):
            UtrrPipeline(dram, decoy_base=240)

    def test_utrr_error_is_a_config_error(self):
        assert issubclass(UtrrError, ConfigError)


# ---------------------------------------------------------------------------
# Inference correctness across the committed grid
# ---------------------------------------------------------------------------


class TestInference:
    @pytest.mark.parametrize("capacity", GRID_CAPACITIES)
    @pytest.mark.parametrize("policy", GRID_POLICIES)
    def test_recovers_every_grid_cell(self, capacity, policy):
        """The CI gate in miniature: capacity x policy, all recovered."""
        config = _config(capacity=capacity, policy=policy, seed=7)
        report = _infer(config, seed=7)
        assert report.tracker_capacity == capacity
        assert report.sampling_policy == policy
        assert report.per_bank is True
        assert report.matches(config)

    @pytest.mark.parametrize("policy", GRID_POLICIES)
    def test_detects_shared_trackers(self, policy):
        config = _config(capacity=4, policy=policy, per_bank=False)
        report = _infer(config)
        assert report.per_bank is False
        assert report.matches(config)

    def test_no_trr_reports_no_protection(self):
        report = _infer(None)
        assert report.tracker_capacity == 0
        assert report.sampling_policy == POLICY_NONE
        assert report.probes == 1
        assert report.evidence["baseline_flips"] >= 1

    def test_untriggerable_sampler_reports_unknown(self):
        # max_capacity=1 stops the onset scan at n=2, below the real
        # onset (3): the tracker absorbs every affordable probe.
        report = _infer(
            _config(capacity=2, policy="counter_lru"), max_capacity=1
        )
        assert report.tracker_capacity is None
        assert report.sampling_policy == POLICY_UNKNOWN

    def test_reports_are_byte_deterministic(self):
        config = _config(capacity=4, policy="random_sample", seed=5)
        first = _infer(config, seed=5)
        second = _infer(config, seed=5)
        assert first.to_json() == second.to_json()

    def test_report_carries_usable_decoys(self):
        report = _infer(_config(capacity=4))
        assert len(report.decoy_rows) == 4 + 8
        aggressors = {8 + 4 * i for i in range(16)}
        for decoy in report.decoy_rows:
            assert all(abs(decoy - a) > 2 for a in aggressors)

    def test_evidence_names_the_probes(self):
        report = _infer(_config(capacity=2, policy="first_k_per_window"))
        assert report.evidence["onset_scan"][-1]["flips"] >= 1
        assert report.evidence["order_forward_flips"]
        assert report.evidence["order_reverse_flips"]
        assert report.evidence["bank_scope_flips"] == 0


# ---------------------------------------------------------------------------
# The sync_refresh DSL hint
# ---------------------------------------------------------------------------


class TestSyncRefreshDsl:
    SOURCE = "\n".join(
        [
            "name sync_demo",
            "target dram",
            "sync_refresh",
            "loop 16 {",
            "  act 0 99",
            "  act 0 101",
            "}",
        ]
    )

    def test_parser_round_trip(self):
        program = parse_program(self.SOURCE)
        assert any(isinstance(s, SyncRefresh) for s in program.walk())
        again = parse_program(format_program(program))
        assert again == program

    def test_json_round_trip(self):
        step = SyncRefresh()
        assert step_to_dict(step) == {"op": "sync_refresh"}
        assert step_from_dict({"op": "sync_refresh"}) == step
        program = parse_program(self.SOURCE)
        assert Program.from_json(program.to_json()) == program

    def test_compiler_rejects_unexpanded_hints(self):
        program = parse_program(self.SOURCE)
        with pytest.raises(CompileError, match="resolver hint"):
            compile_program(program)


class TestApplySyncRefresh:
    def _report(self, capacity=4, policy="counter_lru", decoys=None):
        return InferenceReport(
            tracker_capacity=capacity,
            sampling_policy=policy,
            per_bank=True,
            bank=0,
            probes=7,
            activations=0,
            flips_observed=0,
            decoy_rows=list(
                decoys if decoys is not None else range(160, 200, 4)
            ),
        )

    def _program(self, steps, target="dram"):
        return Program(name="p", target=target, steps=tuple(steps))

    def _hammer(self):
        return Loop(
            count=16, body=(Act(bank=0, row=99), Act(bank=0, row=101))
        )

    def test_no_hints_is_a_no_op(self):
        program = self._program([self._hammer()])
        assert apply_sync_refresh(program, self._report()) is program

    def test_first_k_prelude_burns_the_registry(self):
        program = self._program([SyncRefresh(), self._hammer()])
        report = self._report(capacity=3, policy="first_k_per_window")
        out = apply_sync_refresh(program, report)
        assert out.steps[0] == Refresh()
        prelude = out.steps[1:4]
        assert [s.row for s in prelude] == [160, 164, 168]
        assert all(s.bank == 0 for s in prelude)
        assert out.steps[4] == self._hammer()

    @pytest.mark.parametrize(
        "policy,extra", [("counter_lru", 1), ("random_sample", 2)]
    )
    def test_churn_policies_pad_the_hammer_loop(self, policy, extra):
        program = self._program([SyncRefresh(), self._hammer()])
        out = apply_sync_refresh(program, self._report(4, policy))
        assert out.steps[0] == Refresh()
        loop = out.steps[1]
        distinct = {(s.bank, s.row) for s in loop.body}
        assert len(distinct) == 4 + extra
        # The original aggressors still lead the cycle.
        assert loop.body[:2] == self._hammer().body

    def test_decoys_avoid_the_programs_own_rows(self):
        program = self._program([SyncRefresh(), self._hammer()])
        report = self._report(
            capacity=2, policy="first_k_per_window",
            decoys=[98, 100, 101, 150, 154],
        )
        out = apply_sync_refresh(program, report)
        assert [s.row for s in out.steps[1:3]] == [150, 154]

    def test_requires_the_dram_target(self):
        program = self._program([SyncRefresh()], target="stack")
        with pytest.raises(SyncRefreshError, match="dram"):
            apply_sync_refresh(program, self._report())

    def test_rejects_hint_inside_a_loop(self):
        program = self._program(
            [Loop(count=2, body=(SyncRefresh(), Act(bank=0, row=99)))]
        )
        with pytest.raises(SyncRefreshError, match="inside a loop"):
            apply_sync_refresh(program, self._report())

    def test_rejects_unusable_reports(self):
        program = self._program([SyncRefresh(), self._hammer()])
        for bad in (
            self._report(capacity=None, policy=POLICY_UNKNOWN),
            self._report(capacity=0, policy=POLICY_NONE),
        ):
            with pytest.raises(SyncRefreshError, match="usable sampler"):
                apply_sync_refresh(program, bad)

    def test_rejects_unresolved_programs(self):
        program = self._program(
            [SyncRefresh(), Act(bank=0, row="@victim")]
        )
        with pytest.raises(SyncRefreshError, match="after binding"):
            apply_sync_refresh(program, self._report())

    def test_rejects_insufficient_decoys(self):
        program = self._program([SyncRefresh(), self._hammer()])
        report = self._report(
            capacity=4, policy="first_k_per_window", decoys=[160]
        )
        with pytest.raises(SyncRefreshError, match="decoy rows"):
            apply_sync_refresh(program, report)

    def test_churn_policy_needs_a_loop_to_pad(self):
        program = self._program([SyncRefresh(), Act(bank=0, row=99)])
        with pytest.raises(SyncRefreshError, match="no all-'act' loop"):
            apply_sync_refresh(program, self._report(4, "counter_lru"))

    def test_resolve_program_applies_the_report(self):
        program = parse_program(
            "name p\ntarget dram\nsync_refresh\n"
            "loop 16 {\n  act @bank @left\n  act @bank @right\n}"
        )
        out = resolve_program(
            program,
            {"bank": 0, "left": 99, "right": 101},
            sync_report=self._report(3, "first_k_per_window"),
        )
        assert out.steps[0] == Refresh()
        assert not any(isinstance(s, SyncRefresh) for s in out.walk())
        compile_program(out)  # expanded programs compile cleanly


# ---------------------------------------------------------------------------
# End-to-end gate: inferred report -> synthesized payload -> flips
# ---------------------------------------------------------------------------


_DEMO_SOURCE = "\n".join(
    [
        "name sync_demo",
        "target dram",
        "sync_refresh",
        "loop 256 {",
        "  act @bank @left_row",
        "  act @bank @right_row",
        "}",
    ]
)

_BINDINGS = {"bank": 0, "left_row": 99, "right_row": 101}


def _run_payload(config, report):
    """Execute the demo program (expanded iff ``report``) against a fresh
    target; returns (total flips over both data backgrounds, flip keys)."""
    program = parse_program(_DEMO_SOURCE)
    if report is None:
        steps = tuple(
            s for s in program.steps if not isinstance(s, SyncRefresh)
        )
        program = Program(name=program.name, target="dram", steps=steps)
    resolved = resolve_program(program, _BINDINGS, sync_report=report)
    compiled = compile_program(resolved)
    flips = 0
    keys = []
    for pattern in (b"\x00", b"\xff"):
        dram = build_utrr_target(config, seed=0)
        addr = dram.mapping.address_of(DramAddress(0, 100, 0))
        dram.write(addr, pattern * dram.geometry.row_bytes)
        execute_payload(compiled, dram=dram)
        flips += len(dram.flips)
        keys.extend(
            (pattern, f.bank, f.row, f.byte_offset, f.bit) for f in dram.flips
        )
    return flips, keys


class TestEndToEndGate:
    """ISSUE 10's acceptance gate, per policy: the naive double-sided
    pattern is fully suppressed, the payload synthesized from the
    *inferred* report flips, byte-deterministically across two runs."""

    @pytest.mark.parametrize("policy", GRID_POLICIES)
    def test_inferred_report_defeats_the_sampler(self, policy):
        config = _config(capacity=4, policy=policy)
        report = _infer(config)
        assert report.matches(config)

        naive_flips, _ = _run_payload(config, None)
        assert naive_flips == 0, "the sampler must block the naive pattern"

        sync_flips, first_keys = _run_payload(config, report)
        assert sync_flips > 0, "the synthesized payload must flip"

        _, second_keys = _run_payload(config, report)
        assert first_keys == second_keys


# ---------------------------------------------------------------------------
# The utrr trial kind and the committed sweep grid
# ---------------------------------------------------------------------------


class TestUtrrTrialKind:
    def test_committed_grid_spec_recovers_every_cell(self):
        """The CI inference-correctness gate, run through the engine."""
        import os

        from repro.engine import EngineConfig, SweepEngine
        from repro.engine.spec import SweepSpec

        spec_path = os.path.join(
            os.path.dirname(__file__), "..", "examples", "specs",
            "utrr_grid.json",
        )
        with open(spec_path, "r", encoding="utf-8") as handle:
            spec = SweepSpec.from_dict(json.load(handle))
        result = SweepEngine(spec, config=EngineConfig()).run()
        assert len(result.records) == 9
        for record in result.records:
            assert record["error"] is None
            assert record["result"]["recovered"], record["params"]
            assert (
                record["result"]["inferred_capacity"]
                == record["params"]["tracker_capacity"]
            )
            assert (
                record["result"]["inferred_policy"]
                == record["params"]["sampling_policy"]
            )

    def test_unknown_params_are_rejected(self):
        from repro.engine.runner import execute_trial
        from repro.engine.spec import TrialSpec

        trial = TrialSpec(
            trial_id="t0", kind="utrr", seed=1,
            params={"tracker_capacity": 2, "color": "red"},
            point={}, point_index=0, repeat=0, root_seed=1, spawn_key=(0,),
        )
        with pytest.raises(ConfigError, match="color"):
            execute_trial(trial)


# ---------------------------------------------------------------------------
# Satellite: the ShadowTrr differential oracle
# ---------------------------------------------------------------------------


activation_streams = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 9)), min_size=1, max_size=300
)


class TestShadowTrrOracle:
    def _mirror(self, trr, shadow, stream, window_every=None):
        """Drive both samplers in lockstep; return cumulative per-key
        trigger counts for (real sampler, shadow ledger)."""
        real_triggers = {}
        shadow_triggers = {}
        for index, (bank, row) in enumerate(stream):
            if window_every and index and index % window_every == 0:
                for b in {b for b, _ in stream}:
                    trr.on_window(b)
                    shadow.on_window(b)
            key = (bank, row)
            real = trr.on_activation(bank, row)
            if shadow.on_activation(bank, row):
                shadow_triggers[key] = shadow_triggers.get(key, 0) + 1
            if real:
                real_triggers[key] = real_triggers.get(key, 0) + 1
                # The bounded sampler can only *lag* the exact ledger: it
                # never triggers a row more often than the shadow has.
                assert real_triggers[key] <= shadow_triggers.get(key, 0)
        return real_triggers, shadow_triggers

    @pytest.mark.parametrize("policy", GRID_POLICIES)
    @given(stream=activation_streams)
    @settings(max_examples=40, deadline=None)
    def test_real_sampler_never_outruns_the_shadow(self, policy, stream):
        """Safety: a capacity-bounded sampler can only *miss* triggers the
        exact ledger sees, never add ones it doesn't."""
        trr = TargetRowRefresh(
            tracker_capacity=2, refresh_threshold=4,
            sampling_policy=policy, seed=1,
        )
        shadow = ShadowTrr(refresh_threshold=4)
        real_triggers, shadow_triggers = self._mirror(
            trr, shadow, stream, window_every=50
        )
        for key, count in real_triggers.items():
            assert count <= shadow_triggers[key]
        assert trr.refreshes_issued <= shadow.refreshes_issued

    @pytest.mark.parametrize("policy", GRID_POLICIES)
    def test_overflow_stream_has_a_nonempty_miss_set(self, policy):
        """Quantify the capacity gap: 6 round-robin rows through a
        2-entry tracker leave triggers only the shadow sees."""
        trr = TargetRowRefresh(
            tracker_capacity=2, refresh_threshold=4,
            sampling_policy=policy, seed=1,
        )
        shadow = ShadowTrr(refresh_threshold=4)
        stream = [(0, row) for row in (10, 14, 18, 22, 26, 30)] * 20
        real_triggers, _ = self._mirror(trr, shadow, stream)
        missed = shadow.missed_against(real_triggers)
        assert missed, "a thrashed sampler must miss triggers"
        assert all(count > 0 for count in missed.values())
        assert trr.refreshes_issued < shadow.refreshes_issued

    def test_within_capacity_no_misses(self):
        trr = TargetRowRefresh(tracker_capacity=4, refresh_threshold=4)
        shadow = ShadowTrr(refresh_threshold=4)
        stream = [(0, row) for row in (10, 14)] * 40
        real_triggers, _ = self._mirror(trr, shadow, stream)
        assert shadow.missed_against(real_triggers) == {}

    def test_shadow_validates_like_the_real_sampler(self):
        with pytest.raises(ValueError, match="refresh threshold"):
            ShadowTrr(refresh_threshold=0)
        with pytest.raises(ValueError, match="neighbor radius"):
            ShadowTrr(neighbor_radius=0)


# ---------------------------------------------------------------------------
# Satellite: refresh-window alignment properties
# ---------------------------------------------------------------------------


class TestWindowAlignment:
    def _ctx(self, dram):
        return ProbeContext(
            dram=dram, probe=1, kind="test", sequence=[(0, 8)], victims=[]
        )

    @given(offset=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_align_stage_lands_just_inside_a_fresh_window(self, offset):
        dram = build_utrr_target(None)
        interval = dram.refresh_interval
        dram.clock.advance(offset * interval)
        before = dram.clock.epoch(interval)
        ctx = self._ctx(dram)
        AlignToRefreshStage().run(ctx)
        after = dram.clock.epoch(interval)
        # Strictly past the boundary (the epoch rolled) but spent at most
        # one interval plus the float nudge getting there.
        assert after > before
        assert dram.clock.now <= (before + 2) * interval
        assert ctx.notes["aligned_epoch"] == after

    @given(offset=st.floats(0.0, 3.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_disable_stage_budget_reaches_exactly_the_boundary(self, offset):
        dram = build_utrr_target(None)
        interval = dram.refresh_interval
        dram.clock.advance(offset * interval)
        ctx = self._ctx(dram)
        # The pipeline always aligns first, so the probe starts with
        # (almost) a full window of budget ahead of it.
        AlignToRefreshStage().run(ctx)
        out = DisableRefreshStage().run(ctx)
        assert 0 <= out["window_budget_s"] <= interval
        assert DisableRefreshStage.verify(ctx)
        # Spending strictly less than the budget keeps the epoch; one
        # nudge past it rolls (the off-by-one the verify step guards).
        dram.clock.advance(out["window_budget_s"] * 0.5)
        assert DisableRefreshStage.verify(ctx)
        dram.clock.advance(out["window_budget_s"] * 0.5 + interval * 1e-6)
        assert not DisableRefreshStage.verify(ctx)

    @given(epochs=st.integers(1, 5), offset=st.floats(0.0, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_payload_refresh_lands_on_the_module_boundary(self, epochs, offset):
        """A ``refresh`` step advances to exactly the boundary the
        module's window roll fires on: one more activation starts a new
        epoch with a cleared sampler."""
        dram = build_utrr_target(_config(capacity=2))
        interval = dram.refresh_interval
        dram.clock.advance((epochs + offset) * interval)
        program = Program(
            name="p", target="dram", steps=(Refresh(), Act(bank=0, row=8))
        )
        before = dram.clock.epoch(interval)
        execute_payload(compile_program(program), dram=dram)
        after = dram.clock.epoch(interval)
        assert after == before + 1
        # The sampler restarted: the single post-refresh ACT is the only
        # tracked state in the new window.
        assert dram.banks[0].acts == {8: 1}

    @given(seconds=st.floats(0.0, 0.01, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_payload_wait_advances_exactly(self, seconds):
        dram = build_utrr_target(None)
        program = Program(
            name="p", target="dram", steps=(Wait(seconds=seconds),)
        )
        start = dram.clock.now
        execute_payload(compile_program(program), dram=dram)
        assert dram.clock.now == pytest.approx(start + seconds)


# ---------------------------------------------------------------------------
# Satellite: seeded utrr fuzz campaign under the ddmin shrinker
# ---------------------------------------------------------------------------


class TestUtrrFuzzCampaign:
    def test_seeded_config_fuzz_always_recovers(self):
        """A seeded campaign over random sampler configs: inference must
        recover every one (capacities the battery can reach)."""
        import random

        rng = random.Random(2024)
        for _ in range(6):
            config = _config(
                capacity=rng.randint(1, 6),
                policy=rng.choice(list(GRID_POLICIES)),
                per_bank=rng.random() < 0.5,
                seed=rng.randint(0, 1000),
            )
            report = _infer(config, seed=config["seed"])
            assert report.matches(config), config

    def test_ddmin_shrinks_expanded_sync_programs(self):
        """The existing ddmin shrinker handles expanded sync_refresh
        programs: a divergence predicate on 'still defeats the sampler'
        shrinks to a minimal program that still flips."""
        from repro.testkit.payload_fuzz import shrink_program

        config = _config(capacity=4, policy="first_k_per_window")
        report = _infer(config)
        program = resolve_program(
            parse_program(_DEMO_SOURCE), _BINDINGS, sync_report=report
        )

        def still_flips(candidate):
            try:
                compiled = compile_program(candidate)
            except CompileError:
                return False
            dram = build_utrr_target(config, seed=0)
            addr = dram.mapping.address_of(DramAddress(0, 100, 0))
            dram.write(addr, b"\x00" * dram.geometry.row_bytes)
            execute_payload(compiled, dram=dram)
            return bool(dram.flips)

        assert still_flips(program)
        shrunk = shrink_program(program, still_flips)
        assert still_flips(shrunk)
        assert len(shrunk.steps) <= len(program.steps)
        # The refresh-sync structure is load-bearing: the shrinker cannot
        # drop the hammer loop itself.
        assert any(isinstance(s, Loop) for s in shrunk.steps)
