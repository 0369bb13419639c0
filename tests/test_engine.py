"""Tests for the sweep engine: spec expansion, deterministic seed
derivation, serial-vs-pool equivalence, checkpoint/resume after a
simulated mid-sweep kill, and the retry/timeout scheduler paths."""

import json
import os

import pytest

from repro.attack.probability import (
    monte_carlo_success_rate,
    monte_carlo_study,
    paper_example_parameters,
)
from repro.engine import (
    EngineConfig,
    MemoryStore,
    SweepEngine,
    SweepSpec,
    diff_result_files,
    run_sweep,
)
from repro.engine.pool import SerialExecutor, WorkerPool, backoff_delay
from repro.engine.runner import execute_trial, register_trial_kind, trial_kinds
from repro.engine.store import ResultStore
from repro.errors import ConfigError
from repro.sim.rng import derive_seed


def small_spec(**overrides):
    raw = {
        "name": "mc-test",
        "kind": "monte_carlo",
        "seed": 11,
        "repeats": 2,
        "base": {"trials": 5_000, "physical_blocks": 16_384},
        "grid": {"victim_spray_fraction": [0.1, 0.25, 1.0]},
    }
    raw.update(overrides)
    return SweepSpec.from_dict(raw)


class TestSpec:
    def test_expansion_is_cartesian_times_repeats(self):
        spec = small_spec()
        trials = spec.expand()
        assert len(trials) == 3 * 2 == spec.total_trials
        assert [t.trial_id for t in trials] == [
            "0000.00", "0000.01", "0001.00", "0001.01", "0002.00", "0002.01",
        ]

    def test_trial_seeds_derive_from_spawn_key(self):
        spec = small_spec()
        for trial in spec.expand():
            assert trial.spawn_key == ("sweep", "mc-test", trial.point_index,
                                       trial.repeat)
            assert trial.seed == derive_seed(spec.seed, *trial.spawn_key)
        seeds = [t.seed for t in spec.expand()]
        assert len(set(seeds)) == len(seeds)

    def test_random_axis_is_deterministic(self):
        spec = small_spec(
            grid={}, random={"victim_spray_fraction":
                             {"low": 0.05, "high": 1.0, "count": 4}}
        )
        first = spec.axis_values()
        second = spec.axis_values()
        assert first == second
        values = first["victim_spray_fraction"]
        assert len(values) == 4
        assert all(0.05 <= v <= 1.0 for v in values)

    def test_random_axis_depends_on_seed(self):
        a = small_spec(grid={}, random={"x": {"low": 0, "high": 1, "count": 3}})
        b = small_spec(grid={}, seed=99,
                       random={"x": {"low": 0, "high": 1, "count": 3}})
        assert a.axis_values() != b.axis_values()

    def test_json_roundtrip_keeps_fingerprint(self):
        spec = small_spec()
        clone = SweepSpec.from_json(json.dumps(spec.to_dict()))
        assert clone.fingerprint() == spec.fingerprint()

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec(name="", kind="monte_carlo")
        with pytest.raises(ConfigError):
            SweepSpec(name="x", kind="monte_carlo", repeats=0)
        with pytest.raises(ConfigError):
            SweepSpec(name="x", kind="k", grid={"a": [1]}, random={"a": {"count": 1}})
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"name": "x", "kind": "k", "bogus": 1})


class TestSpawnKeyEquivalence:
    def test_engine_and_direct_calls_share_streams(self):
        """Satellite: an engine trial and a direct monte_carlo call with the
        same (seed, spawn_key) consume identical random streams."""
        spec = small_spec(repeats=1, grid={"victim_spray_fraction": [0.25]})
        report = run_sweep(spec)
        trial = spec.expand()[0]
        from repro.engine.runner import _resolve_probability_parameters

        params = _resolve_probability_parameters(dict(trial.params))
        direct = monte_carlo_success_rate(
            params, 5_000, seed=spec.seed, spawn_key=trial.spawn_key
        )
        assert direct == report.records[0]["result"]["success_rate"]

    def test_default_spawn_key_is_backwards_compatible(self):
        params = paper_example_parameters()
        assert monte_carlo_success_rate(params, 10_000, seed=3) == \
            monte_carlo_success_rate(params, 10_000, seed=3,
                                     spawn_key=("monte-carlo",))


class TestDeterminism:
    def test_serial_and_pool_summaries_byte_identical(self):
        spec = small_spec()
        serial = run_sweep(spec, workers=0)
        pooled = run_sweep(spec, workers=3)
        assert serial.summary_json() == pooled.summary_json()
        assert serial.summary_json().encode() == pooled.summary_json().encode()

    def test_monte_carlo_study_worker_invariant(self):
        params = paper_example_parameters()
        serial = monte_carlo_study(params, 40_000, seed=5, shard_size=10_000)
        pooled = monte_carlo_study(params, 40_000, seed=5, shard_size=10_000,
                                   workers=2)
        assert serial == pooled

    def test_repeated_run_identical(self):
        spec = small_spec()
        assert run_sweep(spec).summary_json() == run_sweep(spec).summary_json()


class TestCheckpointResume:
    def test_resume_after_kill_skips_completed(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "results.jsonl")
        full = run_sweep(spec, store_path=path, workers=0)
        assert full.executed == 6 and full.skipped == 0

        # Simulate a kill after three trials: keep header + 3 records and a
        # torn partial line (the write that was in flight).
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:4])
            handle.write('{"trial_id": "0001.01", "status"')

        resumed = run_sweep(spec, store_path=path, workers=0)
        assert resumed.skipped == 3
        assert resumed.executed == 3
        assert resumed.summary_json() == full.summary_json()

    def test_resumed_store_matches_uninterrupted_store(self, tmp_path):
        """A run resumed from a partial checkpoint leaves the same result
        file, record for record and in order, as one never interrupted."""
        spec = small_spec()
        reference_path = str(tmp_path / "reference.jsonl")
        run_sweep(spec, store_path=reference_path)
        with open(reference_path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        partial_path = str(tmp_path / "partial.jsonl")
        keep = 1 + 2  # header + two records
        with open(partial_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:keep]) + "\n")
        report = run_sweep(spec, store_path=partial_path)
        assert report.skipped == 2
        assert report.executed == len(lines) - keep
        assert diff_result_files(reference_path, partial_path) == []

    def test_completed_sweep_resumes_without_rerunning(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "results.jsonl")
        full = run_sweep(spec, store_path=path)
        again = run_sweep(spec, store_path=path)
        assert again.executed == 0
        assert again.skipped == 6
        assert again.summary_json() == full.summary_json()

    def test_resume_with_different_spec_refused(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        run_sweep(small_spec(), store_path=path)
        with pytest.raises(ConfigError):
            run_sweep(small_spec(seed=99), store_path=path)

    def test_fresh_flag_restarts(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        run_sweep(small_spec(), store_path=path)
        report = run_sweep(small_spec(), store_path=path, fresh=True)
        assert report.executed == 6 and report.skipped == 0

    def test_non_store_file_refused(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        with open(path, "w") as handle:
            handle.write('{"unrelated": true}\n')
        with pytest.raises(ConfigError):
            run_sweep(small_spec(), store_path=path)

    def test_failed_trials_rerun_on_resume(self, tmp_path):
        marker = str(tmp_path / "flaky.log")
        spec = SweepSpec(
            name="flaky-resume", kind="flaky", seed=1,
            base={"path": marker, "fail_times": 1},
        )
        path = str(tmp_path / "results.jsonl")
        first = run_sweep(spec, store_path=path)  # no retries: fails
        assert first.failed_trials == ["0000.00"]
        second = run_sweep(spec, store_path=path)  # re-runs, now succeeds
        assert second.executed == 1
        assert second.failed_trials == []


class TestRetryAndTimeout:
    def test_serial_retry_succeeds_after_backoff(self, tmp_path):
        marker = str(tmp_path / "flaky.log")
        spec = SweepSpec(
            name="flaky", kind="flaky", seed=1,
            base={"path": marker, "fail_times": 2},
        )
        report = SweepEngine(
            spec, config=EngineConfig(retries=2, backoff_base=0.001)
        ).run()
        assert report.ok
        record = report.records[0]
        assert record["attempts"] == 3
        assert record["result"]["attempts_seen"] == 3

    def test_serial_retries_exhausted(self, tmp_path):
        marker = str(tmp_path / "flaky.log")
        spec = SweepSpec(
            name="flaky", kind="flaky", seed=1,
            base={"path": marker, "fail_times": 5},
        )
        report = SweepEngine(
            spec, config=EngineConfig(retries=1, backoff_base=0.001)
        ).run()
        assert not report.ok
        record = report.records[0]
        assert record["status"] == "failed"
        assert record["attempts"] == 2
        assert "flaky trial failing" in record["error"]

    def test_pool_retry_across_workers(self, tmp_path):
        marker = str(tmp_path / "flaky.log")
        spec = SweepSpec(
            name="flaky-pool", kind="flaky", seed=1,
            base={"path": marker, "fail_times": 2},
        )
        report = SweepEngine(
            spec,
            config=EngineConfig(workers=2, retries=3, backoff_base=0.001),
        ).run()
        assert report.ok
        assert report.records[0]["attempts"] == 3

    def test_pool_timeout_kills_and_fails_trial(self, tmp_path):
        spec = SweepSpec(
            name="sleepy", kind="sleep", seed=1, base={"seconds": 30.0},
        )
        report = SweepEngine(
            spec,
            config=EngineConfig(workers=1, timeout=0.3, retries=0),
        ).run()
        assert not report.ok
        record = report.records[0]
        assert record["status"] == "failed"
        assert "timed out" in record["error"]

    def test_pool_timeout_spares_fast_trials(self):
        spec = SweepSpec(
            name="quick", kind="sleep", seed=1, repeats=3,
            base={"seconds": 0.01},
        )
        report = SweepEngine(
            spec, config=EngineConfig(workers=2, timeout=5.0)
        ).run()
        assert report.ok and report.executed == 3

    def test_backoff_is_exponential_and_capped(self):
        assert backoff_delay(1, 0.1, 2.0) == pytest.approx(0.1)
        assert backoff_delay(2, 0.1, 2.0) == pytest.approx(0.2)
        assert backoff_delay(3, 0.1, 2.0) == pytest.approx(0.4)
        assert backoff_delay(10, 0.1, 2.0) == 2.0


class TestRegistry:
    def test_builtin_kinds_registered(self):
        from repro.engine.runner import _REGISTRY

        kinds = trial_kinds()
        for kind in ("monte_carlo", "mitigation", "serve", "serve_chaos"):
            assert kind in kinds
        assert _REGISTRY["serve_chaos"] is _REGISTRY["serve"]

    def test_soak_kinds_stay_out_of_the_production_registry(self):
        """``sleep`` / ``flaky`` come from the test suite's conftest, not
        from importing the package."""
        import subprocess
        import sys

        import repro

        code = (
            "import repro; from repro.engine.runner import trial_kinds; "
            "print(sorted(set(trial_kinds()) & {'sleep', 'flaky'}))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        assert out.strip() == "[]"
        assert {"sleep", "flaky"} <= set(trial_kinds())

    def test_unknown_kind_rejected(self):
        spec = SweepSpec(name="x", kind="does-not-exist", seed=1)
        with pytest.raises(ConfigError):
            execute_trial(spec.expand()[0])

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError):
            register_trial_kind("sleep", lambda trial: {})

    def test_custom_kind_runs(self):
        register_trial_kind(
            "echo-seed", lambda trial: {"seed": trial.seed}, replace=True
        )
        spec = SweepSpec(name="echo", kind="echo-seed", seed=3, repeats=2)
        report = run_sweep(spec)
        assert [r["result"]["seed"] for r in report.records] == \
            [t.seed for t in spec.expand()]


class TestAggregation:
    def test_metrics_fold_into_registry(self, tmp_path):
        marker = str(tmp_path / "flaky.log")
        spec = SweepSpec(
            name="flaky", kind="flaky", seed=1,
            base={"path": marker, "fail_times": 1},
        )
        engine = SweepEngine(
            spec, config=EngineConfig(retries=1, backoff_base=0.001)
        )
        report = engine.run()
        snapshot = report.metrics.snapshot()
        assert snapshot["sweep.trials.ok"] == 1
        assert snapshot["sweep.trials.failed"] == 0
        assert snapshot["sweep.trials.retries"] == 1
        assert snapshot["sweep.trial_seconds.count"] == 1

    def test_summary_shape(self):
        report = run_sweep(small_spec())
        summary = report.summary
        assert summary["totals"] == {
            "trials": 6, "ok": 6, "failed": 0, "failed_trials": [],
        }
        assert [p["point_index"] for p in summary["points"]] == [0, 1, 2]
        point = summary["points"][1]
        assert point["params"] == {"victim_spray_fraction": 0.25}
        assert point["metrics"]["success_rate"]["count"] == 2
        assert point["metrics"]["analytic"]["mean"] == pytest.approx(0.0703125)


class TestStoreTruncation:
    def test_torn_line_truncated_before_append(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "results.jsonl")
        run_sweep(spec, store_path=path)
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:2])
            handle.write('{"torn')
        run_sweep(spec, store_path=path)
        # Every line in the repaired file must parse.
        with open(path) as handle:
            for line in handle:
                json.loads(line)


class TestExecutorDegradation:
    def test_make_executor_serial_for_zero_workers(self):
        from repro.engine import make_executor

        assert isinstance(make_executor(workers=0), SerialExecutor)

    def test_make_executor_pool_for_positive_workers(self):
        from repro.engine import make_executor

        executor = make_executor(workers=2)
        assert isinstance(executor, (WorkerPool, SerialExecutor))


class TestBatchedHandoff:
    """``run_batched`` + ``append_many``: chunked checkpoint handoff must
    be byte-identical to the per-record path, only the fsync cadence may
    differ."""

    def test_run_batched_delivers_same_records_as_run(self):
        from repro.engine.store import canonical_record

        spec = small_spec()
        per_record, batched = [], []
        SerialExecutor().run(spec.expand(), per_record.append)
        SerialExecutor().run_batched(spec.expand(), batched.extend)
        assert [canonical_record(r) for r in per_record] == [
            canonical_record(r) for r in batched
        ]

    def test_run_batched_chunks_by_batch_size(self):
        from repro.engine.pool import BATCH_RECORDS

        spec = small_spec(repeats=BATCH_RECORDS)  # several full chunks
        chunks = []
        SerialExecutor().run_batched(spec.expand(), chunks.append)
        assert sum(len(chunk) for chunk in chunks) == len(spec.expand())
        assert all(len(chunk) <= BATCH_RECORDS for chunk in chunks)
        assert len(chunks) > 1

    def test_append_many_bytes_identical_to_looped_append(self, tmp_path):
        spec = small_spec()
        records = []
        SerialExecutor().run(spec.expand(), records.append)

        looped = str(tmp_path / "looped.jsonl")
        store_a = ResultStore(looped)
        store_a.open(spec)
        for record in records:
            store_a.append(record)
        store_a.close()

        chunked = str(tmp_path / "chunked.jsonl")
        store_b = ResultStore(chunked)
        store_b.open(spec)
        store_b.append_many(records)
        store_b.close()

        with open(looped, "rb") as a, open(chunked, "rb") as b:
            assert a.read() == b.read()

    def test_memory_store_append_many(self):
        store = MemoryStore()
        store.append_many([{"trial_id": "a", "status": "ok"}])
        assert len(store.records()) == 1


class TestProbabilityGridKind:
    @staticmethod
    def _run(base):
        spec = {
            "name": "g", "kind": "probability_grid", "seed": 1, "repeats": 1,
            "base": base,
        }
        return run_sweep(SweepSpec.from_dict(spec))

    def test_result_fields(self):
        result = self._run({"cycles": 10, "target": 0.5}).records[0]["result"]
        assert set(result) == {
            "single_cycle", "cumulative", "cycles", "cycles_to_target",
            "target",
        }
        # Paper defaults: ~7% per cycle, >50% within 10 cycles, 10 cycles
        # to pass one-half.
        assert result["single_cycle"] == pytest.approx(0.0703, abs=0.002)
        assert result["cumulative"] > 0.5
        assert result["cycles_to_target"] == 10

    def test_matches_scalar_functions(self):
        from repro.attack.probability import (
            cumulative_success_probability,
            cycles_to_reach,
            single_cycle_success_probability,
        )

        base = {"cycles": 7, "target": 0.9, "physical_blocks": 262_144}
        result = self._run(base).records[0]["result"]
        p = single_cycle_success_probability(paper_example_parameters())
        assert result["single_cycle"] == p
        assert result["cumulative"] == cumulative_success_probability(p, 7)
        assert result["cycles_to_target"] == cycles_to_reach(p, 0.9)

    def test_negative_cycles_fail(self):
        assert not self._run({"cycles": -1}).ok


class TestPayloadTrialKind:
    @staticmethod
    def _spec(**overrides):
        raw = {
            "name": "payload-grid",
            "kind": "payload",
            "seed": 13,
            "base": {"template": "double_sided"},
            "grid": {"repeats": [40_000, 80_000]},
        }
        raw.update(overrides)
        return SweepSpec.from_dict(raw)

    def test_registered(self):
        assert "payload" in trial_kinds()

    def test_template_grid_sweeps_repeats(self):
        report = run_sweep(self._spec())
        results = [record["result"] for record in report.records]
        assert [r["reads"] for r in results] == [80_000, 160_000]
        for result in results:
            assert result["program"] == "double_sided"
            assert result["target"] == "stack"
            assert result["bursts"] == 1
            assert result["reads"] == result["static_reads"]

    def test_results_deterministic(self):
        def stable(report):
            return [
                {k: v for k, v in record.items() if k != "elapsed"}
                for record in report.records
            ]

        assert stable(run_sweep(self._spec())) == \
            stable(run_sweep(self._spec()))

    def test_program_dict_with_explicit_bindings(self):
        from repro.payload import build_template

        program = build_template("one_location", repeats=5_000)
        spec = SweepSpec.from_dict({
            "name": "payload-prog",
            "kind": "payload",
            "seed": 13,
            "base": {
                "program": json.loads(program.to_json()),
                "bindings": {"loc": 40},
            },
        })
        report = run_sweep(spec)
        result = report.records[0]["result"]
        assert result["reads"] == 5_000

    def test_needs_exactly_one_source(self):
        spec = SweepSpec.from_dict({
            "name": "bad", "kind": "payload", "seed": 1, "base": {},
        })
        with pytest.raises(ConfigError):
            execute_trial(spec.expand()[0])
        both = SweepSpec.from_dict({
            "name": "bad2", "kind": "payload", "seed": 1,
            "base": {"template": "double_sided",
                     "program": {"name": "p", "target": "stack",
                                 "steps": [{"op": "read", "lba": 1}]}},
        })
        with pytest.raises(ConfigError):
            execute_trial(both.expand()[0])

    def test_unknown_param_rejected(self):
        spec = SweepSpec.from_dict({
            "name": "bad3", "kind": "payload", "seed": 1,
            "base": {"template": "double_sided", "bogus": 1},
        })
        with pytest.raises(ConfigError):
            execute_trial(spec.expand()[0])
