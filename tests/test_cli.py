"""Tests for the ``python -m repro`` command-line front end."""

import json
import os

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.cycles == 10
        assert args.seed == 7

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "42", "info"])
        assert args.seed == 42


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "L2P table" in out
        assert "amplification" in out

    def test_probability(self, capsys):
        assert main(["probability", "--trials", "50000"]) == 0
        out = capsys.readouterr().out
        assert "0.07" in out  # the ~7% headline

    def test_demo_success_exit_code(self, capsys):
        code = main(
            ["demo", "--cycles", "8", "--spray-files", "64", "--hammer-seconds", "60"]
        )
        out = capsys.readouterr().out
        assert "ground-truth flips" in out
        assert code == 0
        assert "RESULT: leak" in out

    def test_demo_failure_exit_code(self, capsys):
        # One starved cycle: no leak possible.
        code = main(
            ["demo", "--cycles", "1", "--spray-files", "4", "--hammer-seconds", "0.01"]
        )
        assert code == 1
        assert "no leak" in capsys.readouterr().out

    def test_probability_json(self, capsys):
        assert main(["probability", "--trials", "50000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic"] == pytest.approx(0.0703125)
        assert payload["monte_carlo"] == pytest.approx(0.07, abs=0.01)
        assert payload["trials"] == 50000


def write_spec(tmp_path, **overrides):
    raw = {
        "name": "cli-sweep",
        "kind": "monte_carlo",
        "seed": 7,
        "repeats": 1,
        "base": {"trials": 5000, "physical_blocks": 16384},
        "grid": {"victim_spray_fraction": [0.1, 0.25, 0.5, 1.0]},
    }
    raw.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestSweepCommand:
    def test_four_trial_sweep_serial(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert main(["sweep", spec, "--workers", "0"]) == 0
        out = capsys.readouterr().out
        assert "4 trials — 4 ok, 0 failed" in out
        assert (tmp_path / "spec.results.jsonl").exists()

    def test_json_output_serial_vs_pool_identical(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert main(["sweep", spec, "--workers", "0", "--json",
                     "--out", str(tmp_path / "a.jsonl")]) == 0
        serial = capsys.readouterr().out
        assert main(["sweep", spec, "--workers", "2", "--json",
                     "--out", str(tmp_path / "b.jsonl")]) == 0
        pooled = capsys.readouterr().out
        assert serial == pooled
        summary = json.loads(serial)
        assert summary["totals"]["ok"] == 4

    def test_resume_skips_completed(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out_path = str(tmp_path / "r.jsonl")
        assert main(["sweep", spec, "--out", out_path]) == 0
        capsys.readouterr()
        assert main(["sweep", spec, "--out", out_path]) == 0
        assert "4 resumed" in capsys.readouterr().out

    def test_summary_file_written(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        summary_path = tmp_path / "summary.json"
        assert main(["sweep", spec, "--summary", str(summary_path)]) == 0
        summary = json.loads(summary_path.read_text())
        assert summary["name"] == "cli-sweep"

    def test_pooled_matches_serial_and_diff_agrees(self, tmp_path, capsys):
        """The pooled summary equals the serial one.  ``sweep-diff`` then
        compares two serial stores: it is order-sensitive, and the pool
        writes records in completion order."""
        spec = write_spec(tmp_path)
        path_a = str(tmp_path / "serial-a.jsonl")
        path_b = str(tmp_path / "serial-b.jsonl")
        assert main(["sweep", spec, "--json", "--out", path_a]) == 0
        serial = capsys.readouterr().out
        assert main(["sweep", spec, "--workers", "2", "--json",
                     "--out", str(tmp_path / "pooled.jsonl")]) == 0
        assert capsys.readouterr().out == serial
        assert main(["sweep", spec, "--out", path_b]) == 0
        capsys.readouterr()
        assert main(["sweep-diff", path_a, path_b]) == 0
        assert "identical" in capsys.readouterr().out

    def test_sweep_diff_exit_code_on_mismatch(self, tmp_path, capsys):
        spec_a = write_spec(tmp_path)
        path_a = str(tmp_path / "a.jsonl")
        assert main(["sweep", spec_a, "--out", path_a]) == 0
        spec_b = write_spec(tmp_path, seed=8)
        path_b = str(tmp_path / "b.jsonl")
        assert main(["sweep", spec_b, "--out", path_b]) == 0
        capsys.readouterr()
        assert main(["sweep-diff", path_a, path_b]) == 1
        assert "difference" in capsys.readouterr().out

    def test_failed_sweep_exit_code(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, kind="flaky", grid={},
            base={"path": str(tmp_path / "flaky.log"), "fail_times": 99},
        )
        assert main(["sweep", spec]) == 1
        assert "FAILED trial" in capsys.readouterr().out

    def test_mitigations_json(self, capsys):
        code = main(["mitigations", "--cycles", "2", "--spray-files", "16",
                     "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(row["name"] == "baseline (no defense)" for row in rows)
        assert all("mitigated" in row for row in rows)


class TestFuzzCommand:
    def test_clean_campaign_exit_zero(self, capsys):
        assert main(["fuzz", "--ops", "120"]) == 0
        out = capsys.readouterr().out
        assert "scalar replay: ok" in out
        assert "batch" in out

    def test_json_report(self, capsys):
        assert main(["--seed", "5", "fuzz", "--ops", "60", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["seed"] == 5
        assert payload["invariants_checked"]
        assert payload["divergences"]["scalar"] == []

    def test_report_and_replay_roundtrip(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["fuzz", "--ops", "80", "--out", str(report_path)]) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["ok"] is True

        # Save a trace and replay it through --replay: still clean.
        from repro.testkit.trace import generate_trace

        trace_path = tmp_path / "trace.json"
        trace_path.write_text(generate_trace(seed=4, num_ops=40).to_json())
        assert main(["fuzz", "--replay", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "scalar replay of 40 op(s): ok" in out
        assert "batch  replay of 40 op(s): ok" in out

    def test_divergent_replay_exit_code(self, tmp_path, capsys, monkeypatch):
        import repro.ftl.l2p as l2p_mod

        original = l2p_mod.LinearL2p.slot_of

        def broken(self, lba):
            return min(original(self, lba) + 1, self.num_lbas - 1)

        monkeypatch.setattr(l2p_mod.LinearL2p, "slot_of", broken)
        from repro.testkit.trace import generate_trace

        trace_path = tmp_path / "trace.json"
        trace_path.write_text(generate_trace(seed=42, num_ops=120).to_json())
        assert main(["fuzz", "--replay", str(trace_path)]) == 1
        assert "divergence" in capsys.readouterr().out

    def test_repro_out_written_on_divergence(self, tmp_path, capsys, monkeypatch):
        import repro.ftl.l2p as l2p_mod

        original = l2p_mod.LinearL2p.slot_of

        def broken(self, lba):
            return min(original(self, lba) + 1, self.num_lbas - 1)

        monkeypatch.setattr(l2p_mod.LinearL2p, "slot_of", broken)
        repro_path = tmp_path / "repro.json"
        assert main(
            ["--seed", "42", "fuzz", "--ops", "120",
             "--repro-out", str(repro_path)]
        ) == 1
        assert repro_path.exists()
        saved = json.loads(repro_path.read_text())
        assert saved["ops"]
        capsys.readouterr()

    @staticmethod
    def run_demo_check(capsys, argv):
        """Run ``demo --check``; every layer's check must pass."""
        code = main(argv)
        out = capsys.readouterr().out
        assert "check dram  ok" in out
        assert "check ftl   ok" in out
        assert "check ext4  ok" in out
        assert code in (0, 1)  # leak or not; invariants held either way
        return code, out

    def test_demo_check_flag(self, capsys):
        self.run_demo_check(
            capsys,
            ["--seed", "3", "demo", "--cycles", "2", "--spray-files", "16",
             "--hammer-seconds", "30", "--check"],
        )

    def test_demo_check_flag_default_arguments(self, capsys):
        """The default run reads a sprayed file's indirect block through a
        flipped L2P entry: a redirected block map, not a violation."""
        code, out = self.run_demo_check(capsys, ["demo", "--check"])
        assert code == 0
        assert "inode 165 (/.spray-c02-000027): block map redirected" in out


class TestDemoGolden:
    FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "demo.stdout")

    def test_default_demo_stdout_matches_fixture(self, capsys):
        """``python -m repro demo`` with default arguments prints exactly
        the committed bytes: the end-to-end attack, DRAM accounting
        included, is unchanged."""
        assert main(["demo"]) == 0
        with open(self.FIXTURE, "rb") as handle:
            expected = handle.read()
        assert capsys.readouterr().out.encode("utf-8") == expected


class TestTraceCommand:
    FIXTURE = "tests/golden/double_sided_hammer.trace.jsonl"

    def test_summary_default(self, capsys):
        assert main(["trace", self.FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "activations:" in out
        assert "flips: 2" in out

    def test_json_summary(self, capsys):
        assert main(["trace", self.FIXTURE, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["activations"]["conserved"] is True

    def test_validate_clean(self, capsys):
        assert main(["trace", self.FIXTURE, "--validate"]) == 0
        out = capsys.readouterr().out
        assert "conservation holds" in out

    def test_validate_rejects_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name":"flash.program","t":0.0,"seq":0}\n')
        assert main(["trace", str(bad), "--validate"]) == 1
        assert "missing field" in capsys.readouterr().out

    def test_diff_identical(self, tmp_path, capsys):
        assert main(["trace", self.FIXTURE, "--diff", self.FIXTURE]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_diff_detects_divergence(self, tmp_path, capsys):
        pruned = tmp_path / "pruned.jsonl"
        with open(self.FIXTURE, "r", encoding="utf-8") as handle:
            lines = [l for l in handle if '"dram.flip"' not in l]
        pruned.write_text("".join(lines))
        assert main(["trace", self.FIXTURE, "--diff", str(pruned)]) == 1
        assert "flips" in capsys.readouterr().out

    def test_chrome_export(self, tmp_path, capsys):
        out_path = tmp_path / "chrome.json"
        assert main(["trace", self.FIXTURE, "--chrome", str(out_path)]) == 0
        chrome = json.loads(out_path.read_text())
        assert chrome["traceEvents"]
        capsys.readouterr()

    def test_emit_golden_matches_fixture(self, tmp_path, capsys):
        regen = tmp_path / "regen.jsonl"
        assert main(["trace", "--emit-golden", "double_sided_hammer",
                     str(regen)]) == 0
        assert regen.read_bytes() == open(self.FIXTURE, "rb").read()
        assert "golden trace double_sided_hammer" in capsys.readouterr().out

    def test_emit_golden_rejects_unknown_name(self, tmp_path, capsys):
        regen = tmp_path / "regen.jsonl"
        assert main(["trace", "--emit-golden", "bogus", str(regen)]) == 2
        assert "unknown golden" in capsys.readouterr().out
        assert not regen.exists()

    def test_no_file_is_an_error(self, capsys):
        assert main(["trace"]) == 2
        assert "need a trace file" in capsys.readouterr().out

    def test_demo_trace_flag(self, tmp_path, capsys):
        trace_path = tmp_path / "demo.jsonl"
        main(["demo", "--cycles", "1", "--spray-files", "8",
              "--hammer-seconds", "1", "--trace", str(trace_path)])
        out = capsys.readouterr().out
        assert "trace:" in out
        assert main(["trace", str(trace_path), "--validate"]) == 0
        capsys.readouterr()

    def test_fuzz_trace_flag(self, tmp_path, capsys):
        prefix = tmp_path / "fz"
        assert main(["fuzz", "--ops", "60", "--lbas", "64",
                     "--trace", str(prefix)]) == 0
        capsys.readouterr()
        for mode in ("scalar", "batch"):
            path = "%s.%s.jsonl" % (prefix, mode)
            assert main(["trace", path, "--validate"]) == 0
            capsys.readouterr()

    def test_sweep_trace_dir(self, tmp_path, capsys):
        import os

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "cli-trace", "kind": "fault_campaign", "seed": 3,
            "base": {"num_ops": 40, "num_lbas": 64}, "repeats": 1,
        }))
        trace_dir = tmp_path / "traces"
        assert main(["sweep", str(spec), "--out", str(tmp_path / "r.jsonl"),
                     "--trace-dir", str(trace_dir)]) == 0
        capsys.readouterr()
        names = sorted(os.listdir(trace_dir))
        assert names == ["0000.00.batch.jsonl", "0000.00.scalar.jsonl"]
        assert main(["trace", str(trace_dir / names[0]), "--validate"]) == 0
        capsys.readouterr()


class TestServeCommand:
    def _scenario_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "name": "cli-serve",
            "seed": 11,
            "device": {"num_lbas": 512, "profile": "tempered"},
            "tenants": [
                {"name": "attacker", "kind": "hammer_attacker", "ops": 400},
                {"name": "scanner", "kind": "scan_reader", "ops": 200,
                 "max_iops": 20000},
            ],
        }))
        return str(path)

    def test_table_output(self, tmp_path, capsys):
        assert main(["serve", self._scenario_path(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario 'cli-serve': 2 tenants" in out
        assert "attacker" in out and "scanner" in out
        assert "hammer threshold" in out

    def test_json_output(self, tmp_path, capsys):
        assert main(["serve", self._scenario_path(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "cli-serve"
        assert len(payload["tenants"]) == 2
        assert payload["attacker"]["hammer_threshold"] == 20000.0

    def test_trace_and_metrics_outputs_deterministic(self, tmp_path, capsys):
        scenario = self._scenario_path(tmp_path)
        for tag in ("a", "b"):
            assert main([
                "serve", scenario,
                "--trace", str(tmp_path / ("trace-%s.jsonl" % tag)),
                "--metrics-out", str(tmp_path / ("metrics-%s.txt" % tag)),
            ]) == 0
        capsys.readouterr()
        for stem in ("trace", "metrics"):
            a = (tmp_path / ("%s-a.%s" % (stem, "jsonl" if stem == "trace" else "txt"))).read_bytes()
            b = (tmp_path / ("%s-b.%s" % (stem, "jsonl" if stem == "trace" else "txt"))).read_bytes()
            assert a == b
        metrics = (tmp_path / "metrics-a.txt").read_text()
        assert "serve_" in metrics

    def test_inject_fault_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 9,
            "read_error_rate": 0.05,
            "events": [{"op": "program", "index": 10, "kind": "power_loss"}],
        }))
        assert main([
            "serve", self._scenario_path(tmp_path), "--inject", str(plan),
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        res = payload["resilience"]
        assert res["faults"] is not None
        assert res["retries"] > 0

    def test_inject_resilience_summary_line(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"seed": 9, "read_error_rate": 0.05}))
        assert main([
            "serve", self._scenario_path(tmp_path), "--inject", str(plan),
        ]) == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "acked writes lost" in out

    def test_report_resilience_schema(self, tmp_path, capsys):
        """The report's resilience section carries exactly the documented
        fields, so downstream dashboards can rely on the shape."""
        assert main(["serve", self._scenario_path(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        res = payload["resilience"]
        assert set(res) == {
            "power_cuts", "availability_gap_s", "retries", "timeouts",
            "hedges", "hedge_wins", "parked_writes", "dropped_ops",
            "read_only", "durability", "faults",
        }
        assert set(res["durability"]) == {
            "acked_writes", "acked_trims", "audited_lbas", "intact",
            "lost", "trim_resurrected", "corrupt_exempt",
        }
        assert res["faults"] is None  # no plan injected
        for tenant in payload["tenants"]:
            for key in ("retries", "timeouts", "hedge_wins",
                        "errors_by_status", "error_budget_remaining"):
                assert key in tenant


class TestPayloadCommand:
    @staticmethod
    def _template_args(*extra):
        return [
            "payload", "compile", "--template", "double_sided",
            "--bind", "agg_left=5", "--bind", "agg_right=7",
        ] + list(extra)

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["payload"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["payload", "compile", "--template", "double_sided"]
        )
        assert args.payload_command == "compile"
        assert args.repeats == 120_000
        assert args.pairs == 2
        diff = build_parser().parse_args(["payload", "diff"])
        assert diff.ios == 240_000

    def test_compile_template(self, capsys):
        assert main(self._template_args()) == 0
        out = capsys.readouterr().out
        assert "'double_sided' (target=stack)" in out
        assert "static totals: reads=240000" in out
        assert "loop count=120000 body=2" in out
        assert "read lba=5" in out and "read lba=7" in out

    def test_compile_unbound_placeholder_exits_2(self, capsys):
        code = main(["payload", "compile", "--template", "double_sided"])
        assert code == 2
        out = capsys.readouterr().out
        assert "payload compile:" in out
        assert "unbound placeholder" in out

    def test_compile_requires_one_source(self, capsys):
        assert main(["payload", "compile"]) == 2
        assert "payload compile:" in capsys.readouterr().out

    def test_compile_writes_program_and_binary(self, tmp_path, capsys):
        out_json = str(tmp_path / "p.json")
        out_bin = str(tmp_path / "p.bin")
        assert main(
            self._template_args("--out", out_json, "--bin", out_bin)
        ) == 0
        capsys.readouterr()
        from repro.payload import Program, compile_program

        with open(out_json, "r", encoding="utf-8") as handle:
            program = Program.from_json(handle.read())
        assert program.is_resolved
        compiled = compile_program(program)
        with open(out_bin, "rb") as handle:
            assert handle.read() == compiled.to_bytes()
        assert len(compiled.to_bytes()) == 8 * len(compiled.instructions)

    def test_compile_loads_dsl_text_file(self, tmp_path, capsys):
        path = tmp_path / "mine.payload"
        path.write_text("loop 100 {\n    read 3\n}\n")
        assert main(["payload", "compile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "'mine'" in out  # name defaults to the file stem
        assert "reads=100" in out

    def test_compile_loads_json_program_file(self, tmp_path, capsys):
        from repro.payload import build_template, resolve_program

        program = resolve_program(
            build_template("double_sided", repeats=500),
            {"agg_left": 1, "agg_right": 2},
        )
        path = tmp_path / "p.json"
        path.write_text(program.to_json())
        assert main(["payload", "compile", str(path)]) == 0
        assert "reads=1000" in capsys.readouterr().out

    def test_explain_lists_placeholders(self, capsys):
        assert main(
            ["payload", "explain", "--template", "many_sided", "--pairs", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "placeholders:" in out
        assert "@agg0_left" in out and "@agg2_right" in out
        assert "not compilable as-is" in out  # nothing bound yet

    def test_explain_compiles_when_bound(self, capsys):
        assert main(
            ["payload", "explain", "--template", "one_location",
             "--bind", "loc=9"]
        ) == 0
        out = capsys.readouterr().out
        assert "compiles to" in out
        assert "read lba=9" in out

    def test_run_json_output(self, capsys):
        code = main(
            ["--seed", "13", "payload", "run",
             "--template", "double_sided", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["program"] == "double_sided"
        assert payload["target"] == "stack"
        assert payload["reads"] == 240_000
        assert payload["bursts"] == 1
        assert payload["seed"] == 13
        assert payload["flip_count"] == len(payload["flips"])
        for flip in payload["flips"]:
            assert set(flip) == {"bank", "row", "byte", "bit", "to"}

    def test_run_output_is_deterministic(self, capsys):
        argv = ["--seed", "13", "payload", "run",
                "--template", "double_sided", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_run_dram_target_program(self, tmp_path, capsys):
        path = tmp_path / "dram.payload"
        path.write_text(
            "target dram\nloop 2000 {\n    act 0 4\n    act 0 6\n}\n"
        )
        assert main(["payload", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "target=dram" in out
        assert "acts=4000" in out

    def test_diff_gate_passes_at_ci_seed(self, capsys):
        assert main(["--seed", "13", "payload", "diff"]) == 0
        out = capsys.readouterr().out
        assert "payload diff: 4/4 shapes byte-identical" in out
        assert "DIVERGED" not in out
        # The gate seed compares NONZERO flip sets for double_sided.
        for line in out.splitlines():
            if line.startswith("double_sided"):
                assert "equivalent:" in line
                flips = int(line.split("equivalent:")[1].split("flip")[0])
                assert flips > 0

    def test_fuzz_campaign(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        code = main(
            ["--seed", "5", "payload", "fuzz", "--programs", "3",
             "--mutations", "1", "--out", report_path, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["checked"] == 6
        with open(report_path, "r", encoding="utf-8") as handle:
            assert json.loads(handle.read()) == payload


class TestUtrrCommand:
    def test_inference_recovers_and_exits_zero(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        code = main(
            ["utrr", "--capacity", "2", "--policy", "first_k_per_window",
             "--report", report_path, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tracker_capacity"] == 2
        assert payload["sampling_policy"] == "first_k_per_window"
        assert payload["per_bank"] is True
        with open(report_path, "r", encoding="utf-8") as handle:
            assert json.loads(handle.read()) == payload

    def test_text_output_names_the_sampler(self, capsys):
        assert main(["utrr", "--capacity", "2"]) == 0
        out = capsys.readouterr().out
        assert "capacity=2" in out
        assert "recovered: yes" in out

    def test_mismatch_exits_nonzero(self, capsys):
        # max-capacity below the real onset: inference cannot recover.
        code = main(["utrr", "--capacity", "4", "--max-capacity", "2"])
        assert code == 1
        assert "recovered: NO" in capsys.readouterr().out

    def test_trace_validates_and_is_deterministic(self, tmp_path, capsys):
        from repro.trace import load_trace, validate_events

        paths = [str(tmp_path / name) for name in ("a.jsonl", "b.jsonl")]
        for path in paths:
            assert main(
                ["utrr", "--capacity", "2", "--trace", path]
            ) == 0
        capsys.readouterr()
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()
        assert validate_events(load_trace(paths[0])) == []

    def test_demo_defeats_the_sampler(self, capsys):
        assert main(
            ["utrr", "--policy", "counter_lru", "--demo"]
        ) == 0
        out = capsys.readouterr().out
        assert "naive double-sided flips: 0" in out
        assert "sync_refresh bypassed the inferred sampler" in out

    def test_emit_utrr_golden(self, tmp_path, capsys):
        import os

        regen = tmp_path / "utrr.jsonl"
        assert main(["trace", "--emit-golden", "utrr_infer", str(regen)]) == 0
        fixture = os.path.join(
            os.path.dirname(__file__), "golden", "utrr_infer.trace.jsonl"
        )
        with open(regen, "rb") as fresh, open(fixture, "rb") as pinned:
            assert fresh.read() == pinned.read()
