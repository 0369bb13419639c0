"""Tests for the cross-layer trace subsystem.

Covers the tracer itself (stamping, bounding, determinism), the event
schema (every event type the stack can emit is driven and validated),
the golden-trace regression fixture, the Chrome export, the summarizer's
activation-conservation check, and batch-vs-scalar trace equivalence.
"""

import json
import os

import pytest

from repro.dram import DramAddress, Para, TargetRowRefresh
from repro.errors import NvmeError
from repro.faults import FaultPlan
from repro.sim import SimClock
from repro.trace import (
    EVENT_SCHEMAS,
    GOLDENS,
    TRACE_VERSION,
    UTRR_GOLDEN_TRR,
    Tracer,
    conservation_errors,
    diff_summaries,
    emit_golden,
    encode_event,
    load_trace,
    run_golden,
    summarize,
    to_chrome,
    validate_event,
    validate_events,
    write_chrome,
)
from repro.testkit.fixtures import FRAGILE, build_stack

def golden_fixture(name):
    """The committed fixture of golden trace ``name``."""
    return os.path.join(os.path.dirname(__file__), "golden", name + ".trace.jsonl")


GOLDEN_FIXTURE = golden_fixture("double_sided_hammer")
PAYLOAD_GOLDEN_FIXTURE = golden_fixture("payload_double_sided")
UTRR_GOLDEN_FIXTURE = golden_fixture("utrr_infer")


def _traced_stack(**kwargs):
    clock = SimClock()
    tracer = Tracer(clock)
    controller, dram, ftl = build_stack(clock=clock, tracer=tracer, **kwargs)
    return controller, dram, ftl, tracer


def _close(controller, dram, ftl, tracer):
    tracer.close(metrics=controller.stack_snapshot())
    return tracer.events


# ---------------------------------------------------------------------------
# The tracer itself
# ---------------------------------------------------------------------------


class TestTracer:
    def test_meta_event_first(self):
        tracer = Tracer(SimClock())
        assert tracer.events[0] == {
            "name": "trace.meta", "t": 0.0, "seq": 0, "version": TRACE_VERSION,
        }

    def test_emit_stamps_sim_time_and_seq(self):
        clock = SimClock()
        tracer = Tracer(clock)
        clock.advance(1.5)
        tracer.emit("ftl.trim", lba=3)
        event = tracer.events[-1]
        assert event["t"] == 1.5
        assert event["seq"] == 1
        assert event["lba"] == 3

    def test_emit_at_back_stamps(self):
        clock = SimClock()
        tracer = Tracer(clock)
        clock.advance(2.0)
        tracer.emit_at("ftl.crash", 0.5)
        assert tracer.events[-1]["t"] == 0.5

    def test_span_lands_at_start_with_duration(self):
        clock = SimClock()
        tracer = Tracer(clock)
        clock.advance(1.0)
        with tracer.span("ftl.flush", pages=2) as extra:
            clock.advance(0.25)
            extra["flash_time"] = 0.25
        event = tracer.events[-1]
        assert event["t"] == 1.0
        assert event["dur"] == 0.25
        assert event["flash_time"] == 0.25

    def test_streams_to_file(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        clock = SimClock()
        tracer = Tracer(clock, path=path)
        tracer.emit("ftl.trim", lba=1)
        tracer.close()
        events = load_trace(path)
        assert [e["name"] for e in events] == ["trace.meta", "ftl.trim"]
        assert tracer.events == []  # nothing buffered in streaming mode

    def test_to_jsonl_memory_mode_round_trips(self):
        tracer = Tracer(SimClock())
        tracer.emit("ftl.trim", lba=1)
        text = tracer.to_jsonl()
        assert text == "".join(
            encode_event(event) + "\n" for event in tracer.events
        )

    def test_to_jsonl_rejected_in_streaming_mode(self, tmp_path):
        tracer = Tracer(SimClock(), path=str(tmp_path / "t.jsonl"))
        with pytest.raises(ValueError):
            tracer.to_jsonl()
        tracer.close()

    def test_cap_drops_and_reports(self):
        tracer = Tracer(SimClock(), max_events=3)
        for index in range(5):
            tracer.emit("ftl.trim", lba=index)
        assert tracer.emitted == 3
        assert tracer.dropped == 3
        tracer.close(metrics={"dram.activations": 0})
        names = [event["name"] for event in tracer.events]
        # Footers bypass the cap: a truncated trace still carries its
        # rollup and its truncation marker.
        assert names[-2:] == ["trace.metrics", "trace.dropped"]
        assert tracer.events[-1]["count"] == 3

    def test_emit_after_close_raises(self):
        tracer = Tracer(SimClock())
        tracer.close()
        with pytest.raises(ValueError):
            tracer.emit("ftl.trim", lba=0)

    def test_close_idempotent(self):
        tracer = Tracer(SimClock())
        tracer.close(metrics={})
        tracer.close(metrics={})
        names = [event["name"] for event in tracer.events]
        assert names.count("trace.metrics") == 1

    def test_max_events_validated(self):
        with pytest.raises(ValueError):
            Tracer(SimClock(), max_events=0)

    def test_context_manager_closes(self):
        with Tracer(SimClock()) as tracer:
            tracer.emit("ftl.trim", lba=0)
        with pytest.raises(ValueError):
            tracer.emit("ftl.trim", lba=1)

    def test_encoding_is_canonical(self):
        assert encode_event({"b": 1, "a": 2}) == '{"a":2,"b":1}'


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------


class TestSchema:
    def test_unknown_event_type_flagged(self):
        problems = validate_event({"name": "nope", "t": 0.0, "seq": 0})
        assert any("unknown event type" in p for p in problems)

    def test_missing_required_field_flagged(self):
        problems = validate_event({"name": "flash.program", "t": 0.0, "seq": 0})
        assert any("missing field 'ppa'" in p for p in problems)

    def test_wrong_type_flagged(self):
        problems = validate_event(
            {"name": "flash.program", "t": 0.0, "seq": 0, "ppa": "9"}
        )
        assert any("field 'ppa' has type str" in p for p in problems)

    def test_bool_not_accepted_as_int(self):
        problems = validate_event(
            {"name": "flash.program", "t": 0.0, "seq": 0, "ppa": True}
        )
        assert any("field 'ppa'" in p for p in problems)

    def test_unexpected_field_flagged(self):
        problems = validate_event(
            {"name": "flash.program", "t": 0.0, "seq": 0, "ppa": 1, "x": 2}
        )
        assert any("unexpected field 'x'" in p for p in problems)

    def test_non_dict_flagged(self):
        assert validate_event(42)

    def test_seq_monotonicity_checked(self):
        events = [
            {"name": "flash.program", "t": 0.0, "seq": 1, "ppa": 1},
            {"name": "flash.program", "t": 0.0, "seq": 0, "ppa": 2},
        ]
        problems = validate_events(events)
        assert any("monotonically" in p for _, p in problems)


# ---------------------------------------------------------------------------
# Every event type the stack can emit, driven end to end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_events():
    return run_golden("double_sided_hammer").events


@pytest.fixture(scope="module")
def payload_events():
    """The compiled-DSL golden run, payload.* events ON."""
    return run_golden("payload_double_sided").events


@pytest.fixture(scope="module")
def utrr_events():
    """The U-TRR inference golden run, utrr.* events ON."""
    return run_golden("utrr_infer").events


@pytest.fixture(scope="module")
def buffered_gc_crash_events():
    """Write buffer + GC pressure + batch bursts + crash/recover."""
    controller, dram, ftl, tracer = _traced_stack(
        write_buffer_pages=4, spare_blocks=2
    )
    controller.create_namespace(1, 0, ftl.num_lbas)
    page = ftl.page_bytes
    for round_index in range(4):
        for lba in range(ftl.num_lbas):
            data = bytes([(round_index + lba) % 255 + 1]) * page
            controller.write(1, lba, data)
    controller.write_burst(1, list(range(32)), [b"\x01" * page] * 32)
    controller.trim_burst(1, list(range(8)))
    controller.crash()
    controller.recover()
    return _close(controller, dram, ftl, tracer)


@pytest.fixture(scope="module")
def mitigated_dram_events():
    """Scalar DRAM traffic through TRR and PARA interventions."""
    controller, dram, ftl, tracer = _traced_stack(
        profile=FRAGILE,
        trr=TargetRowRefresh(tracker_capacity=4, refresh_threshold=20),
        para=Para(probability=0.05, seed=3),
    )
    addr_a = dram.mapping.address_of(DramAddress(0, 0, 0))
    addr_b = dram.mapping.address_of(DramAddress(0, 2, 0))
    for _ in range(60):
        dram.read(addr_a, 8)
        dram.read(addr_b, 8)
    return _close(controller, dram, ftl, tracer)


@pytest.fixture(scope="module")
def faulty_events():
    """NAND fault injection surfacing as flash.fault events."""
    controller, dram, ftl, tracer = _traced_stack(
        fault_plan=FaultPlan(seed=1, read_error_rate=0.4, program_fail_rate=0.1)
    )
    controller.create_namespace(1, 0, ftl.num_lbas)
    page = ftl.page_bytes
    for lba in range(24):
        try:
            controller.write(1, lba, bytes([lba + 1]) * page)
        except NvmeError:
            pass
    for lba in range(24):
        try:
            controller.read(1, lba)
        except NvmeError:
            pass
    return _close(controller, dram, ftl, tracer)


@pytest.fixture(scope="module")
def serve_events(tmp_path_factory):
    """A traced multi-tenant chaos-serving run: attacker backpressured
    through a full queue, a hedging reader throttled by its IOPS cap and
    retrying injected read errors, a writer parked by a read-only
    transition (erase faults exhaust the spare pool), a deadline tenant
    timing out, and one mid-serve power cut."""
    from repro.serve import ServeScenario, run_scenario

    path = str(tmp_path_factory.mktemp("trace") / "serve.jsonl")
    scenario = ServeScenario.from_dict(
        {
            "name": "trace-serve",
            "seed": 11,
            "device": {"num_lbas": 512, "profile": "tempered",
                       "spare_blocks": 2},
            "faults": {
                "seed": 3,
                "read_error_rate": 0.05,
                "erase_fail_rate": 0.3,
                "events": [
                    {"op": "program", "index": 20, "kind": "power_loss"},
                ],
            },
            "tenants": [
                {"name": "attacker", "kind": "hammer_attacker", "ops": 600},
                {"name": "scanner", "kind": "scan_reader", "ops": 300,
                 "max_iops": 20000, "queue_depth": 4, "hedge": True},
                {"name": "logger", "kind": "log_writer", "ops": 400,
                 "on_read_only": "park"},
                {"name": "deadliner", "kind": "bursty_reader", "ops": 300,
                 "deadline": 0.0002},
            ],
        }
    )
    run_scenario(scenario, trace_path=path)
    return load_trace(path)


@pytest.fixture(scope="module")
def attack_events(tmp_path_factory):
    """One traced spray->hammer->scan cycle on the cloud testbed."""
    from repro import AttackConfig, FtlRowhammerAttack, build_cloud_testbed

    path = str(tmp_path_factory.mktemp("trace") / "attack.jsonl")
    testbed = build_cloud_testbed(seed=7, trace_path=path)
    attack = FtlRowhammerAttack(
        testbed,
        AttackConfig(max_cycles=1, spray_files=16, hammer_seconds=10.0),
    )
    attack.run()
    testbed.tracer.close(metrics=testbed.controller.stack_snapshot())
    return load_trace(path)


class TestSchemaCoverage:
    def test_every_scenario_validates(
        self,
        golden_events,
        payload_events,
        utrr_events,
        buffered_gc_crash_events,
        mitigated_dram_events,
        faulty_events,
        attack_events,
        serve_events,
    ):
        for events in (
            golden_events,
            payload_events,
            utrr_events,
            buffered_gc_crash_events,
            mitigated_dram_events,
            faulty_events,
            attack_events,
            serve_events,
        ):
            assert validate_events(events) == []

    def test_every_event_type_is_driven(
        self,
        golden_events,
        payload_events,
        utrr_events,
        buffered_gc_crash_events,
        mitigated_dram_events,
        faulty_events,
        attack_events,
        serve_events,
    ):
        """The scenarios above collectively emit *every* schema entry
        except trace.dropped (covered by the tracer cap test)."""
        seen = set()
        for events in (
            golden_events,
            payload_events,
            utrr_events,
            buffered_gc_crash_events,
            mitigated_dram_events,
            faulty_events,
            attack_events,
            serve_events,
        ):
            seen.update(event["name"] for event in events)
        assert set(EVENT_SCHEMAS) - seen == {"trace.dropped"}

    def test_scenarios_conserve_activations(
        self, buffered_gc_crash_events, mitigated_dram_events, faulty_events
    ):
        for events in (
            buffered_gc_crash_events,
            mitigated_dram_events,
            faulty_events,
        ):
            assert conservation_errors(summarize(events)) == []

    def test_attack_cycle_wraps_its_hammers(self, attack_events):
        cycles = [e for e in attack_events if e["name"] == "attack.cycle"]
        hammers = [e for e in attack_events if e["name"] == "attack.hammer"]
        assert cycles and hammers
        cycle = cycles[0]
        assert cycle["hammer_ios"] == sum(h["ios"] for h in hammers)
        assert cycle["dur"] >= 0


# ---------------------------------------------------------------------------
# Golden-trace regression
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GOLDENS))
class TestGoldenTable:
    """Every golden in the table, pinned byte for byte by its committed
    ``tests/golden/<name>.trace.jsonl`` fixture."""

    def test_fixture_matches_regenerated_bytes(self, name, tmp_path):
        """The committed fixture is byte-identical to a fresh emission —
        any change to clocking, event fields, or encoding shows up here."""
        path = str(tmp_path / "regen.jsonl")
        emit_golden(name, path)
        with open(path, "rb") as fresh:
            with open(golden_fixture(name), "rb") as pinned:
                assert fresh.read() == pinned.read()

    def test_fixture_validates(self, name):
        assert validate_events(load_trace(golden_fixture(name))) == []


class TestGoldenTrace:
    def test_fixture_conserves_activations(self):
        summary = summarize(load_trace(GOLDEN_FIXTURE))
        assert conservation_errors(summary) == []
        assert summary["activations"]["conserved"] is True

    def test_fixture_observed_the_attack(self):
        summary = summarize(load_trace(GOLDEN_FIXTURE))
        assert summary["flips"] >= 1
        assert summary["windows"]["count"] >= 2
        # The double-sided burst dominates the activation budget.
        assert summary["activations"]["hammer_windows"] >= 200_000

    def test_memory_and_streaming_modes_agree(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        in_memory = run_golden("double_sided_hammer")
        emit_golden("double_sided_hammer", path)
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == in_memory.to_jsonl()


class TestPayloadGolden:
    """The compiled-DSL twin of the golden scenario, with payload.*
    events on, pinned byte-for-byte by its own committed fixture."""

    def test_fixture_conserves_activations(self):
        summary = summarize(load_trace(PAYLOAD_GOLDEN_FIXTURE))
        assert conservation_errors(summary) == []

    def test_payload_run_event_fields(self):
        events = load_trace(PAYLOAD_GOLDEN_FIXTURE)
        runs = [e for e in events if e["name"] == "payload.run"]
        assert len(runs) == 1
        run = runs[0]
        assert run["program"] == "golden_double_sided"
        assert run["target"] == "stack"
        assert run["reads"] == 240_000  # 120k iterations x 2 aggressors
        assert run["bursts"] == 1
        assert run["flips"] >= 1
        assert run["dur"] > 0

    def test_payload_label_event_present(self):
        events = load_trace(PAYLOAD_GOLDEN_FIXTURE)
        labels = [e for e in events if e["name"] == "payload.label"]
        assert [label["label"] for label in labels] == ["hammer"]

    def test_run_event_back_stamped_to_burst_start(self):
        """payload.run lands at the run's start time, span-style: it must
        not be later than the hammer window events it covers."""
        events = load_trace(PAYLOAD_GOLDEN_FIXTURE)
        run = next(e for e in events if e["name"] == "payload.run")
        hammers = [e for e in events if e["name"] == "dram.hammer"]
        assert hammers
        assert run["t"] <= min(h["t"] for h in hammers)

    def test_flips_match_classic_golden_scenario(self, payload_events,
                                                 golden_events):
        """Same seed, same aggressor rows: the DSL twin flips the same
        victim cells the hand-coded golden scenario does."""
        def flips(events):
            return [
                (e["bank"], e["row"], e["byte"], e["bit"])
                for e in events
                if e["name"] == "dram.flip"
            ]

        assert flips(payload_events) == flips(golden_events)
        assert flips(payload_events)


class TestUtrrGolden:
    """The U-TRR inference battery against the fragile target, pinned
    byte-for-byte by its own committed fixture."""

    def test_report_event_recovers_the_golden_config(self):
        events = load_trace(UTRR_GOLDEN_FIXTURE)
        reports = [e for e in events if e["name"] == "utrr.report"]
        assert len(reports) == 1
        report = reports[0]
        assert report["capacity"] == UTRR_GOLDEN_TRR["tracker_capacity"]
        assert report["policy"] == UTRR_GOLDEN_TRR["sampling_policy"]
        assert report["per_bank"] == UTRR_GOLDEN_TRR["per_bank"]
        assert report["probes"] >= 4

    def test_stage_events_cover_the_battery(self):
        events = load_trace(UTRR_GOLDEN_FIXTURE)
        stages = {e["stage"] for e in events if e["name"] == "utrr.stage"}
        assert stages == {
            "align_to_refresh",
            "disable_refresh",
            "hammer",
            "plant",
            "bitflip_check",
        }
        kinds = [e["kind"] for e in events if e["name"] == "utrr.probe"]
        assert kinds[0] == "baseline"
        assert "onset" in {k.split(":")[0] for k in kinds}

    def test_in_memory_run_matches_fixture(self, utrr_events):
        pinned = load_trace(UTRR_GOLDEN_FIXTURE)
        assert utrr_events == pinned


# ---------------------------------------------------------------------------
# Summaries and diffs
# ---------------------------------------------------------------------------


class TestSummary:
    def test_diff_of_identical_traces_is_empty(self, golden_events):
        summary = summarize(golden_events)
        assert diff_summaries(summary, summary) == []

    def test_diff_spots_missing_flips(self, golden_events):
        pruned = [e for e in golden_events if e["name"] != "dram.flip"]
        differences = diff_summaries(
            summarize(golden_events), summarize(pruned)
        )
        assert any("flips" in line for line in differences)

    def test_conservation_violation_detected(self, golden_events):
        # Strip the activation events but keep the metrics footer: the
        # traced total no longer reaches the counter.
        pruned = [
            e for e in golden_events
            if e["name"] not in ("dram.activate", "dram.window")
        ]
        summary = summarize(pruned)
        assert summary["activations"]["conserved"] is False
        assert conservation_errors(summary)

    def test_dropped_traces_skip_conservation(self, golden_events):
        truncated = [
            e for e in golden_events
            if e["name"] not in ("dram.activate", "dram.window")
        ]
        truncated.append(
            {"name": "trace.dropped", "t": 0.0, "seq": 10_000, "count": 5}
        )
        summary = summarize(truncated)
        # Incomplete traces carry a lower bound, not an equality.
        assert summary["activations"]["conserved"] is True


# ---------------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------------


class TestChromeExport:
    def test_structure(self, golden_events):
        chrome = to_chrome(golden_events)
        assert chrome["displayTimeUnit"] == "ms"
        records = chrome["traceEvents"]
        meta = [r for r in records if r["ph"] == "M"]
        assert {m["name"] for m in meta} == {
            "thread_name", "thread_sort_index",
        }
        payload = [r for r in records if r["ph"] != "M"]
        assert len(payload) == len(golden_events)

    def test_durations_become_complete_slices(self, golden_events):
        chrome = to_chrome(golden_events)
        by_name = {}
        for record in chrome["traceEvents"]:
            by_name.setdefault(record["name"], record)
        assert by_name["dram.hammer"]["ph"] == "X"
        assert by_name["dram.hammer"]["dur"] > 0
        assert by_name["nvme.submit"]["ph"] == "i"
        assert by_name["nvme.submit"]["s"] == "t"

    def test_layers_land_on_their_tracks(self, golden_events):
        chrome = to_chrome(golden_events)
        tids = {
            record["name"]: record["tid"]
            for record in chrome["traceEvents"]
            if record["ph"] != "M"
        }
        assert tids["nvme.submit"] == 2
        assert tids["ftl.write"] == 3
        assert tids["flash.program"] == 4
        assert tids["dram.window"] == 5

    def test_timestamps_scale_to_microseconds(self, golden_events):
        chrome = to_chrome(golden_events)
        stamped = [
            (e, r)
            for e, r in zip(
                golden_events,
                [r for r in chrome["traceEvents"] if r["ph"] != "M"],
            )
        ]
        for event, record in stamped:
            assert record["ts"] == pytest.approx(event["t"] * 1e6)

    def test_write_chrome_is_valid_json(self, golden_events, tmp_path):
        path = str(tmp_path / "chrome.json")
        write_chrome(golden_events, path)
        with open(path, "r", encoding="utf-8") as handle:
            parsed = json.load(handle)
        assert parsed == to_chrome(golden_events)


# ---------------------------------------------------------------------------
# Batch-vs-scalar trace equivalence
# ---------------------------------------------------------------------------


class TestBatchScalarTraceEquivalence:
    """The vectorized engine and the scalar path must tell the same
    story: identical activation totals, flash programs, final state, and
    conservation — only the event granularity may differ."""

    @staticmethod
    def _run(batch):
        controller, dram, ftl, tracer = _traced_stack(seed=5)
        controller.create_namespace(1, 0, ftl.num_lbas)
        page = ftl.page_bytes
        payloads = [bytes([i % 255 + 1]) * page for i in range(64)]
        if batch:
            controller.write_burst(1, list(range(64)), payloads)
            controller.trim_burst(1, list(range(8)))
        else:
            for lba in range(64):
                controller.write(1, lba, payloads[lba])
            for lba in range(8):
                controller.trim(1, lba)
        state = [ftl.l2p.peek(lba) for lba in range(ftl.num_lbas)]
        events = _close(controller, dram, ftl, tracer)
        return summarize(events), state

    def test_accounting_agrees(self):
        scalar, scalar_state = self._run(batch=False)
        batch, batch_state = self._run(batch=True)
        assert scalar_state == batch_state
        assert (
            scalar["activations"]["traced_total"]
            == batch["activations"]["traced_total"]
        )
        assert (
            scalar["event_counts"]["flash.program"]
            == batch["event_counts"]["flash.program"]
        )
        assert scalar["flips"] == batch["flips"] == 0
        assert conservation_errors(scalar) == []
        assert conservation_errors(batch) == []
