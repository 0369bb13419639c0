"""Observer effect = 0: attaching a tracer changes nothing.

Every test here runs the same seeded workload twice — once untraced,
once traced — and asserts bit-identical physics (flips), metrics, and
report/summary bytes.  The tracer never advances the clock and never
draws randomness, so these hold exactly, not approximately.
"""

import os

import pytest

from repro.engine import EngineConfig, SweepEngine
from repro.engine.spec import SweepSpec
from repro.sim import SimClock
from repro.testkit.fixtures import FRAGILE, build_stack
from repro.testkit.fuzzer import run_campaign
from repro.trace import (
    Tracer,
    conservation_errors,
    load_trace,
    summarize,
    validate_events,
)


def _lbas_for_rows(controller, dram, rows, bank=0):
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


def _hammer(traced):
    clock = SimClock()
    tracer = Tracer(clock) if traced else None
    controller, dram, ftl = build_stack(
        profile=FRAGILE, seed=11, num_lbas=1024, clock=clock, tracer=tracer
    )
    controller.create_namespace(1, 0, ftl.num_lbas)
    page = ftl.page_bytes
    for lba in range(4):
        controller.write(1, lba, bytes([lba + 1]) * page)
    aggressors = _lbas_for_rows(controller, dram, (0, 2))
    controller.read_burst(1, aggressors, repeats=150_000)
    controller.read(1, 0)
    snapshot = controller.stack_snapshot()
    if tracer is not None:
        tracer.close(metrics=snapshot)
    return dram, clock, snapshot


class TestHammerDeterminism:
    def test_flips_and_metrics_identical(self):
        untraced_dram, untraced_clock, untraced_snapshot = _hammer(False)
        traced_dram, traced_clock, traced_snapshot = _hammer(True)
        # Bit-identical physics: the same cells flipped the same way at
        # the same simulated times.
        assert traced_dram.flips == untraced_dram.flips
        assert traced_dram.flips, "the FRAGILE hammer must actually flip"
        assert traced_clock.now == untraced_clock.now
        assert traced_snapshot == untraced_snapshot


def _payload_hammer(traced):
    """The compiled-DSL twin of _hammer: same stack, same burst, but the
    reads are issued by the payload executor with payload.* events ON."""
    from repro.host.blockdev import BlockDevice
    from repro.host.vm import AccessMode, Vm
    from repro.payload import (
        Loop,
        Program,
        Read,
        compile_program,
        execute_payload,
    )

    clock = SimClock()
    tracer = Tracer(clock) if traced else None
    controller, dram, ftl = build_stack(
        profile=FRAGILE, seed=11, num_lbas=1024, clock=clock, tracer=tracer
    )
    controller.create_namespace(1, 0, ftl.num_lbas)
    page = ftl.page_bytes
    for lba in range(4):
        controller.write(1, lba, bytes([lba + 1]) * page)
    aggressors = _lbas_for_rows(controller, dram, (0, 2))
    vm = Vm("attacker", BlockDevice(controller, 1), AccessMode.RAW)
    program = Program(
        name="determinism",
        target="stack",
        steps=(
            Loop(
                count=150_000,
                body=tuple(Read(lba=lba) for lba in aggressors),
            ),
        ),
    )
    result = execute_payload(
        compile_program(program), vm=vm, trace_payload=traced
    )
    controller.read(1, 0)
    snapshot = controller.stack_snapshot()
    if tracer is not None:
        tracer.close(metrics=snapshot)
    return dram, clock, snapshot, result


class TestPayloadDeterminism:
    """Observer effect = 0 for the payload executor: payload.* events
    change nothing about the physics, and the executor reproduces the
    hand-issued burst exactly."""

    def test_traced_payload_matches_untraced(self):
        untraced_dram, untraced_clock, untraced_snapshot, untraced_result = (
            _payload_hammer(False)
        )
        traced_dram, traced_clock, traced_snapshot, traced_result = (
            _payload_hammer(True)
        )
        assert traced_dram.flips == untraced_dram.flips
        assert traced_dram.flips, "the FRAGILE payload burst must flip"
        assert traced_clock.now == untraced_clock.now
        assert traced_snapshot == untraced_snapshot
        assert traced_result.reads == untraced_result.reads
        assert traced_result.duration == untraced_result.duration

    def test_payload_matches_hand_issued_burst(self):
        hand_dram, hand_clock, hand_snapshot = _hammer(False)
        payload_dram, payload_clock, payload_snapshot, _ = _payload_hammer(
            False
        )
        assert payload_dram.flips == hand_dram.flips
        assert payload_clock.now == hand_clock.now


class TestFuzzDeterminism:
    def test_report_bytes_identical(self, tmp_path):
        kwargs = dict(seed=23, num_ops=150, num_lbas=96, profile="granite")
        untraced = run_campaign(**kwargs).to_json()
        traced = run_campaign(
            trace_path_prefix=str(tmp_path / "fz"), **kwargs
        ).to_json()
        assert traced == untraced
        # The traces themselves were written.
        assert (tmp_path / "fz.scalar.jsonl").exists()
        assert (tmp_path / "fz.batch.jsonl").exists()

    def test_traced_rerun_is_byte_stable(self, tmp_path):
        kwargs = dict(seed=23, num_ops=80, num_lbas=64)
        first = run_campaign(trace_path_prefix=str(tmp_path / "a"), **kwargs)
        second = run_campaign(trace_path_prefix=str(tmp_path / "b"), **kwargs)
        assert first.to_json() == second.to_json()
        with open(tmp_path / "a.scalar.jsonl", "rb") as a:
            with open(tmp_path / "b.scalar.jsonl", "rb") as b:
                assert a.read() == b.read()


class TestSweepDeterminism:
    @staticmethod
    def _spec():
        return SweepSpec.from_dict(
            {
                "name": "trace-determinism",
                "kind": "fault_campaign",
                "seed": 3,
                "base": {"num_ops": 60, "num_lbas": 64},
                "grid": {"profile": ["granite"]},
                "repeats": 2,
            }
        )

    def test_summary_identical_with_and_without_trace_dir(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        plain = SweepEngine(self._spec(), config=EngineConfig()).run()
        traced = SweepEngine(
            self._spec(), config=EngineConfig(trace_dir=trace_dir)
        ).run()
        again = SweepEngine(self._spec(), config=EngineConfig()).run()
        assert plain.summary_json() == traced.summary_json()
        assert plain.summary_json() == again.summary_json()

        def stable(records):
            # 'elapsed' is wall-clock scheduling data, excluded from the
            # determinism contract (and from the summary).
            return [
                {k: v for k, v in record.items() if k != "elapsed"}
                for record in records
            ]

        assert stable(plain.records) == stable(traced.records)
        # One scalar + one batch trace per trial landed in the directory.
        names = sorted(os.listdir(trace_dir))
        assert names == [
            "0000.00.batch.jsonl",
            "0000.00.scalar.jsonl",
            "0000.01.batch.jsonl",
            "0000.01.scalar.jsonl",
        ]

    #: Further trace-capable kinds: a two-point serve grid (QoS cap and a
    #: fault axis) and a two-point payload grid.
    TRACED_SPECS = {
        "serve": {
            "name": "trace-determinism-serve",
            "kind": "serve",
            "seed": 5,
            "base": {
                "scenario": {
                    "name": "tiny",
                    "seed": 3,
                    "device": {"num_lbas": 1024, "profile": "tempered"},
                    "tenants": [
                        {"name": "attacker", "kind": "hammer_attacker",
                         "ops": 200},
                        {"name": "reader", "kind": "bursty_reader",
                         "ops": 100},
                    ],
                },
                "faults.read_error_rate": 0.01,
            },
            "grid": {"max_iops": [None, 8000]},
        },
        "payload": {
            "name": "trace-determinism-payload",
            "kind": "payload",
            "seed": 13,
            "base": {"seed": 13, "repeats": 20000},
            "grid": {"template": ["double_sided", "one_location"]},
        },
    }

    @pytest.mark.parametrize("kind", sorted(TRACED_SPECS))
    def test_one_valid_trace_per_trial(self, kind, tmp_path):
        """``serve`` and ``payload`` trials honour ``--trace-dir`` too: one
        schema-valid, activation-conserving trace per trial, summary bytes
        unchanged."""
        trace_dir = str(tmp_path / "traces")
        spec = SweepSpec.from_dict(self.TRACED_SPECS[kind])
        plain = SweepEngine(spec, config=EngineConfig()).run()
        traced = SweepEngine(
            spec, config=EngineConfig(trace_dir=trace_dir)
        ).run()
        assert plain.ok
        assert plain.summary_json() == traced.summary_json()
        names = sorted(os.listdir(trace_dir))
        assert names == ["0000.00.trace.jsonl", "0001.00.trace.jsonl"]
        for name in names:
            events = load_trace(os.path.join(trace_dir, name))
            assert validate_events(events) == []
            assert conservation_errors(summarize(events)) == []
            assert events[-1]["name"] == "trace.metrics"


class TestUtrrDeterminism:
    """Observer effect = 0 for the U-TRR inference battery: running the
    probe pipeline with utrr.* events on changes neither the probes'
    physics nor the inferred report."""

    @staticmethod
    def _infer(traced):
        from repro.trace import UTRR_GOLDEN_TRR
        from repro.utrr import UtrrPipeline, build_utrr_target

        clock = SimClock()
        tracer = Tracer(clock) if traced else None
        dram = build_utrr_target(
            UTRR_GOLDEN_TRR, seed=5, clock=clock, tracer=tracer
        )
        report = UtrrPipeline(dram, tracer=tracer).infer()
        snapshot = dram.metrics.snapshot()
        if tracer is not None:
            tracer.close(metrics=snapshot)
        return report, clock, snapshot

    def test_traced_inference_matches_untraced(self):
        untraced_report, untraced_clock, untraced_snapshot = self._infer(False)
        traced_report, traced_clock, traced_snapshot = self._infer(True)
        assert traced_report.to_json() == untraced_report.to_json()
        assert traced_clock.now == untraced_clock.now
        assert traced_snapshot == untraced_snapshot

    def test_reruns_are_byte_stable(self):
        first, _, _ = self._infer(True)
        second, _, _ = self._infer(True)
        assert first.to_json() == second.to_json()
