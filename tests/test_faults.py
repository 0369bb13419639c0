"""Unit tests for the fault-injection plane: plans, scheduled events, and
the injector's determinism guarantees."""

import random

import pytest

from repro.errors import (
    ConfigError,
    FlashReadError,
    FlashWriteFault,
    PowerLossInterrupt,
)
from repro.faults import FaultEvent, FaultPlan
from repro.nvme import NvmeCommand, Opcode, StatusCode

from tests.conftest import build_stack


def payload(ftl, fill):
    return bytes([fill]) * ftl.page_bytes


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(
            seed=9,
            read_error_rate=0.01,
            retention_rate=0.002,
            program_fail_rate=0.003,
            erase_fail_rate=0.004,
            events=(
                FaultEvent(op="erase", index=3, kind="power_loss"),
                FaultEvent(op="read", index=7, kind="retention", bit=12),
            ),
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.to_json() == plan.to_json()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = FaultPlan(seed=1, read_error_rate=0.5)
        path.write_text(plan.to_json(), encoding="utf-8")
        assert FaultPlan.load(str(path)) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"read_eror_rate": 0.1})

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ConfigError, match="must be in"):
            FaultPlan(read_error_rate=1.5)
        with pytest.raises(ConfigError, match="must be in"):
            FaultPlan(erase_fail_rate=-0.1)

    def test_event_validation(self):
        with pytest.raises(ConfigError, match="op must be one of"):
            FaultEvent(op="write", index=0, kind="power_loss")
        with pytest.raises(ConfigError, match="does not apply"):
            FaultEvent(op="read", index=0, kind="power_loss")
        with pytest.raises(ConfigError, match="cannot be negative"):
            FaultEvent(op="read", index=-1, kind="read_error")

    def test_is_null(self):
        assert FaultPlan().is_null
        assert not FaultPlan(read_error_rate=0.1).is_null
        assert not FaultPlan(
            events=(FaultEvent(op="read", index=0, kind="read_error"),)
        ).is_null

    def test_spawned_is_deterministic_and_key_sensitive(self):
        plan = FaultPlan(seed=0, read_error_rate=0.1)
        a = plan.spawned(7, "sweep", "x", 0, 0)
        b = plan.spawned(7, "sweep", "x", 0, 0)
        c = plan.spawned(7, "sweep", "x", 1, 0)
        assert a == b
        assert a.seed != c.seed
        assert a.read_error_rate == plan.read_error_rate


class TestScheduledEvents:
    def test_scheduled_read_error_fires_once_at_exact_index(self):
        plan = FaultPlan(
            events=(FaultEvent(op="read", index=0, kind="read_error"),)
        )
        _c, _d, ftl = build_stack(fault_plan=plan)
        ftl.write(0, payload(ftl, 0xAA))
        with pytest.raises(FlashReadError):
            ftl.read(0)
        # One-shot: the very next read of the same page succeeds.
        assert ftl.read(0).data == payload(ftl, 0xAA)
        log = ftl.flash.injector.log
        assert [f.kind for f in log] == ["read_error"]
        assert log[0].lba == 0

    def test_scheduled_retention_flip_persists_in_media(self):
        plan = FaultPlan(
            events=(FaultEvent(op="read", index=0, kind="retention", bit=0),)
        )
        _c, _d, ftl = build_stack(fault_plan=plan)
        clean = payload(ftl, 0x00)
        ftl.write(3, clean)
        corrupted = bytearray(clean)
        corrupted[0] ^= 0x01
        assert ftl.read(3).data == bytes(corrupted)
        # Retention loss damages the stored charge, not the transfer:
        # every later read sees the same corruption.
        assert ftl.read(3).data == bytes(corrupted)
        assert ftl.flash.injector.affected_lbas() == [3]

    def test_single_program_failure_is_absorbed_by_the_ftl_retry(self):
        plan = FaultPlan(
            events=(FaultEvent(op="program", index=0, kind="program_fail"),)
        )
        _c, _d, ftl = build_stack(fault_plan=plan, spare_blocks=2)
        ftl.write(5, payload(ftl, 0x55))  # retried into a fresh block
        assert ftl.read(5).data == payload(ftl, 0x55)
        assert ftl.flash.injector.stats()["program_fail"] == 1

    def test_program_power_loss_unwinds_to_the_caller(self):
        plan = FaultPlan(
            events=(FaultEvent(op="program", index=0, kind="power_loss"),)
        )
        _c, _d, ftl = build_stack(fault_plan=plan)
        with pytest.raises(PowerLossInterrupt):
            ftl.write(0, payload(ftl, 0x11))

    def test_exhausted_program_retries_surface_the_write_fault(self):
        plan = FaultPlan(program_fail_rate=1.0)
        _c, _d, ftl = build_stack(fault_plan=plan)
        with pytest.raises(FlashWriteFault):
            ftl.write(0, payload(ftl, 0x11))


class TestGcProgramFault:
    def test_program_fault_on_a_gc_move_is_absorbed(self):
        """A program failure on a GC relocation is handled as on a host
        write: the block is sealed bad, the move retries on a fresh block,
        and GC later retires the bad block."""
        plan = FaultPlan(
            events=(FaultEvent(op="program", index=233, kind="program_fail"),)
        )
        _c, _d, ftl = build_stack(fault_plan=plan)
        injector = ftl.flash.injector
        failed_during_gc = []
        on_program = injector.on_program

        def spy(array, ppa):
            try:
                on_program(array, ppa)
            except FlashWriteFault:
                failed_during_gc.append(ftl.gc_active)
                raise

        injector.on_program = spy
        acked = {}
        for lba in range(192):
            ftl.write(lba, payload(ftl, lba))
            acked[lba] = payload(ftl, lba)
        # Program 233 is the first GC relocation of this overwrite stream.
        rng = random.Random(7)
        for index in range(600):
            lba = rng.randrange(192)
            ftl.write(lba, payload(ftl, index % 256))
            acked[lba] = payload(ftl, index % 256)
        assert failed_during_gc == [True]
        failed = ftl.flash.geometry.block_of_ppa(injector.log[0].ppa)
        assert failed in ftl.retired_blocks
        for lba, data in acked.items():
            assert ftl.read(lba).data == data, "lost LBA %d" % lba
        ftl.check()


class TestGcReadFault:
    """Host writes through the controller read nothing from flash, so
    read 0 is the first GC relocation's victim read."""

    def write_until_gc_fails(self, failing_reads):
        plan = FaultPlan(
            events=tuple(
                FaultEvent(op="read", index=index, kind="read_error")
                for index in failing_reads
            )
        )
        controller, _d, ftl = build_stack(fault_plan=plan)
        controller.create_namespace(1, 0, ftl.num_lbas)
        rng = random.Random(7)
        lbas = list(range(ftl.num_lbas)) + [
            rng.randrange(ftl.num_lbas) for _ in range(200)
        ]
        for index, lba in enumerate(lbas):
            completion = controller.submit(
                NvmeCommand(Opcode.WRITE, 1, lba, data=payload(ftl, index % 256))
            )
            if ftl.flash.injector.log or not completion.ok:
                return completion, ftl
        raise AssertionError("no GC relocation read")

    def test_one_failed_read_is_retried(self):
        completion, ftl = self.write_until_gc_fails([0])
        assert [fault.kind for fault in ftl.flash.injector.log] == ["read_error"]
        assert completion.status is StatusCode.SUCCESS
        assert not ftl.gc_active
        ftl.check()

    def test_three_failed_reads_fail_the_write(self):
        completion, ftl = self.write_until_gc_fails([0, 1, 2])
        assert len(ftl.flash.injector.log) == 3
        assert completion.status is StatusCode.MEDIA_READ_ERROR
        assert not ftl.gc_active
        ftl.check()


class TestInjectorDeterminism:
    def run_workload(self):
        plan = FaultPlan(seed=13, read_error_rate=0.2, retention_rate=0.1)
        _c, _d, ftl = build_stack(fault_plan=plan)
        for lba in range(16):
            ftl.write(lba, payload(ftl, lba))
        for lba in range(16):
            for _ in range(4):
                try:
                    ftl.read(lba)
                except FlashReadError:
                    pass
        return [f.to_dict() for f in ftl.flash.injector.log]

    def test_same_plan_same_op_stream_same_faults(self):
        assert self.run_workload() == self.run_workload()

    def test_null_plan_attaches_no_injector(self):
        _c, _d, ftl = build_stack(fault_plan=FaultPlan())
        assert ftl.flash.injector is None

    def test_scheduled_only_plan_draws_no_rng(self):
        # Pure scheduled-event plans must consume no randomness, so adding
        # a rate later cannot shift faults a plan schedules explicitly:
        # after the workload each stream's next draw still equals the
        # first draw of a fresh twin.
        from repro.sim.rng import RngStream

        plan = FaultPlan(
            seed=5, events=(FaultEvent(op="read", index=2, kind="read_error"),)
        )
        _c, _d, ftl = build_stack(fault_plan=plan)
        for lba in range(8):
            ftl.write(lba, payload(ftl, lba))
            try:
                ftl.read(lba)
            except FlashReadError:
                pass
        injector = ftl.flash.injector
        assert [f.kind for f in injector.log] == ["read_error"]
        for stream in injector._rng.values():
            assert stream.generator.random() == RngStream(stream.seed).random()
