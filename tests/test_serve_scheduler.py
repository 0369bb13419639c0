"""Differential tests for the serving scheduler's ready structures.

:class:`ScanScheduler` is the reference: its admission, arbitration
round, idle jump and main loop each scan every tenant, where
:class:`~repro.serve.scheduler.ServeScheduler` uses an arrival heap and
an active-tenant index.  The properties run random scenarios through
both and require the report JSON, the Prometheus exposition and the
trace bytes to match; where the FTL raises its known
``FlashProgramError`` after a failed program, both sides must raise it
with the same message.
"""

import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, FlashProgramError
from repro.nvme.queue import QueuePair
from repro.serve import ServeScenario, run_scenario
from repro.serve import scenario as scenario_module
from repro.serve.scheduler import ServeScheduler


class ScanScheduler(ServeScheduler):
    """The reference: every step scans every tenant."""

    def _admit(self) -> None:
        now = self.clock._now
        for tenant in self.runtimes:
            while tenant.pending:
                op = tenant.pending[0]
                issue = self.t0 + op.issue
                if issue > now:
                    break
                if tenant.qpair.outstanding >= tenant.qpair.depth:
                    if not tenant.stalled:
                        tenant.stalled = True
                        tenant.backpressure.add()
                        if self.tracer is not None:
                            self.tracer.emit(
                                "serve.backpressure",
                                tenant=tenant.config.name,
                                queued=tenant.qpair.outstanding,
                            )
                    break
                tenant.pending.popleft()
                tenant.stalled = False
                tenant.qpair.submit(self._command_for(tenant, op))
                tenant.issue_times.append(issue)

    def _serve_round(self) -> bool:
        served = False
        n = len(self.runtimes)
        for offset in range(n):
            tenant = self.runtimes[(self._pointer + offset) % n]
            if (
                not tenant.qpair.outstanding
                or tenant.not_before > self.clock._now
            ):
                continue
            tenant.deficit += self.quantum * tenant.config.qos.weight
            while tenant.qpair.outstanding and tenant.deficit >= 1.0:
                if tenant.limiter is not None and not tenant.token_paid:
                    delay = tenant.limiter.delay_for(self.clock._now)
                    if delay > 0.0:
                        tenant.token_paid = True
                        tenant.not_before = self.clock._now + delay
                        tenant.throttled.add()
                        tenant.deficit = 0.0
                        if self.tracer is not None:
                            self.tracer.emit(
                                "serve.throttle",
                                tenant=tenant.config.name,
                                delay=delay,
                            )
                        break
                tenant.token_paid = False
                retired = self._dispatch(tenant)
                served = True
                if not retired:
                    tenant.deficit = 0.0
                    break
                tenant.deficit -= 1.0
                self._admit()
            if not tenant.qpair.outstanding:
                tenant.deficit = 0.0
        self._pointer = (self._pointer + 1) % n
        return served

    def _next_event(self):
        now = self.clock._now
        best = None
        for tenant in self.runtimes:
            if tenant.qpair.outstanding:
                candidate = max(now, tenant.not_before)
            elif tenant.pending:
                candidate = max(now, self.t0 + tenant.pending[0].issue)
            else:
                continue
            if best is None or candidate < best:
                best = candidate
        return best

    def run(self) -> float:
        self.t0 = self.clock._now
        while True:
            self._admit()
            if self._serve_round():
                continue
            if all(
                tenant.dropped
                or (not tenant.pending and not tenant.qpair.outstanding)
                for tenant in self.runtimes
            ):
                break
            nxt = self._next_event()
            if nxt is None or nxt <= self.clock._now:
                raise ConfigError("serving scheduler made no progress")
            self.clock.advance_to(nxt)
        self.duration = self.clock._now - self.t0
        self._finalize()
        return self.duration


def serve_outputs(raw, scheduler=ServeScheduler):
    """(report JSON, exposition, trace bytes) of one run of ``raw`` under
    ``scheduler``, or (exception type, message) when the FTL raises."""
    scenario = ServeScenario.from_dict(raw)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "serve.trace.jsonl")
        with mock.patch.object(scenario_module, "ServeScheduler", scheduler):
            try:
                report = run_scenario(scenario, trace_path=path)
            except FlashProgramError as exc:
                return type(exc).__name__, str(exc)
        with open(path, "rb") as handle:
            trace = handle.read()
    return report.to_json(), report.exposition(), trace


def assert_same_as_reference(raw):
    assert serve_outputs(raw) == serve_outputs(raw, ScanScheduler)


KINDS = ("bursty_reader", "log_writer", "scan_reader", "hammer_attacker")


@st.composite
def tenant_dicts(draw, index, ops_cap, capped):
    kind = draw(st.sampled_from(KINDS))
    tenant = {
        "name": "t%d" % index,
        "kind": kind,
        "ops": draw(st.integers(min_value=0, max_value=ops_cap)),
        "weight": draw(st.integers(min_value=1, max_value=3)),
        "queue_depth": draw(st.integers(min_value=1, max_value=32)),
        "max_iops": (
            draw(st.sampled_from([2000.0, 8000.0, 30000.0, 120000.0]))
            if capped or draw(st.booleans())
            else None
        ),
        "burst": float(draw(st.integers(min_value=1, max_value=8))),
        "retry_attempts": draw(st.integers(min_value=1, max_value=4)),
        "deadline": draw(st.sampled_from([None, 0.0005, 0.002, 0.02])),
        "hedge": draw(st.booleans()),
        "on_read_only": draw(
            st.sampled_from(["fail_fast", "park", "drop_tenant"])
        ),
    }
    if kind == "hammer_attacker":
        tenant["params"] = {"lbas": [0, 1]}
    return tenant


@st.composite
def fault_plans(draw):
    plan = {
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "read_error_rate": draw(st.sampled_from([0.0, 0.01, 0.05])),
        "program_fail_rate": draw(st.sampled_from([0.0, 0.01, 0.03])),
        "erase_fail_rate": draw(st.sampled_from([0.0, 0.2, 0.5])),
    }
    if draw(st.booleans()):
        index = draw(st.integers(min_value=0, max_value=150))
        plan["events"] = [
            {"op": "program", "index": index, "kind": "power_loss"}
        ]
    return plan


@st.composite
def scenarios(draw, max_tenants=24, total_ops=300):
    count = draw(st.integers(min_value=1, max_value=max_tenants))
    ops_cap = max(1, total_ops // count)
    # One scenario in four caps every tenant.
    capped = draw(st.booleans()) and draw(st.booleans())
    raw = {
        "name": "scheduler-diff",
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "device": {
            "num_lbas": 512,
            "profile": "granite",
            "spare_blocks": draw(st.integers(min_value=0, max_value=2)),
        },
        "quantum": draw(st.integers(min_value=1, max_value=6)),
        "tenants": [
            draw(tenant_dicts(index, ops_cap, capped))
            for index in range(count)
        ],
    }
    if draw(st.booleans()):
        raw["faults"] = draw(fault_plans())
    return raw


def capped_quartet(seed, quantum, ops, max_iops):
    """Four rate-capped tenants, ``ops`` in all (the noisy-neighbor
    shape, shrunk): order depends on rounds that only throttle."""
    return {
        "name": "capped-quartet",
        "seed": seed,
        "device": {"num_lbas": 512, "profile": "granite"},
        "quantum": quantum,
        "tenants": [
            {"name": "attacker", "kind": "hammer_attacker", "ops": ops // 4,
             "max_iops": max_iops, "params": {"lbas": [0, 1]}},
            {"name": "reader", "kind": "bursty_reader", "ops": ops // 4,
             "weight": 2, "max_iops": max_iops},
            {"name": "logger", "kind": "log_writer", "ops": ops // 4,
             "max_iops": max_iops},
            {"name": "scanner", "kind": "scan_reader", "ops": ops // 4,
             "max_iops": max_iops},
        ],
    }


class TestScanEquivalence:
    @given(raw=scenarios())
    @settings(max_examples=12, deadline=None)
    def test_random_scenarios_match_the_scan_reference(self, raw):
        assert_same_as_reference(raw)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        quantum=st.integers(min_value=1, max_value=6),
        ops=st.integers(min_value=100, max_value=300),
        max_iops=st.sampled_from([4000.0, 16000.0, 32000.0]),
    )
    @example(seed=11, quantum=4, ops=200, max_iops=16000.0)
    @settings(max_examples=6, deadline=None)
    def test_all_capped_tenants_match_the_scan_reference(
        self, seed, quantum, ops, max_iops
    ):
        assert_same_as_reference(capped_quartet(seed, quantum, ops, max_iops))

    def test_backlogged_fanout_matches_the_scan_reference(self):
        """Many tenants backlogged behind shallow queues at once: stalls
        leave the heap and re-enter as slots free."""
        raw = {
            "name": "fanout",
            "seed": 5,
            "device": {"num_lbas": 512, "profile": "granite"},
            "quantum": 1,
            "tenants": [
                {"name": "t%d" % index, "kind": KINDS[index % 3], "ops": 12,
                 "queue_depth": 1 + index % 3, "weight": 1 + index % 2}
                for index in range(24)
            ],
        }
        assert_same_as_reference(raw)


    @pytest.mark.parametrize("mode", ["fail_fast", "park", "drop_tenant"])
    def test_read_only_degradation_matches_the_scan_reference(self, mode):
        """Erase faults exhaust the spare pool while a paced writer still
        has future arrivals in the heap; a dropped writer must leave it."""
        raw = {
            "name": "degrade",
            "seed": 11,
            "device": {"num_lbas": 512, "profile": "granite",
                       "spare_blocks": 2},
            "faults": {"seed": 3, "erase_fail_rate": 0.4},
            "tenants": [
                {"name": "logger", "kind": "log_writer", "ops": 500,
                 "on_read_only": mode, "params": {"rate": 2000.0}},
                {"name": "scanner", "kind": "scan_reader", "ops": 300},
            ],
        }
        outputs = serve_outputs(raw)
        assert outputs == serve_outputs(raw, ScanScheduler)
        report = json.loads(outputs[0])
        assert report["resilience"]["read_only"]
        if mode == "drop_tenant":
            assert report["resilience"]["dropped_ops"] > 0


class TestReadyStructures:
    def _polls_per_dispatch(self, tenants):
        """Queue polls per dispatch of a ``serve_fanout``-shaped run: a
        capped attacker outlasts ``tenants`` short benign tenants."""
        attacker = {
            "name": "attacker", "kind": "hammer_attacker", "ops": 200,
            "max_iops": 16000, "params": {"lbas": [0, 1]},
        }
        raw = {
            "name": "polls",
            "seed": 3,
            "device": {"num_lbas": 1024, "profile": "granite"},
            "tenants": [attacker] + [
                {"name": "t%d" % index, "kind": KINDS[index % 3], "ops": 4}
                for index in range(tenants)
            ],
        }
        counts = {"polls": 0, "dispatches": 0}
        getter = QueuePair.outstanding.fget
        dispatch = ServeScheduler._dispatch

        def outstanding(qpair):
            counts["polls"] += 1
            return getter(qpair)

        def counted_dispatch(scheduler, tenant):
            counts["dispatches"] += 1
            return dispatch(scheduler, tenant)

        with mock.patch.object(
            QueuePair, "outstanding", property(outstanding)
        ), mock.patch.object(ServeScheduler, "_dispatch", counted_dispatch):
            run_scenario(ServeScenario.from_dict(raw))
        return counts["polls"] / counts["dispatches"]

    def test_queue_polls_per_dispatch_do_not_grow_with_tenants(self):
        """Each step touches the tenants that can act, not all of them:
        8x the tenants must not cost 8x the queue polls per command."""
        few = self._polls_per_dispatch(8)
        many = self._polls_per_dispatch(64)
        assert many < 2 * few
