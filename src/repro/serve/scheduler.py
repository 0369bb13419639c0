"""The deterministic event-driven serving scheduler.

One :class:`ServeScheduler` multiplexes N tenants — each a bounded
:class:`~repro.nvme.queue.QueuePair` fed by a replayable workload trace —
onto the shared NVMe controller, entirely in simulated time:

* **Admission control.**  Arrivals whose issue time has come are moved
  from the trace into the tenant's submission queue.  A full queue
  *stalls* the tenant's arrival stream (head-of-line backpressure);
  commands are never dropped, matching the rate limiter's delay-never-
  drop contract.
* **Deficit round-robin arbitration.**  Each round every eligible tenant
  earns ``quantum * weight`` deficit and is served while its deficit
  covers whole commands — the classic DRR guarantee that long-term
  service is proportional to weight regardless of who is greediest.
* **Per-tenant QoS.**  A tenant with a ``max_iops`` token bucket pays
  one token per command; an empty bucket parks the tenant until the
  bucket's ``ready_at`` (the token is *reserved*, not re-drawn, so a
  deferred command is charged exactly once).  A throttled tenant also
  forfeits its accumulated deficit: QoS debt must not convert into an
  arbitration burst later.
* **Event-driven idle time.**  When no queue can legally transmit, the
  clock jumps straight to the next arrival or token-refill instant —
  nothing polls, nothing sleeps, and the event order is a pure function
  of the traces, so two runs of the same scenario are byte-identical.
  Two ready structures keep every step proportional to the tenants that
  can act, not to the tenant count: an *arrival heap* of ``(issue
  time, tenant index)``, holding each tenant whose next arrival is not
  stalled once, and the sorted *active index* of tenants with queued
  commands.  Admission pops only due arrivals and takes them in index
  order; a round walks the active index with :mod:`bisect` from the
  rotation pointer; the idle jump takes the earliest ``not_before`` of
  an active tenant or arrival of an idle one.  A tenant stalled on a
  full queue leaves the heap and re-enters when a dispatch frees a
  slot.

* **Fault tolerance.**  Each tenant carries a
  :class:`~repro.serve.resilience.ResiliencePolicy`: transient failures
  (the shared retryable-status set) are retried with exponential backoff
  — the tenant parks until its backoff expires, other tenants keep being
  served — reads may be hedged, commands over their deadline are
  abandoned, and a device that degraded to read-only is handled per the
  tenant's ``fail_fast`` / ``park`` / ``drop_tenant`` mode.  A
  :class:`~repro.errors.PowerLossInterrupt` mid-dispatch runs the full
  ``crash()/recover()`` cycle in place: the availability gap (reset +
  OOB scan) is charged to the sim clock, the never-acknowledged in-flight
  write is replayed, and the durability ledger audits every acknowledged
  write against the recovered media.

Per-tenant observability lands in a :class:`~repro.sim.metrics
.MetricRegistry` (commands, errors labeled by status code, retries,
timeouts, hedges, backpressure stalls, throttle parks, DRAM activations
attributed per tenant, a latency histogram with p50/p95/p99 gauges, and
SLO burn-rate / budget-remaining gauges) and, when a tracer is attached,
in ``serve.*`` trace events.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError, PowerLossInterrupt
from repro.nvme.commands import NvmeCommand, NvmeCompletion, Opcode, StatusCode
from repro.nvme.controller import NvmeController
from repro.nvme.namespace import Namespace
from repro.nvme.queue import QueuePair
from repro.serve.qos import TenantConfig
from repro.serve.resilience import DurabilityLedger, recovery_gap
from repro.serve.workload import TraceOp, WorkloadTrace
from repro.sim.metrics import MetricRegistry

#: Default latency histogram bucket edges, seconds (1 us .. 1 s, log-ish).
DEFAULT_LATENCY_BOUNDS = [
    1e-6, 2e-6, 5e-6,
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0,
]

_OPCODES = {
    "read": Opcode.READ,
    "write": Opcode.WRITE,
    "trim": Opcode.DEALLOCATE,
}


def write_payload(tenant: str, lba: int, seq: int, page_bytes: int) -> bytes:
    """Deterministic page payload for a traced write.

    Traces carry ``(issue, op, lba)`` only; materializing the payload
    from (tenant, lba, sequence) keeps trace files small while every
    replay still writes identical bytes.
    """
    stamp = ("%s:%d:%d|" % (tenant, lba, seq)).encode("ascii")
    reps = -(-page_bytes // len(stamp))
    return (stamp * reps)[:page_bytes]


class TenantRuntime:
    """Mutable serving state for one tenant."""

    def __init__(
        self,
        config: TenantConfig,
        namespace: Namespace,
        trace: WorkloadTrace,
        registry: MetricRegistry,
        latency_bounds: List[float],
    ):
        self.config = config
        self.policy = config.resilience
        self.namespace = namespace
        self.qpair = QueuePair(qid=namespace.nsid, depth=config.qos.queue_depth)
        self.pending: Deque[TraceOp] = deque(trace.ops)
        #: Absolute issue times of commands currently in the SQ, FIFO.
        self.issue_times: Deque[float] = deque()
        self.limiter = config.qos.limiter()
        #: Earliest time the limiter lets the next command through.
        self.not_before = 0.0
        #: True when the head command's token is already reserved.
        self.token_paid = False
        self.deficit = 0.0
        #: True while arrivals are stalled on a full submission queue.
        self.stalled = False
        self.writes_issued = 0
        #: Retry attempts already burned on the head SQ command (reset
        #: whenever a command is retired).
        self.head_attempts = 0
        #: True once the device answered this tenant with READ_ONLY.
        self.read_only_seen = False
        #: True once a ``drop_tenant`` policy evicted this tenant.
        self.dropped = False
        #: Writes held back by the ``park`` degradation mode.
        self.parked_writes: List[NvmeCommand] = []
        #: Per-status error counts mirrored into labeled counters.
        self.errors_by_status: Dict[str, int] = {}
        self._registry = registry
        name = config.name
        self.commands = registry.counter("commands", tenant=name)
        self.errors = registry.counter("errors", tenant=name)
        self.backpressure = registry.counter("backpressure", tenant=name)
        self.throttled = registry.counter("throttled", tenant=name)
        self.activations = registry.counter("activations", tenant=name)
        self.retries = registry.counter("retries", tenant=name)
        self.timeouts = registry.counter("timeouts", tenant=name)
        self.hedges = registry.counter("hedges", tenant=name)
        self.hedge_wins = registry.counter("hedge_wins", tenant=name)
        self.hedge_cancelled = registry.counter("hedge_cancelled", tenant=name)
        self.parked = registry.counter("parked", tenant=name)
        self.dropped_ops = registry.counter("dropped", tenant=name)
        self.slo_violations = registry.counter("slo_violations", tenant=name)
        self.latency = registry.histogram(
            "latency", latency_bounds, tenant=name
        )

    def count_error(self, status: StatusCode) -> None:
        """Count an error both in aggregate and labeled by status name,
        so reports distinguish transient media errors from deterministic
        failures."""
        self.errors.add()
        name = status.name
        self.errors_by_status[name] = self.errors_by_status.get(name, 0) + 1
        self._registry.counter(
            "errors_by_status", status=name, tenant=self.config.name
        ).add()


class ServeScheduler:
    """Deficit round-robin arbiter over per-tenant queue pairs."""

    def __init__(
        self,
        controller: NvmeController,
        runtimes: List[TenantRuntime],
        registry: MetricRegistry,
        tracer=None,
        quantum: int = 4,
        injector=None,
    ):
        if not runtimes:
            raise ConfigError("scheduler needs at least one tenant")
        if quantum < 1:
            raise ConfigError("quantum must be at least 1 command")
        self.controller = controller
        self.clock = controller.clock
        self.runtimes = runtimes
        self.registry = registry
        self.tracer = tracer
        self.quantum = quantum
        #: Optional fault-injection plane (for exempting retention-
        #: corrupted LBAs from the durability audit).
        self.injector = injector
        self.t0 = 0.0
        self.duration = 0.0
        self._pointer = 0
        #: Heap of ``(t0 + head issue, tenant index)``, one entry per
        #: tenant with a pending arrival that is not stalled.
        self._arrivals: List[Tuple[float, int]] = []
        #: Sorted indices of the tenants with queued commands.
        self._active: List[int] = []
        self._activations = (
            controller.ftl.memory.dram.metrics.counter("activations")
        )
        #: Every acknowledged write/trim, for the crash-recovery audit.
        self.ledger = DurabilityLedger()
        self.power_cuts = 0
        self.availability_gap = 0.0
        #: Worst ``lost`` verdict over the per-cut audits (the final
        #: audit is folded in too; a later rewrite of a lost LBA must
        #: not launder the loss).
        self.max_lost = 0
        self._power_cut_counter = registry.counter("power_cuts")
        ftl = controller.ftl
        self._scan_page_time = (
            ftl.flash.timing.read_page / controller.timing.flash_parallelism
        )

    # -- durability -----------------------------------------------------

    def durability_audit(self) -> Dict[str, int]:
        """Audit every acked write against current media state; folds the
        verdict into :attr:`max_lost`."""
        exempt = (
            self.injector.affected_lbas() if self.injector is not None else ()
        )
        audit = self.ledger.audit(self.controller.ftl, exempt=exempt)
        if audit["lost"] > self.max_lost:
            self.max_lost = audit["lost"]
        audit["lost"] = self.max_lost
        return audit

    # -- admission ------------------------------------------------------

    def _admit(self) -> None:
        """Move due arrivals into their submission queues.

        The arrival stream is strictly FIFO per tenant: a full queue
        stalls the *head* arrival and everything behind it (counted once
        per stall episode), never reorders or drops.  Only tenants whose
        head arrival is due are visited, in index order.
        """
        now = self.clock._now
        arrivals = self._arrivals
        due = []
        while arrivals and arrivals[0][0] <= now:
            due.append(heapq.heappop(arrivals)[1])
        due.sort()
        for index in due:
            tenant = self.runtimes[index]
            admitted = False
            while tenant.pending:
                op = tenant.pending[0]
                issue = self.t0 + op.issue
                if issue > now:
                    heapq.heappush(arrivals, (issue, index))
                    break
                if tenant.qpair.outstanding >= tenant.qpair.depth:
                    # Out of the heap until a dispatch frees a slot.
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
                admitted = True
            if admitted:
                active = self._active
                slot = bisect_left(active, index)
                if slot == len(active) or active[slot] != index:
                    active.insert(slot, index)

    def _command_for(self, tenant: TenantRuntime, op: TraceOp) -> NvmeCommand:
        opcode = _OPCODES[op.op]
        data = None
        if opcode is Opcode.WRITE:
            data = write_payload(
                tenant.config.name,
                op.lba,
                tenant.writes_issued,
                self.controller.block_bytes,
            )
            tenant.writes_issued += 1
        return NvmeCommand(opcode, tenant.namespace.nsid, op.lba, data=data)

    # -- arbitration ----------------------------------------------------

    def _serve_round(self) -> bool:
        """One DRR round over the active tenants, in rotation order from
        the pointer; True if anything dispatched."""
        served = False
        active = self._active
        n = len(self.runtimes)
        start = self._pointer
        # The rotation from ``start`` is the index range [start, n), then
        # [0, start).  Each step re-bisects from the cursor, so a tenant
        # admitted mid-round ahead of the cursor is served this round and
        # one admitted behind it waits for the next.
        for low, high in ((start, n), (0, start)):
            cursor = low
            while True:
                slot = bisect_left(active, cursor)
                if slot == len(active) or active[slot] >= high:
                    break
                index = active[slot]
                cursor = index + 1
                tenant = self.runtimes[index]
                if tenant.not_before > self.clock._now:
                    continue
                if self._serve_tenant(index):
                    served = True
                if not tenant.qpair.outstanding:
                    tenant.deficit = 0.0
                    del active[bisect_left(active, index)]
                    if tenant.dropped:
                        self._arrivals = [
                            entry for entry in self._arrivals
                            if entry[1] != index
                        ]
                        heapq.heapify(self._arrivals)
        self._pointer = (start + 1) % n
        return served

    def _serve_tenant(self, index: int) -> bool:
        """Grant one tenant its quantum; True if anything dispatched (a
        visit that only throttles is not service)."""
        tenant = self.runtimes[index]
        served = False
        tenant.deficit += self.quantum * tenant.config.qos.weight
        while tenant.qpair.outstanding and tenant.deficit >= 1.0:
            if tenant.limiter is not None and not tenant.token_paid:
                delay = tenant.limiter.delay_for(self.clock._now)
                if delay > 0.0:
                    # Reserve: the token is spent, the command waits.
                    tenant.token_paid = True
                    tenant.not_before = self.clock._now + delay
                    tenant.throttled.add()
                    # A parked tenant forfeits its deficit — QoS debt
                    # must not become an arbitration burst later.
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
                # The head command was deferred for a retry backoff:
                # the tenant parks until ``not_before`` and, like a
                # throttle park, forfeits its deficit.
                tenant.deficit = 0.0
                break
            tenant.deficit -= 1.0
            if tenant.stalled and tenant.pending:
                # The retired command freed a slot: the stalled head
                # arrival (already due) rejoins the heap.  A dropped
                # tenant has no pending arrivals left.
                heapq.heappush(
                    self._arrivals, (self.t0 + tenant.pending[0].issue, index)
                )
            # Dispatch advanced the clock: admit newly due arrivals
            # before the next grant, so intra-round service order
            # follows simulated time, not trace batching.
            self._admit()
        return served

    def _dispatch(self, tenant: TenantRuntime) -> bool:
        """Serve the tenant's head command; False = deferred for retry.

        A retired command (True) either completed at the device, timed
        out, was parked by the degradation policy, or evicted the tenant
        — in every case the head SQ slot is free again.  A deferral
        (False) put the command back at the head with a backoff park.
        """
        command = tenant.qpair.next_command()
        issue = tenant.issue_times.popleft()
        policy = tenant.policy
        now = self.clock._now

        # Deadline: queue wait and earlier retry backoffs already count
        # against the command's budget; an over-deadline command is
        # abandoned without touching the device (its queue slot was
        # consumed either way).
        if policy.deadline is not None and now - issue > policy.deadline:
            tenant.head_attempts = 0
            tenant.commands.add()
            tenant.timeouts.add()
            tenant.slo_violations.add()
            tenant.latency.observe(now - issue)
            if self.tracer is not None:
                self.tracer.emit(
                    "serve.timeout",
                    tenant=tenant.config.name,
                    opcode=command.opcode.name,
                    lba=command.lba,
                    wait=now - issue,
                )
            return True

        # Park-mode fast path: once the device is read-only, writes are
        # held without being submitted; reads keep flowing.
        if (
            tenant.read_only_seen
            and policy.on_read_only == "park"
            and command.opcode is not Opcode.READ
        ):
            tenant.head_attempts = 0
            tenant.parked_writes.append(command)
            tenant.parked.add()
            return True

        start = now
        first_attempt = tenant.head_attempts == 0
        hedged = False
        before = self._activations.value
        completion = self._submit_guarded(tenant, command)
        status = completion.status

        # Hedged reads: the duplicate was scheduled hedge_after() behind
        # the primary; when the primary fails transiently, the duplicate's
        # completion wins (and the failed primary is the cancelled loser).
        if (
            not completion.ok
            and policy.hedge
            and command.opcode is Opcode.READ
            and status in policy.retry.retryable
            and first_attempt
        ):
            hedged = True
            completion = self._hedge(tenant, command, start)
            status = completion.status

        # Bounded retry with exponential backoff: put the command back at
        # the SQ head and park the tenant for the backoff, without
        # stalling anyone else.
        if not completion.ok and status in policy.retry.retryable:
            attempt = tenant.head_attempts + 1
            if attempt < policy.retry.max_attempts:
                delay = policy.retry.delay_before(attempt)
                tenant.head_attempts = attempt
                tenant.qpair.requeue(command)
                tenant.issue_times.appendleft(issue)
                tenant.not_before = self.clock._now + delay
                tenant.retries.add()
                if self.tracer is not None:
                    self.tracer.emit(
                        "serve.retry",
                        tenant=tenant.config.name,
                        opcode=command.opcode.name,
                        lba=command.lba,
                        status=status.name,
                        attempt=attempt,
                        delay=delay,
                    )
                return False

        # Graceful degradation on the read-only transition.
        if status is StatusCode.READ_ONLY and command.opcode is not Opcode.READ:
            if not tenant.read_only_seen:
                tenant.read_only_seen = True
                if self.tracer is not None:
                    self.tracer.emit(
                        "serve.degraded",
                        tenant=tenant.config.name,
                        mode=policy.on_read_only,
                        status=status.name,
                    )
            if policy.on_read_only == "park":
                tenant.head_attempts = 0
                tenant.parked_writes.append(command)
                tenant.parked.add()
                return True
            if policy.on_read_only == "drop_tenant":
                tenant.head_attempts = 0
                self._drop(tenant)
                return True
            # fail_fast: fall through to normal (labeled-error) retirement.

        tenant.head_attempts = 0
        tenant.qpair.post(completion)
        tenant.qpair.poll()
        tenant.commands.add()
        if not completion.ok:
            tenant.count_error(status)
        else:
            device_lba = tenant.namespace.translate(command.lba)
            if command.opcode is Opcode.WRITE:
                self.ledger.record_write(device_lba, command.data)
            elif command.opcode is Opcode.DEALLOCATE:
                self.ledger.record_trim(device_lba)
        tenant.activations.add(self._activations.value - before)
        latency = self.clock._now - issue
        tenant.latency.observe(latency)
        if not completion.ok or latency > policy.slo.latency_target:
            tenant.slo_violations.add()
        if (
            completion.ok
            and policy.hedge
            and not hedged
            and command.opcode is Opcode.READ
            and first_attempt
            and self.clock._now - start > policy.hedge_after()
        ):
            # The primary won, but only after the duplicate went out:
            # the loser is cancelled (deterministically — it never ran).
            tenant.hedge_cancelled.add()
        if self.tracer is not None:
            self.tracer.emit_at(
                "serve.complete",
                start,
                tenant=tenant.config.name,
                opcode=command.opcode.name,
                lba=command.lba,
                status=completion.status.name,
                wait=start - issue,
                dur=self.clock._now - start,
            )
        return True

    def _submit_guarded(
        self, tenant: TenantRuntime, command: NvmeCommand
    ) -> NvmeCompletion:
        """Submit, absorbing power cuts: crash, recover, charge the
        availability gap, then replay the never-acknowledged command."""
        while True:
            try:
                return self.controller.submit(command)
            except PowerLossInterrupt:
                self._recover_from_power_cut(tenant)

    def _hedge(
        self, tenant: TenantRuntime, command: NvmeCommand, start: float
    ) -> NvmeCompletion:
        """Dispatch the hedged duplicate of a failed read.

        The duplicate was launched ``hedge_after()`` behind the primary,
        so its completion cannot land earlier than that; the clock jumps
        there when the primary failed sooner.
        """
        policy = tenant.policy
        launch = start + policy.hedge_after()
        if self.clock._now < launch:
            self.clock.advance_to(launch)
        tenant.hedges.add()
        completion = self._submit_guarded(tenant, command)
        if completion.ok:
            tenant.hedge_wins.add()
        if self.tracer is not None:
            self.tracer.emit(
                "serve.hedge",
                tenant=tenant.config.name,
                lba=command.lba,
                win=completion.ok,
                delay=policy.hedge_after(),
            )
        return completion

    def _recover_from_power_cut(self, tenant: TenantRuntime) -> None:
        """Run the crash/recover cycle mid-serve and account the outage."""
        self.controller.crash()
        report = self.controller.recover()
        gap = recovery_gap(
            report.scanned_pages,
            self.controller.ftl.flash.timing.read_page,
            self.controller.timing.flash_parallelism,
        )
        self.clock.advance(gap)
        self.power_cuts += 1
        self.availability_gap += gap
        self._power_cut_counter.add()
        # Audit immediately: a later rewrite of a lost LBA must not
        # launder the loss out of the end-of-run verdict.
        self.durability_audit()
        if self.tracer is not None:
            self.tracer.emit(
                "serve.recovery",
                tenant=tenant.config.name,
                scanned=report.scanned_pages,
                gap=gap,
                replayed=1,
            )

    def _drop(self, tenant: TenantRuntime) -> None:
        """Evict a tenant (drop_tenant degradation): discard its queued
        and pending work; it stops being served entirely."""
        dropped = 1 + tenant.qpair.outstanding + len(tenant.pending)
        tenant.dropped_ops.add(dropped)
        tenant.qpair.sq.clear()
        tenant.qpair.cq.clear()
        tenant.issue_times.clear()
        tenant.pending.clear()
        tenant.dropped = True

    # -- idle advancement ----------------------------------------------

    def _next_event(self) -> Optional[float]:
        """The next instant anything can legally happen (None = done).

        An active tenant can next act at its ``not_before``; an idle one
        at its next arrival.
        """
        active = self._active
        best: Optional[float] = None
        for index in active:
            candidate = self.runtimes[index].not_before
            if best is None or candidate < best:
                best = candidate
        for issue, index in self._arrivals:
            if best is None or issue < best:
                slot = bisect_left(active, index)
                if slot == len(active) or active[slot] != index:
                    best = issue
        if best is None:
            return None
        return max(self.clock._now, best)

    # -- main loop ------------------------------------------------------

    def run(self) -> float:
        """Serve every tenant's trace to completion; returns duration."""
        self.t0 = self.clock._now
        self._arrivals = [
            (self.t0 + tenant.pending[0].issue, index)
            for index, tenant in enumerate(self.runtimes)
            if tenant.pending
        ]
        heapq.heapify(self._arrivals)
        while True:
            self._admit()
            if self._serve_round():
                continue
            if not self._arrivals and not self._active:
                break
            nxt = self._next_event()
            if nxt is None or nxt <= self.clock._now:
                # Unreachable by construction: an undrained tenant always
                # has a strictly-future arrival or refill instant when a
                # full round dispatched nothing.  Refuse to spin.
                raise ConfigError("serving scheduler made no progress")
            self.clock.advance_to(nxt)
        self.duration = self.clock._now - self.t0
        self._finalize()
        return self.duration

    def _finalize(self) -> None:
        duration = self.duration
        total = 0
        for tenant in self.runtimes:
            name = tenant.config.name
            count = tenant.commands.value
            total += count
            iops = count / duration if duration > 0 else 0.0
            pcts = tenant.latency.percentiles()
            self.registry.gauge("iops", tenant=name).set(iops)
            for label, value in sorted(pcts.items()):
                self.registry.gauge("latency_%s" % label, tenant=name).set(
                    value
                )
            slo = tenant.policy.slo
            violations = tenant.slo_violations.value
            self.registry.gauge("slo_burn_rate", tenant=name).set(
                slo.burn_rate(violations, count)
            )
            self.registry.gauge("slo_budget_remaining", tenant=name).set(
                slo.budget_remaining(violations, count)
            )
            if self.tracer is not None:
                self.tracer.emit(
                    "serve.tenant",
                    tenant=name,
                    commands=count,
                    iops=iops,
                    p99=pcts["p99"],
                )
        self.registry.gauge("availability_gap_seconds").set(
            self.availability_gap
        )
        if self.tracer is not None:
            self.tracer.emit(
                "serve.run",
                tenants=len(self.runtimes),
                commands=total,
                dur=duration,
            )
