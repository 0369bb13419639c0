"""The NVMe controller: namespaces, command costing, and the burst path.

Timing model
------------
The simulator does not run an event-driven pipeline; instead each command
carries a cost in simulated seconds:

    cost = base_command_time + flash_time / flash_parallelism (+ limiter delay)

``base_command_time`` models the submission/doorbell/translation overhead
that bounds the device's peak 4 KiB IOPS (0.4 us ~ 2.5 M IOPS, the PCIe 5.0
class the paper cites).  ``flash_parallelism`` amortizes NAND latency over
the many dies a real device keeps busy through deep queues.  The important
asymmetry is preserved: reads of **unmapped/trimmed LBAs never touch
flash** and complete at the base rate — the paper's §3 observation that
attackers with access to trimmed blocks "may accelerate access rates by
avoiding the overheads of additional, slower, accesses to flash".

Hammer burst path
-----------------
:meth:`NvmeController.read_burst` executes a repeated read loop over a
small LBA set in closed form: it computes the achievable I/O rate (device
ceiling, host cap, rate limiter), maps the LBAs' L2P entries to DRAM rows,
and hands the resulting activation pattern to the DRAM module's batch
hammer.  ``hammer_amplification`` reproduces the paper's §4.1 testbed
tweak ("we manually amplified each L2P row activation — 5 hammers per I/O
request"): each I/O accounts for k row activations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dram.cache import CacheMode
from repro.dram.module import FlipEvent
from repro.errors import (
    EccUncorrectableError,
    FlashError,
    FlashReadError,
    FlashWriteFault,
    FtlReadOnlyError,
    FtlRecoveryError,
    NvmeNamespaceError,
)
from repro.ftl.ftl import PageMappingFtl
from repro.ftl.l2p import ENTRY_BYTES
from repro.nvme.commands import NvmeCommand, NvmeCompletion, Opcode, StatusCode
from repro.nvme.namespace import Namespace
from repro.nvme.queue import QueuePair
from repro.nvme.ratelimit import IopsRateLimiter
from repro.sim.clock import SimClock
from repro.sim.metrics import MetricRegistry, merge_snapshots
from repro.units import us


@dataclass(frozen=True)
class DeviceTimingModel:
    """Knobs that set the device's throughput envelope."""

    #: Fixed per-command overhead (doorbell, parsing, L2P access issue).
    base_command_time: float = us(0.4)
    #: NAND latency is divided by this to model multi-die parallelism.
    flash_parallelism: float = 32.0
    #: L2P row activations accounted per I/O in the burst path (§4.1's
    #: manual 5x amplification; 1 = faithful single lookup per I/O).
    hammer_amplification: int = 1
    #: Extra latency per DRAM row *activation* a command causes (a row-
    #: buffer miss costs tRP+tRCD that a buffer hit does not).  Off by
    #: default; the timing-reconnaissance scenario enables it — this
    #: side channel is how DRAMA-style attacks cluster addresses into
    #: rows without any documentation.
    row_miss_penalty: float = 0.0

    @property
    def peak_iops(self) -> float:
        """Device ceiling for commands that never touch flash."""
        return 1.0 / self.base_command_time


@dataclass
class BurstResult:
    """Outcome of a closed-form read burst (hammering campaign)."""

    ios: int
    duration: float
    io_rate: float
    activation_rate: float
    flips: List[FlipEvent] = field(default_factory=list)
    pattern_rows: List[Tuple[int, int]] = field(default_factory=list)
    cache_absorbed: bool = False
    #: Burst positions (0-based) whose command failed individually — only
    #: populated by write bursts hitting media faults or a read-only device.
    failed: List[int] = field(default_factory=list)

    @property
    def flip_count(self) -> int:
        return len(self.flips)


class _DifFailure(Exception):
    """Internal: carries a failed read's flash time up to the completion."""

    def __init__(self, flash_time: float):
        super().__init__("DIF verification failed")
        self.flash_time = flash_time


class NvmeController:
    """Front door of the simulated SSD."""

    def __init__(
        self,
        ftl: PageMappingFtl,
        clock: SimClock,
        timing: DeviceTimingModel = DeviceTimingModel(),
        rate_limiter: Optional[IopsRateLimiter] = None,
        metrics: Optional[MetricRegistry] = None,
        tracer=None,
    ):
        self.ftl = ftl
        self.clock = clock
        self.timing = timing
        self.rate_limiter = rate_limiter
        self.metrics = metrics or MetricRegistry("nvme")
        #: Optional structured tracer (see :mod:`repro.trace`).
        self.tracer = tracer
        if tracer is None:
            # Tracing is fixed at construction; with no tracer, bind the
            # hot entry points straight to their implementations so the
            # untraced path never pays for the wrapper frame.
            self.submit = self._submit
            self.read_burst = self._read_burst
            self.write_burst = self._write_burst
            self.trim_burst = self._trim_burst
        self.namespaces: Dict[int, Namespace] = {}
        self._commands = self.metrics.counter("commands")
        self._errors = self.metrics.counter("errors")
        #: Burst setup cache: (nsid, lbas) -> (device_lbas, entry_addrs,
        #: activation pattern as tuple (hammer-plan key) and as list
        #: (result field), pattern-has-multiple-rows).  All are pure
        #: functions of the key (namespace extents and L2P entry addresses
        #: never move), and attack loops re-issue the same burst millions
        #: of times.
        self._burst_plans: Dict[
            Tuple[int, Tuple[int, ...]],
            Tuple[
                List[int],
                List[int],
                Tuple[Tuple[int, int], ...],
                List[Tuple[int, int]],
                bool,
            ],
        ] = {}

    # ------------------------------------------------------------------
    # namespace management
    # ------------------------------------------------------------------

    def create_namespace(self, nsid: int, start_lba: int, num_lbas: int) -> Namespace:
        """Attach a partition of the device's logical space."""
        namespace = Namespace(nsid, start_lba, num_lbas)
        if nsid in self.namespaces:
            raise NvmeNamespaceError("namespace %d already exists" % nsid)
        if namespace.end_lba > self.ftl.num_lbas:
            raise NvmeNamespaceError(
                "namespace %d extends past device capacity" % nsid
            )
        for other in self.namespaces.values():
            if namespace.overlaps(other):
                raise NvmeNamespaceError(
                    "namespace %d overlaps namespace %d" % (nsid, other.nsid)
                )
        self.namespaces[nsid] = namespace
        return namespace

    def namespace(self, nsid: int) -> Namespace:
        try:
            return self.namespaces[nsid]
        except KeyError:
            raise NvmeNamespaceError("unknown namespace %d" % nsid) from None

    @property
    def block_bytes(self) -> int:
        return self.ftl.page_bytes

    def stack_snapshot(self) -> Dict[str, float]:
        """The whole device's metrics as one flat dict: the DRAM, FTL,
        NVMe and flash registries merged (every stack trace's footer)."""
        ftl = self.ftl
        return merge_snapshots(
            ftl.memory.dram.metrics, ftl.metrics, self.metrics, ftl.flash.metrics
        )

    # ------------------------------------------------------------------
    # synchronous command path
    # ------------------------------------------------------------------

    def submit(self, command: NvmeCommand) -> NvmeCompletion:
        """Execute one command, advancing simulated time by its cost."""
        tracer = self.tracer
        if tracer is None:
            return self._submit(command)
        tracer.emit(
            "nvme.submit",
            opcode=command.opcode.name,
            nsid=command.nsid,
            lba=command.lba,
        )
        start = self.clock._now
        completion = self._submit(command)
        tracer.emit_at(
            "nvme.complete",
            start,
            opcode=command.opcode.name,
            nsid=command.nsid,
            lba=command.lba,
            status=completion.status.name,
            dur=self.clock._now - start,
        )
        return completion

    def _submit(self, command: NvmeCommand) -> NvmeCompletion:
        self._commands.value += 1
        namespace = self.namespaces.get(command.nsid)
        if namespace is None:
            self._errors.add()
            return NvmeCompletion(command.command_id, StatusCode.INVALID_NAMESPACE)
        try:
            device_lba = namespace.translate(command.lba)
        except NvmeNamespaceError:
            self._errors.add()
            return NvmeCompletion(command.command_id, StatusCode.LBA_OUT_OF_RANGE)

        delay = 0.0
        if self.rate_limiter is not None:
            delay = self.rate_limiter.delay_for(self.clock.now)
            if delay:
                self.clock.advance(delay)

        # The activation count feeds only the row-miss penalty, so it is
        # read only when the penalty is on.
        penalty = self.timing.row_miss_penalty
        activations_before = self._dram_activations() if penalty else 0
        try:
            data, flash_time = self._execute(command, device_lba)
        except EccUncorrectableError:
            # A double-bit flip under ECC surfaces as a device-internal
            # error rather than silent misdirection.
            self._errors.add()
            return NvmeCompletion(command.command_id, StatusCode.INTERNAL_ERROR)
        except _DifFailure as failure:
            self._errors.add()
            cost = (
                self.timing.base_command_time
                + failure.flash_time / self.timing.flash_parallelism
            )
            self.clock.advance(cost)
            return NvmeCompletion(
                command.command_id, StatusCode.INTEGRITY_ERROR, latency=cost + delay
            )
        except FlashReadError:
            return self._fail(command, StatusCode.MEDIA_READ_ERROR, delay)
        except FlashWriteFault:
            return self._fail(command, StatusCode.WRITE_FAULT, delay)
        except FtlRecoveryError:
            return self._fail(command, StatusCode.RECOVERY_ERROR, delay)
        except FtlReadOnlyError:
            return self._fail(command, StatusCode.READ_ONLY, delay)

        cost = self.timing.base_command_time + flash_time / self.timing.flash_parallelism
        if penalty:
            misses = self._dram_activations() - activations_before
            cost += penalty * misses
        self.clock.advance(cost)
        return NvmeCompletion(
            command.command_id, StatusCode.SUCCESS, data=data, latency=cost + delay
        )

    def _fail(self, command: NvmeCommand, status: StatusCode, delay: float) -> NvmeCompletion:
        """Complete a command with an error status; the failed attempt
        still costs its submission overhead."""
        self._errors.add()
        cost = self.timing.base_command_time
        self.clock.advance(cost)
        return NvmeCompletion(command.command_id, status, latency=cost + delay)

    def _dram_activations(self) -> int:
        return self.ftl.memory.dram.metrics.counter("activations").value

    def _execute(self, command: NvmeCommand, device_lba: int):
        if command.opcode is Opcode.READ:
            result = self.ftl.read(device_lba)
            if result.integrity_error:
                raise _DifFailure(result.flash_time)
            return result.data, result.flash_time
        if command.opcode is Opcode.WRITE:
            result = self.ftl.write(device_lba, command.data)
            return None, result.flash_time
        if command.opcode is Opcode.DEALLOCATE:
            self.ftl.trim(device_lba)
            return None, 0.0
        if command.opcode is Opcode.FLUSH:
            return None, self.ftl.flush()
        raise NvmeNamespaceError("unsupported opcode %r" % command.opcode)

    def process(self, qpair: QueuePair, max_commands: Optional[int] = None) -> int:
        """Drain a queue pair through :meth:`submit`; returns count."""
        processed = 0
        while max_commands is None or processed < max_commands:
            command = qpair.next_command()
            if command is None:
                break
            qpair.post(self.submit(command))
            processed += 1
        return processed

    # -- convenience wrappers -------------------------------------------

    def read(self, nsid: int, lba: int) -> bytes:
        completion = self.submit(NvmeCommand(Opcode.READ, nsid, lba))
        if not completion.ok:
            raise NvmeNamespaceError("read failed: %s" % completion.status.value)
        return completion.data

    def write(self, nsid: int, lba: int, data: bytes) -> None:
        completion = self.submit(NvmeCommand(Opcode.WRITE, nsid, lba, data=data))
        if not completion.ok:
            raise NvmeNamespaceError("write failed: %s" % completion.status.value)

    def trim(self, nsid: int, lba: int) -> None:
        completion = self.submit(NvmeCommand(Opcode.DEALLOCATE, nsid, lba))
        if not completion.ok:
            raise NvmeNamespaceError("trim failed: %s" % completion.status.value)

    def flush(self, nsid: int) -> None:
        completion = self.submit(NvmeCommand(Opcode.FLUSH, nsid))
        if not completion.ok:
            raise NvmeNamespaceError("flush failed: %s" % completion.status.value)

    # ------------------------------------------------------------------
    # power-loss lifecycle
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Sudden power loss: all volatile device state vanishes.

        Namespace definitions survive (they model the partition table the
        host re-reads, not controller DRAM), as do the burst-plan caches —
        those are pure functions of namespace extents and the L2P layout,
        neither of which a power cycle changes.
        """
        self.ftl.crash()

    def recover(self):
        """Power the device back on; returns the FTL's RecoveryReport."""
        return self.ftl.recover()

    # ------------------------------------------------------------------
    # hammer burst fast path
    # ------------------------------------------------------------------

    def io_cost(self, mapped: bool) -> float:
        """Simulated cost of one 4 KiB read command."""
        flash = self.ftl.flash.timing.read_page if mapped else 0.0
        return self.timing.base_command_time + flash / self.timing.flash_parallelism

    def read_burst(
        self,
        nsid: int,
        lbas: Sequence[int],
        repeats: int,
        host_iops_cap: Optional[float] = None,
    ) -> BurstResult:
        """Issue ``repeats`` passes of reads over ``lbas`` in closed form.

        This is the attack's hot loop: at millions of IOPS per simulated
        second a Python-level per-command loop would be absurd, so the
        burst computes the achievable rate once and drives the DRAM batch
        hammer directly.  Semantics match a loop of :meth:`submit` calls
        (tests pin this for the uncached configuration).
        """
        tracer = self.tracer
        if tracer is None:
            return self._read_burst(nsid, lbas, repeats, host_iops_cap)
        start = self.clock._now
        result = self._read_burst(nsid, lbas, repeats, host_iops_cap)
        tracer.emit_at(
            "nvme.read_burst",
            start,
            nsid=nsid,
            lbas=len(lbas),
            ios=result.ios,
            io_rate=result.io_rate,
            activation_rate=result.activation_rate,
            flips=result.flip_count,
            cache_absorbed=result.cache_absorbed,
            dur=self.clock._now - start,
        )
        return result

    def _read_burst(
        self,
        nsid: int,
        lbas: Sequence[int],
        repeats: int,
        host_iops_cap: Optional[float] = None,
    ) -> BurstResult:
        n_lbas = len(lbas)
        plan = self._burst_plans.get((nsid, tuple(lbas)))
        if plan is None:
            # A cached plan implies the namespace check already passed, and
            # namespaces are never detached — so the hit path skips it.
            namespace = self.namespace(nsid)
            device_lbas = [namespace.translate(lba) for lba in lbas]
            l2p = self.ftl.l2p
            entry_addrs = [l2p.entry_address(lba) for lba in device_lbas]
            # The pattern is kept in both shapes: hammer() keys its plan
            # cache on tuple(pattern) (free when it already is one) while
            # BurstResult.pattern_rows stays a list.
            pattern_list = self._pattern_from_addrs(entry_addrs)
            plan = (
                device_lbas,
                entry_addrs,
                tuple(pattern_list),
                pattern_list,
                len(set(pattern_list)) >= 2,
            )
            self._burst_plans[(nsid, tuple(lbas))] = plan
        device_lbas, entry_addrs, pattern, pattern_list, multi_row = plan
        if repeats <= 0 or not device_lbas:
            return BurstResult(ios=0, duration=0.0, io_rate=0.0, activation_rate=0.0)

        # One real lookup per distinct LBA — a single batched L2P gather:
        # it establishes mapped-ness (cost model) and the entry->row
        # pattern, and matches the first pass a real attacker issues
        # anyway.
        raw = self.ftl.memory.read_many(entry_addrs, ENTRY_BYTES).tobytes()
        unmapped_raw = b"\xff" * ENTRY_BYTES
        mapped_count = sum(
            1
            for i in range(0, ENTRY_BYTES * n_lbas, ENTRY_BYTES)
            if raw[i : i + ENTRY_BYTES] != unmapped_raw
        )
        # Priced with the timing in force now: callers may reassign
        # ``self.timing`` after construction.
        timing = self.timing
        pass_cost = (
            timing.base_command_time * n_lbas
            + mapped_count * self.ftl.flash.timing.read_page / timing.flash_parallelism
        )
        io_rate = n_lbas / pass_cost
        if host_iops_cap is not None:
            io_rate = min(io_rate, host_iops_cap)
        if self.rate_limiter is not None:
            io_rate = self.rate_limiter.effective_rate(io_rate)

        total_ios = repeats * n_lbas
        amplification = timing.hammer_amplification
        activation_rate = io_rate * amplification
        self._commands.value += total_ios

        if self.ftl.memory.mode is CacheMode.LRU:
            # Hot L2P entries are served from the FTL CPU cache: DRAM sees
            # (almost) nothing.  Warm the cache with one real pass, then
            # account pure time for the rest.
            for lba in device_lbas:
                self.ftl.read(lba)
            self.clock.advance(total_ios / io_rate)
            return BurstResult(
                ios=total_ios,
                duration=total_ios / io_rate,
                io_rate=io_rate,
                activation_rate=0.0,
                pattern_rows=pattern_list,
                cache_absorbed=True,
            )

        if not multi_row:
            # All entries share one DRAM row: open-page row-buffer hits, no
            # alternating activations, no hammering.
            self.clock.advance(total_ios / io_rate)
            return BurstResult(
                ios=total_ios,
                duration=total_ios / io_rate,
                io_rate=io_rate,
                activation_rate=0.0,
                pattern_rows=pattern_list,
            )

        hammer = self.ftl.memory.dram.hammer(
            pattern,
            total_accesses=total_ios * amplification,
            access_rate=activation_rate,
        )
        return BurstResult(
            ios=total_ios,
            duration=hammer.duration,
            io_rate=io_rate,
            activation_rate=activation_rate,
            flips=hammer.flips,
            pattern_rows=pattern_list,
        )

    def _pattern_from_addrs(self, entry_addrs) -> List[Tuple[int, int]]:
        """(bank, row) sequence the L2P entries at ``entry_addrs``
        activate, with consecutive row-buffer hits collapsed."""
        locate3 = self.ftl.memory.dram.mapping.locate3
        rows: List[Tuple[int, int]] = []
        for key in (locate3(int(addr))[:2] for addr in entry_addrs):
            if rows and rows[-1] == key:
                continue  # open-page hit, no activation
            rows.append(key)
        # The pattern repeats: a trailing key equal to the leading one is a
        # row-buffer hit on wraparound, not an activation.
        while len(rows) > 1 and rows[0] == rows[-1]:
            rows.pop()
        return rows

    def write_burst(
        self,
        nsid: int,
        lbas: Sequence[int],
        payloads,
    ) -> BurstResult:
        """Write a batch of blocks with one clock advance and one
        submission-cost accounting pass.

        ``payloads`` is either one ``bytes`` page reused for every LBA or a
        sequence of per-LBA pages.  The writes themselves run through the
        FTL scalar path (flash allocation order matters), but the NVMe
        bookkeeping — namespace translation, permission checks, command
        counters, the clock — is amortized over the burst, which is what
        makes priming an attacker partition cheap.
        """
        tracer = self.tracer
        if tracer is None:
            return self._write_burst(nsid, lbas, payloads)
        start = self.clock._now
        result = self._write_burst(nsid, lbas, payloads)
        tracer.emit_at(
            "nvme.write_burst",
            start,
            nsid=nsid,
            ios=result.ios,
            failed=len(result.failed),
            flips=result.flip_count,
            dur=self.clock._now - start,
        )
        return result

    def _write_burst(self, nsid: int, lbas: Sequence[int], payloads) -> BurstResult:
        namespace = self.namespace(nsid)
        n_lbas = len(lbas)
        if isinstance(payloads, (bytes, bytearray, memoryview)):
            payloads = [bytes(payloads)] * n_lbas
        if len(payloads) != n_lbas:
            raise NvmeNamespaceError(
                "write_burst needs one payload per LBA (%d != %d)"
                % (len(payloads), n_lbas)
            )
        device_lbas = [namespace.translate(lba) for lba in lbas]
        if not device_lbas:
            return BurstResult(ios=0, duration=0.0, io_rate=0.0, activation_rate=0.0)
        dram = self.ftl.memory.dram
        flips_before = len(dram.flips)
        self._commands.add(n_lbas)
        total_flash = 0.0
        failed: List[int] = []
        for position, (device_lba, data) in enumerate(zip(device_lbas, payloads)):
            try:
                result = self.ftl.write(device_lba, data)
            except (FlashError, FtlReadOnlyError):
                # Each burst member is its own command: one write hitting
                # a media fault (or a read-only device) fails alone, just
                # as it would in a loop of submit() calls.
                self._errors.add()
                failed.append(position)
                continue
            total_flash += result.flash_time
        cost = (
            self.timing.base_command_time * n_lbas
            + total_flash / self.timing.flash_parallelism
        )
        io_rate = n_lbas / cost
        if self.rate_limiter is not None:
            io_rate = self.rate_limiter.effective_rate(io_rate)
        duration = n_lbas / io_rate
        self.clock.advance(duration)
        return BurstResult(
            ios=n_lbas,
            duration=duration,
            io_rate=io_rate,
            activation_rate=0.0,
            flips=dram.flips[flips_before:],
            failed=failed,
        )

    def trim_burst(self, nsid: int, lbas: Sequence[int]) -> BurstResult:
        """Deallocate a batch of blocks: one translation pass, one batched
        L2P clear, one clock advance (trims never touch flash)."""
        tracer = self.tracer
        if tracer is None:
            return self._trim_burst(nsid, lbas)
        start = self.clock._now
        result = self._trim_burst(nsid, lbas)
        tracer.emit_at(
            "nvme.trim_burst",
            start,
            nsid=nsid,
            ios=result.ios,
            dur=self.clock._now - start,
        )
        return result

    def _trim_burst(self, nsid: int, lbas: Sequence[int]) -> BurstResult:
        namespace = self.namespace(nsid)
        n_lbas = len(lbas)
        device_lbas = [namespace.translate(lba) for lba in lbas]
        if not device_lbas:
            return BurstResult(ios=0, duration=0.0, io_rate=0.0, activation_rate=0.0)
        self._commands.add(n_lbas)
        self.ftl.trim_many(device_lbas)
        cost = self.timing.base_command_time * n_lbas
        io_rate = n_lbas / cost
        if self.rate_limiter is not None:
            io_rate = self.rate_limiter.effective_rate(io_rate)
        duration = n_lbas / io_rate
        self.clock.advance(duration)
        return BurstResult(
            ios=n_lbas, duration=duration, io_rate=io_rate, activation_rate=0.0
        )
