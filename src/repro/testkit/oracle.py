"""Differential oracle: replay one trace through the real stack and the
naive reference models, report every disagreement.

The oracle owns one real device stack (built from the trace's recipe via
:func:`repro.testkit.fixtures.build_stack`) and one set of reference
models (:mod:`repro.testkit.reference`).  Each op is applied to both;
payload mismatches surface immediately, structural state (mapped-LBA
sets, invariants, activation bounds) is compared at checkpoints and at
end of trace.

Flips are not bugs: under a vulnerable profile the attack corrupting L2P
entries is the simulated physics working as the paper describes.  Every
comparison is therefore made *modulo* :func:`flip_affected_lbas` — the
entries whose corruption is attributable to a recorded disturbance flip.
A wrong answer on any other LBA is a real divergence.  The same logic
extends to the fault-injection plane: LBAs whose payload an injected
retention flip corrupted, and commands an injected media error failed,
are accounted (and counted) rather than reported.

Durability is tracked NVMe-style so crashes can be judged:

* write-through writes are *acknowledged durable* the moment the command
  completes; buffered writes only once they reach flash (a buffer-full
  flush or an explicit FLUSH command);
* a ``crash`` op power-cycles the device; after recovery every
  acknowledged-durable write must read back intact (kind
  ``durability`` otherwise), staged-but-unflushed writes must be gone;
* trims are **not** power-loss barriers: recovery may legitimately
  resurrect a previously durable generation of a trimmed LBA (the page
  is still on flash with a valid sequence number), which the oracle
  accepts and counts as a resurrection;
* a :class:`PowerLossInterrupt` mid-op (scheduled by a fault plan) makes
  the interrupted op's writes *ambiguous*: they were never acknowledged,
  so the device may surface either the old or the new payload — anything
  else is a divergence.

Two replay modes exercise the two implementations of the I/O paths:

* ``scalar`` — every command goes through a :class:`BlockDevice` (the
  host path, including its bounded retry-with-backoff) one LBA at a
  time.
* ``batch`` — writes go through :meth:`write_burst`, trims through
  :meth:`trim_burst` (the batched burst path); reads stay scalar because
  the batch read path (:meth:`read_burst`) is the data-less hammer fast
  path.  Hammer ops use :meth:`read_burst` in both modes.

On a flip-free, fault-free profile the two modes must land in identical
logical state — the batch-equivalence guarantee PR 1 pinned for
hand-written cases, here extended to arbitrary generated workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import FtlError, NvmeError, PowerLossInterrupt
from repro.host import BlockDevice
from repro.testkit import fixtures
from repro.testkit.invariants import (
    InvariantViolation,
    check_dram,
    check_ftl,
    flip_affected_lbas,
)
from repro.testkit.reference import (
    DisturbanceAccumulator,
    ShadowL2p,
    ShadowStore,
)
from repro.testkit.trace import Op, Trace, payload_for

#: Profile names a trace may reference -> fixture profiles.
PROFILES = {"granite": fixtures.GRANITE, "fragile": fixtures.FRAGILE}

#: The single namespace the oracle attaches over the whole device.
NSID = 1

MODES = ("scalar", "batch")


@dataclass
class Divergence:
    """One disagreement between the real stack and a reference model."""

    op_index: Optional[int]  #: op being applied, or None for final checks
    kind: str  #: read-payload | write-unmapped | mapped-set | invariant | activations | op-error | durability | buffer-mirror
    detail: str
    lba: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "op_index": self.op_index,
            "kind": self.kind,
            "detail": self.detail,
            "lba": self.lba,
        }

    def __str__(self) -> str:
        where = "op %s" % self.op_index if self.op_index is not None else "end"
        target = " (LBA %d)" % self.lba if self.lba is not None else ""
        return "[%s] %s%s: %s" % (where, self.kind, target, self.detail)


def build_stack_for(trace: Trace, fault_plan=None, trace_path=None):
    """Real stack matching a trace's recipe; returns (controller, dram, ftl)
    with one namespace covering the whole logical space.  ``fault_plan``
    (a :class:`repro.faults.FaultPlan`) attaches the fault injector;
    ``trace_path`` streams a structured trace of the replay there (the
    tracer is reachable as ``controller.tracer``)."""
    try:
        profile = PROFILES[trace.profile]
    except KeyError:
        raise ValueError(
            "trace names unknown profile %r (have %s)"
            % (trace.profile, sorted(PROFILES))
        ) from None
    controller, dram, ftl = fixtures.build_stack(
        profile=profile,
        seed=trace.seed,
        num_lbas=trace.num_lbas,
        layout=trace.layout,
        write_buffer_pages=trace.write_buffer_pages,
        spare_blocks=trace.spare_blocks,
        fault_plan=fault_plan,
        trace_path=trace_path,
    )
    controller.create_namespace(NSID, 0, trace.num_lbas)
    return controller, dram, ftl


class DifferentialOracle:
    """Replays a trace against the stack and the reference models.

    ``stack_factory`` (trace -> (controller, dram, ftl)) exists so tests
    can substitute a deliberately broken stack — the mutation check in
    the acceptance criteria monkeypatches an off-by-one through it.
    When ``fault_plan`` is given it is forwarded as a keyword, so plain
    single-argument factories keep working for fault-free campaigns.
    """

    def __init__(
        self,
        trace: Trace,
        mode: str = "scalar",
        check_every: int = 0,
        stack_factory: Callable = build_stack_for,
        fault_plan=None,
    ):
        if mode not in MODES:
            raise ValueError("unknown replay mode %r (have %s)" % (mode, MODES))
        self.trace = trace
        self.mode = mode
        self.check_every = check_every
        self.fault_plan = fault_plan
        if fault_plan is not None:
            self.controller, self.dram, self.ftl = stack_factory(
                trace, fault_plan=fault_plan
            )
        else:
            self.controller, self.dram, self.ftl = stack_factory(trace)
        self.bdev = BlockDevice(self.controller, NSID)
        self.page_bytes = self.ftl.page_bytes
        self.shadow_l2p = ShadowL2p(trace.num_lbas)
        #: Acknowledged-durable payloads — what must survive a crash.
        self.store = ShadowStore(trace.num_lbas, self.page_bytes)
        self.accumulator = DisturbanceAccumulator()
        self.divergences: List[Divergence] = []
        self._amplification = self.controller.timing.hammer_amplification
        #: Mirror of the device write buffer: acknowledged, NOT durable.
        self._staged: Dict[int, bytes] = {}
        #: Every payload ever acknowledged durable per LBA.  Old
        #: generations stay on flash until GC erases them, so any of
        #: these may legitimately resurface when a crash undoes a trim.
        self._history: Dict[int, Set[bytes]] = {}
        #: In-flight payload candidates while a command runs — what a
        #: power cut may leave half-applied.
        self._ambiguous: Dict[int, List[bytes]] = {}
        self._just_promoted: List[int] = []
        #: LBAs whose payload a flip corrupted while staged in the DRAM
        #: write buffer (attributed conservatively, kept forever).
        self._buffer_taint: Set[int] = set()
        self._flips_seen = 0
        #: Observability for campaign reports.
        self.recoveries = 0
        self.power_cuts = 0
        self.resurrections = 0
        self.fault_failures = 0

    @property
    def faults_active(self) -> bool:
        return self.ftl.flash.injector is not None

    # -- replay ---------------------------------------------------------

    def run(self, max_divergences: int = 25) -> List[Divergence]:
        """Replay every op; returns the divergence list (empty = agreement).

        Stops early once ``max_divergences`` accumulated — a broken stack
        diverges on nearly every op and the first few tell the story.
        """
        for index, op in enumerate(self.trace.ops):
            try:
                self._apply(index, op)
            except PowerLossInterrupt:
                # A scheduled power cut fired mid-command (mid-GC,
                # mid-flush, mid-program): power-cycle and judge recovery,
                # treating the interrupted op's writes as ambiguous.
                self.power_cuts += 1
                self._crash_recover(index, ambiguous=dict(self._ambiguous))
            except InvariantViolation:
                raise
            except Exception as exc:  # a crash is a divergence, not an abort
                self._report(index, "op-error", "%s: %s" % (type(exc).__name__, exc))
            finally:
                self._ambiguous = {}
            self._note_buffer_flips(op)
            if self.check_every and (index + 1) % self.check_every == 0:
                self.checkpoint(index)
            if len(self.divergences) >= max_divergences:
                return self.divergences
        self.checkpoint(None)
        return self.divergences

    def _apply(self, index: int, op: Op) -> None:
        if op.kind == "read":
            for lba in op.lbas:
                self._one_read(index, lba)
        elif op.kind == "write":
            self._apply_write(index, op)
        elif op.kind == "trim":
            self._apply_trim(index, op)
        elif op.kind == "flush":
            self._apply_flush(index)
        elif op.kind == "crash":
            self._crash_recover(index, ambiguous={})
        elif op.kind == "hammer":
            self.controller.read_burst(NSID, op.lbas, repeats=max(op.repeats, 1))
            self._account_hammer(op)
        else:  # pragma: no cover - Op.__post_init__ rejects unknown kinds
            raise ValueError("unknown op kind %r" % op.kind)

    # -- writes ---------------------------------------------------------

    def _apply_write(self, index: int, op: Op) -> None:
        payloads = [
            payload_for(lba, fill, self.page_bytes)
            for lba, fill in zip(op.lbas, op.fills)
        ]
        if self.mode == "batch":
            self._set_ambiguous(op.lbas, payloads)
            result = self.controller.write_burst(NSID, op.lbas, payloads)
            self._ambiguous = {}
            failed = set(result.failed)
            if failed:
                self.fault_failures += len(failed)
                if not self.faults_active:
                    self._report(
                        index,
                        "op-error",
                        "%d burst write(s) failed without fault injection"
                        % len(failed),
                    )
            self._account_entry_accesses(
                lba for i, lba in enumerate(op.lbas) if i not in failed
            )
            for i, (lba, data) in enumerate(zip(op.lbas, payloads)):
                if i not in failed:
                    self._record_write(lba, data)
            if failed:
                self._resync_buffer(op.lbas, payloads)
        else:
            for lba, data in zip(op.lbas, payloads):
                self._set_ambiguous([lba], [data])
                retries_before = self.bdev.retries
                try:
                    self.bdev.write_block(lba, data)
                except NvmeError as exc:
                    self._ambiguous = {}
                    self.fault_failures += 1
                    if not self.faults_active:
                        self._report(
                            index,
                            "op-error",
                            "write raised %s: %s" % (type(exc).__name__, exc),
                            lba,
                        )
                    self._resync_buffer([lba], [data])
                    continue
                self._ambiguous = {}
                self._account_entry_accesses([lba])
                if self.bdev.retries > retries_before:
                    # The host retried a failed attempt behind our back; the
                    # failed attempt may have partially drained the write
                    # buffer (e.g. an injected read error mid-GC), so the
                    # mirror's fullness bookkeeping can no longer be
                    # trusted — rebuild it from what the device holds.
                    self._resync_buffer([lba], [data])
                else:
                    self._record_write(lba, data)
        self._finish_writes(index)

    def _record_write(self, lba: int, data: bytes) -> None:
        """Mirror one acknowledged write: durable immediately in
        write-through mode, staged (and flushed on buffer-full, exactly
        like the FTL) otherwise."""
        buffer = self.ftl.write_buffer
        if buffer is None:
            self._make_durable(lba, data)
            self._just_promoted.append(lba)
        else:
            self._staged[lba] = data
            if len(self._staged) >= buffer.capacity_pages:
                self._promote_all()

    def _make_durable(self, lba: int, data: bytes) -> None:
        self.store.write(lba, data)
        self._history.setdefault(lba, set()).add(bytes(data))

    def _promote_all(self) -> None:
        for lba, data in self._staged.items():
            self._make_durable(lba, data)
            self._just_promoted.append(lba)
        self._staged.clear()

    def _finish_writes(self, index: int) -> None:
        """Post-op check for every LBA that became durable during the op:
        its L2P entry must be mapped (modulo flips), and the shadow table
        syncs to the device's physical placement."""
        if not self._just_promoted:
            return
        exempt = self.exempt_lbas()
        seen: Set[int] = set()
        for lba in self._just_promoted:
            if lba in seen:
                continue
            seen.add(lba)
            if lba in self._staged:
                # Promoted by a mid-op flush, then staged again by a later
                # write in the same op — the table maps the flushed
                # generation (which the next flush will supersede), so the
                # shadow must still learn it.
                ppa = self.ftl.l2p.peek(lba)
                if ppa is not None:
                    self.shadow_l2p.update(lba, ppa)
                continue
            ppa = self.ftl.l2p.peek(lba)
            if ppa is None and lba not in exempt:
                self._report(
                    index,
                    "write-unmapped",
                    "write completed but the L2P entry is unmapped",
                    lba,
                )
            self.shadow_l2p.update(lba, -1 if ppa is None else ppa)
        self._just_promoted = []

    def _set_ambiguous(self, lbas, payloads) -> None:
        amb: Dict[int, List[bytes]] = {}
        for lba, data in zip(lbas, payloads):
            amb.setdefault(lba, []).append(data)
        for lba, data in self._staged.items():
            amb.setdefault(lba, []).append(data)
        self._ambiguous = amb

    def _resync_buffer(self, lbas, payloads) -> None:
        """Re-derive the reference state after a write command failed
        part-way (injected program fault surviving the FTL's retries, or
        a read-only device): the buffer may have drained partially, so
        the mirror is rebuilt from what actually happened.

        Only reachable under fault injection — fault-free replays report
        the failure itself as a divergence instead.
        """
        buffer = self.ftl.write_buffer
        candidates: Dict[int, List[bytes]] = {}
        for lba, data in zip(lbas, payloads):
            candidates.setdefault(lba, []).append(data)
        touched = set(lbas) | set(self._staged)
        for lba in sorted(touched):
            if buffer is not None and buffer.contains(lba):
                self._staged[lba] = bytes(buffer.read(lba))
                continue
            self._staged.pop(lba, None)
            ppa = self.ftl.l2p.peek(lba)
            if ppa is None:
                continue
            media = self.ftl.flash.inspect_page(ppa)
            if media != self.store.read(lba):
                # Part of the flush landed before the failure: those
                # pages are durable now, with whatever bytes reached
                # flash.
                self._make_durable(lba, media)
            self.shadow_l2p.update(lba, ppa)

    # -- trims / flushes ------------------------------------------------

    def _apply_trim(self, index: int, op: Op) -> None:
        if self.mode == "batch":
            try:
                self.controller.trim_burst(NSID, op.lbas)
            except FtlError as exc:
                # A read-only device rejects the whole deallocation burst.
                self.fault_failures += len(op.lbas)
                if not self.faults_active:
                    self._report(
                        index,
                        "op-error",
                        "trim burst raised %s: %s" % (type(exc).__name__, exc),
                    )
                return
            self._account_entry_accesses(op.lbas)
            for lba in op.lbas:
                self._record_trim(lba)
        else:
            for lba in op.lbas:
                try:
                    self.bdev.trim_block(lba)
                except NvmeError as exc:
                    self.fault_failures += 1
                    if not self.faults_active:
                        self._report(
                            index,
                            "op-error",
                            "trim raised %s: %s" % (type(exc).__name__, exc),
                            lba,
                        )
                    continue
                self._account_entry_accesses([lba])
                self._record_trim(lba)

    def _record_trim(self, lba: int) -> None:
        self._staged.pop(lba, None)
        self.store.trim(lba)
        self.shadow_l2p.clear(lba)

    def _apply_flush(self, index: int) -> None:
        self._set_ambiguous([], [])
        try:
            self.bdev.flush()
        except NvmeError as exc:
            self._ambiguous = {}
            self.fault_failures += 1
            if not self.faults_active:
                self._report(
                    index, "op-error", "flush raised %s: %s" % (type(exc).__name__, exc)
                )
            self._resync_buffer([], [])
            return
        self._ambiguous = {}
        if self.ftl.write_buffer is not None:
            self._promote_all()
            self._finish_writes(index)

    # -- crash / recovery -----------------------------------------------

    def _crash_recover(self, index: int, ambiguous: Dict[int, List[bytes]]) -> None:
        """Power-cycle the device and judge recovery against the
        durability ledger.

        For every LBA the recovered device must hold: the acknowledged-
        durable payload; or (never acknowledged) one of the interrupted
        op's in-flight payloads; or (trimmed/superseded, then crash)
        a previously durable generation — trims are not power-loss
        barriers, old copies sit on flash until GC erases them.  Any
        other outcome is a ``durability`` divergence.
        """
        self.controller.crash()
        self.controller.recover()
        self.recoveries += 1
        # Staged-but-unflushed writes were never acknowledged durable:
        # the reference forgets them, like the device's DRAM did.
        self._staged.clear()
        self._just_promoted = []
        exempt = self.exempt_lbas()
        for lba in range(self.trace.num_lbas):
            ppa = self.ftl.l2p.peek(lba)
            if lba in exempt:
                if ppa is None:
                    self.shadow_l2p.clear(lba)
                else:
                    self.shadow_l2p.update(lba, ppa)
                continue
            expected = self.store.read(lba)
            if ppa is None:
                if expected is not None:
                    self._report(
                        index,
                        "durability",
                        "recovery lost an acknowledged-durable write",
                        lba,
                    )
                    self.store.trim(lba)  # resync: report once, not per read
                self.shadow_l2p.clear(lba)
                continue
            media = self.ftl.flash.inspect_page(ppa)
            self.shadow_l2p.update(lba, ppa)
            candidates = ambiguous.get(lba, ())
            if expected is not None:
                if media == expected:
                    continue
                if any(media == c for c in candidates):
                    # The interrupted, never-acknowledged write reached
                    # flash before the cut — allowed to supersede.
                    self._make_durable(lba, media)
                    continue
                self._report(
                    index,
                    "durability",
                    "acknowledged-durable payload changed across recovery "
                    "(device holds %s..., reference %s...)"
                    % (media[:8].hex(), expected[:8].hex()),
                    lba,
                )
                self._make_durable(lba, media)  # resync
            else:
                if any(media == c for c in candidates):
                    self._make_durable(lba, media)
                    continue
                if media in self._history.get(lba, ()):
                    # A trimmed (or superseded-then-trimmed) generation
                    # resurfaced: its page was still on flash with the
                    # highest surviving sequence number.
                    self._make_durable(lba, media)
                    self.resurrections += 1
                    continue
                self._report(
                    index,
                    "durability",
                    "recovery surfaced data that was never acknowledged "
                    "(device holds %s...)" % media[:8].hex(),
                    lba,
                )
                self._make_durable(lba, media)  # resync

    # -- reads ----------------------------------------------------------

    def _one_read(self, index: int, lba: int) -> None:
        try:
            real = self.bdev.read_block(lba)
        except Exception as exc:
            if self.faults_active and isinstance(exc, NvmeError):
                # An injected media error that survived the host's
                # bounded retries: correct error propagation, not a bug.
                self.fault_failures += 1
            elif lba not in self.exempt_lbas():
                self._report(
                    index,
                    "op-error",
                    "read raised %s: %s" % (type(exc).__name__, exc),
                    lba,
                )
            return
        finally:
            self._account_entry_accesses([lba])
        expected = self._staged.get(lba)
        if expected is None:
            expected = self.store.read(lba)
        if expected is None:
            expected = b"\x00" * self.page_bytes
        if real != expected and lba not in self.exempt_lbas():
            self._report(
                index,
                "read-payload",
                "device returned %s..., reference holds %s..."
                % (real[:8].hex(), expected[:8].hex()),
                lba,
            )

    # -- activation accounting ------------------------------------------

    def _entry_row(self, lba: int) -> Tuple[int, int]:
        coords = self.dram.mapping.locate(self.ftl.l2p.entry_address(lba))
        return coords.bank, coords.row

    def _account_entry_accesses(self, lbas) -> None:
        """One naive L2P access per command: the lower bound every real
        configuration must meet (GC, gathers, and staging only add)."""
        self.accumulator.access_run(self._entry_row(lba) for lba in lbas)

    def _account_hammer(self, op: Op) -> None:
        # Mirror the burst engine: collapse the per-LBA entry rows into
        # the repeating activation pattern; a single-row pattern is all
        # row-buffer hits and activates nothing.
        pattern: List[Tuple[int, int]] = []
        for lba in op.lbas:
            pair = self._entry_row(lba)
            if not pattern or pattern[-1] != pair:
                pattern.append(pair)
        if len(set(pattern)) < 2:
            return
        total = max(op.repeats, 1) * len(op.lbas) * self._amplification
        base, extra = divmod(total, len(pattern))
        for position, (bank, row) in enumerate(pattern):
            self.accumulator.bulk(bank, row, base + (1 if position < extra else 0))

    # -- flip attribution ------------------------------------------------

    def _note_buffer_flips(self, op: Op) -> None:
        """Attribute new disturbance flips landing in the write-buffer
        DRAM region: a flipped staged payload is the paper's data-
        corruption outcome, not a model bug, so the (conservatively
        chosen) possibly-affected LBAs become exempt forever — the
        corrupt bytes may already have been flushed to flash."""
        flips = self.dram.flips
        new = flips[self._flips_seen:]
        self._flips_seen = len(flips)
        buffer = self.ftl.write_buffer
        if buffer is None or not new:
            return
        from repro.dram.address import DramAddress

        start = buffer.base_addr
        end = start + buffer.capacity_pages * buffer.page_bytes
        for event in new:
            if event.in_check_region:
                continue
            addr = self.dram.mapping.address_of(
                DramAddress(event.bank, event.row, event.byte_offset)
            )
            if start <= addr < end:
                self._buffer_taint |= set(self._staged)
                if op.kind == "write":
                    self._buffer_taint |= set(op.lbas)
                break

    # -- state comparison -----------------------------------------------

    def exempt_lbas(self) -> FrozenSet[int]:
        """LBAs excused from agreement: a recorded disturbance flip hit
        their L2P entry, a flip tainted their staged payload, or an
        injected retention fault corrupted their page on flash."""
        exempt: Set[int] = set(flip_affected_lbas(self.ftl))
        exempt |= self._buffer_taint
        injector = self.ftl.flash.injector
        if injector is not None:
            exempt.update(injector.affected_lbas())
        return frozenset(exempt)

    def checkpoint(self, index: Optional[int]) -> List[Divergence]:
        """Full-state comparison: invariants, mapped-set agreement, the
        write-buffer mirror, and the activation lower bound."""
        exempt = self.exempt_lbas()
        try:
            check_dram(self.dram)
            check_ftl(self.ftl, exempt_lbas=exempt)
        except InvariantViolation as violation:
            self._report(index, "invariant", str(violation))

        buffer = self.ftl.write_buffer
        if buffer is not None:
            real_staged = {
                slot.lba for slot in buffer._slots if slot is not None
            }
            for lba in sorted(real_staged ^ set(self._staged)):
                self._report(
                    index,
                    "buffer-mirror",
                    "device %s the LBA staged but the reference %s"
                    % (
                        "holds" if lba in real_staged else "dropped",
                        "does not" if lba in real_staged else "still does",
                    ),
                    lba,
                )

        real_mapped = {
            lba
            for lba in range(self.trace.num_lbas)
            if self.ftl.l2p.peek(lba) is not None
        }
        shadow_mapped = set(self.shadow_l2p.mapped_lbas())
        for lba in sorted((real_mapped - shadow_mapped) - exempt):
            self._report(
                index, "mapped-set", "device maps an LBA the reference trimmed", lba
            )
        for lba in sorted((shadow_mapped - real_mapped) - exempt):
            self._report(
                index, "mapped-set", "device lost a mapping the reference holds", lba
            )

        real_acts = self.dram.metrics.counter("activations").value
        if real_acts < self.accumulator.total:
            self._report(
                index,
                "activations",
                "device recorded %d activations but the workload implies "
                "at least %d" % (real_acts, self.accumulator.total),
            )
        return self.divergences

    def _report(
        self, index: Optional[int], kind: str, detail: str, lba: Optional[int] = None
    ) -> None:
        self.divergences.append(Divergence(index, kind, detail, lba))
