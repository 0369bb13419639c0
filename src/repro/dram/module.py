"""The DRAM module: storage, refresh windows, disturbance, mitigations.

This is the physical memory under the FTL.  Reads and writes go through the
controller's address-mapping function into per-bank sparse row arrays; every
access that opens a row is an *activation* (ACT), and activations of a
victim row's neighbours inside one refresh window accumulate *disturbance*
(see :mod:`repro.dram.vulnerability`).  When disturbance crosses a weak
cell's threshold, the stored bit really flips — whatever lives there (for
us: L2P entries) is silently corrupted.

Every activation is accounted by one of two primitives, and every victim is
judged by one evaluator, :meth:`DramModule._evaluate_victim`:

* the **ordered stream** (:meth:`DramModule._stream`) runs ACTs one at a
  time through window rollover, counters, TRR, PARA and the neighbours'
  victim checks.  Every memory access is its case, row buffer included:
  reads, writes, read/write batches and :meth:`~DramModule.activate`.
  :meth:`~DramModule.activate_burst`, and :meth:`~DramModule.access_batch`
  under order-sensitive TRR, are its explicit-ACT case; and
* the **window histogram** (:meth:`DramModule._add_window`, then
  :meth:`DramModule._evaluate_victims`) adds one refresh window's
  ``bank -> row -> count`` histogram and evaluates each victim once with
  the final counts.  :meth:`~DramModule.hammer` applies it once per window
  of a campaign (pattern x rate x duration), so two simulated hours of
  multi-million-IOPS hammering cost milliseconds of host time;
  :meth:`~DramModule.access_batch` applies it once.  Where a histogram
  stands in for per-ACT sampling, TRR is modelled by its disturbance cap
  (or fully evaded when the pattern thrashes the sampler) and PARA by a
  drawn number of mid-window victim refreshes.

Flips are idempotent and monotone in the counts, so with no randomized
mitigation active both primitives flip the same cells; property tests
assert it.

Idempotence is also what lets the evaluator skip work: each victim row
keeps a *flip mark* on its bank (:attr:`Bank.flip_marks
<repro.dram.bank.Bank.flip_marks>`), the threshold of its weakest weak cell
not applied since the row's bytes last changed other than by a flip.  A
victim met without a mark gets its minimum threshold as the mark.  The
evaluator compares disturbance against the mark, applying flips starts at
the first cell at or above it, and the ordered stream does not evaluate a
victim whose mark is ``inf`` at all.  Writes, ECC check-byte updates and
check-region allocation (also by an ECC read) drop the mark; TRR, PARA and
window rollover keep it, since a refresh restores no flipped bit.  The
re-walking evaluator this replaces is the reference in the tests.

The ordered stream also keeps each victim an *evaluation bound*
(:attr:`Bank.flip_bounds <repro.dram.bank.Bank.flip_bounds>`).  A
neighbour ACT adds at most ``1 + synergy`` of disturbance and a refresh
only lowers it, so after an evaluation at neighbour ACT sum ``r`` finds
disturbance ``D`` below mark ``m``, the next is due at ``r + max(1,
floor((m - D) / (1 + synergy)))``, never while ``m`` is ``inf``.  An
evaluation that can flip still runs on the same ACT, so no flip moves.
The window histogram sets no bound: its TRR cap and PARA division
understate disturbance.  Evaluating on every ACT is the tests' reference.

Where a byte span lives is a pure function of the mapping, so the scalar
path (:meth:`~DramModule.read`, :meth:`~DramModule.write`,
:meth:`~DramModule.inspect`) and the read/write batches take each span's
per-row segments from one *span memo*, ``(phys_addr, length) ->``
:meth:`DramModule._segments`.  The FTL reads and writes the same L2P
entries over and over, so almost every access skips the split; a one-row
read returns its row's bytes without a join, and a one-row write stores
its bytes without copying them into an array.  The memo is bounded and
cleared wholesale, and a span that raises is never stored.  Splitting
every span afresh is the tests' reference.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.bank import Bank, CLOSED_PAGE, OPEN_PAGE
from repro.dram.ecc import CLEAN, SecdedCodec
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import AddressMapping, SequentialMapping
from repro.dram.para import Para
from repro.dram.trr import TargetRowRefresh
from repro.dram.vulnerability import VulnerabilityModel
from repro.errors import ConfigError, DramAddressError
from repro.sim.clock import SimClock
from repro.sim.metrics import MetricRegistry
from repro.units import ms

_INF = float("inf")
#: Spans the span memo holds before it is cleared wholesale (see
#: ``DramModule._located``).  4,096 one-row spans take about 1.2 MB; one
#: device's L2P traffic in the perfbench workloads stays below 4,000.
_SPAN_MEMO_LIMIT = 4096

#: One refresh window's activations, ``bank -> row -> count``.  Every bank
#: in a histogram enters the window, even one whose accesses all hit the
#: row buffer.
Histogram = Dict[int, Dict[int, int]]
#: A histogram's victims: (bank, sorted victim rows, distinct aggressors).
Victims = List[Tuple[int, List[int], int]]


@dataclass(frozen=True)
class FlipEvent:
    """One disturbance bitflip that actually changed stored state."""

    time: float
    bank: int
    row: int
    byte_offset: int
    bit: int
    flips_to: int
    old_byte: int
    new_byte: int
    #: True when the flip hit ECC check bits rather than data.  Derived at
    #: creation from ``byte_offset >= geometry.row_bytes`` (offsets at or
    #: past the data bytes index the check region).
    in_check_region: bool = False


@dataclass
class HammerResult:
    """Outcome of one :meth:`DramModule.hammer` campaign."""

    accesses: int
    duration: float
    windows: int
    flips: List[FlipEvent] = field(default_factory=list)
    trr_capped: bool = False
    para_refreshes: int = 0

    @property
    def flip_count(self) -> int:
        return len(self.flips)


class _PatternPlan:
    """Precomputed per-pattern state for :meth:`DramModule.hammer`.

    Splitting accesses over a pattern's positions and enumerating its
    victim rows is a pure function of (pattern, geometry, vulnerability) —
    all fixed for a module's lifetime — so a plan is built once per
    distinct pattern and cached on the module.
    """

    __slots__ = ("length", "positions", "victims", "min_victim_threshold", "ub_coeff")

    def __init__(self, module: "DramModule", pattern: Tuple[Tuple[int, int], ...]):
        self.length = len(pattern)
        #: bank -> row -> the sorted pattern positions the row occupies, in
        #: first-seen order (for the round-robin access split).
        self.positions: Dict[int, Dict[int, List[int]]] = {}
        for index, (bank_idx, row) in enumerate(pattern):
            self.positions.setdefault(bank_idx, {}).setdefault(row, []).append(index)
        self.victims = module._victims(self.positions)
        vulnerability = module.vulnerability
        #: Lowest flip threshold over every victim the pattern can disturb.
        self.min_victim_threshold = min(
            (
                vulnerability.min_threshold(bank_idx, victim)
                for bank_idx, rows, _distinct in self.victims
                for victim in rows
            ),
            default=_INF,
        )
        # Upper bound on achievable disturbance per activation in one
        # window: left+right <= acts, min(left,right) <= acts/2, and the
        # distance-2 shell contributes at most neighbor2_weight * acts.
        self.ub_coeff = (
            1.0 + vulnerability.synergy / 2.0 + vulnerability.neighbor2_weight
        )

    def window(self, accesses: int) -> Histogram:
        """One window's histogram: ``accesses`` split round-robin over the
        pattern positions — each row gets one full share per position it
        occupies, plus one for each of its positions below the remainder."""
        base, extra = divmod(accesses, self.length)
        histogram: Histogram = {}
        for bank_idx, rows in self.positions.items():
            histogram[bank_idx] = counts = {}
            for row, positions in rows.items():
                counts[row] = base * len(positions) + bisect_left(positions, extra)
        return histogram


def _round_robin(counts: Dict[Tuple[int, int], int]) -> Iterator[Tuple[int, int]]:
    """The canonical interleaving a coalesced histogram stands for: cycle
    over its (bank, row) keys in first-seen order until each is spent."""
    remaining = dict(counts)
    while remaining:
        for key in list(remaining):
            yield key
            if remaining[key] == 1:
                del remaining[key]
            else:
                remaining[key] -= 1


class DramModule:
    """A simulated DRAM module with a rowhammer disturbance model."""

    def __init__(
        self,
        geometry: DramGeometry,
        vulnerability: VulnerabilityModel,
        clock: SimClock,
        mapping: Optional[AddressMapping] = None,
        *,
        ecc: bool = False,
        trr: Optional[TargetRowRefresh] = None,
        para: Optional[Para] = None,
        refresh_interval: float = ms(64),
        row_policy: str = OPEN_PAGE,
        metrics: Optional[MetricRegistry] = None,
        tracer=None,
    ):
        if vulnerability.geometry is not geometry:
            if vulnerability.geometry != geometry:
                raise ConfigError("vulnerability model geometry mismatch")
        if row_policy not in (OPEN_PAGE, CLOSED_PAGE):
            raise ConfigError("unknown row policy %r" % row_policy)
        if refresh_interval <= 0:
            raise ConfigError("refresh interval must be positive")
        self.geometry = geometry
        self.mapping = mapping or SequentialMapping(geometry)
        self.vulnerability = vulnerability
        self.clock = clock
        self.refresh_interval = refresh_interval
        self.row_policy = row_policy
        self.ecc_enabled = ecc
        self.codec = SecdedCodec() if ecc else None
        self.trr = trr
        self.para = para
        self.metrics = metrics or MetricRegistry("dram")
        #: Optional structured tracer; every emit site checks ``is not
        #: None`` once, so an untraced module pays one attribute test.
        self.tracer = tracer
        self.banks = [Bank(i, geometry, ecc_enabled=ecc) for i in range(geometry.total_banks)]
        #: Every flip that changed stored state, in time order.
        self.flips: List[FlipEvent] = []
        # Geometry scalars copied onto the module: one attribute lookup on
        # the per-access paths instead of two.
        self._capacity = geometry.capacity_bytes
        self._row_bytes = geometry.row_bytes
        self._rows_per_bank = geometry.rows_per_bank
        self._total_banks = geometry.total_banks
        #: Neighbour offsets that can be disturbed (fixed by the model).
        self._victim_deltas = (
            (-2, -1, 1, 2) if vulnerability.neighbor2_weight else (-1, 1)
        )
        # The ordered stream's per-call constants, fixed at construction.
        self._last_row = geometry.rows_per_bank - 1
        self._far = len(self._victim_deltas) == 4
        self._open_page = row_policy == OPEN_PAGE
        # Disturbance coefficients, cached for the inlined arithmetic of
        # the victim evaluator (both fixed at model construction).
        self._synergy = vulnerability.synergy
        self._neighbor2_weight = vulnerability.neighbor2_weight
        #: Validated per-pattern plans for :meth:`hammer`.
        self._pattern_plans: Dict[Tuple[Tuple[int, int], ...], _PatternPlan] = {}
        #: The span memo: (phys_addr, length) -> the span's
        #: :meth:`_segments` list.  A span that raises is never stored.
        self._spans: Dict[Tuple[int, int], List[Tuple[int, int, int, int]]] = {}
        self._reads = self.metrics.counter("reads")
        self._writes = self.metrics.counter("writes")
        self._activations = self.metrics.counter("activations")
        self._row_hits = self.metrics.counter("row_buffer_hits")
        self._flip_counter = self.metrics.counter("flips")
        self._ecc_corrected = self.metrics.counter("ecc_corrected")
        self._ecc_uncorrectable = self.metrics.counter("ecc_uncorrectable")

    # ------------------------------------------------------------------
    # address plumbing
    # ------------------------------------------------------------------

    def _segments(self, phys_addr: int, length: int) -> List[Tuple[int, int, int, int]]:
        """Split a byte span into per-row segments (bank, row, column, len);
        each segment lies inside its row."""
        if length < 0:
            raise DramAddressError("negative length")
        if phys_addr < 0 or phys_addr + length > self._capacity:
            raise DramAddressError(
                "span [0x%x, 0x%x) exceeds module" % (phys_addr, phys_addr + length)
            )
        locate3 = self.mapping.locate3
        row_bytes = self._row_bytes
        segments = []
        while length > 0:
            bank_idx, row, column = locate3(phys_addr)
            chunk = row_bytes - column
            if chunk > length:
                chunk = length
            segments.append((bank_idx, row, column, chunk))
            phys_addr += chunk
            length -= chunk
        return segments

    def _located(self, phys_addr: int, length: int) -> List[Tuple[int, int, int, int]]:
        """:meth:`_segments`, stored in the span memo once it returns."""
        segments = self._segments(phys_addr, length)
        spans = self._spans
        if len(spans) >= _SPAN_MEMO_LIMIT:
            spans.clear()
        spans[phys_addr, length] = segments
        return segments

    def _check_addresses(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Raise :class:`DramAddressError` unless every (bank, row) exists."""
        total_banks = self._total_banks
        rows_per_bank = self._rows_per_bank
        for bank_idx, row in pairs:
            if not 0 <= bank_idx < total_banks:
                raise DramAddressError("bank %d out of range" % bank_idx)
            if not 0 <= row < rows_per_bank:
                raise DramAddressError(
                    "row %d out of range in bank %d" % (row, bank_idx)
                )

    # ------------------------------------------------------------------
    # scalar access path
    # ------------------------------------------------------------------

    def read(self, phys_addr: int, length: int) -> bytes:
        """Read bytes; activates rows and may observe/correct flips."""
        self._reads.value += 1
        if self.tracer is not None:
            self.tracer.emit("dram.access", op="r", count=1, addr=phys_addr, len=length)
        segments = self._spans.get((phys_addr, length))
        if segments is None:
            segments = self._located(phys_addr, length)
        # Concatenating onto empty bytes copies nothing, so a one-row span
        # returns its piece as is.
        data = b""
        for bank_idx, row, column, chunk in segments:
            self._stream(((bank_idx, row),))
            bank = self.banks[bank_idx]
            if self.ecc_enabled:
                data += self._read_ecc(bank, row, column, chunk)
                continue
            # The segment lies inside its row; an unwritten row reads zeros.
            array = bank.data_rows.get(row)
            if array is None:
                data += b"\x00" * chunk
            else:
                data += array[column : column + chunk].tobytes()
        return data

    def write(self, phys_addr: int, data: bytes) -> None:
        """Write bytes; activates rows; refreshes any pending flips away."""
        self._writes.value += 1
        length = len(data)
        if self.tracer is not None:
            self.tracer.emit("dram.access", op="w", count=1, addr=phys_addr, len=length)
        segments = self._spans.get((phys_addr, length))
        if segments is None:
            segments = self._located(phys_addr, length)
        consumed = 0
        for bank_idx, row, column, chunk in segments:
            self._stream(((bank_idx, row),))
            bank = self.banks[bank_idx]
            # Of bytes, a one-row span's slice is ``data`` itself.
            bank.write(row, column, data[consumed : consumed + chunk])
            if self.ecc_enabled:
                self._update_check_bytes(bank, row, column, chunk)
            consumed += chunk

    def _read_ecc(self, bank: Bank, row: int, column: int, length: int) -> bytes:
        """Word-granular verified read; corrects single-bit flips."""
        codec = self.codec
        word_bytes = codec.word_bytes
        first_word = column // word_bytes
        last_word = (column + length - 1) // word_bytes
        # Allocating the check region here drops the row's flip mark: its
        # check cells become flippable.
        check = bank.check_bytes(row, allocate=True)
        raw = bank.read(row, first_word * word_bytes, (last_word - first_word + 1) * word_bytes)
        words = raw.view(np.uint64)
        corrected = bytearray()
        for i, word in enumerate(words):
            word_index = first_word + i
            result = codec.decode(int(word), int(check[word_index]))
            if result.status != CLEAN:
                self._ecc_corrected.add()
            corrected += int(result.data).to_bytes(word_bytes, "little")
        start = column - first_word * word_bytes
        return bytes(corrected[start : start + length])

    def _update_check_bytes(self, bank: Bank, row: int, column: int, length: int) -> None:
        """Recompute check bytes for every word a write touched; drops the
        row's flip mark."""
        codec = self.codec
        word_bytes = codec.word_bytes
        first_word = column // word_bytes
        last_word = (column + length - 1) // word_bytes
        raw = bank.read(row, first_word * word_bytes, (last_word - first_word + 1) * word_bytes)
        words = raw.view(np.uint64)
        check = bank.check_bytes(row, allocate=True)
        check[first_word : last_word + 1] = codec.encode_words(words)
        bank.drop_flip_mark(row)

    # ------------------------------------------------------------------
    # the ordered stream
    # ------------------------------------------------------------------

    def activate(self, bank_idx: int, row: int) -> None:
        """One row activation, as a memory access.

        This is the U-TRR pipeline's probe primitive: a black-box caller
        that only knows (bank, row) coordinates can drive precisely
        ordered activation sequences — the ordering is what distinguishes
        one sampler policy from another — without composing physical
        addresses.  Semantics are identical to the activation side of a
        scalar access (row-buffer hits included under ``OPEN_PAGE``).
        """
        act = ((bank_idx, row),)
        self._check_addresses(act)
        self._stream(act)

    def activate_burst(
        self, activations: Sequence[Tuple[int, int]]
    ) -> List[FlipEvent]:
        """Apply an explicitly *ordered* sequence of (bank, row) ACTs.

        Every entry runs the full per-activation sampler + victim pipeline
        a scalar access loop would, in the caller's exact order, but the
        row buffer is bypassed (each entry is a true activation by
        definition, and the buffer is left as it was) and the trace
        carries one aggregated activation event.  This is the U-TRR
        pipeline's hammer primitive: sampler policies are distinguished by
        activation *order*, which a coalesced histogram cannot express.
        """
        # Each distinct (bank, row) once, in first-seen order, so the
        # first bad entry still raises.
        self._check_addresses(dict.fromkeys(activations))
        flips_before = len(self.flips)
        self._stream(activations, explicit=True)
        return self.flips[flips_before:]

    def _stream(self, seq: Iterable[Tuple[int, int]], explicit: bool = False) -> None:
        """Run validated (bank, row) ACTs one at a time, in order, through
        window rollover, counters, TRR, PARA and the neighbours' victim
        checks.

        Memory accesses go through the row buffer and trace one event per
        ACT.  *Explicit* ACTs bypass the row buffer, and the trace carries
        one aggregate event and no refresh events.
        """
        epoch = int(self.clock._now / self.refresh_interval)
        banks = self.banks
        trr = self.trr
        para = self.para
        tracer = self.tracer
        last_row = self._last_row
        deltas = self._victim_deltas
        far = self._far
        evaluate_due = self._evaluate_due
        open_page = self._open_page
        total = hits = 0
        # The bank of the current run of consecutive ACTs to one bank: its
        # window, ACT counters and bounds are fetched once per run.  The
        # epoch is fixed for the whole call, so one roll suffices.
        run_bank = None
        for bank_idx, row in seq:
            if bank_idx != run_bank:
                run_bank = bank_idx
                bank = banks[bank_idx]
                if bank.epoch != epoch:
                    bank.roll_epoch(epoch)
                    if tracer is not None and not explicit:
                        tracer.emit("dram.refresh", bank=bank_idx, epoch=epoch)
                    if trr is not None:
                        trr.on_window(bank_idx)
                acts = bank.acts
                bounds = bank.flip_bounds
            if not explicit:
                if not open_page:
                    bank.open_row = None
                elif bank.open_row == row:
                    hits += 1
                    continue  # row buffer hit: no activation, no disturbance
                else:
                    bank.open_row = row
                if tracer is not None:
                    tracer.emit("dram.activate", bank=bank_idx, row=row, count=1)
            acts[row] = count = acts.get(row, 0) + 1
            total += 1
            if trr is not None:
                victims = trr.on_activation(bank_idx, row)
                if victims:
                    self._refresh_victims(bank, row, victims, "dram.trr")
            if para is not None:
                victims = para.on_activation(bank_idx, row)
                if victims:
                    self._refresh_victims(bank, row, victims, "dram.para")
            # Each victim's raw neighbour sum (``row`` is one of its
            # neighbours) against its bound; below the bound its
            # disturbance is still below its mark.
            if far:
                for delta in deltas:
                    victim = row + delta
                    if 0 <= victim <= last_row:
                        raw = (acts.get(victim - 2, 0) + acts.get(victim - 1, 0)
                               + acts.get(victim + 1, 0) + acts.get(victim + 2, 0))
                        bound = bounds.get(victim)
                        if bound is None or raw >= bound:
                            evaluate_due(bank, victim, raw)
                continue
            if row:
                raw = count + acts.get(row - 2, 0)
                bound = bounds.get(row - 1)
                if bound is None or raw >= bound:
                    evaluate_due(bank, row - 1, raw)
            if row < last_row:
                raw = count + acts.get(row + 2, 0)
                bound = bounds.get(row + 1)
                if bound is None or raw >= bound:
                    evaluate_due(bank, row + 1, raw)
        if hits:
            self._row_hits.value += hits
        if total:
            self._activations.value += total
            if explicit and tracer is not None:
                tracer.emit("dram.activate", count=total)

    def _refresh_victims(
        self, bank: Bank, row: int, victims: List[int], event: str
    ) -> None:
        """A mitigation's targeted refresh of the rows around ``row``."""
        if self.tracer is not None:
            self.tracer.emit(event, bank=bank.index, row=row, victims=len(victims))
        for victim in victims:
            if 0 <= victim < self._rows_per_bank:
                bank.refresh_victim(victim)

    def _evaluate_due(self, bank: Bank, victim: int, raw: int) -> None:
        """The ordered stream's evaluation of a victim whose bound its
        neighbours' raw ACT sum ``raw`` has reached (or that has none):
        evaluate it against its flip mark and set its next bound."""
        marks = bank.flip_marks
        threshold = marks.get(victim)
        if threshold is None:
            threshold = marks[victim] = self.vulnerability.min_threshold(
                bank.index, victim
            )
        # Here evaluation has no other effect, so a victim whose every cell
        # is applied is skipped.
        if threshold != _INF:
            disturbance = self._evaluate_victim(bank, victim, threshold)
            threshold = marks[victim]
        if threshold == _INF:
            bank.flip_bounds[victim] = _INF
        else:
            step = int((threshold - disturbance) / (1.0 + self._synergy))
            bank.flip_bounds[victim] = raw + (step if step > 1 else 1)

    # ------------------------------------------------------------------
    # victim evaluation
    # ------------------------------------------------------------------

    def _evaluate_victim(
        self,
        bank: Bank,
        victim: int,
        threshold: float,
        capped: Optional[bool] = None,
        result: Optional[HammerResult] = None,
    ) -> float:
        """Apply the flips the victim's disturbance since its last refresh
        has earned, and return the disturbance; ``threshold`` is its flip
        mark.

        ``capped`` is None on the ordered stream, where TRR and PARA have
        already acted on every ACT.  Where a window histogram stands in for
        per-ACT sampling, ``capped`` says whether TRR's disturbance cap
        applies and PARA's mid-window refreshes are drawn; ``result``, if
        given, records both.
        """
        left, right = bank.victim_side_counts(victim)
        disturbance = left + right + self._synergy * (
            left if left < right else right
        )
        if self._neighbor2_weight:
            left2, right2 = bank.victim_far_counts(victim)
            if left2 or right2:
                disturbance += self._neighbor2_weight * (left2 + right2)
        if capped is not None:
            if capped:
                cap = self.vulnerability.disturbance(
                    self.trr.refresh_threshold, self.trr.refresh_threshold
                )
                if disturbance > cap:
                    disturbance = cap
                    if result is not None:
                        result.trr_capped = True
            if self.para is not None:
                refreshes = self.para.draw_refresh_count(left + right)
                if refreshes:
                    # Disturbance must accumulate inside one refresh-free
                    # run; with k refreshes the longest run is ~1/(k+1)
                    # of the window.
                    disturbance /= refreshes + 1
                    if result is not None:
                        result.para_refreshes += refreshes
        if disturbance >= threshold:
            self._apply_flips(bank, victim, disturbance, threshold)
        return disturbance

    def _apply_flips(
        self, bank: Bank, victim: int, disturbance: float, mark: float
    ) -> int:
        """Flip every weak cell from the first at or above ``mark`` up to
        ``disturbance``, and record the next cell's threshold (``inf``
        past the last) as the victim's flip mark."""
        row_vuln = self.vulnerability.row_vulnerability(bank.index, victim)
        applied = 0
        next_mark = _INF
        for cell in row_vuln.cells:
            if cell.threshold < mark:
                continue  # applied since the row's bytes last changed
            if cell.threshold > disturbance:
                next_mark = cell.threshold
                break  # cells are sorted by threshold
            change = bank.flip_bit(victim, cell.byte_offset, cell.bit, cell.flips_to)
            if change is None:
                continue
            old, new = change
            event = FlipEvent(
                time=self.clock.now,
                bank=bank.index,
                row=victim,
                byte_offset=cell.byte_offset,
                bit=cell.bit,
                flips_to=cell.flips_to,
                old_byte=old,
                new_byte=new,
                in_check_region=cell.byte_offset >= self._row_bytes,
            )
            self.flips.append(event)
            self._flip_counter.add()
            if self.tracer is not None:
                self.tracer.emit(
                    "dram.flip",
                    bank=bank.index,
                    row=victim,
                    byte=cell.byte_offset,
                    bit=cell.bit,
                    to=cell.flips_to,
                    check_region=event.in_check_region,
                )
            applied += 1
        bank.flip_marks[victim] = next_mark
        return applied

    # ------------------------------------------------------------------
    # the window histogram
    # ------------------------------------------------------------------

    def _add_window(self, epoch: int, histogram: Histogram) -> int:
        """Add one refresh window's histogram to the bank counters, every
        bank in it entering ``epoch`` first; returns the ACTs added (the
        caller counts them)."""
        trr = self.trr
        banks = self.banks
        total = 0
        for bank_idx, rows in histogram.items():
            bank = banks[bank_idx]
            if bank.epoch != epoch:
                bank.roll_epoch(epoch)
                if trr is not None:
                    trr.on_window(bank_idx)
            acts = bank.acts
            for row, n in rows.items():
                if n:
                    acts[row] = acts.get(row, 0) + n
                    total += n
        return total

    def _victims(self, histogram: Dict[int, Dict[int, object]]) -> Victims:
        """Per histogram bank, in order: every in-range neighbour of a row
        it activates, sorted, and the bank's distinct aggressor count
        (which decides TRR evasion)."""
        rows_per_bank = self._rows_per_bank
        out = []
        for bank_idx, rows in histogram.items():
            victims = {
                row + delta
                for row in rows
                for delta in self._victim_deltas
                if 0 <= row + delta < rows_per_bank
            }
            out.append((bank_idx, sorted(victims), len(rows)))
        return out

    def _evaluate_victims(
        self, victims: Victims, result: Optional[HammerResult] = None
    ) -> None:
        """Evaluate each victim of a window histogram once, with the
        window's final counts."""
        trr = self.trr
        # With TRR or PARA active, a victim without weak cells is still
        # evaluated: it can set the cap flag and takes its PARA draw.
        sampled = trr is not None or self.para is not None
        min_threshold = self.vulnerability.min_threshold
        for bank_idx, rows, distinct in victims:
            bank = self.banks[bank_idx]
            marks = bank.flip_marks
            capped = trr is not None and not trr.evaded_by(distinct)
            for victim in rows:
                threshold = marks.get(victim)
                if threshold is None:
                    threshold = marks[victim] = min_threshold(bank_idx, victim)
                if sampled or threshold != _INF:
                    self._evaluate_victim(bank, victim, threshold, capped, result)

    def hammer(
        self,
        pattern: Sequence[Tuple[int, int]],
        total_accesses: int,
        access_rate: float,
    ) -> HammerResult:
        """Run a hammering campaign in closed form.

        ``pattern`` is the repeating sequence of (bank, row) activations —
        e.g. ``[(b, r-1), (b, r+1)]`` for a double-sided attack on row
        ``r``.  ``access_rate`` is the *device-level* row-activation rate in
        accesses/second; ``total_accesses`` bounds the campaign.

        The campaign walks refresh windows and applies each window's share
        of activations as one histogram.  A campaign is *inert* when even
        with all of its accesses in one window, on top of the activations
        that window already holds, it could not reach the weakest victim
        cell and no mitigation draws per-window state: its windows are
        walked but never evaluated.
        """
        if access_rate <= 0:
            raise ConfigError("access rate must be positive")
        if total_accesses < 0:
            raise ConfigError("total accesses cannot be negative")
        if self.trr is not None and self.trr.exact_batch_replay:
            raise ConfigError(
                "order-sensitive TRR configurations (policy %r, per_bank=%r, "
                "radius %d) cannot use the closed-form hammer path; drive "
                "activations through access_batch or scalar accesses"
                % (
                    self.trr.sampling_policy,
                    self.trr.per_bank,
                    self.trr.neighbor_radius,
                )
            )
        plan = self._pattern_plans.get(tuple(pattern))
        if plan is None:
            plan = self._plan_for(pattern)

        clock = self.clock
        interval = self.refresh_interval
        tracer = self.tracer
        start = clock._now
        sampled = self.trr is not None or self.para is not None
        inert = not sampled and (
            self._window_load(plan, int(start / interval)) + total_accesses
        ) * plan.ub_coeff < plan.min_victim_threshold
        result = HammerResult(0, 0.0, 0)
        flips_before = len(self.flips)
        remaining = total_accesses
        last_epoch, last_accesses = -1, 0
        while remaining > 0:
            now = clock._now
            epoch = int(now / interval)
            window_end = (epoch + 1) * interval
            budget = int(access_rate * (window_end - now))
            if budget <= 0:
                # Skip to the next window.  Guard against float rounding:
                # advancing exactly to (epoch+1)*interval can leave
                # epoch() unchanged, which would spin forever.
                clock.advance_to(max(window_end, now))
                if clock.epoch(interval) == epoch:
                    clock.advance(interval * 1e-6)
                continue
            accesses = budget if budget < remaining else remaining
            # Advance first so flip events are stamped when the window's
            # hammering has actually happened (a positive step, so
            # advance()'s validation is redundant).
            clock._now = now + accesses / access_rate
            if inert:
                # Nothing evaluates an inert campaign, and each rollover
                # clears the window before, so only its last window's ACTs
                # are added, after the walk.
                if epoch != last_epoch:
                    last_epoch, last_accesses = epoch, 0
                last_accesses += accesses
            else:
                self._add_window(epoch, plan.window(accesses))
            if tracer is not None:
                tracer.emit(
                    "dram.window", epoch=epoch, accesses=accesses, pattern=plan.length
                )
            # Closed-form skip: with no mitigation drawing per-window
            # state, a window whose best-case disturbance misses the
            # weakest victim cell cannot flip anything.  The bound counts
            # every ACT the window holds, scalar accesses and earlier
            # campaigns included, not only this campaign's.
            if not inert and (
                sampled
                or self._window_load(plan, epoch) * plan.ub_coeff
                >= plan.min_victim_threshold
            ):
                self._evaluate_victims(plan.victims, result)
            remaining -= accesses
            result.accesses += accesses
            result.windows += 1
        if last_accesses:
            self._add_window(last_epoch, plan.window(last_accesses))
        self._activations.value += result.accesses
        result.duration = clock._now - start
        result.flips = self.flips[flips_before:]
        if tracer is not None:
            mitigation = {} if inert else {
                "trr_capped": result.trr_capped,
                "para_refreshes": result.para_refreshes,
            }
            tracer.emit_at(
                "dram.hammer",
                start,
                accesses=result.accesses,
                windows=result.windows,
                flips=len(result.flips),
                dur=result.duration,
                **mitigation,
            )
        return result

    def _window_load(self, plan: _PatternPlan, epoch: int) -> int:
        """ACTs the pattern's banks hold in refresh window ``epoch``."""
        load = 0
        for bank_idx in plan.positions:
            bank = self.banks[bank_idx]
            if bank.epoch == epoch:
                load += sum(bank.acts.values())
        return load

    def _plan_for(self, pattern: Sequence[Tuple[int, int]]) -> _PatternPlan:
        """Validate a hammer pattern and return its cached plan."""
        key = tuple(pattern)
        plan = self._pattern_plans.get(key)
        if plan is not None:
            return plan
        if not key:
            raise ConfigError("hammer pattern must not be empty")
        self._check_addresses(key)
        for i in range(len(key)):
            if len(key) > 1 and key[i] == key[(i + 1) % len(key)]:
                raise ConfigError(
                    "consecutive duplicate rows in pattern never re-activate "
                    "under the open-page policy"
                )
        if len(set(key)) == 1 and self.row_policy == OPEN_PAGE:
            raise ConfigError(
                "a single-row pattern only hammers under the closed-page "
                "policy (one-location hammering)"
            )
        plan = _PatternPlan(self, key)
        self._pattern_plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # batch access paths
    # ------------------------------------------------------------------

    def access_batch(self, activations: Sequence[Tuple[int, int, int]]) -> List[FlipEvent]:
        """Apply a coalesced ``(bank, row, count)`` activation histogram.

        The general-pattern sibling of :meth:`hammer`: all activations land
        in the *current* refresh window (the caller owns the clock), and
        each victim is evaluated once with the batch's final counts —
        flips are idempotent and monotone in the counts, so that yields
        the flip set of a scalar access loop.  Under order-sensitive TRR
        (``random_sample``, ``first_k_per_window``, shared trackers, wide
        radii) which rows the sampler holds depends on the activation
        sequence, so the histogram is instead replayed as explicit ACTs in
        its canonical interleaving.  Returns the new flip events.
        """
        self._check_addresses((bank_idx, row) for bank_idx, row, _n in activations)
        counts: Dict[Tuple[int, int], int] = {}
        for bank_idx, row, n in activations:
            if n < 0:
                raise ConfigError("activation count cannot be negative")
            if n:
                key = (bank_idx, row)
                counts[key] = counts.get(key, 0) + n
        if not counts:
            return []
        flips_before = len(self.flips)
        if self.trr is not None and self.trr.exact_batch_replay:
            self._stream(_round_robin(counts), explicit=True)
        else:
            histogram: Histogram = {}
            for (bank_idx, row), n in counts.items():
                histogram.setdefault(bank_idx, {})[row] = n
            total = self._add_window(
                self.clock.epoch(self.refresh_interval), histogram
            )
            self._activations.value += total
            if self.tracer is not None:
                self.tracer.emit("dram.activate", count=total)
            self._evaluate_victims(self._victims(histogram))
        return self.flips[flips_before:]

    def _locate_batch(self, phys_addrs: Sequence[int], length: int):
        """(banks, rows, columns) lists for a batch of equal-length spans,
        read span by span from the span memo, or None at the first span
        that does not lie inside one row (the caller falls back to a loop
        of scalar accesses).

        A span that starts inside the module and runs past its end falls
        back too, so the loop raises at it after the spans before it; one
        that starts outside the module raises here, before any ACT.
        """
        spans = self._spans
        banks: List[int] = []
        rows: List[int] = []
        columns: List[int] = []
        for addr in phys_addrs:
            segments = spans.get((addr, length))
            if segments is None:
                try:
                    segments = self._located(int(addr), length)
                except DramAddressError:
                    if 0 <= addr < self._capacity:
                        return None
                    raise
            if len(segments) != 1:
                return None
            bank, row, column, _chunk = segments[0]
            banks.append(bank)
            rows.append(row)
            columns.append(column)
        return banks, rows, columns

    def read_batch(self, phys_addrs: Sequence[int], length: int) -> np.ndarray:
        """Read ``length`` bytes at each address; returns ``(n, length)``.

        The batch's ACTs run through the ordered stream, so accounting is a
        :meth:`read` loop's (reads counter, row-buffer hits, activations,
        TRR and PARA sampling, flips).  All of the batch's disturbance is
        applied *before* the data gather, so returned bytes reflect every
        flip the batch itself caused.  Falls back to a :meth:`read` loop
        under ECC and for spans that cross a row boundary.
        """
        n = len(phys_addrs)
        out = np.empty((n, length), dtype=np.uint8)
        if n == 0:
            return out
        located = None if self.ecc_enabled else self._locate_batch(phys_addrs, length)
        if located is None:
            for i, addr in enumerate(phys_addrs):
                out[i] = np.frombuffer(self.read(int(addr), length), dtype=np.uint8)
            return out
        banks, rows, columns = located
        self._reads.value += n
        if self.tracer is not None:
            self.tracer.emit("dram.access", op="r", count=n, len=length)
        self._stream(zip(banks, rows))
        for i in range(n):
            array = self.banks[banks[i]].data_rows.get(rows[i])
            if array is None:
                out[i] = 0
            else:
                column = columns[i]
                out[i] = array[column : column + length]
        return out

    def write_batch(self, phys_addrs: Sequence[int], data: np.ndarray) -> None:
        """Write ``data[i]`` (all equal length) at each address.

        Accounting mirrors a loop of :meth:`write` calls.  Disturbance from
        the batch's own activations is evaluated against pre-batch contents
        (all flips land before any payload byte), so a batch that hammers
        rows it also writes sees its payload win — the same end state as
        the scalar loop for non-self-hammering batches, which is what every
        internal caller issues.  Falls back to a :meth:`write` loop under
        ECC and for row-crossing spans.
        """
        n = len(phys_addrs)
        if n == 0:
            return
        data = np.ascontiguousarray(data, dtype=np.uint8)
        if data.ndim != 2 or data.shape[0] != n:
            raise DramAddressError("write_batch data must be (n, length) bytes")
        length = data.shape[1]
        located = None if self.ecc_enabled else self._locate_batch(phys_addrs, length)
        if located is None:
            for i, addr in enumerate(phys_addrs):
                self.write(int(addr), data[i].tobytes())
            return
        banks, rows, columns = located
        self._writes.value += n
        if self.tracer is not None:
            self.tracer.emit("dram.access", op="w", count=n, len=length)
        self._stream(zip(banks, rows))
        for i in range(n):
            self.banks[banks[i]].write(rows[i], columns[i], data[i])

    # ------------------------------------------------------------------
    # observability helpers
    # ------------------------------------------------------------------

    def inspect(self, phys_addr: int, length: int) -> bytes:
        """Read bytes WITHOUT touching any accounting.

        No activation, no row-buffer update, no disturbance evaluation, no
        counters: this is the oracle's window into stored state, used by the
        invariant layer (:mod:`repro.testkit.invariants`) to compare DRAM
        contents against reference models without perturbing the very
        disturbance state it is checking.  Pending flips below threshold are
        not applied either — ``inspect`` sees exactly what a refresh-
        preserving probe would.
        """
        segments = self._spans.get((phys_addr, length))
        if segments is None:
            segments = self._located(phys_addr, length)
        data = b""
        for bank_idx, row, column, chunk in segments:
            array = self.banks[bank_idx].data_rows.get(row)
            if array is None:
                data += b"\x00" * chunk
            else:
                data += array[column : column + chunk].tobytes()
        return data

    def check(self) -> None:
        """Verify the module's internal invariants (refresh-window
        accounting, flip-event plausibility).  Raises
        :class:`~repro.testkit.invariants.InvariantViolation` on breakage.
        """
        from repro.testkit.invariants import check_dram

        check_dram(self)

    def flips_since(self, index: int) -> List[FlipEvent]:
        """Flip events appended after ``index`` (a previous len(flips))."""
        return self.flips[index:]

    def flipped_addresses(self, events: Optional[Iterable[FlipEvent]] = None) -> List[int]:
        """Physical byte addresses corrupted by the given flips (data region
        only; check-region flips have no physical byte address)."""
        out = []
        for event in events if events is not None else self.flips:
            if event.byte_offset >= self.geometry.row_bytes:
                continue
            from repro.dram.address import DramAddress

            coords = DramAddress(event.bank, event.row, event.byte_offset)
            out.append(self.mapping.address_of(coords))
        return out
