"""The page-mapping FTL.

Logical blocks are flash pages (4 KiB).  Reads translate through the L2P
table in device DRAM; writes allocate the next page of the open block,
program flash, and update the table; TRIM clears entries.  Garbage
collection keeps the free-block pool above a watermark.

Two behaviours matter for the paper's attack:

* Every read and write performs L2P traffic against simulated DRAM —
  high-rate I/O to chosen LBAs is literally a rowhammer access pattern.
* A corrupted (flipped) L2P entry silently redirects reads to whatever
  physical page the flipped value names — another tenant's data (the
  information leak), an erased page (reads 0xFF), or out of range.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.dram.cache import FtlCpuCache
from repro.errors import (
    ConfigError,
    FlashWriteFault,
    FtlReadOnlyError,
    FtlRecoveryError,
)
from repro.flash.array import FlashArray
from repro.flash.block import PageOob
from repro.ftl.gc import GcStats, GreedyGarbageCollector
from repro.ftl.l2p import HashedL2p, L2pTable, LinearL2p, UNMAPPED
from repro.sim.metrics import MetricRegistry


@dataclass(frozen=True)
class FtlConfig:
    """Static FTL parameters."""

    #: Fraction of physical pages held back from the logical space.
    overprovision: float = 0.125
    #: Explicit logical-page count; default derives from overprovision.
    num_lbas: Optional[int] = None
    #: DRAM physical byte address where the L2P table starts.
    l2p_base: int = 0
    #: Run GC when the free pool falls to this many blocks.
    gc_low_watermark: int = 2
    #: GC runs until the free pool is back above this many blocks.
    gc_high_watermark: int = 4
    #: "linear" (SPDK-style) or "hashed" (keyed permutation).
    l2p_layout: str = "linear"
    #: Key for the hashed layout.
    l2p_key: int = 0x9E3779B97F4A7C15
    #: T10-DIF-style end-to-end integrity: every page carries a guard CRC
    #: and a reference tag (its LBA); reads of a page whose reference tag
    #: does not match the requested LBA fail instead of leaking (§5's
    #: "block data integrity ... relying on the block's LBA").
    dif: bool = False
    #: Incoming-write staging buffer in device DRAM (pages; 0 = write
    #: through).  §2.1: FTL DRAM also holds "incoming writes" — while a
    #: page is staged, its payload bytes are themselves hammerable.
    write_buffer_pages: int = 0
    #: Blocks reserved for replacing grown bad blocks.  Each retirement
    #: consumes one spare; once none is left the device degrades to
    #: read-only instead of dying mid-write (0 = no spare pool: retirements
    #: shrink the free pool until no block is left to write into).
    spare_blocks: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.overprovision < 1:
            raise ConfigError("overprovision must be in [0, 1)")
        if self.gc_high_watermark < self.gc_low_watermark:
            raise ConfigError("gc_high_watermark below gc_low_watermark")
        if self.l2p_layout not in ("linear", "hashed"):
            raise ConfigError("unknown L2P layout %r" % self.l2p_layout)
        if self.spare_blocks < 0:
            raise ConfigError("spare_blocks cannot be negative")


@dataclass
class ReadResult:
    """Outcome of one logical read."""

    data: bytes
    mapped: bool
    flash_time: float
    #: True when the L2P entry pointed outside the flash array (a flip into
    #: the out-of-range region); the device returns erased-pattern bytes.
    out_of_range: bool = False
    #: True when DIF verification failed: the page read back does not carry
    #: the requested LBA's reference tag (a detected misdirection).
    integrity_error: bool = False


@dataclass
class WriteResult:
    """Outcome of one logical write.

    ``ppa`` is None while the page is only staged in the write buffer (it
    has no flash address yet).
    """

    ppa: Optional[int]
    flash_time: float
    gc: Optional[GcStats] = None


class PageMappingFtl:
    """A page-level FTL over a flash array, with its L2P table in DRAM."""

    def __init__(
        self,
        flash: FlashArray,
        memory: FtlCpuCache,
        config: FtlConfig = FtlConfig(),
        collector: Optional[GreedyGarbageCollector] = None,
        metrics: Optional[MetricRegistry] = None,
        tracer=None,
    ):
        self.flash = flash
        self.memory = memory
        self.config = config
        self.collector = collector or GreedyGarbageCollector()
        self.metrics = metrics or MetricRegistry("ftl")
        #: Optional structured tracer (see :mod:`repro.trace`).
        self.tracer = tracer
        geometry = flash.geometry

        num_lbas = config.num_lbas
        if num_lbas is None:
            num_lbas = int(geometry.total_pages * (1 - config.overprovision))
        if num_lbas <= 0 or num_lbas > geometry.total_pages:
            raise ConfigError("num_lbas %r out of range" % num_lbas)
        min_spare = (
            config.gc_high_watermark + 1 + config.spare_blocks
        ) * geometry.pages_per_block
        if geometry.total_pages - num_lbas < min_spare:
            raise ConfigError(
                "over-provisioning too small: %d spare pages but GC needs %d"
                % (geometry.total_pages - num_lbas, min_spare)
            )
        self.num_lbas = num_lbas
        self.page_bytes = geometry.page_bytes

        self.l2p: L2pTable = self._build_l2p(memory)
        self.l2p.initialize()

        self.write_buffer = None
        if config.write_buffer_pages:
            from repro.ftl.writebuffer import WriteBuffer

            self.write_buffer = WriteBuffer(
                memory,
                base_addr=config.l2p_base + self.l2p.table_bytes,
                capacity_pages=config.write_buffer_pages,
                page_bytes=geometry.page_bytes,
            )

        #: Blocks available for allocation (already erased).
        self.free_blocks: Deque[int] = deque(range(geometry.total_blocks))
        #: Reserved replacements for grown bad blocks (taken off the tail
        #: of the free pool, the way firmware hides its spare area).
        self.spare_pool: Deque[int] = deque()
        for _ in range(config.spare_blocks):
            self.spare_pool.append(self.free_blocks.pop())
        #: Valid (reachable) page count per block.
        self.valid_count: List[int] = [0] * geometry.total_blocks
        #: Reverse map PPA -> LBA (device metadata, not hammerable; see
        #: DESIGN.md scope note).
        self.reverse: Dict[int, int] = {}
        #: The write frontier; its next page is the block's own write pointer.
        self._open_block: Optional[int] = None
        self._sealed: List[int] = []
        self.gc_stats = GcStats()
        #: DIF metadata per physical page: (guard CRC-32C, reference LBA).
        #: Models the 8 protection-information bytes stored with each
        #: sector; keyed by PPA because the tag travels with the media.
        self.dif_tags: Dict[int, tuple] = {}
        #: Worn-out blocks removed from rotation (the bad-block table).
        self.retired_blocks: List[int] = []
        #: Monotonic program counter and per-block last-write stamps, for
        #: age-aware GC policies (cost-benefit).
        self.write_sequence = 0
        self.block_mtime: Dict[int, int] = {}
        #: Monotonic OOB sequence number, stamped on *every* page program
        #: (host writes and GC moves alike) so crash recovery can order
        #: copies of the same LBA.  Distinct from :attr:`write_sequence`,
        #: which counts only host writes and feeds GC age heuristics.
        self.program_seq = 0
        #: Power state: True between :meth:`crash` and :meth:`recover`.
        self._crashed = False
        #: Degraded mode (no spare or no room left to write): reads only.
        self.read_only = False
        #: True while a GC pass is running (observable by power-loss
        #: harnesses to classify where a crash landed).
        self.gc_active = False

        self._host_reads = self.metrics.counter("host_reads")
        self._host_writes = self.metrics.counter("host_writes")
        self._host_trims = self.metrics.counter("host_trims")
        self._unmapped_reads = self.metrics.counter("unmapped_reads")
        self._oob_reads = self.metrics.counter("out_of_range_reads")

    def _build_l2p(self, memory: FtlCpuCache) -> L2pTable:
        if self.config.l2p_layout == "hashed":
            size = 1
            while size < self.num_lbas:
                size *= 2
            return HashedL2p(memory, self.config.l2p_base, size, key=self.config.l2p_key)
        return LinearL2p(memory, self.config.l2p_base, self.num_lbas)

    # ------------------------------------------------------------------
    # host-facing operations
    # ------------------------------------------------------------------

    def read(self, lba: int) -> ReadResult:
        """Translate and read one logical page."""
        self._check_live()
        self._check_lba(lba)
        self._host_reads.value += 1
        if self.write_buffer is not None and self.write_buffer.contains(lba):
            # Served straight from the DRAM staging area — including any
            # disturbance damage the staged bytes picked up.
            if self.tracer is not None:
                self.tracer.emit("ftl.read", lba=lba, mapped=True, buffered=True)
            return ReadResult(
                self.write_buffer.read(lba), mapped=True, flash_time=0.0
            )
        ppa = self.l2p.lookup(lba)
        if ppa is None:
            # Unmapped/trimmed: the device answers immediately without
            # touching flash — the fast path the attacker hammers through.
            self._unmapped_reads.value += 1
            if self.tracer is not None:
                self.tracer.emit("ftl.read", lba=lba, mapped=False)
            return ReadResult(b"\x00" * self.page_bytes, mapped=False, flash_time=0.0)
        if ppa >= self.flash.geometry.total_pages:
            # Only reachable through a disturbance flip into the table.
            self._oob_reads.add()
            if self.tracer is not None:
                self.tracer.emit("ftl.read", lba=lba, mapped=True, out_of_range=True)
            return ReadResult(
                b"\xff" * self.page_bytes,
                mapped=True,
                flash_time=self.flash.timing.read_page,
                out_of_range=True,
            )
        data = self.flash.read_page(ppa)
        if self.config.dif:
            tag = self.dif_tags.get(ppa)
            if tag is None or tag[1] != lba:
                # Misdirected read: the page's reference tag names another
                # LBA (or the page carries no valid tag).  Detected, not
                # leaked.
                self.metrics.counter("dif_failures").add()
                if self.tracer is not None:
                    self.tracer.emit(
                        "ftl.read", lba=lba, mapped=True, integrity_error=True
                    )
                return ReadResult(
                    b"\x00" * self.page_bytes,
                    mapped=True,
                    flash_time=self.flash.timing.read_page,
                    integrity_error=True,
                )
        if self.tracer is not None:
            self.tracer.emit("ftl.read", lba=lba, mapped=True)
        return ReadResult(data, mapped=True, flash_time=self.flash.timing.read_page)

    def write(self, lba: int, data: bytes) -> WriteResult:
        """Write one logical page.

        Write-through by default; with a write buffer configured, the page
        is staged in DRAM and flushed with its batch when the buffer
        fills (or on an explicit :meth:`flush`).
        """
        self._check_live()
        self._check_writable()
        self._check_lba(lba)
        if len(data) != self.page_bytes:
            raise ConfigError(
                "write payload must be %d bytes, got %d" % (self.page_bytes, len(data))
            )
        self._host_writes.value += 1
        if self.write_buffer is not None:
            self.write_buffer.stage(lba, data)
            if self.tracer is not None:
                self.tracer.emit(
                    "wb.stage", lba=lba, staged=self.write_buffer.staged_count
                )
                self.tracer.emit("ftl.write", lba=lba, buffered=True)
            flash_time = 0.0
            gc_stats = None
            if self.write_buffer.is_full:
                flush_time, gc_stats = self._flush_buffer()
                flash_time += flush_time
            return WriteResult(ppa=None, flash_time=flash_time, gc=gc_stats)
        result = self._write_through(lba, data)
        if self.tracer is not None:
            self.tracer.emit("ftl.write", lba=lba, ppa=result.ppa, buffered=False)
        return result

    def _write_through(self, lba: int, data: bytes) -> WriteResult:
        """The unbuffered write path: collect if due, program, remap."""
        gc_stats = self._maybe_collect()
        ppa = self.place_page(lba, data)
        self.write_sequence += 1
        self.block_mtime[self.flash.geometry.block_of_ppa(ppa)] = self.write_sequence
        if self.config.dif:
            from repro.ext4.crc32c import crc32c

            self.dif_tags[ppa] = (crc32c(bytes(data)), lba)
        self.map_page(lba, ppa, self.l2p.lookup(lba))
        flash_time = self.flash.timing.program_page
        if gc_stats is not None:
            flash_time += gc_stats.flash_time
        return WriteResult(ppa=ppa, flash_time=flash_time, gc=gc_stats)

    def trim(self, lba: int) -> None:
        """Discard the mapping for ``lba`` (NVMe deallocate).

        TRIMs are *not* power-loss durable: the device journals no
        deallocations, so a crash before the trimmed page is erased may
        resurrect the old data at recovery — allowed by NVMe semantics.
        """
        self._check_live()
        self._check_writable()
        self._check_lba(lba)
        self._host_trims.value += 1
        if self.tracer is not None:
            self.tracer.emit("ftl.trim", lba=lba)
        if self.write_buffer is not None:
            self.write_buffer.discard(lba)
        self.invalidate(lba, self.l2p.lookup(lba))
        self.l2p.clear(lba)

    def flush(self) -> float:
        """Persist any staged writes (NVMe FLUSH); returns flash time."""
        self._check_live()
        if self.write_buffer is None:
            return 0.0
        flash_time, _gc = self._flush_buffer()
        return flash_time

    def _flush_buffer(self):
        """Drain the staging buffer through the write-through path."""
        total_time = 0.0
        merged_gc = None
        pages = 0
        for lba, data in self.write_buffer.drain():
            result = self._write_through(lba, data)
            total_time += result.flash_time
            pages += 1
            if result.gc is not None:
                if merged_gc is None:
                    merged_gc = result.gc
                else:
                    merged_gc.merge(result.gc)
        if self.tracer is not None:
            self.tracer.emit("ftl.flush", pages=pages, flash_time=total_time)
        return total_time, merged_gc

    def is_mapped(self, lba: int) -> bool:
        """Whether ``lba`` currently has a translation (costs a DRAM read)."""
        self._check_live()
        self._check_lba(lba)
        return self.l2p.lookup(lba) is not None

    def trim_many(self, lbas: List[int]) -> None:
        """Batched :meth:`trim` over a list of LBAs.

        Same per-LBA effects as the scalar loop — staged pages discarded,
        previous translations invalidated, entries cleared — but the L2P
        traffic is one :meth:`~L2pTable.lookup_many` (old mappings) plus
        one :meth:`~L2pTable.clear_many` (the UNMAPPED stores).
        """
        self._check_live()
        self._check_writable()
        if not lbas:
            return
        for lba in lbas:
            self._check_lba(lba)
        self._host_trims.add(len(lbas))
        if self.tracer is not None:
            self.tracer.emit("ftl.trim", lba=lbas[0], count=len(lbas))
        if self.write_buffer is not None:
            for lba in lbas:
                self.write_buffer.discard(lba)
        for lba, old in zip(lbas, self.l2p.lookup_many(lbas).tolist()):
            self.invalidate(lba, None if old == UNMAPPED else old)
        self.l2p.clear_many(lbas)

    # ------------------------------------------------------------------
    # allocation & GC plumbing (used by the collector too)
    # ------------------------------------------------------------------

    def place_page(self, lba: int, data: bytes) -> int:
        """Program ``lba``'s page at the write frontier; returns its PPA.

        The only way a page reaches NAND, host write or GC move.  Each
        program gets a fresh OOB sequence number, so recovery prefers the
        newest copy.  A program failure seals the open block as grown-bad,
        as firmware does (its pages stay readable until GC relocates them
        and retires it), and the program retries on a fresh block.
        """
        attempts = 0
        while True:
            ppa = self.allocate_page()
            self.program_seq += 1
            oob = PageOob(lba=lba, seq=self.program_seq)
            try:
                self.flash.program_page(ppa, data, oob=oob)
                return ppa
            except FlashWriteFault:
                self._on_program_failure()
                attempts += 1
                if attempts >= 3:
                    raise

    def map_page(self, lba: int, ppa: int, old: Optional[int]) -> None:
        """Point ``lba`` at ``ppa`` and drop its previous translation ``old``
        (None if unmapped): the only way a translation is installed."""
        self.invalidate(lba, old)
        self.l2p.update(lba, ppa)
        self.reverse[ppa] = lba
        self.valid_count[self.flash.geometry.block_of_ppa(ppa)] += 1

    def invalidate(self, lba: int, old: Optional[int]) -> None:
        """Drop ``lba``'s previous translation ``old`` (None if unmapped)
        from the reverse map and its block's valid count."""
        if old is None or old >= self.flash.geometry.total_pages:
            return
        if self.reverse.get(old) == lba:
            del self.reverse[old]
            self.valid_count[self.flash.geometry.block_of_ppa(old)] -= 1

    def allocate_page(self) -> int:
        """Next page of the open block, opening a fresh block as needed.

        The page is the open block's own write pointer, so programs are
        sequential by construction.  Worn-out (bad) blocks in the free pool
        are retired on sight, the way firmware maintains its bad-block
        table; with no free block left the device degrades to read-only.
        """
        geometry = self.flash.geometry
        block = self._open_block
        if block is not None:
            pointer = self.flash.block_write_pointer(block)
            if pointer < geometry.pages_per_block:
                return geometry.first_ppa_of_block(block) + pointer
            self._sealed.append(block)
            self._open_block = None
        while True:
            if not self.free_blocks:
                self._degrade()
                self.gc_active = False  # a pass this unwinds is over, not cut
                raise FtlReadOnlyError(
                    "device degraded to read-only: no free block to write into"
                )
            block = self.free_blocks.popleft()
            if not self.flash.block_is_bad(block):
                break
            self.retire_block(block)
        self._open_block = block
        return geometry.first_ppa_of_block(block)

    def sealed_blocks(self) -> List[int]:
        """Blocks eligible as GC victims (full, not open, not free)."""
        return list(self._sealed)

    def release_block(self, block: int) -> None:
        """Return an erased ex-victim block to the free pool."""
        self._sealed.remove(block)
        self.free_blocks.append(block)

    def retire_block(self, block: int) -> None:
        """Remove a worn-out block from rotation (bad-block table).

        With a spare pool configured, each retirement is backfilled by a
        spare; once the pool runs dry the device degrades to read-only
        rather than failing writes unpredictably later.
        """
        if block in self._sealed:
            self._sealed.remove(block)
        self.retired_blocks.append(block)
        self.metrics.counter("retired_blocks").add()
        if self.config.spare_blocks:
            if self.spare_pool:
                self.free_blocks.append(self.spare_pool.popleft())
            else:
                self._degrade()

    def _on_program_failure(self) -> None:
        """Grown bad block mid-program: seal the open block (its pages stay
        readable and valid until GC relocates them and retires it)."""
        self.flash.mark_bad(self._open_block)
        self._sealed.append(self._open_block)
        self._open_block = None

    def _degrade(self) -> None:
        """Enter read-only mode: reads keep working, writes are refused."""
        self.read_only = True
        self.metrics.counter("read_only_transitions").add()

    def _maybe_collect(self) -> Optional[GcStats]:
        if len(self.free_blocks) > self.config.gc_low_watermark:
            return None
        total = GcStats()
        self.gc_active = True
        while len(self.free_blocks) < self.config.gc_high_watermark:
            # A power-loss interrupt raised inside collect() unwinds with
            # gc_active still True, so crash harnesses can classify where
            # the cut landed; crash() resets the flag.
            if not self._sealed:
                break  # nothing to reclaim
            passed = self.collector.collect(self)
            total.merge(passed)
            if self.tracer is not None:
                self.tracer.emit(
                    "ftl.gc",
                    moved=passed.moved_pages,
                    dropped=passed.dropped_stale_pages,
                    erased=passed.erased_blocks,
                    flash_time=passed.flash_time,
                )
            if passed.erased_blocks == 0:
                break
        self.gc_active = False
        self.gc_stats.merge(total)
        return total

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.num_lbas:
            raise ConfigError("LBA %d outside device of %d" % (lba, self.num_lbas))

    def _check_live(self) -> None:
        if self._crashed:
            raise FtlRecoveryError(
                "device is crashed (power off); call recover() first"
            )

    def _check_writable(self) -> None:
        if self.read_only:
            raise FtlReadOnlyError(
                "device degraded to read-only: out of spare blocks or room to write"
            )

    # ------------------------------------------------------------------
    # power-loss lifecycle
    # ------------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Simulate sudden power loss.

        Everything living in device DRAM or controller SRAM is gone: the
        L2P table, the reverse map and per-block valid counts, the free /
        sealed / spare pools, the open-block cursor, and any staged (but
        unflushed) write-buffer pages.  Flash contents — payloads, OOB
        metadata, and the DIF protection bytes — survive, as do the bad
        flags and erase counts (media state).  Idempotent.
        """
        if self.tracer is not None and not self._crashed:
            self.tracer.emit("ftl.crash")
        self._crashed = True
        self.gc_active = False
        self.reverse.clear()
        self.valid_count = [0] * self.flash.geometry.total_blocks
        self.free_blocks.clear()
        self.spare_pool.clear()
        self._sealed = []
        self._open_block = None
        self.block_mtime.clear()
        self.retired_blocks = []
        self.read_only = False
        if self.write_buffer is not None:
            self.write_buffer.reset()

    def recover(self) -> "RecoveryReport":
        """Rebuild volatile state by scanning flash OOB metadata.

        See :func:`repro.ftl.recovery.recover` for the algorithm; raises
        :class:`FtlRecoveryError` if the media is inconsistent.
        """
        from repro.ftl.recovery import recover

        report = recover(self)
        if self.tracer is not None:
            self.tracer.emit(
                "ftl.recover",
                scanned=report.scanned_pages,
                live=report.live_pages,
                stale=report.stale_pages,
                read_only=report.read_only,
            )
        return report

    # ------------------------------------------------------------------
    # reporting & verification
    # ------------------------------------------------------------------

    def check(self, exempt_lbas=()) -> None:
        """Verify FTL structural invariants (L2P/reverse-map agreement,
        valid-count conservation, free/sealed-pool disjointness) without
        perturbing DRAM state.  ``exempt_lbas`` names LBAs whose entries a
        disturbance flip legitimately corrupted; raises
        :class:`~repro.testkit.invariants.InvariantViolation` otherwise.
        """
        from repro.testkit.invariants import check_ftl

        check_ftl(self, exempt_lbas=exempt_lbas)

    @property
    def write_amplification(self) -> float:
        """(host + GC page programs) / host page programs."""
        host = self._host_writes.value
        if host == 0:
            return 1.0
        return (host + self.gc_stats.moved_pages) / host

    def stats(self) -> Dict[str, float]:
        """Snapshot of FTL-level accounting."""
        snap = self.metrics.snapshot()
        snap["ftl.write_amplification"] = self.write_amplification
        snap["ftl.gc_collections"] = self.gc_stats.collections
        snap["ftl.gc_moved_pages"] = self.gc_stats.moved_pages
        snap["ftl.free_blocks"] = len(self.free_blocks)
        snap["ftl.retired_block_count"] = len(self.retired_blocks)
        snap["ftl.spare_blocks_left"] = len(self.spare_pool)
        snap["ftl.read_only"] = float(self.read_only)
        return snap
