"""The flash array: all channels and dies behind one PPA space.

The array is also where the fault-injection plane attaches: an optional
:class:`~repro.faults.injector.FaultInjector` sees every page read,
program, and block erase before it reaches the die, and may fail the
operation (uncorrectable read, program fault, grown bad block) or
silently corrupt stored bits (retention loss) according to its
:class:`~repro.faults.plan.FaultPlan`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import FlashAddressError
from repro.flash.block import Block, PageOob
from repro.flash.chip import FlashChip, FlashTiming
from repro.flash.geometry import FlashGeometry
from repro.sim.metrics import MetricRegistry


class FlashArray:
    """Flat-PPA facade over every die in the device."""

    def __init__(
        self,
        geometry: FlashGeometry,
        timing: FlashTiming = FlashTiming(),
        endurance: int = 10_000,
        metrics: MetricRegistry = None,
        injector=None,
        tracer=None,
    ):
        self.geometry = geometry
        # PPAs are plane-major, so each chip holds one contiguous run of
        # blocks and pages; addressing needs only these extents.
        self._total_pages = geometry.total_pages
        self._pages_per_block = geometry.pages_per_block
        self._blocks_per_chip = geometry.planes_per_chip * geometry.blocks_per_plane
        self._pages_per_chip = self._blocks_per_chip * geometry.pages_per_block
        self.timing = timing
        self.metrics = metrics or MetricRegistry("flash")
        #: Optional fault-injection plane (see :mod:`repro.faults`).
        self.injector = injector
        #: Optional structured tracer (see :mod:`repro.trace`).
        self.tracer = tracer
        self.chips = [
            FlashChip(
                index=i,
                blocks=self._blocks_per_chip,
                pages_per_block=geometry.pages_per_block,
                page_bytes=geometry.page_bytes,
                timing=timing,
                endurance=endurance,
                metrics=self.metrics,
            )
            for i in range(geometry.total_chips)
        ]

    # -- addressing -----------------------------------------------------------

    def _chip_block_page(self, ppa: int) -> Tuple[FlashChip, int, int]:
        """(chip, block on chip, page) of a PPA: the coordinates of
        :meth:`FlashGeometry.decompose`, with its range check and message,
        from two divisions."""
        if not 0 <= ppa < self._total_pages:
            raise FlashAddressError(
                "PPA %d outside array of %d pages" % (ppa, self._total_pages)
            )
        chip, offset = divmod(ppa, self._pages_per_chip)
        block_on_chip, page = divmod(offset, self._pages_per_block)
        return self.chips[chip], block_on_chip, page

    def _chip_block(self, global_block: int) -> Tuple[FlashChip, int]:
        if not 0 <= global_block < self.geometry.total_blocks:
            raise FlashAddressError("block %d out of range" % global_block)
        chip, block_on_chip = divmod(global_block, self._blocks_per_chip)
        return self.chips[chip], block_on_chip

    def block_object(self, global_block: int) -> Block:
        """The :class:`Block` behind a global block index (recovery scans
        and the fault injector address media state through this)."""
        chip, block = self._chip_block(global_block)
        return chip.blocks[block]

    # -- page/block operations -------------------------------------------------

    def read_page(self, ppa: int) -> bytes:
        chip, block, page = self._chip_block_page(ppa)
        if self.injector is not None:
            self.injector.on_read(self, ppa, chip.blocks[block], page)
        return chip.read(block, page)

    def program_page(self, ppa: int, data: bytes, oob: Optional[PageOob] = None) -> None:
        chip, block, page = self._chip_block_page(ppa)
        if self.injector is not None:
            self.injector.on_program(self, ppa)
        chip.program(block, page, data, oob=oob)
        if self.tracer is not None:
            self.tracer.emit("flash.program", ppa=ppa)

    def erase_block(self, global_block: int) -> None:
        chip, block = self._chip_block(global_block)
        if self.injector is not None:
            self.injector.on_erase(self, global_block, chip.blocks[block])
        chip.erase(block)
        if self.tracer is not None:
            self.tracer.emit("flash.erase", block=global_block)

    def inspect_page(self, ppa: int) -> bytes:
        """Media contents of a page without timing, metrics, or fault
        injection — scaffolding for recovery oracles and debug tooling,
        never a host I/O path."""
        chip, block, page = self._chip_block_page(ppa)
        return chip.blocks[block].read(page)

    def read_oob(self, ppa: int) -> Optional[PageOob]:
        """OOB metadata of a page, without timing or fault injection.

        Recovery scans read the spare area with the controller's robust
        multi-retry sequence, so the scan itself is modelled fault-free.
        """
        chip, block, page = self._chip_block_page(ppa)
        return chip.blocks[block].oob(page)

    def mark_bad(self, global_block: int) -> None:
        """Record a grown bad block (e.g. after a program failure)."""
        self.block_object(global_block).bad = True

    def block_is_bad(self, global_block: int) -> bool:
        chip, block = self._chip_block(global_block)
        return chip.blocks[block].bad

    def block_erase_count(self, global_block: int) -> int:
        chip, block = self._chip_block(global_block)
        return chip.blocks[block].erase_count

    def block_write_pointer(self, global_block: int) -> int:
        chip, block = self._chip_block(global_block)
        return chip.blocks[block].write_pointer

    def wear_summary(self) -> Dict[str, float]:
        """Array-wide erase-count statistics."""
        per_chip = [chip.wear_summary() for chip in self.chips]
        return {
            "min": min(s["min"] for s in per_chip),
            "max": max(s["max"] for s in per_chip),
            "mean": sum(s["mean"] for s in per_chip) / len(per_chip),
            "bad_blocks": sum(s["bad_blocks"] for s in per_chip),
        }
