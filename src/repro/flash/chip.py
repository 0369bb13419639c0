"""A NAND die (chip): blocks plus operation latencies.

The chip does not advance any clock itself; it *reports* per-operation
latencies so the device controller can fold them into command costs.  This
matters for the paper's threat model: reads that miss the mapping table
never touch flash and are therefore much faster — which is exactly how the
attacker VM achieves its elevated hammering rate (§3, §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from typing import Optional

from repro.errors import FlashAddressError
from repro.flash.block import Block, PageOob
from repro.sim.metrics import MetricRegistry
from repro.units import us


@dataclass(frozen=True)
class FlashTiming:
    """Per-operation NAND latencies (seconds)."""

    read_page: float = us(50)
    program_page: float = us(500)
    erase_block: float = us(3000)


class FlashChip:
    """One die: a set of erase blocks across its planes."""

    def __init__(
        self,
        index: int,
        blocks: int,
        pages_per_block: int,
        page_bytes: int,
        timing: FlashTiming = FlashTiming(),
        endurance: int = 10_000,
        metrics: MetricRegistry = None,
    ):
        self.index = index
        self.timing = timing
        self.blocks: List[Block] = [
            Block(i, pages_per_block, page_bytes, endurance) for i in range(blocks)
        ]
        self.metrics = metrics or MetricRegistry("flash.chip%d" % index)
        self._reads = self.metrics.counter("reads")
        self._programs = self.metrics.counter("programs")
        self._erases = self.metrics.counter("erases")
        #: Cumulative busy time, for utilization reporting.
        self.busy_time = 0.0

    def _block(self, block: int) -> Block:
        if not 0 <= block < len(self.blocks):
            raise FlashAddressError(
                "block %d out of range on chip %d" % (block, self.index)
            )
        return self.blocks[block]

    def read(self, block: int, page: int) -> bytes:
        self._reads.value += 1
        self.busy_time += self.timing.read_page
        return self._block(block).read(page)

    def program(
        self, block: int, page: int, data: bytes, oob: Optional[PageOob] = None
    ) -> None:
        self._programs.value += 1
        self.busy_time += self.timing.program_page
        self._block(block).program(page, data, oob=oob)

    def erase(self, block: int) -> None:
        self._erases.add()
        self.busy_time += self.timing.erase_block
        self._block(block).erase()

    def wear_summary(self) -> Dict[str, float]:
        """Erase-count statistics over the chip's blocks."""
        counts = [b.erase_count for b in self.blocks]
        return {
            "min": float(min(counts)),
            "max": float(max(counts)),
            "mean": sum(counts) / len(counts),
            "bad_blocks": float(sum(b.bad for b in self.blocks)),
        }
