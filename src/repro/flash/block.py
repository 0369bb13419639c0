"""One NAND erase block.

Enforces the two constraints that shape every FTL:

* a page can only be programmed once per erase cycle (no in-place writes);
* pages within a block must be programmed sequentially (page 0, 1, 2, ...),
  as required by real NAND to limit program disturb.

Erase counts are tracked for wear accounting; the erase that crosses a
block's endurance *fails* — the block becomes a grown bad block with its
(now unreliable) contents left in place, exactly how wear-out surfaces on
real NAND — and every later erase or program is refused.

Each page also carries out-of-band (OOB) metadata: the spare-area bytes a
real FTL programs next to the payload.  We model the two fields crash
recovery needs — the owning LBA (reference tag) and a monotonic write
sequence number — so a power-cycled device can rebuild its volatile L2P
table by scanning flash (highest sequence number wins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import FlashEraseError, FlashProgramError

#: Page states within the current erase cycle.
PAGE_ERASED = 0
PAGE_PROGRAMMED = 1


@dataclass(frozen=True)
class PageOob:
    """Out-of-band (spare area) metadata programmed with every page."""

    #: Logical block this page holds (the reference tag).
    lba: int
    #: Monotonic program sequence number; recovery keeps the highest.
    seq: int


class Block:
    """State of one erase block."""

    def __init__(self, index: int, pages_per_block: int, page_bytes: int, endurance: int = 10_000):
        self.index = index
        self.pages_per_block = pages_per_block
        self.page_bytes = page_bytes
        self.endurance = endurance
        self.erase_count = 0
        self.bad = False
        #: Next page that may be programmed (sequential constraint).
        self.write_pointer = 0
        #: Programmed page payloads for the current erase cycle.
        self._data: Dict[int, bytes] = {}
        #: Per-page OOB metadata for the current erase cycle.
        self._oob: Dict[int, PageOob] = {}

    # -- queries -----------------------------------------------------------

    def page_state(self, page: int) -> int:
        self._check_page(page)
        return PAGE_PROGRAMMED if page in self._data else PAGE_ERASED

    @property
    def is_full(self) -> bool:
        return self.write_pointer >= self.pages_per_block

    def oob(self, page: int) -> Optional[PageOob]:
        """OOB metadata of a page; None when erased or programmed bare."""
        self._check_page(page)
        return self._oob.get(page)

    # -- operations -----------------------------------------------------------

    def read(self, page: int) -> bytes:
        """Read a page; an erased page reads as all 0xFF (NAND convention)."""
        self._check_page(page)
        data = self._data.get(page)
        if data is None:
            return b"\xff" * self.page_bytes
        return data

    def program(self, page: int, data: bytes, oob: Optional[PageOob] = None) -> None:
        """Program one page; must be the next sequential erased page."""
        self._check_page(page)
        if self.bad:
            raise FlashProgramError("block %d is bad" % self.index)
        if page in self._data:
            raise FlashProgramError(
                "page %d of block %d already programmed this cycle"
                % (page, self.index)
            )
        if page != self.write_pointer:
            raise FlashProgramError(
                "non-sequential program: block %d expects page %d, got %d"
                % (self.index, self.write_pointer, page)
            )
        if len(data) != self.page_bytes:
            raise FlashProgramError(
                "page payload must be exactly %d bytes, got %d"
                % (self.page_bytes, len(data))
            )
        self._data[page] = bytes(data)
        if oob is not None:
            self._oob[page] = oob
        self.write_pointer += 1

    def erase(self) -> None:
        """Erase the whole block, returning every page to the erased state.

        The erase that exhausts the block's endurance fails: the block is
        marked bad with its contents left behind, and the caller (the FTL's
        garbage collector) must retire it.
        """
        if self.bad:
            raise FlashEraseError("block %d is bad" % self.index)
        self.erase_count += 1
        if self.erase_count >= self.endurance:
            self.bad = True
            raise FlashEraseError(
                "block %d wore out (erase %d of endurance %d failed)"
                % (self.index, self.erase_count, self.endurance)
            )
        self._data.clear()
        self._oob.clear()
        self.write_pointer = 0

    # -- helpers -----------------------------------------------------------

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.pages_per_block:
            raise FlashProgramError(
                "page %d out of range in block %d" % (page, self.index)
            )
