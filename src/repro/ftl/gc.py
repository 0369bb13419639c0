"""Garbage collection policies.

Flash cannot overwrite in place, so the FTL writes out of place and must
eventually reclaim blocks whose pages are mostly stale.  The collector
moves a victim block's still-valid pages to the write frontier, erases the
victim, and returns it to the free pool.

Note the validation step: before moving a page, the collector re-reads the
L2P entry and only treats the page as valid if the mapping still points at
it.  This mirrors SPDK's behaviour — and it matters for the attack: a
mapping entry corrupted by a bitflip no longer matches, so GC *preserves*
the misdirection instead of healing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import FlashEraseError, FlashReadError


@dataclass
class GcStats:
    """Accounting for one or more collection passes."""

    collections: int = 0
    moved_pages: int = 0
    erased_blocks: int = 0
    dropped_stale_pages: int = 0
    flash_time: float = 0.0

    def merge(self, other: "GcStats") -> None:
        self.collections += other.collections
        self.moved_pages += other.moved_pages
        self.erased_blocks += other.erased_blocks
        self.dropped_stale_pages += other.dropped_stale_pages
        self.flash_time += other.flash_time


class GreedyGarbageCollector:
    """Pick the sealed block with the fewest valid pages (min-cost move)."""

    name = "greedy"

    def select_victim(self, ftl, candidates: List[int]) -> int:
        return min(candidates, key=ftl.valid_count.__getitem__)

    def collect(self, ftl) -> GcStats:
        """Reclaim one sealed block; returns the pass's accounting.  Valid
        pages move through the host write path (``place_page``,
        ``map_page``)."""
        stats = GcStats(collections=1)
        victim = self.select_victim(ftl, ftl.sealed_blocks())
        timing = ftl.flash.timing
        geometry = ftl.flash.geometry
        first = geometry.first_ppa_of_block(victim)
        pages = range(first, first + geometry.pages_per_block)
        for ppa in pages:
            lba = ftl.reverse.get(ppa)
            if lba is None:
                continue
            if ftl.l2p.lookup(lba) != ppa:
                # The mapping moved on (overwrite race) or was corrupted by
                # a disturbance flip: the page is not reachable through the
                # table, so it is dropped rather than moved.
                ftl.invalidate(lba, ppa)
                stats.dropped_stale_pages += 1
                continue
            for attempt in range(3):  # place_page's bound on programs
                stats.flash_time += timing.read_page
                try:
                    data = ftl.flash.read_page(ppa)
                    break
                except FlashReadError:
                    if attempt == 2:
                        ftl.gc_active = False  # the pass is over, not cut
                        raise
            new_ppa = ftl.place_page(lba, data)
            stats.flash_time += timing.program_page
            if ppa in ftl.dif_tags:
                # The protection-information bytes travel with the data.
                ftl.dif_tags[new_ppa] = ftl.dif_tags.pop(ppa)
            ftl.map_page(lba, new_ppa, ppa)
            stats.moved_pages += 1
        for ppa in pages:
            ftl.dif_tags.pop(ppa, None)  # erase wipes the PI bytes
        try:
            ftl.flash.erase_block(victim)
        except FlashEraseError:
            # The block wore out (or grew bad): retire it, not recycle it.
            ftl.retire_block(victim)
            stats.flash_time += timing.erase_block
            return stats
        stats.flash_time += timing.erase_block
        stats.erased_blocks += 1
        ftl.release_block(victim)
        return stats


class WearAwareGarbageCollector(GreedyGarbageCollector):
    """Greedy victim selection with erase-count tie-breaking.

    Among the blocks with the minimal valid-page count, prefers the one
    erased the fewest times, spreading wear (a light-weight wear-leveling
    policy; ablation target)."""

    name = "wear-aware"

    def select_victim(self, ftl, candidates: List[int]) -> int:
        least_valid = min(ftl.valid_count[block] for block in candidates)
        tied = [b for b in candidates if ftl.valid_count[b] == least_valid]
        return min(tied, key=ftl.flash.block_erase_count)


class CostBenefitGarbageCollector(GreedyGarbageCollector):
    """The classic cost-benefit policy (Rosenblum/Kawaguchi):

        score = (1 - u) / (2u) * age

    where ``u`` is the block's valid-page utilization and ``age`` is how
    long ago it was last written (here: in write-sequence units).  Old,
    mostly-stale blocks win; hot blocks get time to accumulate more
    invalidations before being moved — better than pure greedy under
    skewed workloads."""

    name = "cost-benefit"

    def select_victim(self, ftl, candidates: List[int]) -> int:
        pages = ftl.flash.geometry.pages_per_block
        now = ftl.write_sequence

        def score(block: int) -> float:
            utilization = ftl.valid_count[block] / pages
            age = now - ftl.block_mtime.get(block, 0)
            if utilization <= 0:
                return float("inf")  # free to reclaim
            return (1 - utilization) / (2 * utilization) * age

        return max(candidates, key=score)
