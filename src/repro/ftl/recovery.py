"""Crash recovery: rebuild the FTL's volatile state from flash.

Power loss wipes everything in device DRAM — most importantly the L2P
table.  What survives is the media itself: page payloads plus the OOB
metadata (owning LBA and monotonic program sequence number) stamped on
every program.  Recovery is therefore a full-device OOB scan, exactly
the strategy page-mapping firmware uses when it has no up-to-date
checkpoint:

1. Walk every block up to its write pointer and read each page's OOB.
2. For each LBA keep the copy with the *highest* sequence number — a
   host overwrite or a GC relocation always outranks the stale copy it
   superseded, which makes a crash in the middle of garbage collection
   harmless: if the victim block was not erased yet, both copies exist
   and the relocation wins.
3. Rebuild the L2P table, reverse map, and per-block valid counts from
   the winners; everything else in a scanned block is stale.
4. Sort blocks back into pools: bad blocks are retired (unless they
   still hold live pages — then they stay sealed so GC can relocate the
   pages and retire them properly), empty blocks are free, full blocks
   are sealed, and of the partially-programmed survivors the one with
   the newest data resumes as the open block at its write pointer.
5. Re-derive degraded mode from those pools: the device is read-only
   when its spare pool is spent, or when it has no room to write.

TRIMs are not journaled, so a trimmed LBA whose old page was never
erased is *resurrected* by the scan — permitted by NVMe deallocate
semantics and asserted as such by the testkit oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.errors import FtlRecoveryError


@dataclass(frozen=True)
class RecoveryReport:
    """What a recovery scan found and rebuilt."""

    scanned_pages: int
    live_pages: int
    stale_pages: int
    free_blocks: int
    sealed_blocks: int
    retired_blocks: int
    spare_blocks: int
    open_block: int  # -1 when no partial block survived
    max_seq: int
    read_only: bool

    def to_dict(self) -> Dict[str, int]:
        return {
            "scanned_pages": self.scanned_pages,
            "live_pages": self.live_pages,
            "stale_pages": self.stale_pages,
            "free_blocks": self.free_blocks,
            "sealed_blocks": self.sealed_blocks,
            "retired_blocks": self.retired_blocks,
            "spare_blocks": self.spare_blocks,
            "open_block": self.open_block,
            "max_seq": self.max_seq,
            "read_only": int(self.read_only),
        }


def recover(ftl) -> RecoveryReport:
    """Rebuild ``ftl``'s volatile state after :meth:`~PageMappingFtl.crash`.

    Raises :class:`FtlRecoveryError` when the media cannot describe a
    consistent device: a programmed page with no OOB metadata, an OOB
    reference tag outside the logical space, or a duplicated sequence
    number (the monotonic counter can never repeat).
    """
    if not ftl._crashed:
        raise FtlRecoveryError("recover() called on a device that is powered on")

    geometry = ftl.flash.geometry
    ftl.l2p.initialize()

    best: Dict[int, Tuple[int, int]] = {}  # lba -> (seq, ppa)
    block_max_seq: Dict[int, int] = {}
    seen_seqs: Set[int] = set()
    scanned = 0
    max_seq = 0
    for block in range(geometry.total_blocks):
        blk = ftl.flash.block_object(block)
        base = geometry.first_ppa_of_block(block)
        for page in range(blk.write_pointer):
            ppa = base + page
            oob = ftl.flash.read_oob(ppa)
            if oob is None:
                raise FtlRecoveryError(
                    "programmed page at ppa %d carries no OOB metadata" % ppa
                )
            if not 0 <= oob.lba < ftl.num_lbas:
                raise FtlRecoveryError(
                    "OOB reference tag %d at ppa %d is outside the %d-LBA "
                    "logical space" % (oob.lba, ppa, ftl.num_lbas)
                )
            if oob.seq in seen_seqs:
                raise FtlRecoveryError(
                    "sequence number %d appears twice (ppa %d)" % (oob.seq, ppa)
                )
            seen_seqs.add(oob.seq)
            scanned += 1
            if oob.seq > max_seq:
                max_seq = oob.seq
            if oob.seq > block_max_seq.get(block, 0):
                block_max_seq[block] = oob.seq
            current = best.get(oob.lba)
            if current is None or oob.seq > current[0]:
                best[oob.lba] = (oob.seq, ppa)

    # -- rebuild the translation structures ------------------------------
    ftl.reverse = {}
    ftl.valid_count = [0] * geometry.total_blocks
    for lba, (_seq, ppa) in best.items():
        ftl.l2p.update(lba, ppa)
        ftl.reverse[ppa] = lba
        ftl.valid_count[geometry.block_of_ppa(ppa)] += 1
    ftl.program_seq = max_seq
    ftl.write_sequence = max_seq
    ftl.block_mtime = dict(block_max_seq)

    # -- sort blocks back into pools --------------------------------------
    free = []
    sealed = []
    retired = []
    partial = []
    bad_count = 0
    for block in range(geometry.total_blocks):
        blk = ftl.flash.block_object(block)
        if blk.bad:
            bad_count += 1
            if ftl.valid_count[block] > 0:
                # Still holds live data: leave it for GC to relocate and
                # retire, just like a grown-bad block found while running.
                sealed.append(block)
            else:
                retired.append(block)
        elif blk.write_pointer == 0:
            free.append(block)
        elif blk.write_pointer >= geometry.pages_per_block:
            sealed.append(block)
        else:
            partial.append(block)

    open_block = -1
    if partial:
        # The partial block with the newest data was the write frontier at
        # the moment of power loss; it resumes as the open block.  Other
        # partial blocks (sealed early by an earlier recovery or program
        # failure) stay sealed; GC reclaims their tail pages eventually.
        open_block = max(partial, key=lambda b: block_max_seq.get(b, 0))
        for block in partial:
            if block != open_block:
                sealed.append(block)

    ftl.free_blocks = deque(free)
    ftl._sealed = sorted(sealed)
    ftl.retired_blocks = retired
    ftl._open_block = open_block if open_block >= 0 else None

    # -- spare pool & degraded mode ---------------------------------------
    # The spare ledger is not persisted; approximate it as "every grown bad
    # block consumed one spare", which is exact once GC has retired them.
    spares_left = 0
    if ftl.config.spare_blocks:
        spares_left = max(0, ftl.config.spare_blocks - bad_count)
        ftl.read_only = bad_count > ftl.config.spare_blocks
    ftl.spare_pool = deque()
    for _ in range(min(spares_left, len(ftl.free_blocks))):
        ftl.spare_pool.append(ftl.free_blocks.pop())
    # No room to write, as the next write would find it: no open block, no
    # free block, and no sealed block GC could erase without moving a page.
    if (open_block < 0 and not ftl.free_blocks
            and all(ftl.valid_count[block] for block in ftl._sealed)):
        ftl.read_only = True

    ftl._crashed = False
    ftl.metrics.counter("recoveries").add()
    return RecoveryReport(
        scanned_pages=scanned,
        live_pages=len(best),
        stale_pages=scanned - len(best),
        free_blocks=len(ftl.free_blocks),
        sealed_blocks=len(ftl._sealed),
        retired_blocks=len(retired),
        spare_blocks=len(ftl.spare_pool),
        open_block=open_block,
        max_seq=max_seq,
        read_only=ftl.read_only,
    )
