"""Machine-checked invariants for the FTL, the DRAM module, and ext4.

Each ``check_*`` function inspects one layer's internal state and raises
:class:`InvariantViolation` with a precise message on breakage.  They are
the implementations behind the ``check()`` hooks on
:class:`~repro.ftl.ftl.PageMappingFtl`,
:class:`~repro.dram.module.DramModule`, and
:class:`~repro.ext4.fs.Ext4Fs`, and behind the CLI ``--check`` flag.

The FTL and DRAM checks are *non-perturbing*: they read through
:meth:`DramModule.inspect`/:meth:`L2pTable.peek`, which touch no counters
and trigger no disturbance, so a check can run between any two fuzzer
operations without changing the outcome of the trace.  The filesystem
check necessarily performs real device reads (walking the tree IS I/O).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.ftl.l2p import ENTRY_BYTES


class InvariantViolation(AssertionError):
    """A cross-layer correctness invariant does not hold."""


def _fail(layer: str, message: str) -> None:
    raise InvariantViolation("%s invariant violated: %s" % (layer, message))


# ----------------------------------------------------------------------
# flip attribution
# ----------------------------------------------------------------------

def flip_affected_lbas(ftl, flips: Optional[Iterable] = None) -> FrozenSet[int]:
    """LBAs whose L2P entries the given disturbance flips corrupted.

    Maps each data-region flip to its DRAM physical address, then — when
    the address falls inside the table region — back through the layout's
    slot permutation to the owning LBA.  These are the entries the
    "agreement modulo injected flips" checks exempt: their corruption is
    the paper's attack working as specified, not an FTL bug.
    """
    from repro.dram.address import DramAddress

    dram = ftl.memory.dram
    l2p = ftl.l2p
    table_start = l2p.base_addr
    table_end = table_start + l2p.table_bytes
    affected: Set[int] = set()
    for event in flips if flips is not None else dram.flips:
        if event.in_check_region:
            continue
        addr = dram.mapping.address_of(
            DramAddress(event.bank, event.row, event.byte_offset)
        )
        if not table_start <= addr < table_end:
            continue
        slot = (addr - table_start) // ENTRY_BYTES
        lba = l2p.lba_of_slot(slot)
        if lba < ftl.num_lbas:
            affected.add(lba)
    return frozenset(affected)


# ----------------------------------------------------------------------
# FTL
# ----------------------------------------------------------------------

def check_ftl(ftl, exempt_lbas: Iterable[int] = ()) -> None:
    """FTL structural invariants, read without perturbing DRAM.

    * Layout bijection: ``lba_of_slot(slot_of(lba)) == lba`` for every LBA,
      which :func:`flip_affected_lbas` relies on to name a corrupted LBA.
    * L2P <-> reverse-map agreement: every mapped, in-range entry is owned
      by exactly the LBA the reverse map names (modulo ``exempt_lbas``).
    * OOB agreement: the spare-area reference tag of every mapped page
      names the owning LBA — the invariant crash recovery rebuilds the
      table from.
    * GC never loses live pages: every reverse-map entry points back to a
      live translation, and per-block valid counts equal the number of
      reverse entries in that block.
    * Pool discipline: every block is free, sealed, retired, spare or the
      open block, exactly one of these, and free blocks hold no valid
      pages.
    """
    geometry = ftl.flash.geometry
    total_pages = geometry.total_pages
    exempt = frozenset(exempt_lbas)
    staged = set()
    if ftl.write_buffer is not None:
        staged = {
            slot.lba for slot in ftl.write_buffer._slots if slot is not None
        }
        if len(staged) != ftl.write_buffer.staged_count:
            _fail("ftl", "write-buffer slot map disagrees with staged count")

    per_block: Dict[int, int] = {}
    mapped_lbas: Set[int] = set()
    l2p = ftl.l2p
    for lba in range(ftl.num_lbas):
        slot = l2p.slot_of(lba)
        inverse = l2p.lba_of_slot(slot)
        if inverse != lba:
            _fail(
                "ftl",
                "LBA %d sits in L2P slot %d, whose inverse names LBA %d"
                % (lba, slot, inverse),
            )
        ppa = l2p.peek(lba)
        if ppa is None:
            continue
        mapped_lbas.add(lba)
        if ppa >= total_pages:
            if lba not in exempt:
                _fail(
                    "ftl",
                    "LBA %d maps out of range (PPA %d) without a flip to "
                    "blame" % (lba, ppa),
                )
            continue
        owner = ftl.reverse.get(ppa)
        if owner != lba and lba not in exempt:
            _fail(
                "ftl",
                "LBA %d -> PPA %d but reverse map says PPA %d -> %r"
                % (lba, ppa, ppa, owner),
            )
        if lba not in exempt:
            oob = ftl.flash.read_oob(ppa)
            if oob is None:
                _fail(
                    "ftl",
                    "LBA %d maps PPA %d but the page carries no OOB "
                    "metadata (recovery could not rebuild this entry)"
                    % (lba, ppa),
                )
            elif oob.lba != lba:
                _fail(
                    "ftl",
                    "LBA %d maps PPA %d whose OOB reference tag names "
                    "LBA %d" % (lba, ppa, oob.lba),
                )

    for ppa, lba in ftl.reverse.items():
        if not 0 <= ppa < total_pages:
            _fail("ftl", "reverse map holds out-of-range PPA %d" % ppa)
        if not 0 <= lba < ftl.num_lbas:
            _fail("ftl", "reverse map holds out-of-range LBA %d" % lba)
        per_block[geometry.block_of_ppa(ppa)] = (
            per_block.get(geometry.block_of_ppa(ppa), 0) + 1
        )
        if lba in exempt:
            continue
        current = ftl.l2p.peek(lba)
        if current != ppa:
            _fail(
                "ftl",
                "reverse map says PPA %d belongs to LBA %d, but the table "
                "maps that LBA to %r (a live page was lost)" % (ppa, lba, current),
            )

    for block in range(geometry.total_blocks):
        expected = per_block.get(block, 0)
        actual = ftl.valid_count[block]
        if actual != expected:
            _fail(
                "ftl",
                "block %d valid_count=%d but the reverse map holds %d "
                "entries there" % (block, actual, expected),
            )

    # Pool discipline: every block sits in exactly one pool or is open.
    pools = (
        ("free", ftl.free_blocks),
        ("sealed", ftl._sealed),
        ("retired", ftl.retired_blocks),
        ("spare", ftl.spare_pool),
        ("open", () if ftl._open_block is None else (ftl._open_block,)),
    )
    home: Dict[int, str] = {}
    for name, pool in pools:
        for block in pool:
            if block in home:
                _fail(
                    "ftl",
                    "block %d sits in the %s pool and again in the %s pool"
                    % (block, home[block], name),
                )
            home[block] = name
    unaccounted = sorted(set(range(geometry.total_blocks)) - set(home))
    if unaccounted:
        _fail("ftl", "blocks %s sit in no pool and are not open" % unaccounted)
    for block in ftl.retired_blocks:
        if not ftl.flash.block_is_bad(block):
            _fail("ftl", "retired block %d is not marked bad on the array" % block)
    for block in ftl.free_blocks:
        if ftl.valid_count[block] != 0:
            _fail(
                "ftl",
                "free block %d still holds %d valid pages"
                % (block, ftl.valid_count[block]),
            )


# ----------------------------------------------------------------------
# DRAM
# ----------------------------------------------------------------------

def check_dram(dram) -> None:
    """DRAM refresh-window accounting and flip-event plausibility.

    * Activation conservation: per-row window counters are non-negative,
      their sum never exceeds the cumulative activations counter, and no
      bank's epoch runs ahead of the clock.
    * Victim baselines (mid-window refresh forgiveness) never exceed the
      neighbours' current counters — disturbance-since-refresh must be
      non-negative.
    * Every recorded flip names a cell that exists, and its
      ``in_check_region`` flag matches its byte offset.
    * Every flip mark names a row of its bank, and every weak cell below
      a victim's flip mark holds its ``flips_to`` value, unless its region
      was never allocated or is the check region of a module without ECC
      (flips do not land there).
    * Every victim with an evaluation bound has a flip mark, an ``inf``
      bound only with an ``inf`` mark, and a victim whose neighbours' ACT
      sum is below its bound has disturbance below its mark.
    """
    geometry = dram.geometry
    window_total = 0
    clock_epoch = dram.clock.epoch(dram.refresh_interval)
    for bank in dram.banks:
        if bank.epoch > clock_epoch:
            _fail(
                "dram",
                "bank %d accounts epoch %d but the clock is at %d"
                % (bank.index, bank.epoch, clock_epoch),
            )
        if bank.open_row is not None and not 0 <= bank.open_row < geometry.rows_per_bank:
            _fail("dram", "bank %d open row %d out of range" % (bank.index, bank.open_row))
        for row, count in bank.acts.items():
            if not 0 <= row < geometry.rows_per_bank:
                _fail("dram", "bank %d counts unknown row %d" % (bank.index, row))
            if count < 0:
                _fail(
                    "dram",
                    "bank %d row %d has negative activation count %d"
                    % (bank.index, row, count),
                )
            window_total += count
        for victim, base in bank.victim_baseline.items():
            current = (
                bank.acts.get(victim - 1, 0),
                bank.acts.get(victim + 1, 0),
                bank.acts.get(victim - 2, 0),
                bank.acts.get(victim + 2, 0),
            )
            for snapshot, now in zip(base, current):
                if snapshot > now:
                    _fail(
                        "dram",
                        "bank %d victim %d baseline %r exceeds current "
                        "neighbour counts %r (counters ran backwards)"
                        % (bank.index, victim, base, current),
                    )
        _check_flip_marks(dram, bank)
        _check_flip_bounds(dram, bank)

    activations = dram.metrics.counter("activations").value
    if window_total > activations:
        _fail(
            "dram",
            "current-window activation counts sum to %d but only %d "
            "activations were ever recorded" % (window_total, activations),
        )

    if dram.metrics.counter("flips").value != len(dram.flips):
        _fail(
            "dram",
            "flips counter %d disagrees with %d recorded flip events"
            % (dram.metrics.counter("flips").value, len(dram.flips)),
        )
    row_bytes = geometry.row_bytes
    limit = row_bytes + (row_bytes // 8 if dram.ecc_enabled else 0)
    for event in dram.flips:
        if not 0 <= event.bank < geometry.total_banks:
            _fail("dram", "flip event names unknown bank %d" % event.bank)
        if not 0 <= event.row < geometry.rows_per_bank:
            _fail("dram", "flip event names unknown row %d" % event.row)
        if not 0 <= event.byte_offset < limit:
            _fail(
                "dram",
                "flip event byte offset %d outside row of %d (+check) bytes"
                % (event.byte_offset, row_bytes),
            )
        if event.in_check_region != (event.byte_offset >= row_bytes):
            _fail(
                "dram",
                "flip at offset %d mislabels in_check_region=%r"
                % (event.byte_offset, event.in_check_region),
            )


def _check_flip_marks(dram, bank) -> None:
    """Every flip mark names a row of the bank, and cells below a victim's
    flip mark were applied since the row's bytes last changed, so each
    holds the value it flips to."""
    row_bytes = dram.geometry.row_bytes
    rows_per_bank = dram.geometry.rows_per_bank
    for victim, mark in bank.flip_marks.items():
        if not 0 <= victim < rows_per_bank:
            _fail("dram", "bank %d keeps a flip mark for unknown row %d"
                  % (bank.index, victim))
        cells = dram.vulnerability.row_vulnerability(bank.index, victim).cells
        for cell in cells:
            if cell.threshold >= mark:
                break  # cells are sorted by threshold
            offset = cell.byte_offset
            if offset < row_bytes:
                array = bank.data_rows.get(victim)
            elif dram.ecc_enabled:
                array = bank.check_rows.get(victim)
                offset -= row_bytes
            else:
                continue
            if array is None:
                continue
            if (int(array[offset]) >> cell.bit) & 1 != cell.flips_to:
                _fail(
                    "dram",
                    "bank %d victim %d: weak cell (byte %d, bit %d) below "
                    "flip mark %r does not hold %d"
                    % (bank.index, victim, cell.byte_offset, cell.bit, mark,
                       cell.flips_to),
                )


def _check_flip_bounds(dram, bank) -> None:
    """An evaluation bound holds back only evaluations that cannot flip."""
    vulnerability = dram.vulnerability
    deltas = (-2, -1, 1, 2) if vulnerability.neighbor2_weight else (-1, 1)
    for victim, bound in bank.flip_bounds.items():
        mark = bank.flip_marks.get(victim)
        if mark is None or (bound == float("inf") and mark != bound):
            _fail("dram", "bank %d victim %d has evaluation bound %r but flip "
                  "mark %r" % (bank.index, victim, bound, mark))
        raw = sum(bank.acts.get(victim + delta, 0) for delta in deltas)
        disturbance = vulnerability.disturbance(
            *bank.victim_side_counts(victim), *bank.victim_far_counts(victim)
        )
        if raw < bound and disturbance >= mark:
            _fail("dram", "bank %d victim %d: disturbance %r reached flip mark "
                  "%r with neighbour ACTs %d below its evaluation bound %r"
                  % (bank.index, victim, disturbance, mark, raw, bound))


# ----------------------------------------------------------------------
# ext4
# ----------------------------------------------------------------------

def _redirected(fs, inode, exempt: FrozenSet[int]) -> bool:
    """Whether ``inode``'s block map is read through a device LBA in
    ``exempt``: an extent leaf, the single- or double-indirect block, or a
    mid-level block of the double-indirect tree.  Pointers past the
    filesystem are left to the block-map check."""
    from repro.ext4.consts import DOUBLE_INDIRECT_SLOT, NO_BLOCK, SINGLE_INDIRECT_SLOT
    from repro.ext4.extent import ExtentTree

    total = fs.sb.total_blocks
    translate = fs.device.namespace.translate

    def read_through_flip(block: int) -> bool:
        return block != NO_BLOCK and block < total and translate(block) in exempt

    if inode.uses_extents:
        return any(map(read_through_flip, ExtentTree(fs, inode).metadata_blocks()))
    double = inode.block[DOUBLE_INDIRECT_SLOT]
    if read_through_flip(inode.block[SINGLE_INDIRECT_SLOT]) or read_through_flip(double):
        return True
    if double == NO_BLOCK or double >= total:
        return False
    return any(map(read_through_flip, fs._read_pointer_block(double)))


def check_fs(fs, exempt_lbas: Iterable[int] = ()) -> List[Tuple[int, str]]:
    """Filesystem structural invariants, walked from the root.

    * Every reachable inode parses and stays inside its format limits
      (:meth:`Ext4Fs._read_inode` enforces them on the way).
    * Extent trees are well-formed: every leaf passes its CRC-32C check
      and lookups stay inside the filesystem (``ExtentTree`` raises
      ``FsCorruptionError`` otherwise, which we re-raise as a violation).
    * No two files claim the same block, and every claimed block is marked
      allocated in the on-disk bitmap.

    ``exempt_lbas`` are device LBAs whose L2P entries disturbance flips
    corrupted (:func:`flip_affected_lbas`, as :func:`check_ftl` takes).
    An inode whose block map is read through one of them is *redirected*:
    the attack working, not a filesystem bug.  Its block map is neither
    checked nor claimed, a redirected directory is not descended into, and
    the redirected inodes are returned as ``(ino, path)`` in walk order.

    Walking the tree performs real device reads; run it at checkpoints,
    not between hammer windows whose timing matters.
    """
    from repro.errors import FsCorruptionError, FsError
    from repro.ext4.consts import NO_BLOCK, ROOT_INO
    from repro.ext4.dirent import DirectoryBlock

    exempt = frozenset(exempt_lbas)
    redirected: List[Tuple[int, str]] = []
    claims: Dict[int, Tuple[int, str]] = {}
    seen: Set[int] = set()
    stack: List[Tuple[int, str]] = [(ROOT_INO, "/")]

    def claim(block: int, ino: int, why: str) -> None:
        if block == NO_BLOCK:
            return
        if block >= fs.sb.total_blocks:
            _fail(
                "ext4",
                "inode %d (%s) references block %d beyond the filesystem"
                % (ino, why, block),
            )
        prior = claims.get(block)
        if prior is not None and prior[0] != ino:
            _fail(
                "ext4",
                "block %d claimed by both inode %d (%s) and inode %d (%s)"
                % (block, prior[0], prior[1], ino, why),
            )
        claims[block] = (ino, why)
        if block >= fs.sb.data_start and not fs.block_alloc.is_allocated(
            block - fs.sb.data_start
        ):
            _fail(
                "ext4",
                "inode %d references block %d that the bitmap says is free"
                % (ino, block),
            )

    while stack:
        ino, path = stack.pop()
        if ino in seen:
            _fail("ext4", "inode %d reachable twice (cycle or double link)" % ino)
        seen.add(ino)
        try:
            inode = fs._read_inode(ino)
        except (FsCorruptionError, FsError) as exc:
            _fail("ext4", "inode %d (%s) unreadable: %s" % (ino, path, exc))
        if not fs.inode_alloc.is_allocated(ino - 1):
            _fail(
                "ext4",
                "inode %d (%s) is linked but not allocated in the bitmap"
                % (ino, path),
            )
        if exempt and _redirected(fs, inode, exempt):
            redirected.append((ino, path))
            continue
        try:
            layout = fs._layout_of(inode)
        except (FsCorruptionError, FsError) as exc:
            _fail("ext4", "inode %d (%s) has a corrupt block map: %s" % (ino, path, exc))
        for block in layout.data_blocks:
            claim(block, ino, "data of %s" % path)
        for block in layout.metadata_blocks:
            claim(block, ino, "metadata of %s" % path)
        if inode.is_directory:
            count = -(-inode.size // fs.block_bytes)
            for logical in range(count):
                physical = fs._block_lookup(inode, logical)
                if physical == NO_BLOCK:
                    continue
                # Its own parse of the bytes read, not the filesystem's.
                entries = DirectoryBlock(
                    fs.device.read_block(physical)
                ).live_entries()
                for child_ino, name in entries:
                    if not 1 <= child_ino <= fs.sb.inode_count:
                        _fail(
                            "ext4",
                            "directory %s entry %r names invalid inode %d"
                            % (path, name, child_ino),
                        )
                    stack.append((child_ino, path.rstrip("/") + "/" + name))
    return redirected


# ----------------------------------------------------------------------
# whole stack
# ----------------------------------------------------------------------

def check_stack(ftl=None, dram=None, fs=None, exempt_lbas: Iterable[int] = ()) -> None:
    """Run every applicable layer check in one call (the CLI ``--check``
    entry point).  ``exempt_lbas`` is forwarded to the FTL and filesystem
    checks; pass :func:`flip_affected_lbas` output when flips were
    injected on purpose.
    """
    if dram is not None:
        check_dram(dram)
    if ftl is not None:
        check_ftl(ftl, exempt_lbas=exempt_lbas)
    if fs is not None:
        check_fs(fs, exempt_lbas=exempt_lbas)
