"""L2P mapping tables stored in device DRAM.

Two layouts, matching the paper's discussion (§4.1, §5, design decision D1):

* :class:`LinearL2p` — "the SPDK FTL library, like most flash-based storage
  devices, stores a large L2P table in memory as a linear array": entry for
  LBA ``i`` sits at ``base + 4 * i``.  Predictable, which is what lets an
  attacker place aggressor entries by writing chosen LBAs.
* :class:`HashedL2p` — a keyed, bijective slot permutation.  With the key
  published this is the hash-table layout the paper says yields *more*
  vulnerable aggressor pairs; with the key secret it is the §5
  "randomize the FTL-internal structures" mitigation.

Entries are 32-bit little-endian PPAs; ``0xFFFFFFFF`` means unmapped.  All
storage goes through the FTL CPU cache (:mod:`repro.dram.cache`), so a
cache-enabled configuration genuinely absorbs hammer traffic.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

import numpy as np

from repro.dram.cache import FtlCpuCache
from repro.errors import ConfigError
from repro.units import is_power_of_two

#: Sentinel stored for unmapped LBAs (also the erased-DRAM pattern 0xFF).
UNMAPPED = 0xFFFFFFFF

ENTRY_BYTES = 4
_ENTRY = struct.Struct("<I")


class L2pTable:
    """Base class: a num_lbas-entry mapping array at ``base_addr``."""

    #: Layout identifier used by device profiles.
    layout = "abstract"

    def __init__(self, memory: FtlCpuCache, base_addr: int, num_lbas: int):
        if num_lbas <= 0:
            raise ConfigError("L2P table needs at least one entry")
        if base_addr < 0:
            raise ConfigError("negative L2P base address")
        self.memory = memory
        self.base_addr = base_addr
        self.num_lbas = num_lbas

    # -- layout ------------------------------------------------------------

    @property
    def table_bytes(self) -> int:
        return self.num_lbas * ENTRY_BYTES

    def slot_of(self, lba: int) -> int:
        """Table slot holding the entry for ``lba``."""
        raise NotImplementedError

    def lba_of_slot(self, slot: int) -> int:
        """Inverse of :meth:`slot_of` (layouts are bijections).

        The differential oracle uses this to name the LBA whose mapping a
        DRAM flip at a given table offset corrupted.  The result may fall
        outside the device's logical space for layouts whose table is
        larger than ``num_lbas`` (the hashed table rounds up to a power of
        two); callers filter those padding slots.
        """
        raise NotImplementedError

    def entry_address(self, lba: int) -> int:
        """Physical DRAM byte address of the entry for ``lba``.

        This is the function an attacker reverse engineers: combined with
        the controller's DRAM mapping it tells which DRAM row an LBA's
        mapping lives in.  :meth:`slot_of` checks the LBA.
        """
        return self.base_addr + ENTRY_BYTES * self.slot_of(lba)

    # -- operations ------------------------------------------------------------

    def initialize(self) -> None:
        """Mark every entry unmapped (fills the table region in DRAM)."""
        pattern = _ENTRY.pack(UNMAPPED) * 1024
        remaining = self.table_bytes
        offset = self.base_addr
        while remaining > 0:
            chunk = min(remaining, len(pattern))
            self.memory.write(offset, pattern[:chunk])
            offset += chunk
            remaining -= chunk

    def lookup(self, lba: int) -> Optional[int]:
        """Read the mapping; None when unmapped.

        The read goes through the cache to DRAM, activating the entry's row
        — this is the access the rowhammer workload multiplies.
        """
        raw = self.memory.read(self.entry_address(lba), ENTRY_BYTES)
        (ppa,) = _ENTRY.unpack(raw)
        return None if ppa == UNMAPPED else ppa

    def peek(self, lba: int) -> Optional[int]:
        """Side-effect-free :meth:`lookup` straight from DRAM storage.

        Bypasses the FTL CPU cache and every activation/disturbance hook
        (see :meth:`repro.dram.module.DramModule.inspect`); the cache is
        write-through, so DRAM is always authoritative.  This is what the
        invariant layer reads so that *checking* the table does not hammer
        it.
        """
        raw = self.memory.dram.inspect(self.entry_address(lba), ENTRY_BYTES)
        (ppa,) = _ENTRY.unpack(raw)
        return None if ppa == UNMAPPED else ppa

    def update(self, lba: int, ppa: int) -> None:
        """Point ``lba`` at ``ppa``."""
        if not 0 <= ppa < UNMAPPED:
            raise ConfigError("PPA %d does not fit a 32-bit entry" % ppa)
        self.memory.write(self.entry_address(lba), _ENTRY.pack(ppa))

    def clear(self, lba: int) -> None:
        """Mark ``lba`` unmapped (trim)."""
        self.memory.write(self.entry_address(lba), _ENTRY.pack(UNMAPPED))

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.num_lbas:
            raise ConfigError("LBA %d outside table of %d" % (lba, self.num_lbas))

    # -- batched operations (the trim burst's gather and scatter) -------------

    def lookup_many(self, lbas: Sequence[int]) -> np.ndarray:
        """Batched :meth:`lookup`: a uint32 PPA per LBA, ``UNMAPPED``
        where no mapping exists.

        One :meth:`FtlCpuCache.read_many` covers the whole batch, with the
        accounting of N scalar reads (entries are 4-byte aligned in rows
        whose size is a multiple of 4, so no entry ever crosses a row
        boundary and the batch never falls back for alignment).
        """
        addrs = [self.entry_address(lba) for lba in lbas]
        raw = self.memory.read_many(addrs, ENTRY_BYTES)
        return np.ascontiguousarray(raw).view("<u4").reshape(len(addrs))

    def clear_many(self, lbas: Sequence[int]) -> None:
        """Batched :meth:`clear` (one :meth:`FtlCpuCache.write_many`)."""
        addrs = [self.entry_address(lba) for lba in lbas]
        data = np.full((len(addrs), ENTRY_BYTES), 0xFF, dtype=np.uint8)
        self.memory.write_many(addrs, data)


class LinearL2p(L2pTable):
    """The SPDK-style linear array: slot == LBA."""

    layout = "linear"

    def slot_of(self, lba: int) -> int:
        self._check_lba(lba)
        return lba

    def lba_of_slot(self, slot: int) -> int:
        if not 0 <= slot < self.num_lbas:
            raise ConfigError("slot %d outside table of %d" % (slot, self.num_lbas))
        return slot


class HashedL2p(L2pTable):
    """Keyed bijective slot permutation.

    ``slot = ((lba * odd(key)) & (n-1)) ^ tweak(key)`` over a power-of-two
    table; multiplication by an odd constant is a bijection mod 2^k and the
    XOR is an involution, so distinct LBAs always get distinct slots (a
    *perfect* hash — no collision chains to model).
    """

    layout = "hashed"

    def __init__(self, memory: FtlCpuCache, base_addr: int, num_lbas: int, key: int = 0x9E3779B97F4A7C15):
        if not is_power_of_two(num_lbas):
            raise ConfigError("hashed L2P requires a power-of-two entry count")
        super().__init__(memory, base_addr, num_lbas)
        self.key = key
        self._multiplier = (key | 1) & (num_lbas - 1) or 1
        self._tweak = (key >> 17) & (num_lbas - 1)
        # Odd multipliers are units mod 2^k, so the permutation inverts
        # exactly; the oracle maps corrupted slots back to their LBAs.
        self._inverse_multiplier = pow(self._multiplier, -1, num_lbas)

    def slot_of(self, lba: int) -> int:
        self._check_lba(lba)
        return ((lba * self._multiplier) & (self.num_lbas - 1)) ^ self._tweak

    def lba_of_slot(self, slot: int) -> int:
        if not 0 <= slot < self.num_lbas:
            raise ConfigError("slot %d outside table of %d" % (slot, self.num_lbas))
        return ((slot ^ self._tweak) * self._inverse_multiplier) & (self.num_lbas - 1)
