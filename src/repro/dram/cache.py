"""FTL-CPU cache model in front of the device DRAM.

The paper's reverse engineering found the SSD's internal DRAM *uncached* —
"no caching makes the DRAM more prone to rowhammering, as caches reduce
DRAM access frequency" — and the authors modified SPDK to invalidate the
cache on every L2P access to mimic that.  This module models all three
configurations so the cache's defensive effect can be measured:

* ``CacheMode.NONE`` — every access goes to DRAM (the real SSD).
* ``CacheMode.INVALIDATE_EACH_ACCESS`` — a cache exists but is flushed per
  access (the paper's modified-SPDK testbed); behaviourally identical to
  NONE for hammering purposes, kept separate for faithful reporting.
* ``CacheMode.LRU`` — a set-associative write-through cache; repeated
  accesses to hot L2P entries hit in cache and never reach DRAM, which is
  exactly why an enabled cache defeats the naive attack (§5).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.dram.module import DramModule
from repro.errors import ConfigError
from repro.sim.metrics import MetricRegistry
from repro.units import KIB, is_power_of_two


class CacheMode(enum.Enum):
    """How the FTL CPU caches device DRAM."""

    NONE = "none"
    INVALIDATE_EACH_ACCESS = "invalidate-each-access"
    LRU = "lru"


class FtlCpuCache:
    """A small set-associative, write-through cache over a DramModule.

    The FTL performs all its DRAM traffic through this object; with
    ``CacheMode.NONE`` it is a transparent pass-through.
    """

    def __init__(
        self,
        dram: DramModule,
        mode: CacheMode = CacheMode.NONE,
        *,
        size_bytes: int = 32 * KIB,
        line_bytes: int = 64,
        ways: int = 4,
        metrics: Optional[MetricRegistry] = None,
    ):
        if not is_power_of_two(line_bytes):
            raise ConfigError("cache line size must be a power of two")
        if size_bytes % (line_bytes * ways) != 0:
            raise ConfigError("cache size must be divisible by line*ways")
        self.dram = dram
        self.mode = mode
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        if not is_power_of_two(self.num_sets):
            raise ConfigError("derived set count must be a power of two")
        #: set index -> OrderedDict[tag, line bytes] (LRU order).
        self._sets: Dict[int, "OrderedDict[int, bytearray]"] = {}
        self.metrics = metrics or MetricRegistry("cache")
        self._hits = self.metrics.counter("hits")
        self._misses = self.metrics.counter("misses")
        self._invalidations = self.metrics.counter("invalidations")

    # -- public access API (used by the FTL) --------------------------------

    def read(self, phys_addr: int, length: int) -> bytes:
        """Read through the cache; only misses reach (and hammer) DRAM."""
        mode = self.mode
        if mode is CacheMode.LRU:
            return self._read_lru(phys_addr, length)
        # Only LRU mode fills the cache, so the per-access flush of
        # INVALIDATE_EACH_ACCESS finds it empty and is skipped.
        if self._sets and mode is CacheMode.INVALIDATE_EACH_ACCESS:
            self.invalidate_all()
        return self.dram.read(phys_addr, length)

    def write(self, phys_addr: int, data: bytes) -> None:
        """Write-through: DRAM is always updated; cached lines refreshed."""
        mode = self.mode
        if self._sets and mode is CacheMode.INVALIDATE_EACH_ACCESS:
            self.invalidate_all()
        self.dram.write(phys_addr, data)
        if mode is CacheMode.LRU:
            self._update_cached_lines(phys_addr, data)

    def read_many(self, phys_addrs, length: int) -> np.ndarray:
        """Bulk read: ``length`` bytes at each address, as ``(n, length)``.

        The burst path calls this once per batch instead of once per line.
        ``NONE`` forwards straight to :meth:`DramModule.read_batch`;
        ``INVALIDATE_EACH_ACCESS`` flushes once up front — equivalent to
        flushing per access, since reads never populate the cache in that
        mode — then forwards; ``LRU`` must walk line-by-line because hits
        depend on the recency order the batch itself creates.
        """
        if self.mode is CacheMode.INVALIDATE_EACH_ACCESS:
            self.invalidate_all()
        if self.mode is not CacheMode.LRU:
            return self.dram.read_batch(phys_addrs, length)
        out = np.empty((len(phys_addrs), length), dtype=np.uint8)
        for i, addr in enumerate(phys_addrs):
            out[i] = np.frombuffer(self._read_lru(int(addr), length), dtype=np.uint8)
        return out

    def write_many(self, phys_addrs, data: np.ndarray) -> None:
        """Bulk write-through: ``data[i]`` (equal lengths) at each address."""
        if self.mode is CacheMode.INVALIDATE_EACH_ACCESS:
            self.invalidate_all()
        self.dram.write_batch(phys_addrs, data)
        if self.mode is CacheMode.LRU:
            for i, addr in enumerate(phys_addrs):
                self._update_cached_lines(int(addr), data[i].tobytes())

    def invalidate_all(self) -> None:
        """Drop every cached line."""
        if self._sets:
            self._invalidations.add()
        self._sets.clear()

    @property
    def hit_rate(self) -> float:
        total = self._hits.value + self._misses.value
        return self._hits.value / total if total else 0.0

    # -- LRU internals -------------------------------------------------------

    def _line_of(self, phys_addr: int) -> Tuple[int, int, int]:
        """(set index, tag, offset in line) for an address."""
        line_no = phys_addr // self.line_bytes
        set_index = line_no & (self.num_sets - 1)
        tag = line_no >> (self.num_sets.bit_length() - 1)
        return set_index, tag, phys_addr % self.line_bytes

    def _read_lru(self, phys_addr: int, length: int) -> bytes:
        out = bytearray()
        offset = phys_addr
        remaining = length
        while remaining > 0:
            set_index, tag, line_offset = self._line_of(offset)
            chunk = min(remaining, self.line_bytes - line_offset)
            line = self._lookup(set_index, tag)
            if line is None:
                self._misses.add()
                line_base = (offset // self.line_bytes) * self.line_bytes
                line = bytearray(self.dram.read(line_base, self.line_bytes))
                self._install(set_index, tag, line)
            else:
                self._hits.add()
            out += line[line_offset : line_offset + chunk]
            offset += chunk
            remaining -= chunk
        return bytes(out)

    def _lookup(self, set_index: int, tag: int) -> Optional[bytearray]:
        lines = self._sets.get(set_index)
        if lines is None or tag not in lines:
            return None
        lines.move_to_end(tag)
        return lines[tag]

    def _install(self, set_index: int, tag: int, line: bytearray) -> None:
        lines = self._sets.setdefault(set_index, OrderedDict())
        lines[tag] = line
        lines.move_to_end(tag)
        while len(lines) > self.ways:
            lines.popitem(last=False)

    def _update_cached_lines(self, phys_addr: int, data: bytes) -> None:
        view = np.frombuffer(bytes(data), dtype=np.uint8)
        consumed = 0
        offset = phys_addr
        remaining = len(view)
        while remaining > 0:
            set_index, tag, line_offset = self._line_of(offset)
            chunk = min(remaining, self.line_bytes - line_offset)
            line = self._lookup(set_index, tag)
            if line is not None:
                line[line_offset : line_offset + chunk] = view[
                    consumed : consumed + chunk
                ].tobytes()
            offset += chunk
            consumed += chunk
            remaining -= chunk
