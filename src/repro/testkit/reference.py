"""Naive reference models the real stack is differenced against.

Each model is a deliberately simple, independent reimplementation of one
contract the device stack must honour.  They know nothing about flash
geometry, garbage collection, write buffers, caches, or numpy batch paths —
which is the point: if the real stack and a twenty-line dict model disagree
about what a read returns, the real stack has a bug (or a genuine injected
disturbance flip, which the oracle accounts for separately).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class ShadowL2p:
    """Plain-dict shadow of the L2P mapping: LBA -> PPA.

    Mirrors exactly the mapping *semantics* (update, trim, lookup); it has
    no layout, no DRAM, and therefore no way to be hammered.  Agreement
    with the real table — modulo entries corrupted by injected flips — is
    the core FTL invariant.
    """

    def __init__(self, num_lbas: int):
        self.num_lbas = num_lbas
        self._map: Dict[int, int] = {}

    def update(self, lba: int, ppa: int) -> None:
        self._check(lba)
        self._map[lba] = ppa

    def clear(self, lba: int) -> None:
        self._check(lba)
        self._map.pop(lba, None)

    def lookup(self, lba: int) -> Optional[int]:
        self._check(lba)
        return self._map.get(lba)

    def mapped_lbas(self) -> List[int]:
        return sorted(self._map)

    def _check(self, lba: int) -> None:
        if not 0 <= lba < self.num_lbas:
            raise ValueError("shadow L2P: LBA %d outside %d" % (lba, self.num_lbas))


class ShadowStore:
    """Shadow logical-block store: the host-visible contract of the device.

    ``write`` stores the payload, ``trim`` forgets it, ``read`` returns the
    last write (or None when the device may answer with its unmapped
    pattern).  The real stack routes the same bytes through flash pages,
    GC relocation, and the L2P table; any payload mismatch on a read is a
    correctness bug in that machinery.
    """

    def __init__(self, num_lbas: int, page_bytes: int):
        self.num_lbas = num_lbas
        self.page_bytes = page_bytes
        self._data: Dict[int, bytes] = {}

    def write(self, lba: int, data: bytes) -> None:
        self._check(lba)
        if len(data) != self.page_bytes:
            raise ValueError(
                "shadow store: payload must be %d bytes, got %d"
                % (self.page_bytes, len(data))
            )
        self._data[lba] = bytes(data)

    def trim(self, lba: int) -> None:
        self._check(lba)
        self._data.pop(lba, None)

    def read(self, lba: int) -> Optional[bytes]:
        """Expected payload, or None when the LBA holds no data (the device
        then answers zeros without touching flash)."""
        self._check(lba)
        return self._data.get(lba)

    def _check(self, lba: int) -> None:
        if not 0 <= lba < self.num_lbas:
            raise ValueError("shadow store: LBA %d outside %d" % (lba, self.num_lbas))


class DisturbanceAccumulator:
    """Naive per-row activation accumulator with open-row collapsing.

    The real DRAM module spreads activation accounting over an exact
    per-access path, a batched histogram path, and a closed-form hammer
    loop.  This model reimplements only the scalar contract: an access to
    (bank, row) activates unless that bank's row buffer already holds the
    row.  Counts are *cumulative* (never cleared by refresh windows), so
    they bound the module's monotonically increasing ``activations``
    counter:

    * a scalar replay with no GC and no cache must match it exactly;
    * every other configuration does at least this much work (GC adds L2P
      traffic, batch gathers re-probe rows), so ``real >= naive`` always.
    """

    def __init__(self):
        #: Cumulative activations per (bank, row).
        self.counts: Dict[Tuple[int, int], int] = {}
        self.total = 0
        self._open_rows: Dict[int, int] = {}

    def access(self, bank: int, row: int) -> bool:
        """Account one access; returns True when it activated the row."""
        if self._open_rows.get(bank) == row:
            return False
        self._open_rows[bank] = row
        key = (bank, row)
        self.counts[key] = self.counts.get(key, 0) + 1
        self.total += 1
        return True

    def access_run(self, pairs: Iterable[Tuple[int, int]]) -> int:
        """Account an in-order run of (bank, row) accesses; returns the
        number of activations after open-row collapsing."""
        activated = 0
        for bank, row in pairs:
            if self.access(bank, row):
                activated += 1
        return activated

    def bulk(self, bank: int, row: int, count: int) -> None:
        """Account ``count`` guaranteed activations of one row (the hammer
        fast path pre-collapses its pattern, so every access activates).
        Leaves the open-row state untouched, as the closed-form hammer
        does."""
        if count < 0:
            raise ValueError("activation count cannot be negative")
        if count:
            key = (bank, row)
            self.counts[key] = self.counts.get(key, 0) + count
            self.total += count

    def touched_rows(self) -> List[Tuple[int, int]]:
        return sorted(self.counts)


class ShadowTrr:
    """Brute-force reference TRR sampler: an exact, unbounded ledger.

    Tracks *every* row's activation count since its bank's window start —
    no capacity limit, no eviction, no sampling.  It mirrors the real
    sampler's call surface (:meth:`on_activation` / :meth:`on_window`)
    and trigger rule (count reaching the threshold refreshes the
    neighbours and resets), so driving both with the same activation
    stream exposes exactly what the real sampler's *sampling* loses:

    * **Safety invariant** — within a window, a row's cumulative trigger
      count under the real sampler can never exceed the shadow's.  The
      shadow triggers every ``threshold`` activations; a capacity-limited
      sampler only counts the subset it kept tracked, so it can only lag.
      The real sampler refreshing a row the shadow hasn't (yet) means it
      invented activations — a counting bug.
    * **Miss set** — :meth:`missed_against` quantifies the rows where the
      shadow out-triggered a real sampler: the victims the policy left
      unprotected, which is precisely the surface U-TRR probes measure.
    """

    def __init__(self, refresh_threshold: int = 8192, neighbor_radius: int = 1):
        if refresh_threshold < 1:
            raise ValueError("refresh threshold must be at least 1")
        if neighbor_radius < 1:
            raise ValueError("neighbor radius must be at least 1")
        self.refresh_threshold = refresh_threshold
        self.neighbor_radius = neighbor_radius
        #: (bank, row) -> activations since that bank's window start.
        self.counts: Dict[Tuple[int, int], int] = {}
        #: (bank, row) -> triggers fired in the current window.
        self.triggers: Dict[Tuple[int, int], int] = {}
        self.refreshes_issued = 0

    def on_activation(self, bank: int, row: int) -> List[int]:
        """Account one activation; returns victim rows when triggering
        (the same protocol as the real sampler)."""
        key = (bank, row)
        count = self.counts.get(key, 0) + 1
        if count < self.refresh_threshold:
            self.counts[key] = count
            return []
        self.counts[key] = 0
        self.triggers[key] = self.triggers.get(key, 0) + 1
        self.refreshes_issued += 1
        radius = self.neighbor_radius
        return [row - d for d in range(radius, 0, -1)] + [
            row + d for d in range(1, radius + 1)
        ]

    def on_window(self, bank: int) -> None:
        """A refresh window rolled in ``bank``: its ledger restarts."""
        for key in [k for k in self.counts if k[0] == bank]:
            del self.counts[key]
        for key in [k for k in self.triggers if k[0] == bank]:
            del self.triggers[key]

    def missed_against(self, real_triggers: Dict[Tuple[int, int], int]):
        """Rows the real sampler under-protected this window.

        ``real_triggers`` maps (bank, row) -> triggers the real sampler
        fired.  Returns {key: shadow_triggers - real_triggers} for every
        row where the shadow fired more — the policy's miss set.
        """
        missed: Dict[Tuple[int, int], int] = {}
        for key, fired in self.triggers.items():
            lag = fired - real_triggers.get(key, 0)
            if lag > 0:
                missed[key] = lag
        return missed
