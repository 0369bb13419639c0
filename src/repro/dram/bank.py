"""One DRAM bank: sparse row storage, row buffer, activation bookkeeping.

The bank is pure state; all policy (activation accounting, mitigations,
disturbance checks, flips) lives in :class:`~repro.dram.module.DramModule`.
Rows are materialized lazily — a 16 GiB module costs memory only for the
rows actually written — and unwritten rows read as zeros.

Activation accounting
---------------------
``acts[row]`` counts activations of ``row`` in the current refresh window
(*epoch*).  For each potential victim row we additionally keep a *baseline*:
snapshots of the two neighbours' counters taken when the victim was last
refreshed (by TRR, PARA, or the window rollover).  Disturbance of a victim
is computed from counts *since its baseline*, so refreshing a victim
properly forgives all prior hammering without touching the aggressors'
counters.

Flip marks
----------
``flip_marks[row]`` is the threshold of the weakest weak cell of ``row``
that has not been applied since the row's stored bytes last changed by
anything other than a flip, and ``inf`` once every cell has been applied.
Re-applying a cell below the mark is a no-op: weak cells sit at distinct
(byte, bit) positions, :meth:`Bank.flip_bit` only ever moves a bit toward
its cell's ``flips_to``, and a region that was never allocated ignores
flips.  So the victim evaluator compares disturbance against the mark and
never re-walks cells it has already applied.  A row without a mark is
judged against its minimum threshold, which the evaluator then records as
the mark.  The mark is dropped whenever the row's data or check bytes are
written or allocated; refreshes and window rollover keep it, since they
restart disturbance but restore no flipped bit.

``flip_bounds[row]`` is the sum of the row's disturbing neighbours' window
counters below which its disturbance cannot reach its mark (``inf`` with
an ``inf`` mark); only the ordered stream sets one.  Window rollover clears
the bounds, and :meth:`Bank.drop_flip_mark` drops a bound with its mark.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.errors import DramAddressError

#: Row-buffer policies.  Under ``open`` policy, back-to-back accesses to the
#: already-open row do not re-activate it (which is why hammer patterns must
#: alternate rows); under ``closed`` policy every access activates (which is
#: what makes one-location hammering work).
OPEN_PAGE = "open"
CLOSED_PAGE = "closed"


class Bank:
    """Storage and counters for one bank."""

    def __init__(self, index: int, geometry: DramGeometry, ecc_enabled: bool = False):
        self.index = index
        self.geometry = geometry
        self.ecc_enabled = ecc_enabled
        #: Lazily allocated row data, row -> uint8[row_bytes].
        self.data_rows: Dict[int, np.ndarray] = {}
        #: ECC check bytes, row -> uint8[row_bytes // 8] (when ECC is on).
        self.check_rows: Dict[int, np.ndarray] = {}
        #: Activations per row in the current epoch.
        self.acts: Dict[int, int] = {}
        #: Victim row -> activation counters snapshotted when the victim was
        #: last refreshed mid-window: (left, right, left2, right2) — the two
        #: adjacent neighbours plus the distance-2 (Half-Double) shell.
        self.victim_baseline: Dict[int, Tuple[int, int, int, int]] = {}
        #: Victim row -> flip mark: the threshold of its weakest weak cell
        #: not applied since the row's bytes last changed other than by a
        #: flip (``inf`` once all are).  Absent: the row's minimum applies.
        self.flip_marks: Dict[int, float] = {}
        #: Victim row -> neighbour ACT sum at which its next evaluation is
        #: due.  Absent: due now.
        self.flip_bounds: Dict[int, float] = {}
        #: Epoch index currently being accounted.
        self.epoch = -1
        #: Row currently held in the row buffer, or None after precharge.
        self.open_row: Optional[int] = None

    # -- epoch management --------------------------------------------------

    def roll_epoch(self, epoch: int) -> bool:
        """Enter refresh window ``epoch``; returns True if a rollover
        happened (all per-window counters are then cleared)."""
        if epoch == self.epoch:
            return False
        self.epoch = epoch
        self.acts.clear()
        self.victim_baseline.clear()
        self.flip_bounds.clear()
        return True

    def drop_flip_mark(self, row: int) -> None:
        """Forget ``row``'s flip mark and evaluation bound: its bytes
        changed other than by a flip."""
        self.flip_marks.pop(row, None)
        self.flip_bounds.pop(row, None)

    # -- victim refresh (mitigations) ---------------------------------------

    def refresh_victim(self, row: int) -> None:
        """Record that ``row`` was refreshed mid-window: its disturbance
        restarts from the neighbours' *current* counters.  The stored
        baseline is the 4-tuple ``(left, right, left2, right2)`` covering
        both the adjacent and the distance-2 (Half-Double) shells."""
        self.victim_baseline[row] = (
            self.acts.get(row - 1, 0),
            self.acts.get(row + 1, 0),
            self.acts.get(row - 2, 0),
            self.acts.get(row + 2, 0),
        )

    def victim_side_counts(self, row: int) -> Tuple[int, int]:
        """Activations of the two neighbours since ``row``'s last refresh."""
        left = self.acts.get(row - 1, 0)
        right = self.acts.get(row + 1, 0)
        base = self.victim_baseline.get(row)
        if base is None:
            return left, right
        return left - base[0], right - base[1]

    def victim_far_counts(self, row: int) -> Tuple[int, int]:
        """Distance-2 neighbours' activations since ``row``'s last refresh
        (the Half-Double shell)."""
        left2 = self.acts.get(row - 2, 0)
        right2 = self.acts.get(row + 2, 0)
        base = self.victim_baseline.get(row)
        if base is None:
            return left2, right2
        return left2 - base[2], right2 - base[3]

    # -- storage -------------------------------------------------------------

    def _data(self, row: int, allocate: bool) -> Optional[np.ndarray]:
        array = self.data_rows.get(row)
        if array is None and allocate:
            array = np.zeros(self.geometry.row_bytes, dtype=np.uint8)
            self.data_rows[row] = array
        return array

    def check_bytes(self, row: int, allocate: bool = False) -> Optional[np.ndarray]:
        """The row's ECC check region (row_bytes/8 bytes).  Allocating it
        drops the row's flip mark: its cells become flippable."""
        array = self.check_rows.get(row)
        if array is None and allocate:
            array = np.zeros(self.geometry.row_bytes // 8, dtype=np.uint8)
            self.check_rows[row] = array
            self.drop_flip_mark(row)
        return array

    def is_allocated(self, row: int) -> bool:
        return row in self.data_rows

    def read(self, row: int, column: int, length: int) -> np.ndarray:
        """Read ``length`` bytes at (row, column); zeros if never written.

        The caller guarantees the span stays inside the row.
        """
        if column < 0 or column + length > self.geometry.row_bytes:
            raise DramAddressError(
                "read [%d, %d) exceeds row of %d bytes"
                % (column, column + length, self.geometry.row_bytes)
            )
        array = self._data(row, allocate=False)
        if array is None:
            return np.zeros(length, dtype=np.uint8)
        return array[column : column + length].copy()

    def write(self, row: int, column: int, data) -> None:
        """Write ``data`` (bytes or a uint8 array) at (row, column),
        allocating the row on first use; drops the row's flip mark."""
        length = len(data)
        if column < 0 or column + length > self.geometry.row_bytes:
            raise DramAddressError(
                "write [%d, %d) exceeds row of %d bytes"
                % (column, column + length, self.geometry.row_bytes)
            )
        array = self._data(row, allocate=True)
        # Through the row's buffer, so bytes need no array of their own.
        array.data[column : column + length] = data
        self.drop_flip_mark(row)

    # -- disturbance application ---------------------------------------------

    def flip_bit(self, row: int, byte_offset: int, bit: int, flips_to: int) -> Optional[Tuple[int, int]]:
        """Apply one disturbance flip if the stored bit is in the charged
        state.

        ``byte_offset`` beyond ``row_bytes`` indexes the ECC check region.
        Returns ``(old_byte, new_byte)`` when a bit actually changed, else
        None.  Flips in never-written rows are ignored: there is nothing
        meaningful stored, and the next write replaces the content anyway.
        """
        row_bytes = self.geometry.row_bytes
        if byte_offset >= row_bytes:
            if not self.ecc_enabled:
                return None
            array = self.check_bytes(row)
            if array is None:
                return None
            offset = byte_offset - row_bytes
        else:
            array = self._data(row, allocate=False)
            if array is None:
                return None
            offset = byte_offset
        old = int(array[offset])
        current_bit = (old >> bit) & 1
        if current_bit == flips_to:
            return None
        new = (old & ~(1 << bit)) | (flips_to << bit)
        array[offset] = new
        return old, new
