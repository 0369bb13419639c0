"""Target Row Refresh (TRR) mitigation.

In-DRAM TRR keeps a small sampler of "hot" rows per bank and issues an
extra refresh to the neighbours of any row whose activation count crosses a
threshold.  The crucial weakness — demonstrated by TRRespass and noted in
the paper's mitigation discussion — is that the sampler has *bounded
capacity*: a many-sided pattern with more aggressor rows than tracker
entries thrashes the sampler, so no row's count ever reaches the trigger.

"Revisiting RowHammer" (Kim et al.) showed that real TRR implementations
differ in *how* the bounded sampler picks which rows to keep, and that the
difference decides attack success.  This module models the tracker as a
parameterized component (the BlockHammer framing) so the U-TRR pipeline in
:mod:`repro.utrr` has a real reverse-engineering target:

``sampling_policy``
    * ``counter_lru`` — count table with evict-min replacement (the
      original model, and the default: byte-identical behaviour to the
      historical implementation).  When full, it evicts the entry with
      the lowest count, the oldest insertion among equal counts: it takes
      ``min`` of the counts, then the first entry in insertion order that
      holds it, as ``min(tracker, key=tracker.get)`` would.
    * ``random_sample`` — count table with seeded-random replacement when
      full; eviction pressure misses hot rows nondeterministically (but
      reproducibly, per the configured ``seed``).
    * ``first_k_per_window`` — only the first ``tracker_capacity``
      distinct rows activated in each refresh window are ever tracked;
      later arrivals are invisible to the sampler until the window rolls.

``per_bank``
    Whether each bank owns a private tracker (the default) or all banks
    share one ``tracker_capacity``-entry table.

``neighbor_radius``
    How many rows on each side of a triggering aggressor receive the
    targeted refresh (blast radius of the mitigation, default 1).

The whole configuration round-trips through JSON (:meth:`to_dict` /
:meth:`from_dict` / :func:`trr_from_config`) so scenario files, sweep
specs, and the serve frontend can vary it without code edits.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Union

#: Sampling policies a :class:`TargetRowRefresh` tracker can run.
SAMPLING_POLICIES = ("counter_lru", "random_sample", "first_k_per_window")


class TargetRowRefresh:
    """Bounded-sampler TRR.

    ``refresh_threshold`` is the per-window activation count at which the
    tracked row's neighbours get a targeted refresh.  Pick it well below the
    DRAM generation's weakest cell threshold or the mitigation is useless.
    """

    def __init__(
        self,
        tracker_capacity: int = 4,
        refresh_threshold: int = 8192,
        sampling_policy: str = "counter_lru",
        per_bank: bool = True,
        neighbor_radius: int = 1,
        seed: int = 0,
    ):
        if tracker_capacity < 1:
            raise ValueError("tracker capacity must be at least 1")
        if refresh_threshold < 1:
            raise ValueError("refresh threshold must be at least 1")
        if sampling_policy not in SAMPLING_POLICIES:
            raise ValueError(
                "unknown sampling policy %r (known: %s)"
                % (sampling_policy, list(SAMPLING_POLICIES))
            )
        if neighbor_radius < 1:
            raise ValueError("neighbor radius must be at least 1")
        self.tracker_capacity = tracker_capacity
        self.refresh_threshold = refresh_threshold
        self.sampling_policy = sampling_policy
        self.per_bank = per_bank
        self.neighbor_radius = neighbor_radius
        self.seed = seed
        self._rng = random.Random(seed)
        # Per-bank mode keys the outer dict by bank and the inner by row;
        # shared mode keeps everything in one inner dict under key 0,
        # keyed by (bank, row) so rows in different banks stay distinct.
        self._trackers: Dict[int, Dict[Any, int]] = {}
        #: Total targeted refreshes issued (observability).
        self.refreshes_issued = 0

    # ------------------------------------------------------------------
    # configuration round-trip
    # ------------------------------------------------------------------

    _CONFIG_KEYS = (
        "tracker_capacity",
        "refresh_threshold",
        "sampling_policy",
        "per_bank",
        "neighbor_radius",
        "seed",
    )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable configuration (state is not captured)."""
        return {key: getattr(self, key) for key in self._CONFIG_KEYS}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TargetRowRefresh":
        data = dict(data)
        kwargs = {key: data.pop(key) for key in cls._CONFIG_KEYS if key in data}
        if data:
            raise ValueError("unknown TRR config keys: %s" % sorted(data))
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # sampler
    # ------------------------------------------------------------------

    @property
    def exact_batch_replay(self) -> bool:
        """Whether batch paths must replay activations one-by-one.

        The historical batch approximation (cap-or-evade, decided from the
        distinct-row count alone) is only faithful for the default
        per-bank evict-min radius-1 tracker.  Every other configuration is
        order-sensitive: *which* rows the sampler holds depends on the
        activation sequence, so :meth:`repro.dram.module.DramModule` falls
        back to the exact per-activation path.
        """
        return (
            self.sampling_policy != "counter_lru"
            or not self.per_bank
            or self.neighbor_radius != 1
        )

    def on_activation(self, bank: int, row: int) -> List[int]:
        """Account one activation; returns victim rows to refresh (may be
        empty)."""
        if self.per_bank:
            slot = bank
            key: Any = row
        else:
            slot = 0
            key = (bank, row)
        try:
            tracker = self._trackers[slot]
        except KeyError:  # its first ACT, or its first since rollover
            tracker = self._trackers[slot] = {}
        count = tracker.get(key)
        if count is not None:
            count += 1
        elif len(tracker) < self.tracker_capacity:
            count = 1
        else:
            policy = self.sampling_policy
            if policy == "counter_lru":
                # Sampler full: replace the coldest entry, the first in
                # insertion order among equals.  This is the TRRespass
                # evasion point — with more aggressors than entries, every
                # row keeps getting reset to a count of 1.
                coldest = min(tracker.values())
                for evicted, held in tracker.items():
                    if held == coldest:
                        break
            elif policy == "random_sample":
                # Sampler full: replace a uniformly random entry.  Hot rows
                # get unlucky at a seeded-reproducible rate.
                evicted = self._rng.choice(list(tracker))
            else:
                # first_k_per_window, full: rows beyond the first K distinct
                # arrivals are invisible until the next refresh window.
                # This is the gap a refresh-synchronized attack fills with
                # decoy activations.
                return []
            del tracker[evicted]
            count = 1
        if count < self.refresh_threshold:
            tracker[key] = count
            return []
        tracker[key] = 0
        self.refreshes_issued += 1
        radius = self.neighbor_radius
        return [row - d for d in range(radius, 0, -1)] + [
            row + d for d in range(1, radius + 1)
        ]

    def on_window(self, bank: int) -> None:
        """Regular refresh window rollover clears the sampler."""
        if self.per_bank:
            self._trackers.pop(bank, None)
            return
        tracker = self._trackers.get(0)
        if tracker is not None:
            for key in [k for k in tracker if k[0] == bank]:
                del tracker[key]

    def evaded_by(self, distinct_rows_in_bank: int) -> bool:
        """Whether a pattern with this many distinct aggressor rows in one
        bank thrashes the sampler (used by the batch hammer fast path).

        ``first_k_per_window`` is never *fully* evaded: the first K rows
        of any pattern stay tracked for the whole window, so the batch
        approximation keeps the cap.  (Order-sensitive configurations use
        the exact path anyway — see :attr:`exact_batch_replay`.)
        """
        if self.sampling_policy == "first_k_per_window":
            return False
        return distinct_rows_in_bank > self.tracker_capacity


def trr_from_config(
    config: Union[None, Dict[str, Any], TargetRowRefresh]
) -> Optional[TargetRowRefresh]:
    """Coerce a scenario/profile JSON value into a tracker instance.

    Accepts ``None`` (no TRR), an already-built :class:`TargetRowRefresh`
    (passed through), or a config dict (:meth:`TargetRowRefresh.from_dict`).
    """
    if config is None or isinstance(config, TargetRowRefresh):
        return config
    if isinstance(config, dict):
        return TargetRowRefresh.from_dict(config)
    raise ValueError(
        "trr config must be None, a dict, or a TargetRowRefresh "
        "(got %r)" % type(config).__name__
    )
