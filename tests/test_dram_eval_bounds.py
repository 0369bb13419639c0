"""Differential tests for the ordered stream's evaluation bounds.

:class:`EagerModule` is the reference: its banks never keep a bound, so
the ordered stream evaluates every victim with a finite flip mark on every
ACT.  :class:`DramModule` evaluates a victim only once its neighbours' ACT
sum reaches its bound.  The properties run random operation sequences
through both on the 64-row FRAGILE module of the batch-equivalence tests
and require the same observations and state; :func:`check_dram` then
checks the bounds themselves.

:class:`ReferenceTrr` is the TRR sampler's reference: an ``on_activation``
that builds a tracker dict on every call and reads a tracked row's count
twice.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import DramModule, TargetRowRefresh
from repro.dram.trr import SAMPLING_POLICIES
from repro.testkit import check_dram

from tests.test_batch_equivalence import PRIME_PATTERN
from tests.test_dram_flip_marks import (
    CONFIGS,
    OPERATIONS,
    ROWS,
    WORDS,
    build,
    run,
    state,
)


class _KeepsNothing(dict):
    """A bound table that drops every bound it is given."""

    def __setitem__(self, key, value):
        pass


class EagerModule(DramModule):
    """The reference: no victim is ever held back by a bound."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for bank in self.banks:
            bank.flip_bounds = _KeepsNothing()


#: Whole-row rewrites: the pattern the rows were written with, which
#: restores every flipped bit, or its inverse, which charges the others.
INVERSE_PATTERN = bytes(0xFF - byte for byte in PRIME_PATTERN)
REWRITES = st.tuples(
    st.just("rewrite"), ROWS, st.sampled_from((PRIME_PATTERN, INVERSE_PATTERN))
)
READS = st.tuples(st.just("read"), ROWS, WORDS)


def assert_same(config, ops):
    """Run ``ops`` through both modules; returns what the caller saw."""
    bounded, eager = build(DramModule, config), build(EagerModule, config)
    observed = run(eager, ops)
    assert run(bounded, ops) == observed
    assert state(bounded) == state(eager)
    assert [bank.flip_marks for bank in bounded.banks] == [
        bank.flip_marks for bank in eager.banks
    ]
    check_dram(bounded)
    return observed


class TestEagerEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(
        config=CONFIGS,
        ops=st.lists(st.one_of(OPERATIONS, REWRITES), min_size=3, max_size=12),
    )
    def test_random_operations_match_the_eager_reference(self, config, ops):
        assert_same(config, ops)

    @pytest.mark.fuzz
    @settings(max_examples=150, deadline=None)
    @given(
        config=st.tuples(CONFIGS, st.booleans()).map(
            lambda drawn: dict(drawn[0], ecc=drawn[0]["ecc"] or drawn[1])
        ),
        pairs=st.lists(
            st.tuples(OPERATIONS, st.one_of(REWRITES, READS)),
            min_size=2,
            max_size=8,
        ),
    )
    def test_mark_drops_between_operations_match_the_eager_reference(
        self, config, pairs
    ):
        """Every other operation rewrites a whole row or reads one, three
        times in four under ECC, where a read allocates a never-written
        row's check region: both drop the row's flip mark and bound in
        the middle of a window."""
        assert_same(config, [op for pair in pairs for op in pair])

    @staticmethod
    def config(seed, ecc, written):
        return {
            "seed": seed,
            "ecc": ecc,
            "check_bits": ecc,
            "trr": None,
            "trr_threshold": None,
            "para": None,
            "neighbor2_weight": 0.0,
            "written": written,
        }

    def test_single_sided_window_then_double_sided_window(self):
        """Single-sided hammering leaves a victim a bound far above the
        neighbour ACTs that flip it double-sided in the next window."""
        flipped = 0
        for seed in range(20):
            ops = [
                ("burst", [(0, 8)], 100),
                ("jump", 1.0),
                ("burst", [(0, 8), (0, 10)], 40),
            ]
            _first, _jump, again = assert_same(self.config(seed, False, {(0, 9)}), ops)
            flipped += any(flip.row == 9 for flip in again)
        assert flipped

    def test_rewrite_then_hammer_in_one_window(self):
        """Rewriting a victim restores its flipped bits; hammering on in
        the same window flips them again at once."""
        reflipped = 0
        for seed in range(20):
            ops = [
                ("burst", [(0, 8), (0, 10)], 60),
                ("rewrite", (0, 9), PRIME_PATTERN),
                ("burst", [(0, 8), (0, 10)], 2),
            ]
            _first, _write, again = assert_same(self.config(seed, False, {(0, 9)}), ops)
            reflipped += any(flip.row == 9 for flip in again)
        assert reflipped

    def test_ecc_read_of_a_never_written_victim_then_hammer(self):
        """Every cell of a never-written victim is applied without a flip;
        an ECC read allocates its check region, whose cells then flip."""
        check_flips = 0
        for seed in range(40):
            ops = [
                ("burst", [(0, 8), (0, 10)], 200),
                ("read", (0, 9), 0),
                ("burst", [(0, 8), (0, 10)], 200),
            ]
            _first, _read, again = assert_same(self.config(seed, True, ()), ops)
            check_flips += any(flip.in_check_region for flip in again)
        assert check_flips

    def test_ecc_write_then_hammer(self):
        """An ECC write re-encodes the victim's check bytes and rewrites
        a word of its data; hammering on flips them again."""
        reflipped = 0
        for seed in range(20):
            ops = [
                ("burst", [(0, 8), (0, 10)], 60),
                ("write", (0, 9), 0, 0xA5),
                ("burst", [(0, 8), (0, 10)], 2),
            ]
            _first, _write, again = assert_same(self.config(seed, True, {(0, 9)}), ops)
            reflipped += any(flip.row == 9 for flip in again)
        assert reflipped


class ReferenceTrr(TargetRowRefresh):
    """The sampler that builds a tracker dict on every call."""

    def on_activation(self, bank, row):
        if self.per_bank:
            tracker = self._trackers.setdefault(bank, {})
            key = row
        else:
            tracker = self._trackers.setdefault(0, {})
            key = (bank, row)
        if key in tracker:
            tracker[key] += 1
        elif len(tracker) < self.tracker_capacity:
            tracker[key] = 1
        elif self.sampling_policy == "first_k_per_window":
            return []
        elif self.sampling_policy == "random_sample":
            evicted = self._rng.choice(list(tracker))
            del tracker[evicted]
            tracker[key] = 1
        else:
            coldest = min(tracker, key=tracker.get)
            del tracker[coldest]
            tracker[key] = 1
        if tracker[key] >= self.refresh_threshold:
            tracker[key] = 0
            self.refreshes_issued += 1
            radius = self.neighbor_radius
            return [row - d for d in range(radius, 0, -1)] + [
                row + d for d in range(1, radius + 1)
            ]
        return []


def sampler_state(trr):
    return (
        [(slot, list(tracker.items())) for slot, tracker in trr._trackers.items()],
        trr._rng.getstate(),
        trr.refreshes_issued,
    )


class TestTrrReference:
    @settings(max_examples=200, deadline=None)
    @given(
        config=st.fixed_dictionaries({
            "tracker_capacity": st.integers(1, 4),
            "refresh_threshold": st.integers(1, 6),
            "sampling_policy": st.sampled_from(SAMPLING_POLICIES),
            "per_bank": st.booleans(),
            "neighbor_radius": st.integers(1, 2),
            "seed": st.integers(0, 3),
        }),
        events=st.lists(
            st.one_of(
                st.tuples(st.just("act"), st.integers(0, 2), st.integers(0, 7)),
                st.tuples(st.just("window"), st.integers(0, 2)),
            ),
            max_size=60,
        ),
    )
    def test_on_activation_matches_the_reference(self, config, events):
        live, reference = TargetRowRefresh(**config), ReferenceTrr(**config)
        for kind, *args in events:
            if kind == "act":
                assert live.on_activation(*args) == reference.on_activation(*args)
            else:
                live.on_window(*args)
                reference.on_window(*args)
            assert sampler_state(live) == sampler_state(reference)
