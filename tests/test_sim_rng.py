"""Tests for deterministic RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngStream, derive_seed
from repro.sim.rng import SeedPrefix


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_labels_differentiate(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_differentiates(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


class TestSeedPrefix:
    def test_matches_derive_seed(self):
        prefix = SeedPrefix(7, "sweep", "name")
        for point in range(5):
            for repeat in range(3):
                assert prefix.derive(point, repeat) == derive_seed(
                    7, "sweep", "name", point, repeat
                )

    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        labels=st.lists(
            st.one_of(st.integers(-5, 5), st.text(max_size=8)), max_size=4
        ),
        tail=st.lists(
            st.one_of(st.integers(-5, 5), st.text(max_size=8)), max_size=3
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_prefix_split_is_invisible(self, seed, labels, tail):
        assert SeedPrefix(seed, *labels).derive(*tail) == derive_seed(
            seed, *labels, *tail
        )


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(7, "x")
        b = RngStream(7, "x")
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_children_are_independent(self):
        parent = RngStream(7)
        a = parent.child("left")
        b = parent.child("right")
        assert [a.randint(0, 1 << 30) for _ in range(5)] != [
            b.randint(0, 1 << 30) for _ in range(5)
        ]

    def test_randint_range(self):
        rng = RngStream(3)
        values = [rng.randint(5, 10) for _ in range(200)]
        assert all(5 <= v < 10 for v in values)
        assert set(values) == {5, 6, 7, 8, 9}

    def test_random_in_unit_interval(self):
        rng = RngStream(3)
        assert all(0 <= rng.random() < 1 for _ in range(100))

    def test_chance_extremes(self):
        rng = RngStream(3)
        assert not any(rng.chance(0.0) for _ in range(50))
        assert all(rng.chance(1.0) for _ in range(50))

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).choice([])

    def test_choice_returns_member(self):
        rng = RngStream(1)
        seq = ["a", "b", "c"]
        assert all(rng.choice(seq) in seq for _ in range(20))

    def test_sample_indices_distinct(self):
        rng = RngStream(1)
        indices = rng.sample_indices(100, 30)
        assert len(np.unique(indices)) == 30

    def test_sample_indices_overdraw_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).sample_indices(3, 5)

    def test_shuffled_is_permutation(self):
        rng = RngStream(1)
        original = list(range(20))
        shuffled = rng.shuffled(original)
        assert sorted(shuffled) == original
        assert original == list(range(20))  # input untouched
