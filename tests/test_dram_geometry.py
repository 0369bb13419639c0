"""Tests for DRAM geometry."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import DramGeometry
from repro.errors import ConfigError
from repro.units import GIB, KIB, MIB


class TestDramGeometry:
    def test_paper_testbed_capacity(self):
        geometry = DramGeometry.paper_testbed()
        assert geometry.capacity_bytes == 16 * GIB

    def test_paper_testbed_shape(self):
        geometry = DramGeometry.paper_testbed()
        assert geometry.channels == 2
        assert geometry.dimms_per_channel == 2
        assert geometry.ranks_per_dimm == 2
        assert geometry.banks_per_rank == 8
        assert geometry.rows_per_bank == 2 ** 15

    def test_total_banks(self):
        assert DramGeometry.paper_testbed().total_banks == 64

    def test_bank_bytes(self):
        geometry = DramGeometry.small(rows_per_bank=256, row_bytes=KIB)
        assert geometry.bank_bytes == 256 * KIB

    def test_bit_widths(self):
        geometry = DramGeometry.small(rows_per_bank=256, row_bytes=KIB)
        assert geometry.row_bits == 8
        assert geometry.column_bits == 10
        assert geometry.bank_bits == 2

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            DramGeometry(rows_per_bank=1000)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ConfigError):
            DramGeometry(channels=0)

    def test_small_row_holds_256_l2p_entries(self):
        # Figure 1's simplification: one row stores 256 LBAs (4-byte entries).
        geometry = DramGeometry.small(row_bytes=KIB)
        assert geometry.row_bytes // 4 == 256

    def test_ssd_onboard_1gib(self):
        geometry = DramGeometry.ssd_onboard(capacity_bytes=GIB)
        assert geometry.capacity_bytes == GIB
        assert geometry.total_banks == 8

    def test_ssd_onboard_rejects_odd_capacity(self):
        with pytest.raises(ConfigError):
            DramGeometry.ssd_onboard(capacity_bytes=GIB + 1)

    def test_ssd_onboard_rejects_non_pow2_rows(self):
        with pytest.raises(ConfigError):
            DramGeometry.ssd_onboard(capacity_bytes=3 * MIB, row_bytes=KIB)

    def test_frozen(self):
        geometry = DramGeometry.small()
        with pytest.raises(Exception):
            geometry.channels = 4

    @given(geometry=st.builds(
        DramGeometry,
        channels=st.sampled_from([1, 2, 4]),
        dimms_per_channel=st.sampled_from([1, 2]),
        ranks_per_dimm=st.sampled_from([1, 2]),
        banks_per_rank=st.sampled_from([1, 4, 8, 16]),
        rows_per_bank=st.sampled_from([1, 2, 4, 64, 2 ** 15]),
        row_bytes=st.sampled_from([1, 64, KIB, 8 * KIB]),
    ))
    @settings(max_examples=100)
    def test_derived_sizes_are_their_products(self, geometry):
        banks = (
            geometry.channels
            * geometry.dimms_per_channel
            * geometry.ranks_per_dimm
            * geometry.banks_per_rank
        )
        assert geometry.total_banks == banks
        assert geometry.bank_bytes == geometry.rows_per_bank * geometry.row_bytes
        assert geometry.capacity_bytes == banks * geometry.rows_per_bank * geometry.row_bytes
        assert 2 ** geometry.row_bits == geometry.rows_per_bank
        assert 2 ** geometry.bank_bits == banks
        assert 2 ** geometry.column_bits == geometry.row_bytes

    def test_cached_sizes_leave_equality_hash_and_pickle_alone(self):
        # The defaults are the paper's testbed; ``fresh`` has read no size.
        read, fresh = DramGeometry.paper_testbed(), DramGeometry()
        for name in ("total_banks", "bank_bytes", "capacity_bytes",
                     "row_bits", "bank_bits", "column_bits"):
            getattr(read, name)
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert pickle.dumps(read) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(read))
        assert clone == read and hash(clone) == hash(read)
        assert clone.capacity_bytes == 16 * GIB
