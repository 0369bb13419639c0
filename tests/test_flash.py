"""Tests for the NAND flash substrate."""

import pickle
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigError,
    FlashAddressError,
    FlashEraseError,
    FlashProgramError,
)
from repro.flash import (
    Block,
    FlashArray,
    FlashGeometry,
    FlashTiming,
    PAGE_ERASED,
    PAGE_PROGRAMMED,
)

SMALL = FlashGeometry(
    channels=2,
    chips_per_channel=1,
    planes_per_chip=2,
    blocks_per_plane=4,
    pages_per_block=8,
    page_bytes=512,
)


class TestGeometry:
    def test_totals(self):
        assert SMALL.total_chips == 2
        assert SMALL.total_planes == 4
        assert SMALL.total_blocks == 16
        assert SMALL.total_pages == 128
        assert SMALL.capacity_bytes == 128 * 512

    def test_positive_dimensions_enforced(self):
        with pytest.raises(ConfigError):
            FlashGeometry(channels=0)

    @given(ppa=st.integers(min_value=0, max_value=SMALL.total_pages - 1))
    @settings(max_examples=100)
    def test_decompose_compose_roundtrip(self, ppa):
        assert SMALL.compose(SMALL.decompose(ppa)) == ppa

    def test_decompose_out_of_range(self):
        with pytest.raises(FlashAddressError):
            SMALL.decompose(SMALL.total_pages)

    def test_block_of_ppa(self):
        assert SMALL.block_of_ppa(0) == 0
        assert SMALL.block_of_ppa(8) == 1
        assert SMALL.block_of_ppa(127) == 15

    def test_first_ppa_of_block(self):
        assert SMALL.first_ppa_of_block(0) == 0
        assert SMALL.first_ppa_of_block(3) == 24

    def test_first_ppa_out_of_range(self):
        with pytest.raises(FlashAddressError):
            SMALL.first_ppa_of_block(16)

    def test_for_capacity_scales_up(self):
        base = FlashGeometry()
        bigger = FlashGeometry.for_capacity(base.capacity_bytes * 3)
        assert bigger.capacity_bytes >= base.capacity_bytes * 3

    @given(geometry=st.builds(
        FlashGeometry,
        channels=st.integers(1, 8),
        chips_per_channel=st.integers(1, 8),
        planes_per_chip=st.integers(1, 4),
        blocks_per_plane=st.integers(1, 4096),
        pages_per_block=st.integers(1, 256),
        page_bytes=st.integers(1, 16384),
    ))
    @settings(max_examples=100)
    def test_derived_sizes_are_their_products(self, geometry):
        chips = geometry.channels * geometry.chips_per_channel
        planes = chips * geometry.planes_per_chip
        blocks = planes * geometry.blocks_per_plane
        pages = blocks * geometry.pages_per_block
        assert geometry.total_chips == chips
        assert geometry.total_planes == planes
        assert geometry.total_blocks == blocks
        assert geometry.total_pages == pages
        assert geometry.block_bytes == geometry.pages_per_block * geometry.page_bytes
        assert geometry.capacity_bytes == pages * geometry.page_bytes

    def test_cached_sizes_leave_equality_hash_and_pickle_alone(self):
        read, fresh = FlashGeometry(), FlashGeometry()
        for name in ("total_chips", "total_planes", "total_blocks",
                     "total_pages", "block_bytes", "capacity_bytes"):
            getattr(read, name)
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert pickle.dumps(read) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(read))
        assert clone == read and hash(clone) == hash(read)
        assert clone.total_pages == read.total_pages


def _serve_geometry():
    """The flash geometry of the serving scenarios' device."""
    from repro.testkit.fixtures import build_stack

    _controller, _dram, ftl = build_stack(num_lbas=2048)
    return ftl.flash.geometry


@lru_cache(maxsize=32)
def _array(geometry):
    return FlashArray(geometry)


def _decomposed(geometry, ppa):
    """The reference: (chip, block on chip, page) from ``decompose``."""
    coords = geometry.decompose(ppa)
    return (
        coords.channel * geometry.chips_per_channel + coords.chip,
        coords.plane * geometry.blocks_per_plane + coords.block,
        coords.page,
    )


FLASH_GEOMETRIES = st.one_of(
    st.sampled_from([
        SMALL,
        FlashGeometry(),
        FlashGeometry.for_capacity(3 * FlashGeometry().capacity_bytes),
        _serve_geometry(),
    ]),
    st.builds(
        FlashGeometry,
        channels=st.integers(1, 4),
        chips_per_channel=st.integers(1, 3),
        planes_per_chip=st.integers(1, 3),
        blocks_per_plane=st.integers(1, 7),
        pages_per_block=st.integers(1, 9),
        page_bytes=st.just(16),
    ),
)


class TestArrayAddressing:
    """``_chip_block_page`` divides by extents cached on the array; the
    ``decompose`` coordinates are its reference."""

    @given(geometry=FLASH_GEOMETRIES, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_chip_block_page_matches_decompose(self, geometry, data):
        array = _array(geometry)
        ppa = data.draw(st.integers(0, geometry.total_pages - 1))
        chip, block, page = array._chip_block_page(ppa)
        assert chip is array.chips[chip.index]
        assert (chip.index, block, page) == _decomposed(geometry, ppa)
        global_block = geometry.block_of_ppa(ppa)
        chip_of_block, block_on_chip = array._chip_block(global_block)
        assert (chip_of_block, block_on_chip) == (chip, block)

    @given(geometry=FLASH_GEOMETRIES)
    @settings(max_examples=50, deadline=None)
    def test_out_of_range_matches_decompose(self, geometry):
        array = _array(geometry)
        for ppa in (-1, geometry.total_pages):
            with pytest.raises(FlashAddressError) as expected:
                geometry.decompose(ppa)
            with pytest.raises(FlashAddressError) as got:
                array._chip_block_page(ppa)
            assert str(got.value) == str(expected.value)
            assert str(got.value) == "PPA %d outside array of %d pages" % (
                ppa, geometry.total_pages
            )


class TestBlock:
    def make(self):
        return Block(0, pages_per_block=4, page_bytes=16, endurance=3)

    def test_erased_page_reads_ff(self):
        assert self.make().read(0) == b"\xff" * 16

    def test_program_read_roundtrip(self):
        block = self.make()
        block.program(0, b"A" * 16)
        assert block.read(0) == b"A" * 16

    def test_sequential_constraint(self):
        block = self.make()
        with pytest.raises(FlashProgramError):
            block.program(2, b"A" * 16)

    def test_no_reprogram_without_erase(self):
        block = self.make()
        block.program(0, b"A" * 16)
        with pytest.raises(FlashProgramError):
            block.program(0, b"B" * 16)

    def test_wrong_payload_size(self):
        with pytest.raises(FlashProgramError):
            self.make().program(0, b"short")

    def test_erase_resets(self):
        block = self.make()
        block.program(0, b"A" * 16)
        block.erase()
        assert block.read(0) == b"\xff" * 16
        assert block.write_pointer == 0
        assert block.erase_count == 1
        block.program(0, b"B" * 16)  # programmable again

    def test_page_states(self):
        block = self.make()
        block.program(0, b"A" * 16)
        assert block.page_state(0) == PAGE_PROGRAMMED
        assert block.page_state(1) == PAGE_ERASED

    def test_is_full(self):
        block = self.make()
        for page in range(4):
            block.program(page, bytes([page]) * 16)
        assert block.is_full

    def test_endurance_exhaustion(self):
        block = self.make()
        # Erases below the endurance limit succeed; the crossing erase
        # itself fails and grows the block bad.
        for _ in range(2):
            block.erase()
        assert not block.bad
        with pytest.raises(FlashEraseError):
            block.erase()
        assert block.bad
        with pytest.raises(FlashEraseError):
            block.erase()
        with pytest.raises(FlashProgramError):
            block.program(0, b"A" * 16)

    def test_out_of_range_page(self):
        with pytest.raises(FlashProgramError):
            self.make().read(4)


class TestArray:
    def make(self):
        return FlashArray(SMALL)

    def test_program_read_roundtrip(self):
        array = self.make()
        array.program_page(0, b"X" * 512)
        assert array.read_page(0) == b"X" * 512

    def test_blocks_on_different_chips_independent(self):
        array = self.make()
        # First page of the first block of each chip.
        a = SMALL.first_ppa_of_block(0)
        b = SMALL.first_ppa_of_block(SMALL.total_blocks - 1)
        array.program_page(a, b"A" * 512)
        array.program_page(b, b"B" * 512)
        assert array.read_page(a) == b"A" * 512
        assert array.read_page(b) == b"B" * 512

    def test_erase_block_by_global_index(self):
        array = self.make()
        array.program_page(8, b"A" * 512)  # block 1, page 0
        array.erase_block(1)
        assert array.read_page(8) == b"\xff" * 512
        assert array.block_erase_count(1) == 1

    def test_write_pointer_visibility(self):
        array = self.make()
        assert array.block_write_pointer(0) == 0
        array.program_page(0, b"A" * 512)
        assert array.block_write_pointer(0) == 1

    def test_bad_block_flag(self):
        array = FlashArray(SMALL, endurance=1)
        # With endurance 1 the very first erase is the wear-out erase.
        with pytest.raises(FlashEraseError):
            array.erase_block(0)
        assert array.block_is_bad(0)

    def test_wear_summary(self):
        array = self.make()
        array.erase_block(0)
        array.erase_block(0)
        summary = array.wear_summary()
        assert summary["max"] == 2
        assert summary["min"] == 0
        assert summary["bad_blocks"] == 0

    def test_timing_attached(self):
        timing = FlashTiming(read_page=1e-6)
        array = FlashArray(SMALL, timing=timing)
        assert array.timing.read_page == 1e-6

    def test_busy_time_accumulates(self):
        array = self.make()
        array.program_page(0, b"A" * 512)
        array.read_page(0)
        chip = array.chips[0]
        expected = array.timing.program_page + array.timing.read_page
        assert chip.busy_time == pytest.approx(expected)
