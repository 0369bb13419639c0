"""Tests for the SECDED(72,64) codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.ecc import (
    CLEAN,
    CORRECTED_CHECK,
    CORRECTED_DATA,
    DecodeResult,
    SecdedCodec,
)
from repro.errors import EccUncorrectableError

codec = SecdedCodec()

words = st.integers(min_value=0, max_value=(1 << 64) - 1)


def _parity64(value: int) -> int:
    for shift in (32, 16, 8, 4, 2, 1):
        value ^= value >> shift
    return value & 1


def _parity_fold(values: np.ndarray) -> np.ndarray:
    values = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        values ^= values >> np.uint64(shift)
    return values & np.uint64(1)


class ReferenceSecded:
    """The mask-and-parity SECDED codec, the reference for the lane table:
    check bit ``j`` is the parity of the data bits whose codeword position
    has bit ``j`` set."""

    def __init__(self):
        positions = [p for p in range(1, 72) if p & (p - 1)]
        self.position_to_index = {p: i for i, p in enumerate(positions)}
        self.masks = [
            sum(1 << i for i, p in enumerate(positions) if (p >> j) & 1)
            for j in range(7)
        ]

    def hamming(self, data: int) -> int:
        return sum(_parity64(data & mask) << j for j, mask in enumerate(self.masks))

    def encode(self, data: int) -> int:
        check = self.hamming(data)
        return check | (_parity64(data) ^ _parity64(check)) << 7

    def decode(self, data: int, check: int):
        syndrome = (check & 0x7F) ^ self.hamming(data)
        overall = (check >> 7) ^ _parity64(data) ^ _parity64(check & 0x7F)
        if syndrome == 0 and not overall:
            return DecodeResult(data, check, CLEAN)
        if overall:
            if syndrome == 0:
                return DecodeResult(data, check ^ 0x80, CORRECTED_CHECK)
            if syndrome & (syndrome - 1) == 0:
                return DecodeResult(data, check ^ syndrome, CORRECTED_CHECK)
            index = self.position_to_index.get(syndrome)
            if index is None:
                raise EccUncorrectableError(
                    "syndrome 0x%02x names no codeword position" % syndrome
                )
            return DecodeResult(data ^ (1 << index), check, CORRECTED_DATA, index)
        raise EccUncorrectableError(
            "double-bit error detected (syndrome 0x%02x)" % syndrome
        )

    def encode_words(self, values: np.ndarray) -> np.ndarray:
        values = values.astype(np.uint64, copy=False)
        check = np.zeros(values.shape, dtype=np.uint64)
        for j, mask in enumerate(self.masks):
            check |= _parity_fold(values & np.uint64(mask)) << np.uint64(j)
        overall = _parity_fold(values) ^ _parity_fold(check)
        return (check | (overall << np.uint64(7))).astype(np.uint8)


reference = ReferenceSecded()


def _outcome(decode, data, check):
    """The :class:`DecodeResult`, or the message of the error raised."""
    try:
        return decode(data, check)
    except EccUncorrectableError as error:
        return str(error)


def _corrupt(data: int, check: int, bits):
    """Flip codeword bits: 0-63 are data bits, 64-71 check bits."""
    for bit in bits:
        if bit < 64:
            data ^= 1 << bit
        else:
            check ^= 1 << (bit - 64)
    return data, check


class TestEncode:
    def test_zero_word(self):
        assert codec.encode(0) == 0

    def test_encode_rejects_oversized(self):
        with pytest.raises(ValueError):
            codec.encode(1 << 64)

    @given(data=words)
    @settings(max_examples=100)
    def test_clean_roundtrip(self, data):
        check = codec.encode(data)
        result = codec.decode(data, check)
        assert result.status == CLEAN
        assert result.data == data


class TestSingleBitCorrection:
    @given(data=words, bit=st.integers(min_value=0, max_value=63))
    @settings(max_examples=100)
    def test_any_single_data_bit_corrected(self, data, bit):
        check = codec.encode(data)
        corrupted = data ^ (1 << bit)
        result = codec.decode(corrupted, check)
        assert result.status == CORRECTED_DATA
        assert result.data == data
        assert result.corrected_bit == bit

    @given(data=words, bit=st.integers(min_value=0, max_value=7))
    @settings(max_examples=50)
    def test_any_single_check_bit_corrected(self, data, bit):
        check = codec.encode(data)
        corrupted_check = check ^ (1 << bit)
        result = codec.decode(data, corrupted_check)
        assert result.status == CORRECTED_CHECK
        assert result.data == data
        assert result.check == check


class TestDoubleBitDetection:
    @given(
        data=words,
        bits=st.lists(
            st.integers(min_value=0, max_value=63), min_size=2, max_size=2, unique=True
        ),
    )
    @settings(max_examples=100)
    def test_double_data_flip_detected(self, data, bits):
        check = codec.encode(data)
        corrupted = data ^ (1 << bits[0]) ^ (1 << bits[1])
        with pytest.raises(EccUncorrectableError):
            codec.decode(corrupted, check)

    def test_data_plus_check_flip_detected_or_miscorrected_consistently(self):
        # One data bit and one check bit: overall parity sees an even count,
        # syndrome is non-zero -> detected as uncorrectable.
        data = 0xDEADBEEF12345678
        check = codec.encode(data)
        corrupted = data ^ 1
        corrupted_check = check ^ 1
        with pytest.raises(EccUncorrectableError):
            codec.decode(corrupted, corrupted_check)


class TestVectorizedEncode:
    def test_matches_scalar(self):
        values = np.array(
            [0, 1, 0xFFFFFFFFFFFFFFFF, 0xDEADBEEF, 1 << 63], dtype=np.uint64
        )
        vector = codec.encode_words(values)
        scalar = [reference.encode(int(v)) for v in values]
        assert vector.tolist() == scalar
        assert reference.encode_words(values).tolist() == scalar

    @given(st.lists(words, min_size=1, max_size=16))
    @settings(max_examples=50)
    def test_matches_scalar_random(self, raw):
        values = np.array(raw, dtype=np.uint64)
        assert codec.encode_words(values).tolist() == [
            reference.encode(v) for v in raw
        ]


class TestMatchesReference:
    """The lane-table codec against the mask-and-parity reference."""

    @given(data=words)
    @settings(max_examples=40)
    def test_every_single_bit_error(self, data):
        check = reference.encode(data)
        assert codec.encode(data) == check
        corrupted = [_corrupt(data, check, [bit]) for bit in range(72)]
        for bad_data, bad_check in corrupted:
            assert _outcome(codec.decode, bad_data, bad_check) == _outcome(
                reference.decode, bad_data, bad_check
            )
        values = np.array([d for d, _ in corrupted], dtype=np.uint64)
        assert codec.encode_words(values).tolist() == (
            reference.encode_words(values).tolist()
        )

    @given(
        data=words,
        bits=st.lists(
            st.integers(min_value=0, max_value=71), min_size=2, max_size=2, unique=True
        ),
    )
    @settings(max_examples=200)
    def test_double_bit_errors(self, data, bits):
        bad_data, bad_check = _corrupt(data, reference.encode(data), bits)
        assert codec.encode(bad_data) == reference.encode(bad_data)
        assert _outcome(codec.decode, bad_data, bad_check) == _outcome(
            reference.decode, bad_data, bad_check
        )
