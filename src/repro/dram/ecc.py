"""SECDED (72,64) error-correcting code.

Server-grade DIMMs pair every 64-bit data word with 8 check bits, giving
single-error correction and double-error detection (SECDED).  The paper
lists strengthened ECC among the mitigations that "may also protect against
FTL rowhammering" — a single disturbance flip inside a word is silently
corrected, and only two flips in the *same* 64-bit word break through (as a
detected, uncorrectable error, which on real hardware raises a machine
check rather than silently misdirecting I/O).

The code is an extended Hamming code: 7 Hamming check bits (codeword
positions 1,2,4,...,64) over the 64 data bits placed at the non-power-of-two
positions 3,5,6,7,9,...,71, plus one overall-parity bit for double-error
detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import EccUncorrectableError

#: Decode outcomes.
CLEAN = "clean"
CORRECTED_DATA = "corrected-data"
CORRECTED_CHECK = "corrected-check"


def _build_tables() -> Tuple[List[int], dict, np.ndarray]:
    """Positions of data bits in the Hamming codeword, and the lane table.

    Returns ``(positions, position_to_index, lanes)`` where
    ``positions[i]`` is the codeword position of data bit ``i``,
    ``position_to_index`` inverts it, and ``lanes[i, v]`` is the check
    byte of the data word ``v << 8*i``.  The check byte is linear in the
    data word, so a word's check byte is the XOR of its eight bytes'
    entries.  Data bit ``i`` alone sets the Hamming check bits that spell
    its position, and the overall-parity bit when that position has an
    even number of ones.
    """
    positions = []
    pos = 1
    while len(positions) < 64:
        if pos & (pos - 1):  # skip powers of two (check-bit positions)
            positions.append(pos)
        pos += 1
    position_to_index = {p: i for i, p in enumerate(positions)}
    single = [p | (1 ^ bin(p).count("1") & 1) << 7 for p in positions]
    lanes = np.zeros((8, 256), dtype=np.uint8)
    for lane in range(8):
        for value in range(1, 256):
            low = value & -value
            lanes[lane, value] = (
                lanes[lane, value ^ low] ^ single[8 * lane + low.bit_length() - 1]
            )
    return positions, position_to_index, lanes


_POSITIONS, _POSITION_TO_INDEX, _LANES = _build_tables()
#: The lane table as Python lists, for one word at a time.
_LANE_ROWS = _LANES.tolist()
_LANE_INDEX = np.arange(8)


def _check_byte(data: int) -> int:
    """The check byte of a 64-bit word: the XOR of its bytes' lane entries."""
    check = 0
    for row, byte in zip(_LANE_ROWS, data.to_bytes(8, "little")):
        check ^= row[byte]
    return check


@dataclass
class DecodeResult:
    """Outcome of decoding one codeword."""

    data: int
    check: int
    status: str
    corrected_bit: int = -1  # data-bit index when status == CORRECTED_DATA


class SecdedCodec:
    """Encode/decode 64-bit words with an 8-bit SECDED check byte."""

    word_bytes = 8

    def encode(self, data: int) -> int:
        """Compute the check byte for a 64-bit data word."""
        if not 0 <= data < 1 << 64:
            raise ValueError("data word out of 64-bit range")
        return _check_byte(data)

    def decode(self, data: int, check: int) -> DecodeResult:
        """Verify and correct one codeword.

        Raises :class:`~repro.errors.EccUncorrectableError` on a double-bit
        error.
        """
        diff = check ^ _check_byte(data)
        syndrome = diff & 0x7F
        # The stored overall parity against the data and the stored
        # Hamming bits: the parity of the whole difference.
        overall_mismatch = bin(diff).count("1") & 1

        if syndrome == 0 and not overall_mismatch:
            return DecodeResult(data, check, CLEAN)
        if overall_mismatch:
            # Odd number of errors: assume one, locate it by the syndrome.
            if syndrome == 0:
                # The overall-parity bit itself flipped.
                return DecodeResult(data, check ^ 0x80, CORRECTED_CHECK)
            if syndrome & (syndrome - 1) == 0:
                # A Hamming check bit flipped.
                return DecodeResult(data, check ^ syndrome, CORRECTED_CHECK)
            index = _POSITION_TO_INDEX.get(syndrome)
            if index is None:
                raise EccUncorrectableError(
                    "syndrome 0x%02x names no codeword position" % syndrome
                )
            return DecodeResult(data ^ (1 << index), check, CORRECTED_DATA, index)
        # Non-zero syndrome with matching overall parity: even error count.
        raise EccUncorrectableError(
            "double-bit error detected (syndrome 0x%02x)" % syndrome
        )

    # -- array helpers (row-granularity writes) ----------------------------

    def encode_words(self, words: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`encode` over a uint64 array (returns uint8)."""
        words = np.ascontiguousarray(words, dtype="<u8")
        lane_bytes = words.view(np.uint8).reshape(words.shape + (8,))
        return np.bitwise_xor.reduce(_LANES[_LANE_INDEX, lane_bytes], axis=-1)
