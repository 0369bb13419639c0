"""CRC-32C (Castagnoli) — the checksum ext4 uses for metadata.

The reflected polynomial 0x82F63B78 (the same code as Intel's SSE4.2
``crc32`` instruction and ``linux/crypto/crc32c``), computed a whole block
at a time.

CRC-32C is affine over GF(2).  From a zero register, bit ``j`` of the
register after a message is the parity of ``data AND mask_j``, and each
bit's mask entry depends only on its distance from the end of the message.
``_MASKS`` holds those masks for one 4 KiB window, aligned to its end
(32 × 512 uint64 words, 128 KiB).  A shorter message is zero-padded in
front, which leaves a zero register unchanged; a longer one runs window by
window.  A starting register ``r`` acts like ``r`` XORed into the first
four bytes (little-endian); bytes of ``r`` past the end of a shorter
window stay in the register, shifted down one byte per data byte.
"""

from __future__ import annotations

import numpy as np

_POLY = 0x82F63B78
#: Bytes per window of the mask table.
_SPAN = 4096
_WORDS = _SPAN // 8


def _byte_table():
    """The register after one byte, from a zero register."""
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


def _build_masks() -> np.ndarray:
    """``masks[j, w]``: the bits of word ``w`` of a window that register
    bit ``j`` is the parity of."""
    table = _byte_table()
    # by_byte[q, k]: the register after a window whose only set bit is
    # bit k of byte q.
    by_byte = np.empty((_SPAN, 8), dtype=np.uint32)
    step = [table[1 << k] for k in range(8)]
    for q in range(_SPAN - 1, -1, -1):
        by_byte[q] = step
        step = [(r >> 8) ^ table[r & 0xFF] for r in step]
    masks = np.empty((32, _WORDS), dtype=np.uint64)
    for j in range(32):
        bits = ((by_byte >> np.uint32(j)) & np.uint32(1)).astype(np.uint8)
        masks[j] = np.packbits(bits, axis=1, bitorder="little").reshape(-1).view("<u8")
    return masks


_MASKS = _build_masks()
_PARITY8 = np.array([bin(v).count("1") & 1 for v in range(256)], dtype=np.uint8)


def _window(register: int, data: bytes) -> int:
    """The register after ``data`` (1 to ``_SPAN`` bytes)."""
    lead = min(len(data), 4)
    pad = -len(data) % 8
    buf = bytearray(pad) + data
    head = int.from_bytes(buf[pad : pad + lead], "little")
    head ^= register & ((1 << 8 * lead) - 1)
    buf[pad : pad + lead] = head.to_bytes(lead, "little")
    words = np.frombuffer(buf, dtype="<u8")
    folded = np.bitwise_xor.reduce(_MASKS[:, _WORDS - len(words) :] & words, axis=1)
    bits = _PARITY8[np.bitwise_xor.reduce(folded.view(np.uint8).reshape(32, 8), axis=1)]
    packed = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    return (register >> 8 * lead) ^ packed


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C of ``data``; chainable via the ``crc`` argument."""
    register = crc ^ 0xFFFFFFFF
    for start in range(0, len(data), _SPAN):
        register = _window(register, data[start : start + _SPAN])
    return register ^ 0xFFFFFFFF
