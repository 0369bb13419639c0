"""Malicious block crafting.

Two artifact kinds from the paper:

* a **maliciously formed indirect block** (§4.2, Figure 3): a valid ext4
  pointer array whose slots name the LBAs of "potentially privileged
  content" — pure data, nothing exotic;
* a **polyglot block** (§3.2): a block that parses as more than one thing
  at once.  The paper cites polyglot files that are "valid as executable
  code, file data, and file metadata" for the write-something-somewhere
  privilege escalation.  Ours is a simplified two-way polyglot: the same
  4 KiB is simultaneously (a) a plausible indirect pointer array and (b)
  a marked "executable" payload our simulated loader recognizes — enough
  to exercise the escalation code path without shipping real shellcode.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence

from repro.errors import AttackError

_PTR = struct.Struct("<I")

#: Marker our simulated setuid loader recognizes at a block head.  Chosen
#: so the little-endian u32 it decodes to stays a small, in-range block
#: pointer (see craft_polyglot_block).
POLYGLOT_MAGIC = b"#!PG"


def craft_indirect_block(
    target_lbas: Sequence[int], block_bytes: int, fill_lba: int = 0
) -> bytes:
    """A forged indirect block: slot i -> target_lbas[i], rest ``fill_lba``.

    Slot 0 is what a 13-block sprayed file dereferences for its logical
    block 12; later slots matter for the "wide" spray variant that can
    dump many LBAs from one flip.
    """
    pointers_per_block = block_bytes // _PTR.size
    count = len(target_lbas)
    if count > pointers_per_block:
        raise AttackError(
            "%d targets exceed the %d pointer slots of a block"
            % (count, pointers_per_block)
        )
    # Only the targets are packed; the fill is one packed slot, repeated.
    head = struct.pack("<%dI" % count, *target_lbas)
    fill = pointers_per_block - count
    return head + _PTR.pack(fill_lba) * fill if fill else head


def read_indirect_block(raw: bytes) -> List[int]:
    """Decode a block as a pointer array (what the filesystem does)."""
    count = len(raw) // _PTR.size
    return list(struct.unpack("<%dI" % count, raw[: count * _PTR.size]))


def craft_polyglot_block(
    payload_command: str, block_bytes: int, target_lbas: Optional[Sequence[int]] = None
) -> bytes:
    """A block valid both as an executable payload and as pointer data.

    Layout: ``#!PG`` magic, a u16 command length, the command text; the
    remainder is a pointer array region so the same block also works as a
    forged indirect block.  Decoded as u32 pointers, the magic reads as
    0x47502123 — large, but the command region is placed so that slot 0 of
    the *pointer view* is overridden first when ``target_lbas`` is given.
    """
    command = payload_command.encode("utf-8")
    if len(command) > block_bytes - 64:
        raise AttackError("payload command too long for one block")
    head = POLYGLOT_MAGIC + struct.pack("<H", len(command)) + command
    block = bytearray(head.ljust(block_bytes, b"\x00"))
    if target_lbas:
        # Overlay the pointer view in the tail region, after the payload.
        tail_slots = (block_bytes - len(head)) // _PTR.size
        if len(target_lbas) > tail_slots:
            raise AttackError("too many targets for the polyglot tail")
        offset = block_bytes - len(target_lbas) * _PTR.size
        for i, lba in enumerate(target_lbas):
            struct.pack_into("<I", block, offset + i * _PTR.size, lba)
    return bytes(block)


def parse_polyglot(raw: bytes) -> Optional[str]:
    """The simulated loader: returns the embedded command if ``raw`` is a
    polyglot block, else None."""
    if not raw.startswith(POLYGLOT_MAGIC):
        return None
    (length,) = struct.unpack_from("<H", raw, len(POLYGLOT_MAGIC))
    start = len(POLYGLOT_MAGIC) + 2
    if start + length > len(raw):
        return None
    return raw[start : start + length].decode("utf-8", errors="replace")


def is_malicious_block(raw: bytes, known_targets: Sequence[int]) -> bool:
    """Heuristic the scanner uses: does this block look like one of our
    forged indirect blocks (slot 0 is one of our targets)?"""
    if len(raw) < _PTR.size:
        return False
    (slot0,) = _PTR.unpack_from(raw, 0)
    return slot0 in set(known_targets)
