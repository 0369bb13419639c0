"""Per-tenant block encryption (§5's "encrypting data using per-tenant
keys to protect data confidentiality").

The cipher is an XTS-style *tweakable* scheme: the keystream depends on
both the tenant key and the block's LBA, like AES-XTS's sector tweak.  The
consequence the mitigation relies on: a misdirected read returns another
block's ciphertext, which decrypts under the *reader's* (key, LBA) pair to
noise — the redirection still happens, but nothing intelligible leaks.

The keystream is SHA-256 in counter mode, which keeps the simulation
dependency-free; the tweak structure (not the cipher strength) is what the
experiment exercises.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from repro.host.blockdev import BlockDevice


@dataclass(frozen=True)
class TenantKey:
    """One tenant's data-at-rest key."""

    tenant: str
    secret: bytes

    @classmethod
    def derive(cls, tenant: str, master_secret: bytes = b"repro-master") -> "TenantKey":
        digest = hashlib.sha256(master_secret + b"/" + tenant.encode("utf-8")).digest()
        return cls(tenant=tenant, secret=digest)


#: Keystreams kept for reuse, least recently used evicted first.  A
#: filesystem reads back the blocks it just wrote, so most calls repeat a
#: recent (key, LBA); 256 page-sized streams hold about 1.2 MB.
KEYSTREAM_MEMO = 256


@functools.lru_cache(maxsize=KEYSTREAM_MEMO)
def _keystream(secret: bytes, lba: int, size: int) -> int:
    """``SHA-256(secret || lba || counter)`` for counters 0, 1, ...
    (``lba`` as 8 bytes and ``counter`` as 4, little-endian), cut to
    ``size`` bytes, as a little-endian integer.  The (key, LBA) prefix is
    hashed once and each 32-byte chunk continues from a copy of that
    state."""
    seeded = hashlib.sha256(secret + lba.to_bytes(8, "little"))
    chunks = []
    for counter in range(-(-size // 32)):
        chunk = seeded.copy()
        chunk.update(counter.to_bytes(4, "little"))
        chunks.append(chunk.digest())
    return int.from_bytes(b"".join(chunks)[:size], "little")


def encrypt_block(key: TenantKey, lba: int, plaintext: bytes) -> bytes:
    """Tweakable encryption of one block: XOR with the keystream of
    (key, LBA), cut to the block's length."""
    size = len(plaintext)
    stream = _keystream(key.secret, lba, size)
    return (int.from_bytes(plaintext, "little") ^ stream).to_bytes(size, "little")


#: XOR stream: decryption is the same operation.
decrypt_block = encrypt_block


class EncryptedBlockDevice:
    """Transparent per-tenant encryption over a :class:`BlockDevice`.

    Same interface as the plain device; the filesystem mounts on top
    without knowing.  Reads decrypt with the *requested* LBA's tweak, so a
    mapping-level redirection yields noise rather than plaintext.
    """

    def __init__(self, inner: BlockDevice, key: TenantKey):
        self.inner = inner
        self.key = key

    # -- BlockDevice interface ------------------------------------------

    @property
    def controller(self):
        return self.inner.controller

    @property
    def namespace(self):
        return self.inner.namespace

    @property
    def num_blocks(self) -> int:
        return self.inner.num_blocks

    @property
    def block_bytes(self) -> int:
        return self.inner.block_bytes

    @property
    def capacity_bytes(self) -> int:
        return self.inner.capacity_bytes

    def read_block(self, lba: int) -> bytes:
        return decrypt_block(self.key, lba, self.inner.read_block(lba))

    def write_block(self, lba: int, data: bytes) -> None:
        self.inner.write_block(lba, encrypt_block(self.key, lba, data))

    def trim_block(self, lba: int) -> None:
        self.inner.trim_block(lba)

    def read_burst(self, lbas, repeats, host_iops_cap=None):
        # Hammering does not look at payloads; pass straight through.
        return self.inner.read_burst(lbas, repeats, host_iops_cap=host_iops_cap)

    def write_burst(self, lbas, payloads):
        if isinstance(payloads, (bytes, bytearray, memoryview)):
            payloads = [bytes(payloads)] * len(lbas)
        encrypted = [
            encrypt_block(self.key, lba, data) for lba, data in zip(lbas, payloads)
        ]
        return self.inner.write_burst(lbas, encrypted)

    def trim_burst(self, lbas):
        return self.inner.trim_burst(lbas)
