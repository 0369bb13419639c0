"""Exception hierarchy for the ``repro`` package.

Every subsystem raises exceptions derived from :class:`ReproError`, so a
caller can catch ``ReproError`` to intercept any simulator-level fault while
still letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro simulators."""


class ConfigError(ReproError):
    """A component was constructed with inconsistent or invalid parameters."""


class DramError(ReproError):
    """Base class for DRAM-subsystem errors."""


class DramAddressError(DramError):
    """A physical address fell outside the DRAM module, or a geometry
    coordinate (bank/row/column) was out of range."""


class EccUncorrectableError(DramError):
    """An ECC codeword contained more errors than the code can correct.

    Mirrors the machine-check a real memory controller would raise on a
    double-bit error under SECDED.
    """

    def __init__(self, message: str, word_index: int = -1):
        super().__init__(message)
        #: Index of the 64-bit word inside the access where the error hit.
        self.word_index = word_index


class FlashError(ReproError):
    """Base class for NAND-flash errors."""


class FlashProgramError(FlashError):
    """Attempted to program a page that is not in the erased state.

    NAND pages cannot be rewritten in place; they must be erased (at block
    granularity) first.  The FTL is responsible for never triggering this.
    """


class FlashEraseError(FlashError):
    """Erase failed: the block is bad, wore out on this very erase (a
    *grown* bad block), or the block address was out of range."""


class FlashReadError(FlashError):
    """A page read failed with an uncorrectable media error.

    Models read-disturb/retention damage beyond what the on-die ECC can
    correct; the controller surfaces it as an NVMe Unrecovered Read Error
    instead of returning corrupt bytes.
    """

    def __init__(self, message: str, ppa: int = -1):
        super().__init__(message)
        #: Physical page the failed read targeted.
        self.ppa = ppa


class FlashWriteFault(FlashError):
    """A page program operation failed (NAND status fail).

    Raised only by the fault-injection plane; the FTL responds the way
    firmware does — seal the block, mark it grown-bad, and retry the
    write on a fresh block.
    """

    def __init__(self, message: str, ppa: int = -1):
        super().__init__(message)
        #: Physical page the failed program targeted.
        self.ppa = ppa


class FlashAddressError(FlashError):
    """A physical flash address was out of range."""


class FtlError(ReproError):
    """Base class for FTL errors."""


class PowerLossInterrupt(ReproError):
    """Simulated power loss cut the device off mid-flash-operation.

    Raised by the fault-injection plane *before* the interrupted program
    or erase touches media (power-loss atomicity at flash-operation
    granularity).  It is not an NVMe status: it unwinds to the crash
    harness, which must call ``crash()`` + ``recover()`` — in-flight and
    un-flushed commands were simply never acknowledged.
    """


class FtlRecoveryError(FtlError):
    """Crash recovery could not rebuild a consistent device state, or a
    command was submitted while the device is crashed (power off)."""


class FtlReadOnlyError(FtlError):
    """The device degraded to read-only mode (spare-block pool exhausted, or
    no free block left to write into even after garbage collection);
    writes and deallocations are rejected, reads still succeed."""


class NvmeError(ReproError):
    """Base class for NVMe-interface errors."""


class NvmeNamespaceError(NvmeError):
    """Unknown namespace, or an LBA outside the namespace's range."""


class FsError(ReproError):
    """Base class for filesystem errors."""


class FsPermissionError(FsError):
    """The calling user lacks permission for the requested operation."""


class FsNoSpaceError(FsError):
    """The filesystem is out of blocks or inodes."""


class FsNotFoundError(FsError):
    """Path or inode does not exist."""


class FsExistsError(FsError):
    """Attempted to create a file that already exists."""


class FsCorruptionError(FsError):
    """On-disk structure failed validation (e.g. extent-tree CRC mismatch).

    The ext4 extent tree is checksummed, so a misdirected read is *detected*
    there; indirect blocks carry no checksum, which is exactly the gap the
    paper's exploit uses.
    """


class AttackError(ReproError):
    """Base class for attack-toolkit errors."""


class ReconError(AttackError):
    """Reconnaissance failed (e.g. no rowhammerable triple found)."""
