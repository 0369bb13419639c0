"""NVMe command and completion structures."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional


class Opcode(enum.Enum):
    """Subset of NVMe I/O opcodes the simulator implements."""

    READ = "read"
    WRITE = "write"
    #: NVMe Dataset Management / deallocate — what the OS sends for TRIM.
    DEALLOCATE = "deallocate"
    FLUSH = "flush"


class StatusCode(enum.Enum):
    """Completion statuses."""

    SUCCESS = "success"
    INVALID_NAMESPACE = "invalid-namespace"
    LBA_OUT_OF_RANGE = "lba-out-of-range"
    INVALID_FIELD = "invalid-field"
    #: Device-internal unrecoverable error (e.g. ECC machine check).
    INTERNAL_ERROR = "internal-error"
    #: End-to-end data protection (DIF) verification failed — a detected
    #: misdirected read.
    INTEGRITY_ERROR = "integrity-error"
    #: NAND media error the on-die ECC could not correct (NVMe
    #: "Unrecovered Read Error").  Transient causes make this retryable.
    MEDIA_READ_ERROR = "unrecovered-read-error"
    #: A page program failed even after the FTL's fresh-block retries
    #: (NVMe "Write Fault").
    WRITE_FAULT = "write-fault"
    #: The device could not serve the command because it is crashed or
    #: its recovery scan failed.
    RECOVERY_ERROR = "recovery-error"
    #: The namespace is write-protected: the device degraded to read-only
    #: after exhausting its spare-block pool or its room to write.
    READ_ONLY = "namespace-write-protected"


_command_ids = itertools.count(1)


@dataclass
class NvmeCommand:
    """One submission-queue entry."""

    opcode: Opcode
    nsid: int
    lba: int = 0
    data: Optional[bytes] = None
    command_id: int = field(default_factory=_command_ids.__next__)

    def __post_init__(self) -> None:
        if self.opcode is Opcode.WRITE and self.data is None:
            raise ValueError("WRITE command needs a data payload")


@dataclass
class NvmeCompletion:
    """One completion-queue entry."""

    command_id: int
    status: StatusCode
    data: Optional[bytes] = None
    #: Simulated service latency of this command, seconds.
    latency: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is StatusCode.SUCCESS
