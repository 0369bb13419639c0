"""NVMe namespaces: logical partitions over the shared FTL.

In the paper's cloud case study, each VM sees its own block device —
"Each VM's storage space is a partition of the shared SSD ... a block
address is only valid within its partition.  However, the underlying FTL
and its mapping table are shared across partitions."  A namespace is
exactly that: an offset + length window onto the device's single logical
address space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NvmeNamespaceError


@dataclass(frozen=True)
class Namespace:
    """One partition of the device's logical space."""

    nsid: int
    start_lba: int
    num_lbas: int

    def __post_init__(self) -> None:
        if self.nsid < 1:
            raise NvmeNamespaceError("namespace ids start at 1")
        if self.start_lba < 0 or self.num_lbas <= 0:
            raise NvmeNamespaceError("invalid namespace extent")

    @property
    def end_lba(self) -> int:
        """One past the last device LBA of this namespace."""
        return self.start_lba + self.num_lbas

    def translate(self, ns_lba: int) -> int:
        """Namespace-relative LBA -> device LBA."""
        if not 0 <= ns_lba < self.num_lbas:
            raise NvmeNamespaceError(
                "LBA %d outside namespace %d of %d blocks"
                % (ns_lba, self.nsid, self.num_lbas)
            )
        return self.start_lba + ns_lba

    def contains_device_lba(self, device_lba: int) -> bool:
        """Whether a device LBA belongs to this partition."""
        return self.start_lba <= device_lba < self.end_lba

    def overlaps(self, other: "Namespace") -> bool:
        return self.start_lba < other.end_lba and other.start_lba < self.end_lba
