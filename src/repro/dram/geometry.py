"""DRAM module geometry.

A module is ``channels x dimms x ranks x banks x rows x row_bytes``.  The
paper's testbed is 16 GiB of DDR3 organized as 2 channels x 2 DIMMs x
2 ranks x 8 banks x 2^15 rows (row size 8 KiB) — available here as
:func:`DramGeometry.paper_testbed`.

All dimensions must be powers of two so the address-mapping functions can
work on bit fields, like real memory controllers do.

The fields never change after construction, so each derived size is
computed once per instance, on first use, and then read like a field.
Equality, hashing, ``repr`` and pickling see only the fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

from repro.errors import ConfigError
from repro.units import GIB, KIB, is_power_of_two


@dataclass(frozen=True)
class DramGeometry:
    """Shape of a DRAM module.

    ``row_bytes`` is the number of bytes a single row activation brings into
    the row buffer (per our flattened view of the chips in a rank).
    """

    channels: int = 2
    dimms_per_channel: int = 2
    ranks_per_dimm: int = 2
    banks_per_rank: int = 8
    rows_per_bank: int = 2 ** 15
    row_bytes: int = 8 * KIB

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "dimms_per_channel",
            "ranks_per_dimm",
            "banks_per_rank",
            "rows_per_bank",
            "row_bytes",
        ):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ConfigError(
                    "DramGeometry.%s must be a power of two, got %r" % (name, value)
                )

    def __getstate__(self):
        # Pickle the fields only, never the cached derived sizes.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- derived sizes (computed once; see the module docstring) ------------

    @cached_property
    def total_banks(self) -> int:
        """Number of independently activatable banks in the module."""
        return (
            self.channels
            * self.dimms_per_channel
            * self.ranks_per_dimm
            * self.banks_per_rank
        )

    @cached_property
    def bank_bytes(self) -> int:
        """Capacity of one bank."""
        return self.rows_per_bank * self.row_bytes

    @cached_property
    def capacity_bytes(self) -> int:
        """Total module capacity."""
        return self.total_banks * self.bank_bytes

    @cached_property
    def row_bits(self) -> int:
        """Number of row-index bits."""
        return (self.rows_per_bank - 1).bit_length()

    @cached_property
    def bank_bits(self) -> int:
        """Number of global-bank-index bits."""
        return (self.total_banks - 1).bit_length()

    @cached_property
    def column_bits(self) -> int:
        """Number of byte-offset-within-row bits."""
        return (self.row_bytes - 1).bit_length()

    # -- canned geometries --------------------------------------------------

    @classmethod
    def paper_testbed(cls) -> "DramGeometry":
        """The HotStorage '21 testbed: 16 GiB DDR3, 2ch x 2DIMM x 2rank x
        8banks x 2^15 rows."""
        geometry = cls(
            channels=2,
            dimms_per_channel=2,
            ranks_per_dimm=2,
            banks_per_rank=8,
            rows_per_bank=2 ** 15,
            row_bytes=8 * KIB,
        )
        assert geometry.capacity_bytes == 16 * GIB
        return geometry

    @classmethod
    def small(cls, rows_per_bank: int = 256, row_bytes: int = 1 * KIB) -> "DramGeometry":
        """A deliberately tiny geometry for tests and pedagogy.

        With 1 KiB rows and 4-byte L2P entries, one row holds 256 mapping
        entries — the simplification drawn in the paper's Figure 1.
        """
        return cls(
            channels=1,
            dimms_per_channel=1,
            ranks_per_dimm=1,
            banks_per_rank=4,
            rows_per_bank=rows_per_bank,
            row_bytes=row_bytes,
        )

    @classmethod
    def ssd_onboard(cls, capacity_bytes: int = GIB, row_bytes: int = 8 * KIB) -> "DramGeometry":
        """A single-channel geometry sized like SSD-internal DRAM.

        The paper notes roughly 1 MiB of DRAM per 1 GiB of SSD capacity; an
        enterprise drive like the PM1733 carries up to 16 GiB.  This helper
        builds a module of the requested capacity with 8 banks.
        """
        banks = 8
        if capacity_bytes % (banks * row_bytes) != 0:
            raise ConfigError("capacity must be divisible by banks*row_bytes")
        rows = capacity_bytes // (banks * row_bytes)
        if not is_power_of_two(rows):
            raise ConfigError("derived rows_per_bank %d is not a power of two" % rows)
        return cls(
            channels=1,
            dimms_per_channel=1,
            ranks_per_dimm=1,
            banks_per_rank=banks,
            rows_per_bank=rows,
            row_bytes=row_bytes,
        )
