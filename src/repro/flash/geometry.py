"""NAND flash geometry and physical page addressing.

The hierarchy is ``channels x chips x planes x blocks x pages``.  A flat
*physical page address* (PPA) enumerates pages plane-major:

    ppa = (((channel * chips + chip) * planes + plane) * blocks + block)
          * pages_per_block + page

:class:`PageAddress` carries the decomposed coordinates.

The fields never change after construction, so each derived size is
computed once per instance, on first use, and then read like a field.
Equality, hashing, ``repr`` and pickling see only the fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

from repro.errors import ConfigError, FlashAddressError
from repro.units import KIB


@dataclass(frozen=True)
class PageAddress:
    """Decomposed physical page coordinates."""

    channel: int
    chip: int
    plane: int
    block: int
    page: int


@dataclass(frozen=True)
class FlashGeometry:
    """Shape of the NAND array."""

    channels: int = 4
    chips_per_channel: int = 2
    planes_per_chip: int = 2
    blocks_per_plane: int = 64
    pages_per_block: int = 64
    page_bytes: int = 4 * KIB

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "chips_per_channel",
            "planes_per_chip",
            "blocks_per_plane",
            "pages_per_block",
            "page_bytes",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError("FlashGeometry.%s must be positive" % name)

    def __getstate__(self):
        # Pickle the fields only, never the cached derived sizes.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- derived sizes (computed once; see the module docstring) ------------

    @cached_property
    def total_chips(self) -> int:
        return self.channels * self.chips_per_channel

    @cached_property
    def total_planes(self) -> int:
        return self.total_chips * self.planes_per_chip

    @cached_property
    def total_blocks(self) -> int:
        return self.total_planes * self.blocks_per_plane

    @cached_property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    @cached_property
    def block_bytes(self) -> int:
        return self.pages_per_block * self.page_bytes

    @cached_property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_bytes

    # -- address arithmetic --------------------------------------------------

    def decompose(self, ppa: int) -> PageAddress:
        """Flat PPA -> coordinates."""
        if not 0 <= ppa < self.total_pages:
            raise FlashAddressError(
                "PPA %d outside array of %d pages" % (ppa, self.total_pages)
            )
        page = ppa % self.pages_per_block
        block_index = ppa // self.pages_per_block
        block = block_index % self.blocks_per_plane
        plane_index = block_index // self.blocks_per_plane
        plane = plane_index % self.planes_per_chip
        chip_index = plane_index // self.planes_per_chip
        chip = chip_index % self.chips_per_channel
        channel = chip_index // self.chips_per_channel
        return PageAddress(channel, chip, plane, block, page)

    def compose(self, coords: PageAddress) -> int:
        """Coordinates -> flat PPA."""
        if not 0 <= coords.channel < self.channels:
            raise FlashAddressError("channel %d out of range" % coords.channel)
        if not 0 <= coords.chip < self.chips_per_channel:
            raise FlashAddressError("chip %d out of range" % coords.chip)
        if not 0 <= coords.plane < self.planes_per_chip:
            raise FlashAddressError("plane %d out of range" % coords.plane)
        if not 0 <= coords.block < self.blocks_per_plane:
            raise FlashAddressError("block %d out of range" % coords.block)
        if not 0 <= coords.page < self.pages_per_block:
            raise FlashAddressError("page %d out of range" % coords.page)
        index = coords.channel
        index = index * self.chips_per_channel + coords.chip
        index = index * self.planes_per_chip + coords.plane
        index = index * self.blocks_per_plane + coords.block
        return index * self.pages_per_block + coords.page

    def block_of_ppa(self, ppa: int) -> int:
        """Flat global block index of a PPA."""
        if not 0 <= ppa < self.total_pages:
            raise FlashAddressError("PPA %d out of range" % ppa)
        return ppa // self.pages_per_block

    def first_ppa_of_block(self, global_block: int) -> int:
        """Flat PPA of page 0 of a global block index."""
        if not 0 <= global_block < self.total_blocks:
            raise FlashAddressError("block %d out of range" % global_block)
        return global_block * self.pages_per_block

    @classmethod
    def for_capacity(cls, capacity_bytes: int, page_bytes: int = 4 * KIB) -> "FlashGeometry":
        """Build a geometry of at least ``capacity_bytes`` with defaults
        elsewhere; used by scenario builders."""
        base = cls(page_bytes=page_bytes)
        scale = -(-capacity_bytes // base.capacity_bytes)
        return cls(
            channels=base.channels,
            chips_per_channel=base.chips_per_channel,
            planes_per_chip=base.planes_per_chip,
            blocks_per_plane=base.blocks_per_plane * scale,
            pages_per_block=base.pages_per_block,
            page_bytes=page_bytes,
        )
