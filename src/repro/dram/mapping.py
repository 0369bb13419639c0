"""Memory-controller address-mapping functions.

A mapping function translates a flat physical byte address into DRAM
coordinates (bank, row, column).  Real controllers use XOR combinations of
address bits to spread traffic over banks (Pessl et al., DRAMA); the paper
leans on this: because the mapping is *not monotonic*, a contiguous victim
L2P region can end up with rows physically sandwiched between rows holding
attacker-controlled entries (§4.2, "32 sets of three vulnerable rows").

Three concrete mappings are provided:

* :class:`SequentialMapping` — column, then row, then bank: a contiguous
  buffer fills consecutive rows of one bank before moving to the next bank.
  Matches the simple picture of the paper's Figure 1.
* :class:`BankInterleavedMapping` — column, then bank, then row: contiguous
  addresses stripe row-by-row across banks (the common performance layout).
* :class:`XorBankMapping` — like bank-interleaved, but the bank index is
  XORed with low row bits (DRAMA-style), which is what breaks physical-
  address monotonicity of row adjacency.

All mappings are bijections on ``[0, capacity)`` and expose the inverse
(:meth:`AddressMapping.address_of`), which tests use to verify bijectivity
and the attack toolkit uses to place aggressors.
"""

from __future__ import annotations

from typing import Tuple

from repro.dram.address import DramAddress
from repro.dram.geometry import DramGeometry
from repro.errors import DramAddressError


class AddressMapping:
    """Base class: a bijection between physical addresses and coordinates.

    The masks, shifts and capacity are copied onto the mapping at
    construction: :meth:`locate3` sits under every DRAM access, and a
    local attribute is one lookup where ``self.geometry.row_bits`` is two.
    """

    #: Short identifier used in profiles and reports.
    name = "abstract"

    def __init__(self, geometry: DramGeometry):
        self.geometry = geometry
        self._capacity = geometry.capacity_bytes
        self._col_bits = geometry.column_bits
        self._col_mask = geometry.row_bytes - 1
        self._row_bits = geometry.row_bits
        self._row_mask = geometry.rows_per_bank - 1
        self._bank_bits = geometry.bank_bits
        self._bank_mask = geometry.total_banks - 1

    def locate(self, phys_addr: int) -> DramAddress:
        """Map a physical byte address to (bank, row, column)."""
        raise NotImplementedError

    def locate3(self, phys_addr: int) -> Tuple[int, int, int]:
        """:meth:`locate` as a plain ``(bank, row, column)`` tuple.

        Hot scalar paths use this to skip the DramAddress construction;
        concrete mappings override it with the raw bit arithmetic.
        """
        coords = self.locate(phys_addr)
        return coords.bank, coords.row, coords.column

    def address_of(self, coords: DramAddress) -> int:
        """Inverse of :meth:`locate`."""
        raise NotImplementedError

    def _check_addr(self, phys_addr: int) -> None:
        if not 0 <= phys_addr < self._capacity:
            raise DramAddressError(
                "physical address 0x%x outside module of %d bytes"
                % (phys_addr, self._capacity)
            )

    def row_span_addresses(self, bank: int, row: int) -> range:
        """Physical addresses of every byte in (bank, row), as an iterable.

        Only meaningful for mappings where a row is physically contiguous;
        the default implementation walks columns through the inverse.
        """
        geometry = self.geometry
        first = self.address_of(DramAddress(bank, row, 0))
        # All three concrete mappings keep the column in the low bits, so a
        # row is a contiguous run of row_bytes addresses.
        return range(first, first + geometry.row_bytes)


class SequentialMapping(AddressMapping):
    """column | row | bank — contiguous memory fills one bank row-by-row."""

    name = "sequential"

    def locate(self, phys_addr: int) -> DramAddress:
        return DramAddress(*self.locate3(phys_addr))

    def locate3(self, phys_addr: int) -> Tuple[int, int, int]:
        self._check_addr(phys_addr)
        rest = phys_addr >> self._col_bits
        return rest >> self._row_bits, rest & self._row_mask, phys_addr & self._col_mask

    def address_of(self, coords: DramAddress) -> int:
        coords.validate(self.geometry)
        geometry = self.geometry
        return (
            ((coords.bank << geometry.row_bits) | coords.row) << geometry.column_bits
        ) | coords.column


class BankInterleavedMapping(AddressMapping):
    """column | bank | row — contiguous memory stripes across banks."""

    name = "bank-interleaved"

    def locate(self, phys_addr: int) -> DramAddress:
        return DramAddress(*self.locate3(phys_addr))

    def locate3(self, phys_addr: int) -> Tuple[int, int, int]:
        self._check_addr(phys_addr)
        rest = phys_addr >> self._col_bits
        return rest & self._bank_mask, rest >> self._bank_bits, phys_addr & self._col_mask

    def address_of(self, coords: DramAddress) -> int:
        coords.validate(self.geometry)
        geometry = self.geometry
        return (
            ((coords.row << geometry.bank_bits) | coords.bank) << geometry.column_bits
        ) | coords.column


class XorBankMapping(AddressMapping):
    """Bank XOR plus in-DRAM row remapping — the realistic layout.

    Two transforms compose here, both bijective:

    * ``bank = bank_bits(addr) XOR (row_field & (total_banks - 1))`` — the
      classic rank/bank XOR controllers use to avoid row-buffer conflicts
      (DRAMA).
    * *row remapping*: the physical row order inside the chip is a
      permutation of the logical row field — DRAM vendors remap row
      addresses internally (address mirroring / anti-row ordering).
      Modelled as a 1-bit left rotation of the row field, so the field's
      MSB becomes the physical row's LSB.

    The rotation is what breaks monotonicity — and what the attack needs:
    the upper and lower halves of the address space land on *interleaved*
    physical rows, so the three physically adjacent rows (r-1, r, r+1) of
    one bank come from physical address regions whose addresses are **not
    monotonically increasing**.  That is how rows holding an attacker
    partition's L2P entries end up sandwiching a victim-partition row
    (paper §4.2, the "contiguous run of three rows that do not have
    monotonically increasing physical addresses").
    """

    name = "xor-bank"

    def _field_to_row(self, field: int) -> int:
        bits = self._row_bits
        if bits <= 1:
            return field
        msb = (field >> (bits - 1)) & 1
        rotated = ((field << 1) & ((1 << bits) - 1)) | msb
        # Imperfect interleaving: real parts do not alternate perfectly, so
        # XOR bit 2 into the LSB (an involution on the rotated value) to
        # leave some same-half adjacencies alongside the cross-half ones.
        if bits > 2:
            rotated ^= (rotated >> 2) & 1
        return rotated

    def _row_to_field(self, row: int) -> int:
        bits = self._row_bits
        if bits <= 1:
            return row
        rotated = row
        if bits > 2:
            rotated ^= (rotated >> 2) & 1
        lsb = rotated & 1
        return (rotated >> 1) | (lsb << (bits - 1))

    def locate(self, phys_addr: int) -> DramAddress:
        return DramAddress(*self.locate3(phys_addr))

    def locate3(self, phys_addr: int) -> Tuple[int, int, int]:
        self._check_addr(phys_addr)
        column = phys_addr & self._col_mask
        rest = phys_addr >> self._col_bits
        bank_field = rest & self._bank_mask
        row_field = rest >> self._bank_bits
        row = self._field_to_row(row_field)
        bank = bank_field ^ (row_field & self._bank_mask)
        return bank, row, column

    def address_of(self, coords: DramAddress) -> int:
        coords.validate(self.geometry)
        geometry = self.geometry
        row_field = self._row_to_field(coords.row)
        bank_field = coords.bank ^ (row_field & (geometry.total_banks - 1))
        return (
            ((row_field << geometry.bank_bits) | bank_field) << geometry.column_bits
        ) | coords.column


#: Registry of mapping classes by name, for profiles/config files.
MAPPINGS = {
    cls.name: cls
    for cls in (SequentialMapping, BankInterleavedMapping, XorBankMapping)
}


def make_mapping(name: str, geometry: DramGeometry) -> AddressMapping:
    """Instantiate a mapping by registry name."""
    try:
        cls = MAPPINGS[name]
    except KeyError:
        raise DramAddressError(
            "unknown mapping %r (have: %s)" % (name, ", ".join(sorted(MAPPINGS)))
        ) from None
    return cls(geometry)
