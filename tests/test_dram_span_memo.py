"""Differential tests for the DRAM scalar path's span memo.

:class:`SegmentingModule` is the reference: the scalar path as it was
before the memo.  ``read`` and ``inspect`` split every span with
:meth:`DramModule._segments` and join the pieces, ``write`` copies its
bytes into an array first, and the batch paths locate each address with
``mapping.locate3``.  :class:`DramModule` reads each span's segments from
its span memo.  The property drives both through interleaved reads,
writes, inspections and read/write batches on in-row, row-crossing and
out-of-range spans, under all three address mappings, with ECC on and
off, and requires the same observations and state.  An out-of-range span
must raise on both sides, and the memo may hold only spans whose
segments ``_segments`` still returns.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import DramAddress, DramModule, VulnerabilityModel
from repro.dram import module as dram_module
from repro.dram.mapping import MAPPINGS, make_mapping
from repro.errors import ReproError
from repro.sim import SimClock
from repro.testkit import check_dram

from tests.test_batch_equivalence import FRAGILE, GEOMETRY, PRIME_PATTERN


class SegmentingModule(DramModule):
    """The reference: the scalar path without the span memo."""

    def read(self, phys_addr, length):
        self._reads.value += 1
        parts = []
        for bank_idx, row, column, chunk in self._segments(phys_addr, length):
            self._stream(((bank_idx, row),))
            bank = self.banks[bank_idx]
            if self.ecc_enabled:
                parts.append(self._read_ecc(bank, row, column, chunk))
                continue
            array = bank.data_rows.get(row)
            if array is None:
                parts.append(b"\x00" * chunk)
            else:
                parts.append(array[column : column + chunk].tobytes())
        return b"".join(parts)

    def write(self, phys_addr, data):
        self._writes.value += 1
        view = np.frombuffer(bytes(data), dtype=np.uint8)
        consumed = 0
        for bank_idx, row, column, chunk in self._segments(phys_addr, len(view)):
            self._stream(((bank_idx, row),))
            bank = self.banks[bank_idx]
            bank.write(row, column, view[consumed : consumed + chunk])
            if self.ecc_enabled:
                self._update_check_bytes(bank, row, column, chunk)
            consumed += chunk

    def inspect(self, phys_addr, length):
        parts = []
        for bank_idx, row, column, chunk in self._segments(phys_addr, length):
            array = self.banks[bank_idx].data_rows.get(row)
            if array is None:
                parts.append(b"\x00" * chunk)
            else:
                parts.append(array[column : column + chunk].tobytes())
        return b"".join(parts)

    def _locate_batch(self, phys_addrs, length):
        locate3 = self.mapping.locate3
        banks, rows, columns = [], [], []
        limit = self._row_bytes - length
        for addr in phys_addrs:
            bank, row, column = locate3(int(addr))
            if column > limit:
                return None
            banks.append(bank)
            rows.append(row)
            columns.append(column)
        return banks, rows, columns


ROW_BYTES = GEOMETRY.row_bytes
CAPACITY = GEOMETRY.capacity_bytes
BANKS = (0, 1)
ROW_INDICES = tuple(range(10)) + tuple(
    range(GEOMETRY.rows_per_bank - 4, GEOMETRY.rows_per_bank)
)
ROWS = st.tuples(st.sampled_from(BANKS), st.sampled_from(ROW_INDICES))

#: Spans as (bank, row, column, length), few enough that they repeat and
#: hit the memo.  In-row spans fit their row; row-crossing ones run into
#: the next physical row, which the XOR and interleaved mappings place in
#: another bank.  Out-of-range spans are raw (address, length) pairs:
#: starting before the module, at its end, past it, or running off it.
IN_ROW = st.tuples(
    ROWS, st.sampled_from(((0, 8), (8, 8), (512, 4), (ROW_BYTES - 8, 8), (0, ROW_BYTES)))
).map(lambda drawn: (*drawn[0], *drawn[1]))
CROSSING = st.tuples(
    ROWS,
    st.sampled_from(((ROW_BYTES - 4, 8), (ROW_BYTES - 1, 2), (1000, ROW_BYTES + 100))),
).map(lambda drawn: (*drawn[0], *drawn[1]))
OUT_OF_RANGE = st.sampled_from(
    ((-4, 8), (CAPACITY, 4), (CAPACITY + ROW_BYTES, 8), (CAPACITY - 4, 8))
)
SPANS = st.one_of(IN_ROW, CROSSING, OUT_OF_RANGE)

#: Batch entries: a row at a column, or an out-of-range address; every
#: span of a batch has the batch's length.
BATCH_ENTRIES = st.one_of(
    st.tuples(ROWS, st.sampled_from((0, 8, ROW_BYTES - 8, ROW_BYTES - 4))).map(
        lambda drawn: (*drawn[0], drawn[1])
    ),
    st.sampled_from(((-8,), (CAPACITY,), (CAPACITY - 4,))),
)
BATCHES = st.tuples(st.lists(BATCH_ENTRIES, min_size=1, max_size=6), st.sampled_from((4, 8)))
VALUES = st.sampled_from((0x00, 0xFF, 0xA5))
#: Double-sided hammering of one victim row: flips that reads must see.
BURSTS = st.tuples(
    st.sampled_from(BANKS), st.sampled_from((1, 5, 8, 61, 62)), st.integers(40, 160)
)

OPERATIONS = st.one_of(
    st.tuples(st.just("read"), SPANS),
    st.tuples(st.just("inspect"), SPANS),
    st.tuples(st.just("write"), SPANS, VALUES),
    st.tuples(st.just("read_batch"), BATCHES),
    st.tuples(st.just("write_batch"), BATCHES, VALUES),
    st.tuples(st.just("burst"), BURSTS),
    st.tuples(st.just("jump"), st.sampled_from((0.5, 1.0))),
)

CONFIGS = st.fixed_dictionaries({
    "mapping": st.sampled_from(sorted(MAPPINGS)),
    "ecc": st.booleans(),
    "seed": st.integers(0, 7),
    "check_bits": st.booleans(),
    #: Spans the memo holds before it clears; None keeps the module's.
    "memo_limit": st.sampled_from((None, 2, 5)),
})


def build(cls, config):
    vuln = VulnerabilityModel(
        FRAGILE, GEOMETRY, seed=config["seed"], include_check_bits=config["check_bits"]
    )
    dram = cls(
        GEOMETRY,
        vuln,
        SimClock(),
        mapping=make_mapping(config["mapping"], GEOMETRY),
        ecc=config["ecc"],
    )
    for bank in BANKS:
        for row in ROW_INDICES:
            dram.write(address(dram, (bank, row, 0)), PRIME_PATTERN)
    return dram


def address(dram, entry):
    """A span's or batch entry's physical address."""
    if len(entry) < 3:
        return entry[0]
    bank, row, column = entry[:3]
    return dram.mapping.address_of(DramAddress(bank, row, column))


def span(dram, spec):
    return address(dram, spec), spec[-1]


def apply(dram, op):
    """Run one operation; returns what the caller observes."""
    kind, args = op[0], op[1:]
    if kind == "read":
        return dram.read(*span(dram, args[0]))
    if kind == "inspect":
        return dram.inspect(*span(dram, args[0]))
    if kind == "write":
        spec, value = args
        addr, length = span(dram, spec)
        dram.write(addr, bytes([value]) * length)
        return None
    if kind in ("read_batch", "write_batch"):
        entries, length = args[0]
        addrs = [address(dram, entry) for entry in entries]
        if kind == "read_batch":
            return dram.read_batch(addrs, length).tobytes()
        dram.write_batch(addrs, np.full((len(addrs), length), args[1], dtype=np.uint8))
        return None
    if kind == "burst":
        bank, victim, repeats = args[0]
        return dram.activate_burst([(bank, victim - 1), (bank, victim + 1)] * repeats)
    assert kind == "jump"
    dram.clock.advance(args[0] * dram.refresh_interval)
    return None


def run(dram, ops):
    observed = []
    for op in ops:
        try:
            observed.append(apply(dram, op))
        except ReproError as exc:  # out-of-range spans, uncorrectable reads
            observed.append(type(exc).__name__)
    return observed


def state(dram):
    return (
        dram.flips,
        [
            {row: data.tobytes() for row, data in rows.items()}
            for bank in dram.banks
            for rows in (bank.data_rows, bank.check_rows)
        ],
        [
            (bank.acts, bank.victim_baseline, bank.flip_marks, bank.flip_bounds, bank.open_row)
            for bank in dram.banks
        ],
        dram.metrics.snapshot(),
    )


@contextmanager
def memo_limit(limit):
    if limit is None:
        yield
        return
    with mock.patch.object(dram_module, "_SPAN_MEMO_LIMIT", limit):
        yield


def assert_same(config, ops):
    with memo_limit(config["memo_limit"]):
        memoized = build(DramModule, config)
        reference = build(SegmentingModule, config)
        observed = run(reference, ops)
        assert run(memoized, ops) == observed
    assert state(memoized) == state(reference)
    check_dram(memoized)
    # The memo holds only spans whose segments it still returns: none that
    # raised, and no stale split.
    for (phys_addr, length), segments in memoized._spans.items():
        assert segments == memoized._segments(phys_addr, length)
    return observed


class TestSpanMemoEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(config=CONFIGS, ops=st.lists(OPERATIONS, min_size=3, max_size=14))
    def test_random_operations_match_the_segmenting_reference(self, config, ops):
        assert_same(config, ops)

    @pytest.mark.fuzz
    @settings(max_examples=150, deadline=None)
    @given(config=CONFIGS, ops=st.lists(OPERATIONS, min_size=8, max_size=20))
    def test_long_operation_sequences_match_the_segmenting_reference(self, config, ops):
        assert_same(config, ops)

    @pytest.mark.parametrize("name", sorted(MAPPINGS))
    def test_out_of_range_span_raises_every_time(self, name):
        """A span that raised is not stored, so the same span raises on
        every later read, write and inspection too."""
        config = {"mapping": name, "ecc": False, "seed": 0, "check_bits": False,
                  "memo_limit": None}
        ops = [(kind, spec) for spec in ((CAPACITY - 4, 8), (CAPACITY, 4))
               for kind in ("read", "inspect", "read", "inspect")]
        ops += [("write", (CAPACITY - 4, 8), 0xFF)] * 2
        assert assert_same(config, ops) == ["DramAddressError"] * len(ops)

    def test_batch_run_off_the_end_reads_the_spans_before_it(self):
        """A batch span that starts inside the module and runs past its
        end falls back to the scalar loop, which reads the spans before it
        and then raises; one that starts past the end raises before any
        ACT."""
        config = {"mapping": "sequential", "ecc": False, "seed": 0,
                  "check_bits": False, "memo_limit": None}
        dram = build(DramModule, config)
        reads, acts = dram._reads.value, dram._activations.value
        with pytest.raises(ReproError):
            dram.read_batch([address(dram, (0, 3, 0)), CAPACITY - 4], 8)
        assert (dram._reads.value - reads, dram._activations.value - acts) == (2, 1)
        with pytest.raises(ReproError):
            dram.read_batch([address(dram, (0, 5, 0)), CAPACITY], 8)
        assert (dram._reads.value - reads, dram._activations.value - acts) == (2, 1)
        for ops in (
            [("read_batch", ([(0, 3, 0), (CAPACITY - 4,)], 8))],
            [("read_batch", ([(0, 5, 0), (CAPACITY,)], 8))],
        ):
            assert_same(config, ops)

    def test_zero_length_batch_accounts_as_its_loop(self):
        """A zero-length span has no segment, so a zero-length batch falls
        back to its scalar loop: each span is counted, no row opens."""
        config = {"mapping": "xor-bank", "ecc": False, "seed": 0,
                  "check_bits": False, "memo_limit": None}
        batch, loop = build(DramModule, config), build(DramModule, config)
        addrs = [address(batch, (0, row, 8)) for row in (2, 4, 6)]
        assert batch.read_batch(addrs, 0).shape == (3, 0)
        for addr in addrs:
            assert loop.read(addr, 0) == b""
        batch.write_batch(addrs, np.zeros((3, 0), dtype=np.uint8))
        for addr in addrs:
            loop.write(addr, b"")
        assert state(batch) == state(loop)
        assert batch._activations.value == build(DramModule, config)._activations.value
