"""Batch-vs-scalar equivalence properties of the batch I/O entry points.

The batch paths (``read_batch``/``write_batch``/``access_batch`` on the DRAM
module, ``lookup_many``/``clear_many`` on the L2P, the NVMe write and trim
bursts) must be *semantically invisible*: pushing a workload through a batch
and replaying the same workload access-by-access must yield identical flip
events, identical activation accounting, and identical bytes.  Read and
write batches run their ACTs through the same ordered stream as scalar
accesses, so this holds under TRR, PARA and ECC too; ``access_batch``
coalesces its input into a histogram and is compared with no randomized
mitigation active.  These tests pin that property on a deliberately fragile
DRAM profile so that real flips are part of what is compared.  The same
holds inside the ordered activation stream: a loop of scalar ``activate``
calls is the length-1 case of ``activate_burst``, under every TRR sampler
and PARA.

Also here: the regression test for ``FlipEvent.in_check_region`` (it must be
derived from the flip's byte offset, not default to False).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (
    SAMPLING_POLICIES,
    DramAddress,
    DramGeometry,
    DramModule,
    GenerationProfile,
    Para,
    TargetRowRefresh,
    VulnerabilityModel,
)
from repro.ftl.l2p import UNMAPPED
from repro.sim import SimClock
from tests.conftest import build_stack

GEOMETRY = DramGeometry.small(rows_per_bank=64, row_bytes=1024)

#: Every row vulnerable, flips after ~64 aggressor accesses in one window.
FRAGILE = GenerationProfile(
    name="equiv-fragile",
    year=2021,
    ddr_type="TEST",
    min_rate_kps=1.0,
    row_vulnerable_fraction=1.0,
    mean_weak_cells=4.0,
    threshold_spread=0.2,
)


def make_module(seed=7, include_check_bits=False, **kwargs):
    clock = SimClock()
    vuln = VulnerabilityModel(
        FRAGILE, GEOMETRY, seed=seed, include_check_bits=include_check_bits
    )
    return DramModule(GEOMETRY, vuln, clock, **kwargs)


#: Mitigation configurations a read/write batch must account exactly like
#: the scalar loop.  Each call builds fresh instances: TRR and PARA hold
#: per-module state.
MITIGATIONS = {
    None: lambda: {},
    "trr": lambda: {
        "trr": TargetRowRefresh(tracker_capacity=2, refresh_threshold=100)
    },
    "para": lambda: {"para": Para(probability=0.01, seed=3)},
    "ecc": lambda: {"ecc": True},
}


def make_pair(seed=7, mitigation=None):
    """Two independent but identically seeded modules (no shared state)."""
    return tuple(
        make_module(seed=seed, **MITIGATIONS[mitigation]()) for _ in range(2)
    )


#: The batch sizes compared with the scalar loop, each with no mitigation;
#: the largest also under every mitigation.  From 40 up the workload flips
#: victims.
BATCH_CASES = [pytest.param(n, None, id=str(n)) for n in (6, 40, 120)] + [
    pytest.param(120, name, id="120-" + name) for name in ("trr", "para", "ecc")
]


def assert_mitigation_matches(scalar, batch, mitigation):
    """Under TRR or PARA, both modules issued the same targeted refreshes,
    and at least one."""
    if mitigation in ("trr", "para"):
        scalar_refreshes, batch_refreshes = (
            getattr(dram, mitigation).refreshes_issued for dram in (scalar, batch)
        )
        assert scalar_refreshes == batch_refreshes > 0


def addr_of(dram, bank, row, column=0):
    return dram.mapping.address_of(DramAddress(bank, row, column))


#: Alternating fill: even bytes fully charged, odd bytes fully discharged,
#: so weak cells of either flip direction land on a chargeable stored bit
#: regardless of their (seed-random) byte offset's parity bias.
PRIME_PATTERN = bytes(
    0xFF if i % 2 == 0 else 0x00 for i in range(GEOMETRY.row_bytes)
)


def prime_rows(dram, rows):
    """Give the victim rows real content so flips have bits to change."""
    for bank, row in rows:
        dram.write(addr_of(dram, bank, row), PRIME_PATTERN)


def hammer_addrs(dram, accesses):
    """A mixed read workload: alternate two aggressor rows in bank 0 (a
    double-sided pattern on victim row 9), detour through bank 1, and
    include back-to-back same-row touches (row-buffer hits)."""
    out = []
    for i in range(accesses):
        out.append(addr_of(dram, 0, 8, (i * 8) % (GEOMETRY.row_bytes - 4)))
        out.append(addr_of(dram, 0, 10, (i * 16) % (GEOMETRY.row_bytes - 4)))
        if i % 7 == 0:
            out.append(addr_of(dram, 1, 20, 4 * i % 64))
            out.append(addr_of(dram, 1, 20, 4 * i % 64))  # row-buffer hit
    return out


def strip_times(flips):
    """Flip identity without the timestamp (clock policies differ between
    the closed-form and caller-driven paths)."""
    return [
        (f.bank, f.row, f.byte_offset, f.bit, f.flips_to, f.old_byte, f.new_byte)
        for f in flips
    ]


def counters(dram):
    snap = dram.metrics.snapshot()
    return {
        key: snap[key]
        for key in (
            "dram.reads",
            "dram.writes",
            "dram.activations",
            "dram.row_buffer_hits",
            "dram.flips",
        )
    }


class TestReadBatchEquivalence:
    @pytest.mark.parametrize("accesses, mitigation", BATCH_CASES)
    def test_mixed_reads_match_scalar_loop(self, accesses, mitigation):
        scalar, batch = make_pair(mitigation=mitigation)
        for dram in (scalar, batch):
            prime_rows(dram, [(0, 7), (0, 9), (0, 11), (1, 19), (1, 21)])
        baseline = counters(scalar)
        assert baseline == counters(batch)

        addrs = hammer_addrs(scalar, accesses)
        expected = [scalar.read(addr, 4) for addr in addrs]
        got = batch.read_batch(addrs, 4)

        assert got.shape == (len(addrs), 4)
        assert [bytes(row) for row in got] == expected
        assert scalar.flips == batch.flips
        assert counters(scalar) == counters(batch)
        assert_mitigation_matches(scalar, batch, mitigation)
        if accesses >= 40:
            # The workload is strong enough that the comparison includes
            # actual corruption, not just clean reads.
            assert scalar.flips

    def test_batch_sees_its_own_flips(self):
        """All disturbance lands before the data gather: bytes returned for
        a flipped victim must match what a scalar loop would have read."""
        scalar, batch = make_pair()
        for dram in (scalar, batch):
            prime_rows(dram, [(0, 7), (0, 9), (0, 11)])
        victim_addr = addr_of(scalar, 0, 9)
        addrs = hammer_addrs(scalar, 80) + [victim_addr]
        expected = [scalar.read(addr, 8) for addr in addrs]
        got = batch.read_batch(addrs, 8)
        assert scalar.flips
        assert [bytes(row) for row in got] == expected


class TestWriteBatchEquivalence:
    @pytest.mark.parametrize("accesses, mitigation", BATCH_CASES)
    def test_mixed_writes_match_scalar_loop(self, accesses, mitigation):
        scalar, batch = make_pair(mitigation=mitigation)
        for dram in (scalar, batch):
            prime_rows(dram, [(0, 7), (0, 9), (0, 11), (1, 19), (1, 21)])

        addrs = hammer_addrs(scalar, accesses)
        payloads = np.array(
            [[(i + j) & 0xFF for j in range(4)] for i in range(len(addrs))],
            dtype=np.uint8,
        )
        for i, addr in enumerate(addrs):
            scalar.write(addr, payloads[i].tobytes())
        batch.write_batch(addrs, payloads)

        assert scalar.flips == batch.flips
        assert counters(scalar) == counters(batch)
        assert_mitigation_matches(scalar, batch, mitigation)
        if accesses >= 40:
            assert scalar.flips
        for bank_s, bank_b in zip(scalar.banks, batch.banks):
            assert bank_s.data_rows.keys() == bank_b.data_rows.keys()
            for row, data in bank_s.data_rows.items():
                assert np.array_equal(data, bank_b.data_rows[row]), (
                    bank_s.index,
                    row,
                )


class TestAccessBatchEquivalence:
    def test_histogram_matches_single_window_hammer(self):
        """A coalesced activation histogram flips exactly what the
        closed-form hammer flips for the same per-row counts."""
        closed_form, histogram = make_pair()
        for dram in (closed_form, histogram):
            prime_rows(dram, [(0, 7), (0, 9), (0, 11)])

        # 400 alternating accesses, all inside the first refresh window.
        closed_form.hammer([(0, 8), (0, 10)], total_accesses=400, access_rate=1e9)
        flips = histogram.access_batch([(0, 8, 200), (0, 10, 200)])

        assert strip_times(closed_form.flips) == strip_times(histogram.flips)
        assert flips == histogram.flips
        assert closed_form.flips  # the comparison covered real corruption
        for bank_c, bank_h in zip(closed_form.banks, histogram.banks):
            assert bank_c.acts == bank_h.acts
        snap_c = closed_form.metrics.snapshot()
        snap_h = histogram.metrics.snapshot()
        assert snap_c["dram.activations"] == snap_h["dram.activations"]
        assert snap_c["dram.flips"] == snap_h["dram.flips"]


def cell_keys(flips):
    """The set of flipped cells, independent of order and timestamps."""
    return {(f.bank, f.row, f.byte_offset, f.bit, f.flips_to) for f in flips}


class TestSplitHammerEquivalence:
    """A hammer campaign split into bursts inside one refresh window flips
    the cells one burst of the same total flips, and the cells
    ``access_batch`` flips for the same counts — also when scalar reads
    already put activations in the window.  The closed-form skip must
    count those, not only the burst's own accesses."""

    @settings(max_examples=60, deadline=None)
    @given(
        victim=st.integers(3, GEOMETRY.rows_per_bank - 4),
        sides=st.lists(st.sampled_from((-1, 1)), max_size=160),
        bursts=st.lists(st.integers(1, 40), min_size=1, max_size=10),
    )
    def test_split_bursts_flip_like_one_burst_and_a_histogram(
        self, victim, sides, bursts
    ):
        pattern = [(0, victim - 1), (0, victim + 1)]
        split, whole, histogram = (make_module() for _ in range(3))
        for dram in (split, whole, histogram):
            prime_rows(dram, [(0, row) for row in range(victim - 3, victim + 4)])
            for side in sides:
                dram.read(addr_of(dram, 0, victim + side), 4)
        # Whole pattern repeats per burst, so every split gives each
        # aggressor the same count; 1e9 ACT/s keeps it all in window 0.
        for repeats in bursts:
            split.hammer(pattern, total_accesses=2 * repeats, access_rate=1e9)
        whole.hammer(pattern, total_accesses=2 * sum(bursts), access_rate=1e9)
        histogram.access_batch(
            [(bank, row, sum(bursts)) for bank, row in pattern]
        )

        assert split.clock.epoch(split.refresh_interval) == 0
        assert split.banks[0].acts == whole.banks[0].acts == histogram.banks[0].acts
        assert cell_keys(split.flips) == cell_keys(histogram.flips)
        assert cell_keys(whole.flips) == cell_keys(histogram.flips)


def without_row_hits(seq):
    """Drop every ACT that would hit its bank's open row, so a scalar
    access loop activates exactly what an explicit burst does."""
    open_rows = {}
    out = []
    for bank, row in seq:
        if open_rows.get(bank) != row:
            out.append((bank, row))
            open_rows[bank] = row
    return out


class TestActivateStreamEquivalence:
    """A scalar ``activate`` is the length-1 case of the ordered stream: a
    loop of them matches ``activate_burst`` on the same row-hit-free
    sequence — flips, window counters and sampler refreshes — under every
    TRR sampling policy, shared or per-bank, and PARA."""

    @pytest.mark.parametrize(
        "policy, per_bank",
        [
            (policy, per_bank)
            for policy in SAMPLING_POLICIES
            for per_bank in (True, False)
        ]
        + [(None, True)],
    )
    @settings(max_examples=20, deadline=None)
    @given(
        # A repeated access pattern over few rows, so aggressors build real
        # disturbance; row 0 is an edge.
        pattern=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 7)),
            min_size=1,
            max_size=8,
        ),
        repeats=st.integers(1, 300),
        capacity=st.integers(1, 4),
        threshold=st.integers(2, 40),
        radius=st.integers(1, 2),
        para=st.sampled_from((None, 0.01, 0.1)),
        seed=st.integers(0, 3),
    )
    def test_activate_loop_matches_burst(
        self, policy, per_bank, pattern, repeats, capacity, threshold, radius,
        para, seed,
    ):
        seq = without_row_hits(pattern * repeats)

        def run(burst):
            trr = None
            if policy is not None:
                trr = TargetRowRefresh(
                    tracker_capacity=capacity,
                    refresh_threshold=threshold,
                    sampling_policy=policy,
                    per_bank=per_bank,
                    neighbor_radius=radius,
                    seed=seed,
                )
            dram = make_module(
                trr=trr,
                para=None if para is None else Para(probability=para, seed=seed),
            )
            # Content straight into the banks: flips have bits to change,
            # and no activation or row-buffer state precedes the sequence.
            content = np.frombuffer(PRIME_PATTERN, dtype=np.uint8)
            for bank in dram.banks:
                for row in range(GEOMETRY.rows_per_bank):
                    bank.write(row, 0, content)
            if burst:
                dram.activate_burst(seq)
            else:
                for bank, row in seq:
                    dram.activate(bank, row)
            return (
                dram.flips,
                [bank.acts for bank in dram.banks],
                trr.refreshes_issued if trr is not None else None,
                dram.para.refreshes_issued if dram.para is not None else None,
                dram.metrics.counter("activations").value,
            )

        assert run(burst=False) == run(burst=True)


class TestL2pBatchEquivalence:
    @pytest.mark.parametrize("layout", ["linear", "hashed"])
    def test_lookup_many_matches_scalar(self, layout):
        controller, _dram, ftl = build_stack(layout=layout)
        payload = b"\x42" * ftl.page_bytes
        for lba in (0, 5, 17, 100, 191):
            ftl.write(lba, payload)
        ftl.flush()
        lbas = [0, 1, 5, 17, 18, 100, 150, 191]

        many = ftl.l2p.lookup_many(lbas)
        for lba, raw in zip(lbas, many.tolist()):
            scalar = ftl.l2p.lookup(lba)
            assert (scalar if scalar is not None else UNMAPPED) == raw


def logical_state(controller, ftl, nsid=1):
    """Everything the host can observe plus the FTL's bookkeeping."""
    return {
        "l2p": [ftl.l2p.peek(lba) for lba in range(ftl.num_lbas)],
        "reverse": dict(ftl.reverse),
        "valid": list(ftl.valid_count),
        "free": sorted(ftl.free_blocks),
        "data": [controller.read(nsid, lba) for lba in range(ftl.num_lbas)],
    }


class TestTrimBurstEquivalence:
    """trim_burst / clear_many were untested against their scalar twins."""

    @pytest.mark.parametrize("layout", ["linear", "hashed"])
    def test_trim_burst_matches_scalar_trims(self, layout):
        c_burst, _d1, f_burst = build_stack(layout=layout)
        c_scalar, _d2, f_scalar = build_stack(layout=layout)
        for controller in (c_burst, c_scalar):
            controller.create_namespace(1, 0, 192)
        written = [0, 1, 5, 17, 40, 41, 42, 100, 150, 191]
        for controller, ftl in ((c_burst, f_burst), (c_scalar, f_scalar)):
            for lba in written:
                controller.write(1, lba, bytes([lba & 0xFF]) * ftl.page_bytes)
        # Mix of mapped, unmapped, and duplicate targets in one burst.
        targets = [1, 5, 5, 7, 42, 42, 150, 163]
        c_burst.trim_burst(1, targets)
        for lba in targets:
            c_scalar.trim(1, lba)
        assert logical_state(c_burst, f_burst) == logical_state(c_scalar, f_scalar)

    @pytest.mark.parametrize("layout", ["linear", "hashed"])
    def test_clear_many_matches_scalar_clear(self, layout):
        _c1, _d1, ftl_many = build_stack(layout=layout)
        _c2, _d2, ftl_scalar = build_stack(layout=layout)
        lbas = [3, 9, 64, 120, 191]
        ppas = [11, 29, 47, 5, 92]
        for ftl in (ftl_many, ftl_scalar):
            for lba, ppa in zip(lbas, ppas):
                ftl.l2p.update(lba, ppa)

        # Duplicates and already-cleared entries must behave like the loop.
        targets = [9, 9, 64, 2, 191]
        ftl_many.l2p.clear_many(targets)
        for lba in targets:
            ftl_scalar.l2p.clear(lba)
        for lba in range(ftl_many.num_lbas):
            assert ftl_many.l2p.lookup(lba) == ftl_scalar.l2p.lookup(lba)

        ftl_many.l2p.clear_many([])  # empty burst is a no-op, not an error
        for lba in range(ftl_many.num_lbas):
            assert ftl_many.l2p.lookup(lba) == ftl_scalar.l2p.lookup(lba)


class TestBatchGcInterleaving:
    """Batch bursts interleaved with GC pressure stay equal to a scalar
    replay: write_burst/trim_burst trigger the same collections at the
    same points, move the same pages, and land in the same state."""

    @pytest.mark.parametrize("layout", ["linear", "hashed"])
    def test_bursts_under_gc_match_scalar_replay(self, layout):
        c_burst, _d1, f_burst = build_stack(layout=layout)
        c_scalar, _d2, f_scalar = build_stack(layout=layout)
        for controller in (c_burst, c_scalar):
            controller.create_namespace(1, 0, 192)

        def payloads_for(lbas, generation):
            return [
                bytes([(lba + generation) & 0xFF]) * f_burst.page_bytes
                for lba in lbas
            ]

        # 16 rounds of hot-set overwrites (24 LBAs, 256 flash pages total)
        # with trims punched between rounds: several GC collections fire
        # mid-sequence, interleaved with the bursts that caused them.
        hot = [lba for lba in range(0, 48, 2)]
        for generation in range(16):
            trims = hot[generation % 4 :: 4]
            c_burst.write_burst(1, hot, payloads_for(hot, generation))
            c_burst.trim_burst(1, trims)
            for lba, data in zip(hot, payloads_for(hot, generation)):
                c_scalar.write(1, lba, data)
            for lba in trims:
                c_scalar.trim(1, lba)
            assert (
                f_burst.gc_stats.collections == f_scalar.gc_stats.collections
            ), "GC fired a different number of times by round %d" % generation

        assert f_burst.gc_stats.collections > 0, "workload never triggered GC"
        assert f_burst.gc_stats.moved_pages == f_scalar.gc_stats.moved_pages
        assert logical_state(c_burst, f_burst) == logical_state(c_scalar, f_scalar)
        f_burst.check()
        f_scalar.check()


class TestCheckRegionFlag:
    def find_check_region_row(self, dram):
        """A row whose weak cells include a check-region cell that flips
        0 -> 1 (so all-zero check bytes are guaranteed to change)."""
        row_bytes = GEOMETRY.row_bytes
        for row in range(2, GEOMETRY.rows_per_bank - 2):
            cells = dram.vulnerability.row_vulnerability(0, row).cells
            if any(
                c.byte_offset >= row_bytes and c.flips_to == 1 for c in cells
            ):
                return row
        raise AssertionError("no check-region weak cell in this seed")

    def test_in_check_region_derived_from_offset(self):
        """Regression: ``in_check_region`` must be True exactly for flips
        whose byte offset indexes past the data bytes (the seed code left
        the field at its default for every event)."""
        dram = make_module(include_check_bits=True, ecc=True)
        victim = self.find_check_region_row(dram)
        row_bytes = GEOMETRY.row_bytes
        # Writing the row materializes both its data and its check bytes
        # (all-zero data encodes to all-zero check words under SECDED).
        dram.write(addr_of(dram, 0, victim), b"\x00" * row_bytes)
        dram.hammer(
            [(0, victim - 1), (0, victim + 1)],
            total_accesses=4000,
            access_rate=1e9,
        )
        check_flips = [f for f in dram.flips if f.byte_offset >= row_bytes]
        assert check_flips, "hammering did not reach the check-region cell"
        for flip in dram.flips:
            assert flip.in_check_region == (flip.byte_offset >= row_bytes)

    def test_flipped_addresses_skip_check_region(self):
        dram = make_module(include_check_bits=True, ecc=True)
        victim = self.find_check_region_row(dram)
        dram.write(addr_of(dram, 0, victim), b"\x00" * GEOMETRY.row_bytes)
        dram.hammer(
            [(0, victim - 1), (0, victim + 1)],
            total_accesses=4000,
            access_rate=1e9,
        )
        data_flips = [f for f in dram.flips if not f.in_check_region]
        addresses = dram.flipped_addresses()
        assert len(addresses) == len(data_flips)
