"""Differential tests for the DRAM victim evaluator's flip marks.

:class:`RewalkModule` is the reference: each evaluation that reaches a
victim's weakest cell re-walks its weak cells from the weakest up to the
disturbance, and no flip mark ever moves past a row's minimum threshold.
:class:`DramModule` starts at the victim's mark, and on the ordered stream
does not evaluate a victim whose every cell is applied.  The property runs
random operation sequences through both on the 64-row FRAGILE module of
the batch-equivalence tests and requires the same flip events, stored
bytes, counters and mitigation state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (
    DramAddress,
    DramModule,
    FlipEvent,
    Para,
    TargetRowRefresh,
    VulnerabilityModel,
)
from repro.errors import ReproError
from repro.sim import SimClock
from repro.testkit import check_dram

from tests.test_batch_equivalence import FRAGILE, GEOMETRY, PRIME_PATTERN


class RewalkModule(DramModule):
    """The reference: re-walk every weak cell up to the disturbance."""

    def _apply_flips(self, bank, victim, disturbance, mark):
        row_vuln = self.vulnerability.row_vulnerability(bank.index, victim)
        applied = 0
        for cell in row_vuln.cells:
            if cell.threshold > disturbance:
                break  # cells are sorted by threshold
            change = bank.flip_bit(victim, cell.byte_offset, cell.bit, cell.flips_to)
            if change is None:
                continue
            old, new = change
            event = FlipEvent(
                time=self.clock.now,
                bank=bank.index,
                row=victim,
                byte_offset=cell.byte_offset,
                bit=cell.bit,
                flips_to=cell.flips_to,
                old_byte=old,
                new_byte=new,
                in_check_region=cell.byte_offset >= self._row_bytes,
            )
            self.flips.append(event)
            self._flip_counter.add()
            if self.tracer is not None:
                self.tracer.emit(
                    "dram.flip",
                    bank=bank.index,
                    row=victim,
                    byte=cell.byte_offset,
                    bit=cell.bit,
                    to=cell.flips_to,
                    check_region=event.in_check_region,
                )
            applied += 1
        return applied


def build(cls, config):
    """A module of class ``cls``.  Rows in ``config["written"]`` get
    content; in the others flips are ignored until something writes or
    allocates them."""
    vuln = VulnerabilityModel(
        FRAGILE,
        GEOMETRY,
        seed=config["seed"],
        include_check_bits=config["check_bits"],
        neighbor2_weight=config["neighbor2_weight"],
    )
    trr = None
    if config["trr"] is not None:
        trr = TargetRowRefresh(
            tracker_capacity=2,
            refresh_threshold=config["trr_threshold"],
            sampling_policy=config["trr"],
            seed=config["seed"],
        )
    para = None
    if config["para"] is not None:
        para = Para(probability=config["para"], seed=config["seed"])
    dram = cls(GEOMETRY, vuln, SimClock(), ecc=config["ecc"], trr=trr, para=para)
    for bank, row in sorted(config["written"]):
        dram.write(addr_of(dram, bank, row), PRIME_PATTERN)
    return dram


def addr_of(dram, bank, row, column=0):
    return dram.mapping.address_of(DramAddress(bank, row, column))


def apply(dram, op):
    """Run one operation; returns what the caller observes."""
    kind, args = op[0], op[1:]
    if kind == "burst":
        pattern, repeats = args
        return dram.activate_burst(pattern * repeats)
    if kind == "read":
        (bank, row), word = args
        return dram.read(addr_of(dram, bank, row, 8 * word), 8)
    if kind == "write":
        (bank, row), word, value = args
        dram.write(addr_of(dram, bank, row, 8 * word), bytes([value]) * 8)
        return None
    if kind == "rewrite":
        (bank, row), content = args
        dram.write(addr_of(dram, bank, row), content)
        return None
    if kind == "read_batch":
        (rows,) = args
        addrs = [addr_of(dram, bank, row, 8 * row) for bank, row in rows]
        return dram.read_batch(addrs, 4).tobytes()
    if kind == "write_batch":
        rows, value = args
        addrs = [addr_of(dram, bank, row, 8 * row) for bank, row in rows]
        dram.write_batch(addrs, np.full((len(addrs), 4), value, dtype=np.uint8))
        return None
    if kind == "access_batch":
        (counts,) = args
        return dram.access_batch([(bank, row, n) for (bank, row), n in counts])
    if kind == "hammer":
        pattern, accesses, rate = args
        if dram.trr is not None and dram.trr.exact_batch_replay:
            return None  # order-sensitive TRR rejects the closed form
        result = dram.hammer(pattern, accesses, rate)
        return (
            result.flips,
            result.windows,
            result.trr_capped,
            result.para_refreshes,
        )
    assert kind == "jump"
    (windows,) = args
    dram.clock.advance(windows * dram.refresh_interval)
    return None


def run(dram, ops):
    observed = []
    for op in ops:
        try:
            observed.append(apply(dram, op))
        except ReproError as exc:  # ECC-uncorrectable reads, bad patterns
            observed.append((type(exc).__name__, str(exc)))
    return observed


def state(dram):
    """Everything the flip marks could change: flip events, stored bytes,
    counters and the mitigations' state."""
    return (
        dram.flips,
        [
            {row: data.tobytes() for row, data in rows.items()}
            for bank in dram.banks
            for rows in (bank.data_rows, bank.check_rows)
        ],
        [(bank.acts, bank.victim_baseline) for bank in dram.banks],
        dram.metrics.snapshot(),
        None if dram.trr is None else dram.trr.refreshes_issued,
        None if dram.para is None else dram.para.refreshes_issued,
    )


#: The operations' rows: 0-9 and the top four of banks 0 and 1, so both
#: bank edges and victims that share aggressors.
BANKS = (0, 1)
ROW_SPAN = 10
ROW_INDICES = tuple(range(ROW_SPAN)) + tuple(
    range(GEOMETRY.rows_per_bank - 4, GEOMETRY.rows_per_bank)
)
ROWS = st.tuples(st.sampled_from(BANKS), st.sampled_from(ROW_INDICES))
ALL_ROWS = frozenset((bank, row) for bank in BANKS for row in ROW_INDICES)
#: Aggressor patterns: any rows, or both neighbours of one victim (the
#: pattern that reaches the FRAGILE thresholds in one window).
PATTERNS = st.one_of(
    st.lists(ROWS, min_size=1, max_size=4),
    st.builds(
        lambda bank, victim: [(bank, victim - 1), (bank, victim + 1)],
        st.sampled_from(BANKS),
        st.sampled_from(
            [row for row in ROW_INDICES if {row - 1, row + 1} <= set(ROW_INDICES)]
        ),
    ),
)
WORDS = st.integers(0, GEOMETRY.row_bytes // 8 - 1)

OPERATIONS = st.one_of(
    st.tuples(st.just("burst"), PATTERNS, st.integers(16, 160)),
    st.tuples(st.just("read"), ROWS, WORDS),
    st.tuples(st.just("write"), ROWS, WORDS, st.sampled_from((0x00, 0xFF, 0xA5))),
    st.tuples(st.just("read_batch"), st.lists(ROWS, min_size=1, max_size=16)),
    st.tuples(
        st.just("write_batch"),
        st.lists(ROWS, min_size=1, max_size=8),
        st.sampled_from((0x00, 0xFF)),
    ),
    st.tuples(
        st.just("access_batch"),
        st.lists(st.tuples(ROWS, st.integers(1, 400)), min_size=1, max_size=4),
    ),
    st.tuples(
        st.just("hammer"),
        PATTERNS,
        st.integers(1, 3000),
        st.sampled_from((1e4, 1e5, 1e7)),
    ),
    st.tuples(st.just("jump"), st.sampled_from((0.3, 1.0, 2.5))),
)

CONFIGS = st.fixed_dictionaries({
    "seed": st.integers(0, 7),
    "ecc": st.booleans(),
    "check_bits": st.booleans(),
    "trr": st.sampled_from((None, "counter_lru", "random_sample")),
    "trr_threshold": st.integers(16, 80),
    "para": st.sampled_from((None, 0.02)),
    "neighbor2_weight": st.sampled_from((0.0, 0.4)),
    "written": st.sets(ROWS, max_size=6).map(ALL_ROWS.difference),
})


class TestRewalkEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(config=CONFIGS, ops=st.lists(OPERATIONS, min_size=3, max_size=12))
    def test_random_operations_match_the_rewalk_reference(self, config, ops):
        marked, reference = build(DramModule, config), build(RewalkModule, config)
        assert run(marked, ops) == run(reference, ops)
        assert state(marked) == state(reference)
        check_dram(marked)

    def test_ecc_read_makes_a_never_written_victims_check_bits_flippable(self):
        """Hammer a victim that was never written, so every cell applies
        and none flips; an ECC read allocates its check bytes, and the
        next hammer must flip the check cells that flip to 1."""
        seeds_with_check_flips = 0
        for seed in range(40):
            config = {
                "seed": seed,
                "ecc": True,
                "check_bits": True,
                "trr": None,
                "trr_threshold": None,
                "para": None,
                "neighbor2_weight": 0.0,
                "written": (),
            }
            ops = [
                ("burst", [(0, 8), (0, 10)], 200),
                ("read", (0, 9), 0),
                ("burst", [(0, 8), (0, 10)], 200),
            ]
            marked, reference = build(DramModule, config), build(RewalkModule, config)
            assert run(marked, ops) == run(reference, ops)
            assert state(marked) == state(reference), seed
            seeds_with_check_flips += any(
                flip.in_check_region for flip in reference.flips
            )
        assert seeds_with_check_flips  # the comparison covered real flips
