"""The headline property: compiled DSL twins ARE the hand-coded plans.

For every attack shape the paper exercises — double-sided, single-sided,
many-sided, one-location — executing the hand-coded
:class:`~repro.attack.hammer.HammerPlan` and executing the compiled DSL
program :func:`~repro.payload.builders.program_from_plan` derives from it
must be *indistinguishable*: identical flip events, identical simulated
clock, identical metric snapshots, and byte-identical trace JSONL files.
Hypothesis drives the comparison across randomized seeds, I/O budgets,
and DRAM geometries so the guarantee is a property of the pipeline, not
of one lucky configuration.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.attack.hammer import (
    double_sided_plan,
    many_sided_plan,
    one_location_plan,
    single_sided_plan,
)
from repro.attack.profile import DeviceProfile
from repro.attack.recon import find_cross_partition_triples
from repro.payload import compile_program, execute_payload, program_from_plan
from repro.scenarios import build_cloud_testbed

SHAPES = ("double_sided", "single_sided", "many_sided", "one_location")

#: Seed the CI diff gate uses: recon's best triple actually flips here,
#: so the equivalence comparison covers nonzero flip sets.
GATE_SEED = 13


def _fresh(seed, dram_banks, dram_row_bytes, trace_path):
    testbed = build_cloud_testbed(
        seed=seed,
        dram_banks=dram_banks,
        dram_row_bytes=dram_row_bytes,
        trace_path=trace_path,
    )
    # Pure address arithmetic: recon here never touches the device, so
    # running it on both testbeds cannot perturb the traces.
    profile = DeviceProfile.from_device(testbed.controller)
    triples = [
        t
        for t in find_cross_partition_triples(
            profile, testbed.attacker_ns, testbed.victim_ns
        )
        if t.left_lbas and t.right_lbas
    ]
    return testbed, triples


def _plan_for(shape, testbed, triples):
    ns = testbed.attacker_ns
    if shape == "double_sided":
        return double_sided_plan(triples[0], ns)
    if shape == "single_sided":
        return single_sided_plan(triples[0], ns)
    if shape == "many_sided":
        return many_sided_plan(triples[:2], ns)
    return one_location_plan(triples[0].aggressor_pair[0], ns)


def _finish(testbed):
    snapshot = testbed.controller.stack_snapshot()
    testbed.tracer.close(metrics=snapshot)
    return snapshot


def _run_sides(shape, seed, ios, dram_banks=2, dram_row_bytes=256):
    """Run hand-coded and compiled-DSL sides on twin testbeds.

    Returns ``(hand, dsl)`` observation tuples
    ``(flips, clock, metrics, trace_bytes)`` or ``None`` when recon finds
    fewer than two usable triples under this geometry.
    """
    with tempfile.TemporaryDirectory() as tmp:
        hand_path = os.path.join(tmp, "hand.jsonl")
        dsl_path = os.path.join(tmp, "dsl.jsonl")

        hand_tb, hand_triples = _fresh(seed, dram_banks, dram_row_bytes, hand_path)
        if len(hand_triples) < 2:
            _finish(hand_tb)
            return None
        plan = _plan_for(shape, hand_tb, hand_triples)
        plan.execute(hand_tb.attacker_vm, ios)
        hand_metrics = _finish(hand_tb)

        dsl_tb, dsl_triples = _fresh(seed, dram_banks, dram_row_bytes, dsl_path)
        program = program_from_plan(_plan_for(shape, dsl_tb, dsl_triples), ios)
        compiled = compile_program(program)
        execute_payload(compiled, vm=dsl_tb.attacker_vm, trace_payload=False)
        dsl_metrics = _finish(dsl_tb)

        with open(hand_path, "rb") as handle:
            hand_bytes = handle.read()
        with open(dsl_path, "rb") as handle:
            dsl_bytes = handle.read()

    hand = (tuple(hand_tb.dram.flips), hand_tb.dram.clock.now, hand_metrics,
            hand_bytes)
    dsl = (tuple(dsl_tb.dram.flips), dsl_tb.dram.clock.now, dsl_metrics,
           dsl_bytes)
    return hand, dsl


def _assert_equivalent(shape, seed, ios, dram_banks=2, dram_row_bytes=256):
    sides = _run_sides(shape, seed, ios, dram_banks, dram_row_bytes)
    assume(sides is not None)
    hand, dsl = sides
    assert hand[0] == dsl[0], "flip events diverged"
    assert hand[1] == dsl[1], "simulated clock diverged"
    assert hand[2] == dsl[2], "metric snapshots diverged"
    assert hand[3] == dsl[3], "trace JSONL bytes diverged"
    assert hand[3], "trace file must not be empty"


_geometry = dict(
    seed=st.integers(min_value=0, max_value=199),
    ios=st.integers(min_value=40_000, max_value=260_000),
    dram_banks=st.sampled_from([2, 4]),
    dram_row_bytes=st.sampled_from([128, 256]),
)

_property = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestCompiledTwinsAreByteIdentical:
    @_property
    @given(**_geometry)
    def test_double_sided(self, seed, ios, dram_banks, dram_row_bytes):
        _assert_equivalent("double_sided", seed, ios, dram_banks, dram_row_bytes)

    @_property
    @given(**_geometry)
    def test_single_sided(self, seed, ios, dram_banks, dram_row_bytes):
        _assert_equivalent("single_sided", seed, ios, dram_banks, dram_row_bytes)

    @_property
    @given(**_geometry)
    def test_many_sided(self, seed, ios, dram_banks, dram_row_bytes):
        _assert_equivalent("many_sided", seed, ios, dram_banks, dram_row_bytes)

    @_property
    @given(**_geometry)
    def test_one_location(self, seed, ios, dram_banks, dram_row_bytes):
        _assert_equivalent("one_location", seed, ios, dram_banks, dram_row_bytes)


class TestGateSeed:
    """The CI gate's seed must compare NONZERO flip sets — equivalence of
    two empty sets proves nothing about the disturbance path."""

    def test_double_sided_flips_at_gate_seed(self):
        sides = _run_sides("double_sided", GATE_SEED, 240_000)
        assert sides is not None
        hand, dsl = sides
        assert hand[0], "gate seed must produce flips on the hand-coded side"
        assert hand == dsl

    @pytest.mark.parametrize("shape", SHAPES)
    def test_all_shapes_equivalent_at_gate_seed(self, shape):
        sides = _run_sides(shape, GATE_SEED, 120_000)
        assert sides is not None
        assert sides[0] == sides[1]


class TestProgramFromPlan:
    def test_twin_mirrors_plan_lbas_and_repeats(self):
        with tempfile.TemporaryDirectory() as tmp:
            testbed, triples = _fresh(
                GATE_SEED, 2, 256, os.path.join(tmp, "t.jsonl")
            )
            assert len(triples) >= 2
            plan = _plan_for("many_sided", testbed, triples)
            program = program_from_plan(plan, 240_000)
            _finish(testbed)
        loop = program.steps[0]
        assert tuple(read.lba for read in loop.body) == tuple(plan.lbas)
        assert loop.count == max(1, 240_000 // len(plan.lbas))
        compiled = compile_program(program)
        assert compiled.total_reads == loop.count * len(plan.lbas)
