"""Payload-program fuzzing: generate, mutate, check, shrink, report.

The payload pipeline's differential surface is richer than "did it
crash": a program must *compile* identically every time, *round-trip*
through JSON and DSL text without drifting, *execute* byte-identically
(flips, clock, trace JSONL) on two fresh seeded stacks, and its dynamic
I/O must *conserve* the compiler's static totals.  :func:`check_program`
asserts all of that for one program; :func:`run_payload_campaign` drives
a seeded generator + mutator (step insertion/deletion, loop-count
mutation — the ISSUE's mutation operators) across many programs and
ddmin-shrinks any divergence to a minimal JSON reproducer, mirroring
:mod:`repro.testkit.fuzzer`'s trace campaigns.

Deterministic throughout: the same seed yields byte-identical
:meth:`PayloadCampaignReport.to_json` output, which CI diffs across two
independent runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.payload.compiler import compile_program
from repro.payload.executor import execute_payload
from repro.payload.parser import format_program, parse_program
from repro.payload.program import (
    Act,
    Label,
    Loop,
    PayloadError,
    Pre,
    Program,
    Read,
    Refresh,
    Step,
    Wait,
)

#: What a payload campaign asserts, recorded in every report.
PAYLOAD_INVARIANTS = (
    "compilation is deterministic (identical encoded bytes twice)",
    "JSON round-trip preserves the program and its compiled bytes",
    "DSL text round-trip (format -> parse) preserves the program",
    "execution on two fresh seeded stacks is byte-identical "
    "(flips, clock, metrics, trace JSONL)",
    "dynamic read/act counts conserve the compiler's static totals",
    "invalid programs fail identically (same error text) on every attempt",
)

_FUZZ_NSID = 1
_FUZZ_NUM_LBAS = 192
#: Small loop counts for bodies that interpret; large only when the body
#: coalesces into one burst.
_MAX_INTERPRETED_COUNT = 6
_MAX_BURST_COUNT = 50_000


# ---------------------------------------------------------------------------
# generation & mutation
# ---------------------------------------------------------------------------


def generate_program(
    seed: int,
    target: str = "stack",
    max_steps: int = 8,
    num_lbas: int = _FUZZ_NUM_LBAS,
    banks: int = 2,
    rows: int = 256,
) -> Program:
    """Draw one seeded random program (always structurally valid)."""
    rng = random.Random(seed)
    steps = tuple(
        _random_step(rng, target, num_lbas, banks, rows, allow_loop=True)
        for _ in range(rng.randint(1, max_steps))
    )
    return Program(name="fuzz_%d" % seed, target=target, steps=steps)


def _random_step(
    rng: random.Random,
    target: str,
    num_lbas: int,
    banks: int,
    rows: int,
    allow_loop: bool,
) -> Step:
    kinds = ["leaf", "leaf", "wait", "label"]
    if allow_loop:
        kinds += ["loop", "loop"]
    kind = rng.choice(kinds)
    if kind == "loop":
        # Mostly coalescible hammer loops (big counts), sometimes a small
        # interpreted loop with mixed body.
        if rng.random() < 0.7:
            body = tuple(
                _random_leaf(rng, target, num_lbas, banks, rows)
                for _ in range(rng.randint(1, 4))
            )
            count = rng.randint(1, _MAX_BURST_COUNT)
        else:
            body = tuple(
                _random_step(rng, target, num_lbas, banks, rows, allow_loop=False)
                for _ in range(rng.randint(1, 3))
            )
            count = rng.randint(1, _MAX_INTERPRETED_COUNT)
        return Loop(count=count, body=body)
    if kind == "wait":
        return Wait(seconds=rng.randint(1, 64) / 1000.0)
    if kind == "label":
        return Label(name="l%d" % rng.randint(0, 9))
    return _random_leaf(rng, target, num_lbas, banks, rows)


def _random_leaf(
    rng: random.Random, target: str, num_lbas: int, banks: int, rows: int
) -> Step:
    if target == "stack":
        return Read(lba=rng.randrange(num_lbas))
    roll = rng.random()
    if roll < 0.7:
        return Act(bank=rng.randrange(banks), row=rng.randrange(rows))
    if roll < 0.85:
        return Pre()
    return Refresh()


def mutate_program(program: Program, seed: int, num_lbas: int = _FUZZ_NUM_LBAS,
                   banks: int = 2, rows: int = 256) -> Program:
    """One seeded mutation: insert a step, delete a step, or perturb a
    loop count (the mutation operators the fuzzer contributes)."""
    rng = random.Random(seed)
    steps = list(program.steps)
    op = rng.choice(["insert", "delete", "loop_count"])
    if op == "insert" or not steps:
        at = rng.randint(0, len(steps))
        steps.insert(
            at,
            _random_step(rng, program.target, num_lbas, banks, rows, allow_loop=True),
        )
    elif op == "delete":
        steps.pop(rng.randrange(len(steps)))
        if not steps:
            steps.append(_random_leaf(rng, program.target, num_lbas, banks, rows))
    else:
        loops = [i for i, s in enumerate(steps) if isinstance(s, Loop)]
        if loops:
            at = rng.choice(loops)
            loop = steps[at]
            # May produce count=0 — exercising the compiler's error path
            # is part of the point; check_program asserts the failure is
            # deterministic.
            choices = [0, 1, max(1, loop.count // 2), loop.count * 2]
            steps[at] = Loop(count=rng.choice(choices), body=loop.body)
        else:
            steps.append(
                _random_leaf(rng, program.target, num_lbas, banks, rows)
            )
    return Program(name=program.name, target=program.target, steps=tuple(steps))


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def _fresh_run(program: Program, seed: int, profile_name: str):
    """Compile + execute on a fresh seeded stack; returns the observable
    state tuple everything must agree on."""
    from repro.host.blockdev import BlockDevice
    from repro.host.vm import AccessMode, Vm
    from repro.sim import SimClock
    from repro.testkit.fixtures import FRAGILE, GRANITE, build_stack
    from repro.trace.tracer import Tracer

    profile = {"fragile": FRAGILE, "granite": GRANITE}[profile_name]
    clock = SimClock()
    tracer = Tracer(clock)
    controller, dram, _ftl = build_stack(
        profile=profile,
        seed=seed,
        num_lbas=_FUZZ_NUM_LBAS,
        clock=clock,
        tracer=tracer,
    )
    controller.create_namespace(_FUZZ_NSID, 0, _FUZZ_NUM_LBAS)
    vm = Vm("fuzz", BlockDevice(controller, _FUZZ_NSID), AccessMode.RAW)

    compiled = compile_program(program)
    error = None
    result = None
    try:
        result = execute_payload(compiled, vm=vm, dram=dram, trace_payload=True)
    except PayloadError as exc:
        error = str(exc)
    tracer.close(metrics=controller.stack_snapshot())
    return compiled, result, error, tuple(dram.flips), clock.now, tracer.to_jsonl()


def check_program(
    program: Program, seed: int = 11, profile: str = "fragile"
) -> List[str]:
    """Every divergence one program exhibits (empty list = ok)."""
    problems: List[str] = []

    # Compile determinism + roundtrip stability (pure, no stack needed).
    try:
        bytes_a = compile_program(program).to_bytes()
        bytes_b = compile_program(program).to_bytes()
    except PayloadError as first_error:
        try:
            compile_program(program)
            problems.append("compile failed once then succeeded")
        except PayloadError as second_error:
            if str(first_error) != str(second_error):
                problems.append(
                    "compile error text differs across attempts: %r vs %r"
                    % (str(first_error), str(second_error))
                )
        # An (identically) invalid program is a fine outcome; the JSON
        # roundtrip must still hold.
        _check_roundtrips(program, None, problems)
        return problems
    if bytes_a != bytes_b:
        problems.append("compiled bytes differ across two compilations")
    _check_roundtrips(program, bytes_a, problems)

    run_a = _fresh_run(program, seed, profile)
    run_b = _fresh_run(program, seed, profile)
    compiled, result, error, flips_a, clock_a, trace_a = run_a
    _, result_b, error_b, flips_b, clock_b, trace_b = run_b
    if error != error_b:
        problems.append(
            "execution error differs across runs: %r vs %r" % (error, error_b)
        )
    if flips_a != flips_b:
        problems.append(
            "flip sets differ across identical runs (%d vs %d flips)"
            % (len(flips_a), len(flips_b))
        )
    if clock_a != clock_b:
        problems.append(
            "final sim clock differs across identical runs: %r vs %r"
            % (clock_a, clock_b)
        )
    if trace_a != trace_b:
        problems.append("trace JSONL differs across identical runs")
    if error is None and result is not None and result_b is not None:
        if result.reads != compiled.total_reads:
            problems.append(
                "dynamic reads %d != static total_reads %d"
                % (result.reads, compiled.total_reads)
            )
        if result.acts != compiled.total_acts:
            problems.append(
                "dynamic acts %d != static total_acts %d"
                % (result.acts, compiled.total_acts)
            )
        if (result.reads, result.acts, result.bursts) != (
            result_b.reads,
            result_b.acts,
            result_b.bursts,
        ):
            problems.append("execution results differ across identical runs")
    return problems


def _check_roundtrips(
    program: Program, compiled_bytes: Optional[bytes], problems: List[str]
) -> None:
    try:
        via_json = Program.from_json(program.to_json())
    except PayloadError as exc:
        problems.append("JSON round-trip raised: %s" % exc)
        return
    if via_json != program:
        problems.append("JSON round-trip changed the program")
    elif compiled_bytes is not None:
        if compile_program(via_json).to_bytes() != compiled_bytes:
            problems.append("JSON round-trip changed the compiled bytes")
    try:
        via_text = parse_program(format_program(program))
    except PayloadError as exc:
        problems.append("DSL text round-trip raised: %s" % exc)
        return
    if via_text != program:
        problems.append("DSL text round-trip changed the program")


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


def _variants(program: Program):
    """Strictly-simpler candidate programs, in deterministic order:
    ddmin-style chunk removal over the top-level steps, then per-loop
    simplifications (halve the count, unwrap the loop, drop body steps)."""
    steps = program.steps

    def rebuild(new_steps: Tuple[Step, ...]) -> Optional[Program]:
        if not new_steps:
            return None
        return Program(name=program.name, target=program.target, steps=new_steps)

    n = len(steps)
    granularity = 2
    seen_chunks = set()
    while True:
        chunk = max(1, n // granularity)
        for start in range(0, n, chunk):
            key = (start, chunk)
            if key in seen_chunks:
                continue
            seen_chunks.add(key)
            candidate = rebuild(steps[:start] + steps[start + chunk :])
            if candidate is not None:
                yield candidate
        if chunk == 1:
            break
        granularity = min(n, granularity * 2)

    for index, step in enumerate(steps):
        if not isinstance(step, Loop):
            continue
        if step.count > 1:
            yield rebuild(
                steps[:index]
                + (Loop(count=max(1, step.count // 2), body=step.body),)
                + steps[index + 1 :]
            )
            yield rebuild(
                steps[:index]
                + (Loop(count=1, body=step.body),)
                + steps[index + 1 :]
            )
        # Unwrap: replace the loop with one unrolled body.
        yield rebuild(steps[:index] + step.body + steps[index + 1 :])
        for drop in range(len(step.body)):
            body = step.body[:drop] + step.body[drop + 1 :]
            if body:
                yield rebuild(
                    steps[:index]
                    + (Loop(count=step.count, body=body),)
                    + steps[index + 1 :]
                )


def _weight(program: Program) -> Tuple[int, int]:
    """Shrink metric: (node count, summed loop counts) — every accepted
    variant must strictly decrease it, so shrinking terminates."""
    nodes = 0
    loop_total = 0
    for step in program.walk():
        nodes += 1
        if isinstance(step, Loop):
            loop_total += step.count
    return nodes, loop_total


def shrink_program(
    program: Program, fails: Callable[[Program], bool]
) -> Program:
    """Delta-debug a failing program to a minimal still-failing one."""
    if not fails(program):
        raise ValueError("shrink_program needs a failing program to start from")
    current = program
    improved = True
    while improved:
        improved = False
        for candidate in _variants(current):
            if candidate is None or _weight(candidate) >= _weight(current):
                continue
            if fails(candidate):
                current = candidate
                improved = True
                break
    return current


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


@dataclass
class PayloadCampaignReport:
    """Deterministic summary of one payload fuzz campaign."""

    seed: int
    num_programs: int
    mutations_per_program: int
    target: str
    profile: str
    checked: int = 0
    #: program-name -> problems, only for programs that diverged.
    failures: Dict[str, List[str]] = field(default_factory=dict)
    #: Minimal JSON reproducer for the first divergence, if any.
    shrunk: Optional[Dict] = None
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "seed": self.seed,
            "num_programs": self.num_programs,
            "mutations_per_program": self.mutations_per_program,
            "target": self.target,
            "profile": self.profile,
            "checked": self.checked,
            "ok": self.ok,
            "invariants_checked": list(PAYLOAD_INVARIANTS),
            "failures": {name: list(found) for name, found in self.failures.items()},
            "shrunk_reproducer": self.shrunk,
            "stats": dict(self.stats),
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def summary(self) -> str:
        lines = [
            "payload fuzz campaign: seed=%d programs=%d mutations=%d "
            "target=%s profile=%s"
            % (
                self.seed,
                self.num_programs,
                self.mutations_per_program,
                self.target,
                self.profile,
            ),
            "  checked: %d program(s), %s"
            % (self.checked, "ok" if self.ok else "%d FAILED" % len(self.failures)),
        ]
        for name, found in sorted(self.failures.items()):
            for problem in found[:3]:
                lines.append("    %s: %s" % (name, problem))
        for key, value in sorted(self.stats.items()):
            lines.append("  %s: %d" % (key, value))
        if self.shrunk is not None:
            lines.append("  shrunk reproducer embedded in the JSON report")
        return "\n".join(lines)


def run_payload_campaign(
    seed: int,
    num_programs: int = 20,
    mutations_per_program: int = 2,
    target: str = "stack",
    profile: str = "fragile",
    shrink: bool = True,
) -> PayloadCampaignReport:
    """Fuzz ``num_programs`` seeded programs (plus mutants of each)
    through :func:`check_program`; shrink the first divergence."""
    report = PayloadCampaignReport(
        seed=seed,
        num_programs=num_programs,
        mutations_per_program=mutations_per_program,
        target=target,
        profile=profile,
    )
    compile_errors = 0
    first_failure: Optional[Program] = None
    for index in range(num_programs):
        base_seed = seed * 1_000_003 + index
        program = generate_program(base_seed, target=target)
        lineage = [program]
        for mutation in range(mutations_per_program):
            lineage.append(
                mutate_program(lineage[-1], base_seed * 31 + mutation + 1)
            )
        for variant, candidate in enumerate(lineage):
            named = Program(
                name="%s_m%d" % (candidate.name, variant),
                target=candidate.target,
                steps=candidate.steps,
            )
            problems = check_program(named, seed=seed, profile=profile)
            report.checked += 1
            try:
                compile_program(named)
            except PayloadError:
                compile_errors += 1
            if problems:
                report.failures[named.name] = problems
                if first_failure is None:
                    first_failure = named
    report.stats["compile_errors"] = compile_errors
    if shrink and first_failure is not None:

        def fails(candidate: Program) -> bool:
            return bool(check_program(candidate, seed=seed, profile=profile))

        report.shrunk = json.loads(
            shrink_program(first_failure, fails).to_json()
        )
    return report
