"""The golden traces: seeded scenarios whose JSONL is pinned byte for byte.

:data:`GOLDENS` maps each fixture name to the scenario that writes it;
``tests/golden/<name>.trace.jsonl`` is the committed fixture, and
``python -m repro trace --emit-golden NAME OUT_JSONL`` regenerates it
(CI ``cmp``s every one on each push).

* ``double_sided_hammer`` drives the full vertical — namespace setup,
  host writes (FTL allocation + flash programs), a mapped and an
  unmapped read, a trim, then a double-sided read burst over two LBAs
  whose L2P entries live in DRAM rows 0 and 2 of one bank (the FRAGILE
  profile flips their shared victim row within a refresh window), and
  finally one more scalar read after the hammer so the epoch rollover
  emits a refresh event.
* ``payload_double_sided`` is its payload-DSL twin: the same hammer
  through the parse -> resolve -> compile -> execute pipeline with
  ``payload.*`` events on, so the fixture pins the executor's trace
  surface as well as the physics.
* ``utrr_infer`` is a full U-TRR inference run against
  :data:`UTRR_GOLDEN_TRR`, tracing every ``utrr.*`` stage/probe/report
  event plus the underlying ``dram.*`` activity.

Everything is a pure function of :data:`GOLDEN_SEED` and the simulated
clock, so the emitted JSONL is byte-identical run to run.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim import SimClock
from repro.trace.tracer import Tracer

#: Seed of the committed fixtures.  Changing it (or anything a scenario
#: touches) invalidates every ``tests/golden/*.trace.jsonl``.
GOLDEN_SEED = 7
GOLDEN_NSID = 1
GOLDEN_NUM_LBAS = 1024
GOLDEN_REPEATS = 120_000


def _lbas_for_rows(controller, dram, rows: Sequence[int], bank: int = 0) -> List[int]:
    """One LBA per requested DRAM row: the first whose L2P entry lands
    there (pure address arithmetic, no accounting perturbed)."""
    ftl = controller.ftl
    out: List[int] = []
    for target in rows:
        for lba in range(8, ftl.num_lbas):
            coords = dram.mapping.locate(ftl.l2p.entry_address(lba))
            if coords.bank == bank and coords.row == target:
                out.append(lba)
                break
        else:
            raise RuntimeError(
                "no LBA maps to bank %d row %d in this layout" % (bank, target)
            )
    return out


def _stack_golden(tracer: Tracer, hammer: Callable) -> None:
    """The setup and close both stack goldens share, around ``hammer``.

    A seeded FRAGILE stack gets four host writes (FTL allocation, flash
    programs, L2P update traffic) and one mapped read; ``hammer(controller,
    aggressors)`` then hammers two LBAs whose L2P entries sit in rows 0
    and 2 of bank 0 — row 1 is the doubly disturbed victim.
    """
    from repro.testkit.fixtures import FRAGILE, build_stack

    controller, dram, ftl = build_stack(
        profile=FRAGILE,
        seed=GOLDEN_SEED,
        num_lbas=GOLDEN_NUM_LBAS,
        clock=tracer.clock,
        tracer=tracer,
    )
    controller.create_namespace(GOLDEN_NSID, 0, GOLDEN_NUM_LBAS)
    page = ftl.page_bytes
    for lba in range(4):
        controller.write(GOLDEN_NSID, lba, bytes([lba + 1]) * page)
    controller.read(GOLDEN_NSID, 0)
    hammer(controller, _lbas_for_rows(controller, dram, (0, 2)))
    # One post-hammer scalar read: rolls the refresh epoch on the exact
    # path, emitting dram.refresh.
    controller.read(GOLDEN_NSID, 1)
    tracer.close(metrics=controller.stack_snapshot())


def _hammer_by_burst(controller, aggressors: List[int]) -> None:
    # An unmapped read (DRAM-only fast path) and a trim, so the
    # deallocate path is in the fixture too.
    controller.read(GOLDEN_NSID, 64)
    controller.trim(GOLDEN_NSID, 3)
    controller.read_burst(GOLDEN_NSID, aggressors, repeats=GOLDEN_REPEATS)


#: Source text of the golden payload program: the same double-sided
#: pattern as the burst, expressed in the DSL with placeholders resolved
#: against the live layout.
PAYLOAD_GOLDEN_SOURCE = """\
# golden payload: double-sided hammer through the stack
name golden_double_sided
target stack

label hammer
loop %d {
    read @agg_left
    read @agg_right
}
""" % GOLDEN_REPEATS


def _hammer_by_payload(controller, aggressors: List[int]) -> None:
    from repro.host.blockdev import BlockDevice
    from repro.host.vm import AccessMode, Vm
    from repro.payload import (
        compile_program,
        execute_payload,
        parse_program,
        resolve_program,
    )

    vm = Vm("attacker", BlockDevice(controller, GOLDEN_NSID), AccessMode.RAW)
    resolved = resolve_program(
        parse_program(PAYLOAD_GOLDEN_SOURCE),
        {"agg_left": aggressors[0], "agg_right": aggressors[1]},
    )
    execute_payload(compile_program(resolved), vm=vm, trace_payload=True)


#: The TRR configuration the golden U-TRR inference run reverse-engineers
#: (small capacity keeps the onset scan — and the fixture — short).
UTRR_GOLDEN_TRR = {
    "tracker_capacity": 2,
    "refresh_threshold": 24,
    "sampling_policy": "first_k_per_window",
    "per_bank": True,
}


def _utrr_golden(tracer: Tracer) -> None:
    from repro.utrr import run_inference

    run_inference(UTRR_GOLDEN_TRR, seed=GOLDEN_SEED, tracer=tracer)


#: Fixture name -> the scenario that writes it into a fresh tracer.
GOLDENS: Dict[str, Callable[[Tracer], None]] = {
    "double_sided_hammer": partial(_stack_golden, hammer=_hammer_by_burst),
    "payload_double_sided": partial(_stack_golden, hammer=_hammer_by_payload),
    "utrr_infer": _utrr_golden,
}


def run_golden(name: str, path: Optional[str] = None) -> Tracer:
    """Run golden scenario ``name``; returns its (closed) tracer.

    With ``path=None`` the events stay in memory (``tracer.events`` /
    ``tracer.to_jsonl()``); a path streams them to that JSONL file.
    """
    scenario = GOLDENS[name]
    tracer = Tracer(SimClock(), path=path, max_events=200_000)
    scenario(tracer)
    return tracer


def emit_golden(name: str, path: str) -> int:
    """Stream golden trace ``name`` to ``path``; returns events written."""
    return run_golden(name, path).emitted
