"""The four workloads: inputs generated from the committed specs, the
phases each pass times, and the checks that grade its outputs.

A workload run is a fixed number of *passes*.  A pass builds its stacks
(the set-up phase) and then runs the timed phase on them.  Each pass
returns its CPU seconds, the device commands it simulated one at a time,
how many operations it attempted and how many passed the workload's
check, and its canonical simulated output for the digest.  The passes of
a run either repeat one kind of work on different seeds (their medians
are reported) or are the parts of one whole (their sums are).

Only the benchmark decides what the program runs: every scenario object
comes from ``examples/specs/*.json`` plus the seed given on the command
line, through :func:`sub_seed`, which uses no program code.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

cpu_clock = time.process_time
wall_clock = time.perf_counter


def sub_seed(workload: str, seed: int, index: int) -> int:
    """The seed of pass ``index`` of a run seeded with ``seed``."""
    digest = hashlib.sha256(("%s/%d/%d" % (workload, seed, index)).encode())
    return int.from_bytes(digest.digest()[:4], "little") & 0x7FFFFFFF


def load_spec(specs_dir: str, name: str) -> Dict[str, Any]:
    with open(os.path.join(specs_dir, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def timed(fn: Callable, *args, **kwargs) -> Tuple[Any, float, float]:
    """``fn(*args, **kwargs)`` after a full collection; returns the result,
    its CPU seconds and its wall seconds."""
    gc.collect()
    cpu0 = cpu_clock()
    wall0 = wall_clock()
    result = fn(*args, **kwargs)
    return result, cpu_clock() - cpu0, wall_clock() - wall0


@dataclass
class PassResult:
    """What one pass measured and produced."""

    #: CPU seconds of the pass's build calls (median over repeats).
    setup_s: float
    #: CPU and wall seconds of the timed phase.
    cpu_s: float
    wall_s: float
    #: Device commands the timed phase simulated one at a time.
    commands: int
    attempted: int
    passed: int
    #: Canonical simulated output, one string per cell or scenario.
    outputs: List[str]
    #: Per-layer counts read from the program's outputs.
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()


class Workload:
    """One set of inputs the benchmark runs."""

    name = ""
    #: CPU seconds one pass takes on the reference host; sets how many
    #: passes fit in ``--seconds``, so the work per seed is fixed.
    nominal_pass_s = 1.0
    #: Times each build is repeated within a pass; set-up time is the
    #: median over the repeats.
    setup_repeats = 1
    #: True when the passes are the parts of one whole, not repeats.
    parts = False
    #: Host speed probe samples taken at each pass boundary (see
    #: :mod:`speed`).
    probe_samples = 5

    def passes(self, seconds: float) -> int:
        return max(1, int(round(seconds / self.nominal_pass_s)))

    def inputs(self, seed: int, count: int) -> List[Any]:
        """One input per pass; by default, the pass's seed."""
        return [sub_seed(self.name, seed, index) for index in range(count)]

    def run_pass(self, inp: Any, setup_repeats: int) -> PassResult:
        raise NotImplementedError


class AttackMitigations(Workload):
    """The paper's exploit end to end against the six §5 defenses of
    ``mitigation_grid.json``, serially: L2P hammering through NVMe reads,
    the ext4 indirect-block spray and exfiltration.

    The attack's outcome depends on the DRAM seed: with
    ``max_cycles=6`` the undefended baseline leaks plaintext on about
    half of all seeds.  The grid therefore runs on the spec's own seed,
    under which the verdicts are those of §5, and ``--seed`` sets the
    order in which the six defenses run.  Each defense is one pass, and
    a run is the whole grid, whatever ``--seconds`` says.
    """

    name = "attack_mitigations"
    setup_repeats = 3
    parts = True

    def __init__(self, specs_dir: str):
        spec = load_spec(specs_dir, "mitigation_grid.json")
        base = spec["base"]
        self.cells: List[str] = list(spec["grid"]["mitigation"])
        self.seed = int(base.get("seed", spec["seed"]))
        self.attack = {
            "max_cycles": int(base["cycles"]),
            "spray_files": int(base["spray_files"]),
            "hammer_seconds": float(base["hammer_seconds"]),
        }

    def passes(self, seconds: float) -> int:
        return len(self.cells)

    def inputs(self, seed: int, count: int) -> List[Any]:
        order = list(self.cells)
        random.Random(seed).shuffle(order)
        return order

    def run_pass(self, name: str, setup_repeats: int) -> PassResult:
        from repro.attack.orchestrator import AttackConfig
        from repro.mitigations import evaluation

        samples = []
        for _ in range(setup_repeats):
            # A fresh catalogue per build: its TRR object carries tracker
            # state that must not leak from one build into the next.
            builder = evaluation.standard_mitigations()[name]
            built, seconds, _wall = timed(builder, self.seed)
            samples.append(seconds)
        ftl = built[0].ftl
        before = _host_commands(ftl)
        outcome, cpu, wall = timed(
            evaluation.evaluate_mitigation,
            name,
            lambda _seed: built,
            seed=self.seed,
            attack_config=AttackConfig(**self.attack),
        )
        verdict = (
            outcome.attack_succeeded
            if name.startswith("baseline")
            else outcome.mitigated
        )
        return PassResult(
            setup_s=statistics.median(samples),
            cpu_s=cpu,
            wall_s=wall,
            commands=_host_commands(ftl) - before,
            attempted=1,
            passed=int(verdict),
            outputs=[json.dumps(outcome.to_dict(), sort_keys=True)],
            counts={"attack.hits": outcome.hits},
        )


def _host_commands(ftl) -> int:
    """Host reads, writes and trims the FTL executed one by one (the
    attack's hammer bursts run in closed form and never reach it)."""
    stats = ftl.stats()
    return int(
        stats.get("ftl.host_reads", 0)
        + stats.get("ftl.host_writes", 0)
        + stats.get("ftl.host_trims", 0)
    )


class _Serve(Workload):
    """Shared pass for the serving workloads: ``run_scenario`` on one
    scenario, with set-up ending where ``ServeScheduler.run`` starts."""

    #: The attacker tenant both serving workloads add: capped at 16k
    #: commands/s, under the tempered profile's 20k/s flip threshold.
    attacker = {"name": "attacker", "kind": "hammer_attacker", "max_iops": 16000}

    def scenario_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def run_pass(self, seed: int, setup_repeats: int) -> PassResult:
        from repro.serve import scenario as serve_scenario
        from repro.serve import scheduler

        scenario = serve_scenario.ServeScenario.from_dict(
            dict(self.scenario_dict(), seed=seed)
        )
        marks: Dict[str, float] = {}
        original = scheduler.ServeScheduler.run

        def run(sched):
            gc.collect()
            marks["cpu"] = cpu_clock()
            marks["wall"] = wall_clock()
            return original(sched)

        scheduler.ServeScheduler.run = run
        try:
            gc.collect()
            cpu0 = cpu_clock()
            report = serve_scenario.run_scenario(scenario)
            cpu1 = cpu_clock()
            wall1 = wall_clock()
        finally:
            scheduler.ServeScheduler.run = original

        result = report.to_dict()
        tenants = result["tenants"]
        lost = result["resilience"]["durability"]["lost"]
        ok = sum(t["commands"] - t["errors"] - t["timeouts"] for t in tenants)
        benign = [t["p99"] for t in tenants if t["kind"] != "hammer_attacker"]
        return PassResult(
            setup_s=marks["cpu"] - cpu0,
            cpu_s=cpu1 - marks["cpu"],
            wall_s=wall1 - marks["wall"],
            commands=sum(t["commands"] - t["timeouts"] for t in tenants),
            attempted=sum(tenant.ops for tenant in scenario.tenants),
            passed=max(0, ok - lost),
            outputs=[report.to_json()],
            counts={
                "serve.retries": result["resilience"]["retries"],
                "serve.hedges": result["resilience"]["hedges"],
                "serve.throttled": sum(t["throttled"] for t in tenants),
                "serve.benign_p99_ms": 1000.0 * max(benign, default=0.0),
            },
        )


class ServeFanout(_Serve):
    """256 benign tenants plus one capped attacker on the Fig. 2 device
    (``serve_fig2_16tenants.json``): the scheduler scans every tenant on
    every admission and round, so ``serve`` dominates."""

    name = "serve_fanout"
    nominal_pass_s = 2.8
    benign_tenants = 256
    benign_ops = 50
    attacker_ops = 4000

    def __init__(self, specs_dir: str):
        self.spec = load_spec(specs_dir, "serve_fig2_16tenants.json")

    def scenario_dict(self) -> Dict[str, Any]:
        spec = dict(self.spec)
        # The spec's benign tenants, in order, are the rotation of kinds
        # and weights; their names minus the index are the name stems.
        rotation = [
            t for t in spec["tenants"] if t["kind"] != "hammer_attacker"
        ][:3]
        tenants = [dict(self.attacker, ops=self.attacker_ops)]
        for index in range(self.benign_tenants):
            proto = rotation[index % len(rotation)]
            tenants.append({
                "name": "%s-%d" % (proto["name"].rsplit("-", 1)[0], index + 1),
                "kind": proto["kind"],
                "ops": self.benign_ops,
                "weight": proto.get("weight", 1),
            })
        spec["tenants"] = tenants
        return spec


class ServeChaos(_Serve):
    """The committed chaos scenario (hedged reader, parked logger,
    deadline scanner, read errors, program failures, one power cut) plus
    the capped attacker: FTL writes, GC, fault hooks, retries and crash
    recovery carry the load.

    The seed sets the device and the tenants' traces; the fault plan keeps
    its own committed seed.  Respawning the plan from the pass seed (as
    sweep repeats do) crashes the FTL on about one pass in twenty with
    ``FlashProgramError: non-sequential program``.
    """

    name = "serve_chaos"
    nominal_pass_s = 0.6
    probe_samples = 3
    attacker_ops = 3000

    def __init__(self, specs_dir: str):
        self.spec = load_spec(specs_dir, "serve_chaos.json")

    def scenario_dict(self) -> Dict[str, Any]:
        spec = dict(self.spec)
        spec["tenants"] = list(spec["tenants"]) + [
            dict(self.attacker, ops=self.attacker_ops)
        ]
        return spec


class UtrrGrid(Workload):
    """U-TRR black-box inference over the nine sampler configurations of
    ``utrr_grid.json``: DRAM's exact ordered-activation path, nothing
    below DRAM."""

    name = "utrr_grid"
    nominal_pass_s = 2.4
    setup_repeats = 5

    def __init__(self, specs_dir: str):
        spec = load_spec(specs_dir, "utrr_grid.json")
        base = dict(spec["base"])
        base.pop("seed", None)
        self.max_capacity = int(base.pop("max_capacity", 12))
        self.cycles = int(base.pop("cycles", 512))
        base.setdefault("neighbor_radius", 1)
        axes = list(spec["grid"])
        self.cells = [
            dict(base, **dict(zip(axes, values)))
            for values in itertools.product(*(spec["grid"][a] for a in axes))
        ]

    def run_pass(self, seed: int, setup_repeats: int) -> PassResult:
        from repro import utrr

        configs = [dict(cell, seed=seed) for cell in self.cells]
        samples = []
        for _ in range(setup_repeats):
            targets, seconds, _wall = timed(
                lambda: [utrr.build_utrr_target(c, seed=seed) for c in configs]
            )
            samples.append(seconds)
        reports, cpu, wall = timed(
            lambda: [
                utrr.UtrrPipeline(
                    dram, max_capacity=self.max_capacity, cycles=self.cycles
                ).infer()
                for dram in targets
            ]
        )
        return PassResult(
            setup_s=statistics.median(samples),
            cpu_s=cpu,
            wall_s=wall,
            commands=sum(report.activations for report in reports),
            attempted=len(configs),
            passed=sum(
                1 for report, c in zip(reports, configs) if report.matches(c)
            ),
            outputs=[report.to_json() for report in reports],
            counts={"utrr.probes": sum(report.probes for report in reports)},
        )


WORKLOADS = {
    cls.name: cls
    for cls in (AttackMitigations, ServeFanout, ServeChaos, UtrrGrid)
}
