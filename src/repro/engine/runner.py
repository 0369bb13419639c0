"""Trial kinds: the functions a sweep actually runs.

A trial kind is a callable ``fn(trial: TrialSpec) -> dict`` registered
under a name; the spec's ``kind`` field selects it.  Trial functions must
be deterministic given the trial's seed/spawn key, and must return a
JSON-serializable dict — that dict is the checkpointed record and the
input to aggregation.

Built-ins:

* ``monte_carlo`` — one §4.3 Monte Carlo batch via
  :func:`repro.attack.probability.monte_carlo_success_rate`;
* ``probability_grid`` — the §4.3 closed form (per-cycle, cumulative,
  cycles-to-target) at one parameter point, draw-free; whole grids of
  these run in one shot under the columnar engine;
* ``mitigation`` — one §5 configuration attacked and graded via
  :func:`repro.mitigations.evaluation.evaluate_mitigation`;
* ``fault_campaign`` — one differential fuzz campaign under NAND fault
  injection and power cycles (:func:`repro.testkit.fuzzer.run_campaign`
  with a :class:`repro.faults.FaultPlan` assembled from ``faults`` /
  ``faults.*`` parameters);
* ``serve`` (also registered as ``serve_chaos``) — one multi-tenant
  serving scenario (:func:`repro.serve.run_scenario`) with QoS caps,
  ``faults.*`` fields and resilience policy as axes;
* ``payload`` / ``utrr`` — one payload-DSL program / one U-TRR inference.

Under ``sweep --trace-dir`` every kind above except ``monte_carlo``,
``probability_grid`` and ``mitigation`` writes a trace per trial.  The
scheduler's soak kinds live in :mod:`repro.testkit.soak`.

Heavy imports happen inside the trial functions so that importing the
engine never drags in the whole attack stack, and so the registry stays
import-cycle free (``mitigations.evaluation`` itself runs on the engine).
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional

from repro.engine.spec import TrialSpec
from repro.errors import ConfigError

TrialFn = Callable[[TrialSpec], Dict[str, Any]]

_REGISTRY: Dict[str, TrialFn] = {}

#: Directory for per-trial structured traces (None = tracing off).  Set
#: process-wide by :func:`set_trace_dir`; forked pool workers inherit it,
#: spawn-method workers do not (per-trial tracing needs serial or fork).
_TRACE_DIR: Optional[str] = None


def set_trace_dir(path: Optional[str]) -> None:
    """Point trace-capable trial kinds at ``path`` (None disables).

    Trace capture is observability only — trial result dicts, and hence
    checkpoint records and sweep summaries, are byte-identical with and
    without it.
    """
    global _TRACE_DIR
    _TRACE_DIR = path


def _trace_path(trial: TrialSpec) -> Optional[str]:
    """``<trace dir>/<trial id>.trace.jsonl``, or None when tracing is off."""
    if _TRACE_DIR is None:
        return None
    return os.path.join(_TRACE_DIR, "%s.trace.jsonl" % trial.trial_id)


def register_trial_kind(name: str, fn: TrialFn, replace: bool = False) -> None:
    """Register ``fn`` as trial kind ``name``.

    Custom kinds registered at import time of a module both the parent and
    (forked) workers share work transparently in pool mode; under a spawn
    start method only built-ins resolve in workers, so custom kinds should
    run serially there.
    """
    if name in _REGISTRY and not replace:
        raise ConfigError("trial kind %r already registered" % name)
    _REGISTRY[name] = fn


def trial_kinds() -> List[str]:
    return sorted(_REGISTRY)


def execute_trial(trial: TrialSpec) -> Dict[str, Any]:
    """Run one trial in the current process and return its result dict."""
    try:
        fn = _REGISTRY[trial.kind]
    except KeyError:
        raise ConfigError(
            "unknown trial kind %r (registered: %s)" % (trial.kind, trial_kinds())
        )
    return fn(trial)


# -- built-in: monte_carlo ----------------------------------------------


def _resolve_probability_parameters(params: Dict[str, Any]):
    """Accept either explicit §4.3 counts or the paper's fraction shorthand
    (equal partitions, spray fractions of each half)."""
    from repro.attack.probability import ProbabilityParameters

    if "victim_blocks" in params:
        return ProbabilityParameters(
            victim_blocks=int(params["victim_blocks"]),
            attacker_blocks=int(params["attacker_blocks"]),
            victim_sprayed=int(params["victim_sprayed"]),
            attacker_sprayed=int(params["attacker_sprayed"]),
            physical_blocks=int(params["physical_blocks"]),
        )
    physical_blocks = int(params.get("physical_blocks", 262_144))
    half = physical_blocks // 2
    victim_fraction = float(params.get("victim_spray_fraction", 0.25))
    attacker_fraction = float(params.get("attacker_spray_fraction", 1.0))
    return ProbabilityParameters(
        victim_blocks=half,
        attacker_blocks=half,
        victim_sprayed=int(half * victim_fraction),
        attacker_sprayed=int(half * attacker_fraction),
        physical_blocks=physical_blocks,
    )


def _trial_monte_carlo(trial: TrialSpec) -> Dict[str, Any]:
    from repro.attack.probability import (
        monte_carlo_success_rate,
        single_cycle_success_probability,
    )

    params = dict(trial.params)
    trials = int(params.pop("trials", 100_000))
    model = _resolve_probability_parameters(params)
    rate = monte_carlo_success_rate(
        model, trials, seed=trial.root_seed, spawn_key=trial.spawn_key
    )
    return {
        "success_rate": rate,
        "trials": trials,
        "analytic": single_cycle_success_probability(model),
    }


# -- built-in: probability_grid -----------------------------------------


def _trial_probability_grid(trial: TrialSpec) -> Dict[str, Any]:
    """Evaluate the §4.3 closed form at one parameter point: per-cycle
    probability, cumulative probability over ``cycles`` repetitions, and
    the cycle count needed to reach ``target``.

    Deterministic and draw-free; computed through the same vectorized
    helpers the columnar engine stacks whole grids into
    (:mod:`repro.attack.probability`), so scalar and columnar records
    agree bit-for-bit by construction.
    """
    from repro.attack.probability import (
        grid_cumulative,
        grid_cycles_to_target,
        grid_single_cycle,
    )

    params = dict(trial.params)
    cycles = int(params.pop("cycles", 10))
    target = float(params.pop("target", 0.5))
    if cycles < 0:
        raise ConfigError("cycles cannot be negative")
    model = _resolve_probability_parameters(params)
    per_cycle = grid_single_cycle(
        [model.victim_blocks],
        [model.victim_sprayed],
        [model.attacker_sprayed],
        [model.physical_blocks],
    )
    cumulative = grid_cumulative(per_cycle, [cycles])
    to_target = grid_cycles_to_target(per_cycle, [target])
    return {
        "single_cycle": float(per_cycle[0]),
        "cumulative": float(cumulative[0]),
        "cycles": cycles,
        "cycles_to_target": int(to_target[0]),
        "target": target,
    }


# -- built-in: mitigation -----------------------------------------------


def _trial_mitigation(trial: TrialSpec) -> Dict[str, Any]:
    from repro.attack.orchestrator import AttackConfig
    from repro.mitigations.evaluation import evaluate_mitigation, standard_mitigations

    params = dict(trial.params)
    name = params.pop("mitigation", None)
    if name is None:
        raise ConfigError("mitigation trials need a 'mitigation' axis or base key")
    catalogue = standard_mitigations()
    if name not in catalogue:
        raise ConfigError(
            "unknown mitigation %r (known: %s)" % (name, sorted(catalogue))
        )
    seed = int(params.pop("seed", trial.seed))
    attack_kwargs = dict(params.pop("attack", {}))
    for short, long in (
        ("cycles", "max_cycles"),
        ("spray_files", "spray_files"),
        ("hammer_seconds", "hammer_seconds"),
    ):
        if short in params:
            attack_kwargs[long] = params.pop(short)
    config = AttackConfig(**attack_kwargs) if attack_kwargs else None
    outcome = evaluate_mitigation(
        name, catalogue[name], seed=seed, attack_config=config
    )
    return outcome.to_dict()


# -- built-in: fault_campaign -------------------------------------------


def _trial_fault_campaign(trial: TrialSpec) -> Dict[str, Any]:
    """One differential fuzz campaign under fault injection / crashes.

    A ``faults`` base key (a :class:`repro.faults.FaultPlan` dict) and/or
    dotted ``faults.*`` axes (e.g. a grid over ``faults.erase_fail_rate``)
    assemble the plan; it is reseeded through the trial's spawn key so
    every repeat runs an independent but reproducible fault universe.
    ``crash_rate`` mixes power cycles into the generated trace.
    """
    from repro.faults import FaultPlan
    from repro.testkit.fuzzer import run_campaign

    params = dict(trial.params)
    faults = dict(params.pop("faults", {}))
    for key in [k for k in params if k.startswith("faults.")]:
        faults[key.split(".", 1)[1]] = params.pop(key)
    plan = None
    if faults:
        faults.setdefault("seed", 0)
        plan = FaultPlan.from_dict(faults).spawned(
            trial.root_seed, *trial.spawn_key
        )
    report = run_campaign(
        seed=trial.seed,
        num_ops=int(params.pop("num_ops", 300)),
        num_lbas=int(params.pop("num_lbas", 192)),
        layout=params.pop("layout", "linear"),
        profile=params.pop("profile", "granite"),
        modes=tuple(params.pop("modes", ("scalar", "batch"))),
        check_every=int(params.pop("check_every", 50)),
        shrink=False,
        crash_rate=float(params.pop("crash_rate", 0.0)),
        write_buffer_pages=int(params.pop("write_buffer_pages", 0)),
        spare_blocks=int(params.pop("spare_blocks", 0)),
        fault_plan=plan,
        trace_path_prefix=(
            None if _TRACE_DIR is None
            else os.path.join(_TRACE_DIR, trial.trial_id)
        ),
    )
    return {
        "ok": report.ok,
        "divergences": report.total_divergences,
        "stats": dict(report.stats),
        "fault_plan": None if plan is None else plan.to_dict(),
    }


# -- built-in: serve ----------------------------------------------------


def _trial_serve(trial: TrialSpec) -> Dict[str, Any]:
    """One multi-tenant serving scenario (see :mod:`repro.serve`).

    The ``scenario`` base key carries a full :class:`ServeScenario` dict
    (its ``faults`` section included).  Sweep axes then override it:

    * ``max_iops`` — cap for *every* tenant (``null`` = unlimited);
    * ``attacker_max_iops`` / ``benign_max_iops`` — cap only tenants
      whose workload kind is / is not ``hammer_attacker`` (the §5
      noisy-neighbor grid sweeps ``attacker_max_iops``);
    * dotted ``faults.*`` axes override fault-plan fields (e.g. a grid
      over ``faults.read_error_rate``); the assembled plan is reseeded
      through the trial's spawn key, so every repeat runs an independent
      but reproducible fault universe;
    * resilience-policy axes (``retry_attempts``, ``retry_backoff``,
      ``deadline``, ``hedge``, ``hedge_delay``, ``on_read_only``,
      ``latency_target``, ``error_budget``) apply to *every* tenant;
    * ``quantum`` — the arbiter's round quantum.

    The flat result fields are the sweep-aggregable answer: did the
    attacker's activation rate stay below the hammer threshold, what p99
    did the benign tenants pay, what did the faults cost (retries,
    timeouts, availability gap), did hedging buy the tail back, and —
    non-negotiably — did any acknowledged write get lost.
    """
    from repro.faults import FaultPlan
    from repro.serve import ServeScenario, run_scenario

    params = dict(trial.params)
    raw = params.pop("scenario", None)
    if raw is None:
        raise ConfigError("%s trials need a 'scenario' base key" % trial.kind)
    raw = json.loads(json.dumps(raw))  # private copy; trials share params
    seed = int(params.pop("seed", trial.seed))
    for axis, applies in (
        ("max_iops", lambda tenant: True),
        ("attacker_max_iops", lambda tenant: tenant.get("kind") == "hammer_attacker"),
        ("benign_max_iops", lambda tenant: tenant.get("kind") != "hammer_attacker"),
    ):
        if axis in params:
            cap = params.pop(axis)
            for tenant in raw.get("tenants", []):
                if applies(tenant):
                    tenant["max_iops"] = None if cap is None else float(cap)
    faults = dict(raw.pop("faults", None) or {})
    for key in [k for k in params if k.startswith("faults.")]:
        faults[key.split(".", 1)[1]] = params.pop(key)
    if faults:
        faults.setdefault("seed", 0)
        plan = FaultPlan.from_dict(faults).spawned(
            trial.root_seed, *trial.spawn_key
        )
        raw["faults"] = plan.to_dict()
    for axis in (
        "retry_attempts", "retry_backoff", "deadline", "hedge",
        "hedge_delay", "on_read_only", "latency_target", "error_budget",
    ):
        if axis in params:
            value = params.pop(axis)
            for tenant in raw.get("tenants", []):
                tenant[axis] = value
    if "quantum" in params:
        raw["quantum"] = int(params.pop("quantum"))
    if params:
        raise ConfigError(
            "unknown %s trial params: %s" % (trial.kind, sorted(params))
        )
    scenario = ServeScenario.from_dict(raw)
    report = run_scenario(scenario, seed=seed, trace_path=_trace_path(trial))

    benign = [t for t in report.tenants if t["kind"] != "hammer_attacker"]
    benign_p99 = [t["p99"] for t in benign]
    resilience = report.resilience
    budgets = [t["error_budget_remaining"] for t in report.tenants]
    result: Dict[str, Any] = {
        "duration": report.duration,
        "flips": report.flips,
        "commands": sum(t["commands"] for t in report.tenants),
        "errors": sum(t["errors"] for t in report.tenants),
        "retries": resilience["retries"],
        "timeouts": resilience["timeouts"],
        "hedges": resilience["hedges"],
        "hedge_wins": resilience["hedge_wins"],
        "power_cuts": resilience["power_cuts"],
        "availability_gap_s": resilience["availability_gap_s"],
        "lost_acked_writes": resilience["durability"]["lost"],
        "read_only": resilience["read_only"],
        "benign_iops_total": sum(t["iops"] for t in benign),
        "benign_p99_max": max(benign_p99) if benign_p99 else 0.0,
        "benign_p99_mean": (
            sum(benign_p99) / len(benign_p99) if benign_p99 else 0.0
        ),
        "error_budget_min": min(budgets) if budgets else 1.0,
        "tenants": report.tenants,
    }
    if report.attacker is not None:
        result["attacker_activation_rate"] = report.attacker["activation_rate"]
        result["hammer_threshold"] = report.attacker["hammer_threshold"]
        result["attacker_below_threshold"] = report.attacker["below_threshold"]
    return result


# -- built-in: payload --------------------------------------------------


def _trial_payload(trial: TrialSpec) -> Dict[str, Any]:
    """Run one payload-DSL program against a seeded cloud testbed.

    Either a ``program`` base key (a :class:`repro.payload.Program` dict)
    or a ``template`` name (``double_sided`` / ``single_sided`` /
    ``many_sided`` / ``one_location``) selects the pattern; the
    pattern-parameter axes ``repeats`` and ``pairs`` are sweepable, so a
    grid spec can walk hammer intensity and sidedness as data.
    Placeholders not covered by an explicit ``bindings`` table are
    resolved by live L2P recon on the testbed, exactly as an attacker
    would.
    """
    from repro.payload import (
        Program,
        build_template,
        compile_program,
        execute_payload,
        recon_bindings,
        resolve_program,
    )
    from repro.scenarios import build_cloud_testbed

    params = dict(trial.params)
    seed = int(params.pop("seed", trial.seed))
    raw = params.pop("program", None)
    template = params.pop("template", None)
    repeats = int(params.pop("repeats", 120_000))
    pairs = int(params.pop("pairs", 2))
    bindings = dict(params.pop("bindings", {}))
    if params:
        raise ConfigError("unknown payload trial params: %s" % sorted(params))
    if (raw is None) == (template is None):
        raise ConfigError(
            "payload trials need exactly one of 'program' or 'template'"
        )
    if raw is not None:
        program = Program.from_dict(json.loads(json.dumps(raw)))
    else:
        program = build_template(template, pairs=pairs, repeats=repeats)

    testbed = build_cloud_testbed(seed=seed, trace_path=_trace_path(trial))
    if program.placeholders() - set(bindings):
        recon = recon_bindings(
            testbed.controller, 2, victim_nsid=1, limit=max(pairs, 8)
        )
        recon.update(bindings)
        bindings = recon
    compiled = compile_program(resolve_program(program, bindings))
    result = execute_payload(
        compiled, vm=testbed.attacker_vm, dram=testbed.dram
    )
    if testbed.tracer is not None:
        testbed.tracer.close(metrics=testbed.controller.stack_snapshot())
    return {
        "program": compiled.name,
        "target": compiled.target,
        "flips": len(result.flips),
        "reads": result.reads,
        "acts": result.acts,
        "bursts": result.bursts,
        "duration": result.duration,
        "static_reads": compiled.total_reads,
        "static_acts": compiled.total_acts,
    }


# -- built-in: utrr -----------------------------------------------------


def _trial_utrr(trial: TrialSpec) -> Dict[str, Any]:
    """One U-TRR inference run against a configured TRR sampler.

    The sweepable axes are the sampler's hidden knobs —
    ``tracker_capacity``, ``refresh_threshold``, ``sampling_policy``,
    ``per_bank``, ``neighbor_radius`` — plus the pipeline's probe budget
    (``max_capacity``, ``cycles``).  The flat ``recovered`` field is the
    correctness gate: did black-box inference get the configured capacity
    and policy back?
    """
    from repro.utrr import run_inference

    params = dict(trial.params)
    seed = int(params.pop("seed", trial.seed))
    trr_config = {
        "tracker_capacity": int(params.pop("tracker_capacity", 4)),
        "refresh_threshold": int(params.pop("refresh_threshold", 24)),
        "sampling_policy": params.pop("sampling_policy", "counter_lru"),
        "per_bank": bool(params.pop("per_bank", True)),
        "neighbor_radius": int(params.pop("neighbor_radius", 1)),
        "seed": seed,
    }
    max_capacity = int(params.pop("max_capacity", 12))
    cycles = int(params.pop("cycles", 512))
    if params:
        raise ConfigError("unknown utrr trial params: %s" % sorted(params))

    report = run_inference(
        trr_config,
        seed=seed,
        trace_path=_trace_path(trial),
        max_capacity=max_capacity,
        cycles=cycles,
    )
    return {
        "recovered": report.matches(trr_config),
        "inferred_capacity": report.tracker_capacity,
        "inferred_policy": report.sampling_policy,
        "inferred_per_bank": report.per_bank,
        "actual_capacity": trr_config["tracker_capacity"],
        "actual_policy": trr_config["sampling_policy"],
        "probes": report.probes,
        "activations": report.activations,
        "flips_observed": report.flips_observed,
    }


register_trial_kind("monte_carlo", _trial_monte_carlo)
register_trial_kind("probability_grid", _trial_probability_grid)
register_trial_kind("mitigation", _trial_mitigation)
register_trial_kind("serve", _trial_serve)
register_trial_kind("serve_chaos", _trial_serve)
register_trial_kind("payload", _trial_payload)
register_trial_kind("utrr", _trial_utrr)
register_trial_kind("fault_campaign", _trial_fault_campaign)
