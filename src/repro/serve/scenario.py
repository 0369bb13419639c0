"""Serving scenarios: JSON-declared multi-tenant runs and their reports.

A :class:`ServeScenario` is the whole experiment as data — device shape,
arbitration quantum, and a tenant list with per-tenant QoS — so the
Fig. 2 cloud setup, a 16-tenant noisy-neighbor mix, or a rate-limit
sweep point are all the same code path: :func:`run_scenario`.

The run is deterministic end to end: the device stack is seeded, every
tenant's workload trace derives from ``seed/serve/<scenario>/<tenant>``,
and the scheduler is event-driven over the sim clock — two runs of the
same scenario produce byte-identical metrics expositions and (when
traced) byte-identical trace JSONL.

The report answers the paper's question directly: did the attacker
tenant's *achieved* DRAM activation rate stay below the profile's
hammer threshold (§5's rate-limit argument), and what did that cost the
benign tenants in p99 latency?
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.nvme.controller import DeviceTimingModel
from repro.serve.qos import TenantConfig
from repro.serve.scheduler import (
    DEFAULT_LATENCY_BOUNDS,
    ServeScheduler,
    TenantRuntime,
)
from repro.serve.workload import generate_workload
from repro.sim.metrics import MetricRegistry

#: Scenario-selectable DRAM vulnerability profiles.  ``granite`` never
#: flips, ``fragile`` flips under any serving-scale traffic (its 1000/s
#: threshold sits below one tenant's routine IOPS), and ``tempered``
#: sits in between: aggregate benign traffic scattered across rows stays
#: safe, while a focused hammer loop crosses the line — the regime where
#: §5's rate-limit mitigation is actually a decision worth modeling.
PROFILE_NAMES = ("granite", "fragile", "tempered")

_PREFILL_PAYLOAD = b"serve-prefill|"


@dataclass(frozen=True)
class DeviceConfig:
    """The shared device under the serving frontend."""

    num_lbas: int = 2048
    profile: str = "fragile"
    #: L2P table layout.  ``hashed`` (a vendor-style scattered table) is
    #: the serving default: with equal namespace partitions over a
    #: ``linear`` table a small tenant's entries can collapse into a
    #: single DRAM row, where no read loop can alternate activations.
    layout: str = "hashed"
    hammer_amplification: int = 1
    #: Write every LBA before serving, so reads are mapped (touch flash)
    #: and hammered rows hold live L2P entries.
    prefill: bool = True
    #: Spare-block pool depth: grown bad blocks are replaced from it, and
    #: exhausting it degrades the device to read-only (the serving
    #: degradation path chaos scenarios exercise).
    spare_blocks: int = 0
    #: In-DRAM TRR mitigation config (``tracker_capacity`` /
    #: ``refresh_threshold`` / ``sampling_policy`` / ...), as a plain JSON
    #: dict forwarded to :func:`repro.dram.trr_from_config`.  ``None``
    #: serves without TRR.
    trr: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.num_lbas < 1:
            raise ConfigError("device needs at least one LBA")
        if self.profile not in PROFILE_NAMES:
            raise ConfigError(
                "unknown profile %r (known: %s)"
                % (self.profile, list(PROFILE_NAMES))
            )
        if self.hammer_amplification < 1:
            raise ConfigError("hammer_amplification must be at least 1")
        if self.spare_blocks < 0:
            raise ConfigError("spare_blocks cannot be negative")
        if self.trr is not None:
            from repro.dram import trr_from_config

            try:
                trr_from_config(dict(self.trr))
            except (TypeError, ValueError) as exc:
                raise ConfigError("bad trr config: %s" % exc)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeviceConfig":
        data = dict(data)
        kwargs = {}
        for key in (
            "num_lbas",
            "profile",
            "layout",
            "hammer_amplification",
            "prefill",
            "spare_blocks",
            "trr",
        ):
            if key in data:
                kwargs[key] = data.pop(key)
        if data:
            raise ConfigError("unknown device keys: %s" % sorted(data))
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "num_lbas": self.num_lbas,
            "profile": self.profile,
            "layout": self.layout,
            "hammer_amplification": self.hammer_amplification,
            "prefill": self.prefill,
            "spare_blocks": self.spare_blocks,
        }
        if self.trr is not None:
            out["trr"] = dict(self.trr)
        return out


@dataclass
class ServeScenario:
    """A complete multi-tenant serving experiment, as data."""

    name: str
    tenants: List[TenantConfig]
    seed: int = 7
    device: DeviceConfig = field(default_factory=DeviceConfig)
    quantum: int = 4
    latency_bounds: Optional[List[float]] = None
    #: Seeded fault schedule executed against the served traffic (None =
    #: no fault plane).  The injector attaches *after* prefill, so fault
    #: operation indexes count from the first served command.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario needs a name")
        if not self.tenants:
            raise ConfigError("scenario needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError("tenant names must be unique")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServeScenario":
        data = dict(data)
        try:
            name = str(data.pop("name"))
            tenants_raw = data.pop("tenants")
        except KeyError as exc:
            raise ConfigError("scenario needs %s" % exc) from None
        scenario = cls(
            name=name,
            tenants=[TenantConfig.from_dict(t) for t in tenants_raw],
            seed=int(data.pop("seed", 7)),
            device=DeviceConfig.from_dict(data.pop("device", {})),
            quantum=int(data.pop("quantum", 4)),
            latency_bounds=(
                [float(b) for b in data.pop("latency_bounds")]
                if "latency_bounds" in data
                else None
            ),
            faults=(
                FaultPlan.from_dict(data.pop("faults"))
                if "faults" in data
                else None
            ),
        )
        if data:
            raise ConfigError("unknown scenario keys: %s" % sorted(data))
        return scenario

    @classmethod
    def load(cls, path: str) -> "ServeScenario":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "device": self.device.to_dict(),
            "quantum": self.quantum,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
        }
        if self.latency_bounds is not None:
            out["latency_bounds"] = list(self.latency_bounds)
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        return out


@dataclass
class ServeReport:
    """Everything a serving run measured, JSON-ready."""

    scenario: str
    seed: int
    duration: float
    #: Per-tenant measurement dicts, in scenario order.
    tenants: List[Dict[str, Any]]
    #: Aggregate attacker analysis (None when no attacker tenant).
    attacker: Optional[Dict[str, Any]]
    flips: int
    #: Fault-tolerance rollup: power cuts, availability gap, retry/
    #: timeout/hedge totals, the durability audit, and injected-fault
    #: stats (always present; zeros for an undisturbed run).
    resilience: Dict[str, Any]
    registry: MetricRegistry = field(repr=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "duration": self.duration,
            "tenants": self.tenants,
            "attacker": self.attacker,
            "flips": self.flips,
            "resilience": self.resilience,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def exposition(self) -> str:
        """Prometheus text rendering of the serving metrics."""
        return self.registry.exposition()


def _profile(name: str):
    from repro.dram import GenerationProfile
    from repro.testkit.fixtures import FRAGILE, GRANITE

    tempered = GenerationProfile(
        name="tempered",
        year=2021,
        ddr_type="T",
        min_rate_kps=20.0,
        row_vulnerable_fraction=1.0,
        mean_weak_cells=4.0,
        threshold_spread=0.2,
    )
    return {"granite": GRANITE, "fragile": FRAGILE, "tempered": tempered}[name]


def run_scenario(
    scenario: ServeScenario,
    seed: Optional[int] = None,
    trace_path: Optional[str] = None,
    registry: Optional[MetricRegistry] = None,
) -> ServeReport:
    """Build the device, serve every tenant's trace, report.

    ``seed`` overrides the scenario's own (sweep repeats use this);
    ``trace_path`` streams a structured trace of the whole run there,
    closed with the full-stack metric rollup in the footer.
    """
    from repro.testkit.fixtures import build_stack

    seed = scenario.seed if seed is None else int(seed)
    profile = _profile(scenario.device.profile)
    controller, dram, ftl = build_stack(
        profile=profile,
        seed=seed,
        num_lbas=scenario.device.num_lbas,
        layout=scenario.device.layout,
        timing=DeviceTimingModel(
            hammer_amplification=scenario.device.hammer_amplification
        ),
        spare_blocks=scenario.device.spare_blocks,
        trr=dict(scenario.device.trr) if scenario.device.trr else None,
        trace_path=trace_path,
    )

    share = scenario.device.num_lbas // len(scenario.tenants)
    if share < 1:
        raise ConfigError(
            "device too small: %d LBAs across %d tenants"
            % (scenario.device.num_lbas, len(scenario.tenants))
        )
    namespaces = [
        controller.create_namespace(index + 1, index * share, share)
        for index in range(len(scenario.tenants))
    ]
    if scenario.device.prefill:
        page = (
            _PREFILL_PAYLOAD
            * (-(-controller.block_bytes // len(_PREFILL_PAYLOAD)))
        )[: controller.block_bytes]
        for namespace in namespaces:
            controller.write_burst(
                namespace.nsid, list(range(namespace.num_lbas)), page
            )

    # The fault plane attaches after prefill: faults target the served
    # traffic, and scheduled-event op indexes count from serving start.
    # A seed override (sweep repeats) respawns the plan so every repeat
    # runs an independent but reproducible fault universe.
    injector = None
    if scenario.faults is not None and not scenario.faults.is_null:
        plan = scenario.faults
        if seed != scenario.seed:
            plan = plan.spawned(seed, scenario.name)
        injector = FaultInjector(plan, tracer=controller.tracer)
        ftl.flash.injector = injector

    served_registry = registry if registry is not None else MetricRegistry(
        "serve"
    )
    bounds = (
        list(scenario.latency_bounds)
        if scenario.latency_bounds is not None
        else list(DEFAULT_LATENCY_BOUNDS)
    )
    runtimes = []
    for config, namespace in zip(scenario.tenants, namespaces):
        params = dict(config.params)
        if config.kind == "hammer_attacker" and not params.get("lbas"):
            from repro.attack.tenant import aggressor_loop

            params["lbas"] = list(
                aggressor_loop(
                    controller, namespace, pairs=int(params.pop("pairs", 1))
                )
            )
        trace = generate_workload(
            config.kind,
            config.name,
            namespace.num_lbas,
            config.ops,
            derive_serve_seed(seed, scenario.name, config.name),
            params,
        )
        runtimes.append(
            TenantRuntime(config, namespace, trace, served_registry, bounds)
        )

    scheduler = ServeScheduler(
        controller,
        runtimes,
        served_registry,
        tracer=controller.tracer,
        quantum=scenario.quantum,
        injector=injector,
    )
    duration = scheduler.run()

    tenants: List[Dict[str, Any]] = []
    attacker_activations = 0
    attacker_names: List[str] = []
    benign_p99: List[float] = []
    for runtime in runtimes:
        count = runtime.commands.value
        pcts = runtime.latency.percentiles()
        slo = runtime.policy.slo
        entry = {
            "name": runtime.config.name,
            "kind": runtime.config.kind,
            "weight": runtime.config.qos.weight,
            "max_iops": runtime.config.qos.max_iops,
            "commands": count,
            "errors": runtime.errors.value,
            "errors_by_status": dict(sorted(runtime.errors_by_status.items())),
            "iops": count / duration if duration > 0 else 0.0,
            "mean_latency": runtime.latency.mean,
            "p50": pcts["p50"],
            "p95": pcts["p95"],
            "p99": pcts["p99"],
            "backpressure": runtime.backpressure.value,
            "throttled": runtime.throttled.value,
            "activations": runtime.activations.value,
            "retries": runtime.retries.value,
            "timeouts": runtime.timeouts.value,
            "hedges": runtime.hedges.value,
            "hedge_wins": runtime.hedge_wins.value,
            "parked": runtime.parked.value,
            "dropped": runtime.dropped_ops.value,
            "slo_violations": runtime.slo_violations.value,
            "error_budget_remaining": slo.budget_remaining(
                runtime.slo_violations.value, count
            ),
        }
        tenants.append(entry)
        if runtime.config.kind == "hammer_attacker":
            attacker_activations += runtime.activations.value
            attacker_names.append(runtime.config.name)
        else:
            benign_p99.append(pcts["p99"])

    attacker: Optional[Dict[str, Any]] = None
    if attacker_names:
        rate = attacker_activations / duration if duration > 0 else 0.0
        threshold = profile.min_rate_per_sec
        attacker = {
            "tenants": attacker_names,
            "activations": attacker_activations,
            "activation_rate": rate,
            "hammer_threshold": threshold,
            "below_threshold": rate < threshold,
        }

    durability = scheduler.durability_audit()
    resilience: Dict[str, Any] = {
        "power_cuts": scheduler.power_cuts,
        "availability_gap_s": scheduler.availability_gap,
        "retries": sum(t["retries"] for t in tenants),
        "timeouts": sum(t["timeouts"] for t in tenants),
        "hedges": sum(t["hedges"] for t in tenants),
        "hedge_wins": sum(t["hedge_wins"] for t in tenants),
        "parked_writes": sum(t["parked"] for t in tenants),
        "dropped_ops": sum(t["dropped"] for t in tenants),
        "read_only": ftl.read_only,
        "durability": durability,
        "faults": None if injector is None else injector.stats(),
    }

    report = ServeReport(
        scenario=scenario.name,
        seed=seed,
        duration=duration,
        tenants=tenants,
        attacker=attacker,
        flips=len(dram.flips),
        resilience=resilience,
        registry=served_registry,
    )
    if controller.tracer is not None and trace_path is not None:
        controller.tracer.close(
            metrics={**served_registry.snapshot(), **controller.stack_snapshot()}
        )
    return report


def derive_serve_seed(seed: int, scenario_name: str, tenant_name: str) -> int:
    """The per-tenant workload seed label path, in one place."""
    from repro.sim.rng import derive_seed

    return derive_seed(seed, "serve", scenario_name, tenant_name)
