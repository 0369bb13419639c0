"""Deterministic fuzz campaigns: generate, replay, shrink, report.

The pipeline (also behind ``python -m repro fuzz``):

1. :func:`generate_trace` draws a seeded workload.
2. :func:`replay_trace` runs it through the :class:`DifferentialOracle`
   in one replay mode; any divergence means the real stack and the
   twenty-line reference models disagree.
3. On divergence, :func:`shrink_trace` delta-debugs the op list down to
   a minimal still-failing reproducer (classic ddmin), which
   :func:`run_campaign` embeds in its report for
   ``python -m repro fuzz --replay <trace.json>``.

Everything here is deterministic: no wall clock, no global RNG — the
same seed yields byte-identical :meth:`CampaignReport.to_json` output on
every run, which CI exploits to diff two independent executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.testkit.oracle import (
    MODES,
    NSID,
    DifferentialOracle,
    Divergence,
    build_stack_for,
)
from repro.testkit.trace import Trace, generate_trace

#: What a campaign asserts, recorded in every report.
INVARIANTS_CHECKED = (
    "read-payload agreement with the shadow store (modulo injected flips)",
    "mapped-LBA set agreement with the shadow L2P (modulo injected flips)",
    "FTL structure: L2P/reverse-map/OOB agreement, valid-count "
    "conservation, pool disjointness (GC never loses live pages)",
    "DRAM refresh-window accounting conserves activations",
    "activation lower bound from the naive disturbance accumulator",
    "scalar/batch cross-mode state agreement on flip-free profiles",
    "crash recovery preserves every acknowledged-durable write and drops "
    "un-flushed buffered writes (modulo injected faults)",
    "write-buffer membership agreement with the staging mirror",
)


def replay_trace(
    trace: Trace,
    mode: str = "scalar",
    check_every: int = 0,
    stack_factory: Callable = build_stack_for,
    max_divergences: int = 25,
    fault_plan=None,
) -> List[Divergence]:
    """Replay one trace in one mode; returns its divergences (empty = ok)."""
    oracle = DifferentialOracle(
        trace,
        mode=mode,
        check_every=check_every,
        stack_factory=stack_factory,
        fault_plan=fault_plan,
    )
    return oracle.run(max_divergences=max_divergences)


def shrink_trace(
    trace: Trace,
    fails: Optional[Callable[[Trace], bool]] = None,
    mode: str = "scalar",
    stack_factory: Callable = build_stack_for,
    fault_plan=None,
) -> Trace:
    """Delta-debug a failing trace to a minimal still-failing one.

    ``fails`` is the oracle predicate (default: "replay in ``mode``
    reports at least one divergence").  Classic ddmin over the op list:
    repeatedly try dropping chunks, halving the chunk size whenever no
    chunk can go, until single ops are irreducible.  Every subset of a
    trace is itself a valid trace, so no repair step is needed.
    """
    if fails is None:

        def fails(candidate: Trace) -> bool:
            return bool(
                replay_trace(
                    candidate,
                    mode=mode,
                    check_every=1,
                    stack_factory=stack_factory,
                    max_divergences=1,
                    fault_plan=fault_plan,
                )
            )

    if not fails(trace):
        raise ValueError("shrink_trace needs a failing trace to start from")

    indices = list(range(len(trace.ops)))
    granularity = 2
    while len(indices) >= 2:
        chunk = max(1, len(indices) // granularity)
        reduced = False
        start = 0
        while start < len(indices):
            candidate = indices[:start] + indices[start + chunk :]
            if candidate and fails(trace.subset(candidate)):
                indices = candidate
                # Keep the granularity: the complement of a removable
                # chunk often contains more removable chunks of the
                # same size.
                reduced = True
            else:
                start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity = min(len(indices), granularity * 2)
    return trace.subset(indices)


@dataclass
class CampaignReport:
    """Deterministic summary of one fuzz campaign.

    ``to_json`` output is byte-identical across runs of the same
    campaign: it contains no timestamps, host names, or object ids.
    """

    seed: int
    num_ops: int
    num_lbas: int
    layout: str
    profile: str
    modes: Tuple[str, ...]
    divergences: Dict[str, List[Divergence]] = field(default_factory=dict)
    shrunk: Optional[Trace] = None
    #: Replay mode the shrunk reproducer diverges in ("cross-mode" when
    #: only the scalar-vs-batch state diff failed).
    shrunk_mode: Optional[str] = None
    stats: Dict[str, int] = field(default_factory=dict)
    #: Fault plan the campaign injected (``FaultPlan.to_dict()``), or
    #: None — replaying the shrunk reproducer needs the same plan.
    fault_plan: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return not any(self.divergences.values())

    @property
    def total_divergences(self) -> int:
        return sum(len(found) for found in self.divergences.values())

    def to_json(self, indent: int = 2) -> str:
        import json

        payload = {
            "seed": self.seed,
            "num_ops": self.num_ops,
            "num_lbas": self.num_lbas,
            "layout": self.layout,
            "profile": self.profile,
            "modes": list(self.modes),
            "ok": self.ok,
            "invariants_checked": list(INVARIANTS_CHECKED),
            "stats": dict(self.stats),
            "divergences": {
                mode: [d.to_dict() for d in found]
                for mode, found in self.divergences.items()
            },
            "shrunk_reproducer": (
                None if self.shrunk is None else json.loads(self.shrunk.to_json())
            ),
            "shrunk_mode": self.shrunk_mode,
            "fault_plan": self.fault_plan,
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def summary(self) -> str:
        lines = [
            "fuzz campaign: seed=%d ops=%d lbas=%d layout=%s profile=%s"
            % (self.seed, self.num_ops, self.num_lbas, self.layout, self.profile)
        ]
        for mode in self.modes:
            found = self.divergences.get(mode, [])
            lines.append(
                "  %-6s replay: %s"
                % (mode, "ok" if not found else "%d divergence(s)" % len(found))
            )
            for divergence in found[:5]:
                lines.append("    %s" % divergence)
        for name, value in sorted(self.stats.items()):
            lines.append("  %s: %d" % (name, value))
        if self.shrunk is not None:
            lines.append(
                "  shrunk reproducer: %d op(s), diverges in %s mode "
                "(replay with --replay)" % (len(self.shrunk), self.shrunk_mode)
            )
        return "\n".join(lines)


def _cross_mode_compare(
    trace: Trace,
    oracles: Dict[str, DifferentialOracle],
) -> List[Divergence]:
    """Directly diff the final device state of two replay modes.

    Only meaningful on flip-free profiles: with flips the two replays
    hammer different physical schedules and may legitimately corrupt
    different entries.
    """
    modes = [m for m in MODES if m in oracles]
    if len(modes) < 2:
        return []
    first, second = oracles[modes[0]], oracles[modes[1]]
    if first.dram.flips or second.dram.flips:
        return []
    if first.faults_active or second.faults_active:
        # Injected faults interleave differently with the two command
        # streams (host retries, FTL reroutes), so divergent final
        # placements are expected; per-mode durability checks still ran.
        return []
    found: List[Divergence] = []
    for lba in range(trace.num_lbas):
        mapped_a = first.ftl.l2p.peek(lba) is not None
        mapped_b = second.ftl.l2p.peek(lba) is not None
        if mapped_a != mapped_b:
            found.append(
                Divergence(
                    None,
                    "cross-mode",
                    "%s maps the LBA but %s does not" % (
                        modes[0] if mapped_a else modes[1],
                        modes[1] if mapped_a else modes[0],
                    ),
                    lba,
                )
            )
            continue
        if not mapped_a:
            continue
        data_a = first.controller.read(NSID, lba)
        data_b = second.controller.read(NSID, lba)
        if data_a != data_b:
            found.append(
                Divergence(
                    None,
                    "cross-mode",
                    "payloads differ: %s... vs %s..."
                    % (data_a[:8].hex(), data_b[:8].hex()),
                    lba,
                )
            )
    return found


def run_campaign(
    seed: int,
    num_ops: int,
    num_lbas: int = 192,
    layout: str = "linear",
    profile: str = "granite",
    modes: Sequence[str] = MODES,
    check_every: int = 50,
    shrink: bool = True,
    stack_factory: Callable = build_stack_for,
    crash_rate: float = 0.0,
    write_buffer_pages: int = 0,
    spare_blocks: int = 0,
    fault_plan=None,
    trace_path_prefix: Optional[str] = None,
) -> CampaignReport:
    """Generate one seeded trace, replay it in every mode, shrink on
    divergence; returns the (deterministic) report.

    ``crash_rate`` mixes power-cycle ops into the trace (and, with
    ``write_buffer_pages``, explicit flush barriers); ``fault_plan``
    attaches the NAND fault injector to every replayed stack.

    ``trace_path_prefix`` streams one structured trace per replay mode to
    ``<prefix>.<mode>.jsonl`` (primary replays only — shrink re-replays
    stay untraced).  Trace capture never feeds back into the report:
    :meth:`CampaignReport.to_json` stays byte-identical with and without
    it.
    """
    trace = generate_trace(
        seed,
        num_ops,
        num_lbas=num_lbas,
        layout=layout,
        profile=profile,
        crash_rate=crash_rate,
        write_buffer_pages=write_buffer_pages,
        spare_blocks=spare_blocks,
    )
    report = CampaignReport(
        seed=seed,
        num_ops=len(trace),
        num_lbas=num_lbas,
        layout=layout,
        profile=profile,
        modes=tuple(modes),
        fault_plan=None if fault_plan is None else fault_plan.to_dict(),
    )
    oracles: Dict[str, DifferentialOracle] = {}
    for mode in modes:
        factory = stack_factory
        if trace_path_prefix is not None:
            mode_path = "%s.%s.jsonl" % (trace_path_prefix, mode)

            def factory(t, _factory=stack_factory, _path=mode_path, **kwargs):
                return _factory(t, trace_path=_path, **kwargs)

        oracle = DifferentialOracle(
            trace,
            mode=mode,
            check_every=check_every,
            stack_factory=factory,
            fault_plan=fault_plan,
        )
        report.divergences[mode] = oracle.run()
        oracles[mode] = oracle
        report.stats["%s_flips" % mode] = len(oracle.dram.flips)
        report.stats["%s_gc_collections" % mode] = oracle.ftl.gc_stats.collections
        report.stats["%s_activations" % mode] = (
            oracle.dram.metrics.counter("activations").value
        )
        if crash_rate or oracle.recoveries:
            report.stats["%s_recoveries" % mode] = oracle.recoveries
            report.stats["%s_resurrections" % mode] = oracle.resurrections
        if fault_plan is not None:
            injector = oracle.ftl.flash.injector
            report.stats["%s_faults_injected" % mode] = (
                0 if injector is None else len(injector.log)
            )
            report.stats["%s_power_cuts" % mode] = oracle.power_cuts
            report.stats["%s_fault_failures" % mode] = oracle.fault_failures
            report.stats["%s_host_retries" % mode] = oracle.bdev.retries
    cross = _cross_mode_compare(trace, oracles)
    if cross:
        report.divergences["cross-mode"] = cross
    for oracle in oracles.values():
        if oracle.controller.tracer is not None:
            oracle.controller.tracer.close(
                metrics=oracle.controller.stack_snapshot()
            )

    if shrink and not report.ok:
        failing_mode = next(
            (mode for mode in modes if report.divergences.get(mode)), None
        )
        if failing_mode is not None:
            report.shrunk = shrink_trace(
                trace,
                mode=failing_mode,
                stack_factory=stack_factory,
                fault_plan=fault_plan,
            )
            report.shrunk_mode = failing_mode
        elif cross:
            # Only the cross-mode diff failed: shrink against it.
            def cross_fails(candidate: Trace) -> bool:
                pair = {
                    mode: DifferentialOracle(
                        candidate,
                        mode=mode,
                        stack_factory=stack_factory,
                        fault_plan=fault_plan,
                    )
                    for mode in modes
                }
                for oracle in pair.values():
                    oracle.run()
                return bool(_cross_mode_compare(candidate, pair))

            report.shrunk = shrink_trace(trace, fails=cross_fails)
            report.shrunk_mode = "cross-mode"
    return report
