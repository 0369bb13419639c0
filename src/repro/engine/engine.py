"""The sweep engine: expand → schedule → checkpoint → aggregate.

:class:`SweepEngine` ties the subsystem together.  ``run()``:

1. expands the :class:`~repro.engine.spec.SweepSpec` into its ordered
   trial list;
2. opens the result store and drops every trial already completed in a
   previous run (checkpoint/resume);
3. executes the remainder — serially in-process, or on a
   :class:`~repro.engine.pool.WorkerPool` with per-trial timeout and
   bounded retry — appending finished trials to the store in
   :data:`~repro.engine.pool.BATCH_RECORDS` chunks;
4. folds all completed records into metrics and the deterministic
   aggregated summary.

Determinism contract: for a fixed spec, the summary is byte-identical
whatever the worker count, scheduling order, or number of kill/resume
cycles it took to finish — only per-trial seeds, never scheduling,
enter trial results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.aggregate import summarize, summary_to_json
from repro.engine.pool import SerialExecutor, make_executor
from repro.engine.spec import SweepSpec
from repro.engine.store import MemoryStore, ResultStore
from repro.sim.metrics import MetricRegistry


@dataclass
class EngineConfig:
    """Execution knobs — scheduling only, never results."""

    #: Worker processes; 0 = serial in-process execution.
    workers: int = 0
    #: Per-trial wall-clock budget in seconds (pool mode only); None = none.
    timeout: Optional[float] = None
    #: Retries after a failed/timed-out attempt (total attempts = retries+1).
    retries: int = 0
    #: Exponential backoff between attempts: base * 2**(attempt-1), capped.
    backoff_base: float = 0.1
    backoff_cap: float = 2.0
    #: Directory for per-trial structured traces (trace-capable kinds
    #: only); None = tracing off.  Observability only: summaries and
    #: checkpoint records are byte-identical with and without it.
    trace_dir: Optional[str] = None


@dataclass
class SweepReport:
    """What a finished (or partially failed) sweep produced."""

    spec: SweepSpec
    #: The deterministic aggregated summary (see aggregate.summarize).
    summary: Dict[str, Any]
    #: Latest record per trial, ordered by (point_index, repeat).
    records: List[Dict[str, Any]]
    #: Trials executed in *this* run (resume skips count toward ``skipped``).
    executed: int = 0
    #: Trials satisfied from the checkpoint without re-running.
    skipped: int = 0
    #: True when the pool was requested but unavailable and the engine
    #: degraded to serial execution.
    degraded_to_serial: bool = False
    metrics: MetricRegistry = field(default_factory=MetricRegistry)

    @property
    def failed_trials(self) -> List[str]:
        return list(self.summary["totals"]["failed_trials"])

    @property
    def ok(self) -> bool:
        return not self.failed_trials

    def summary_json(self) -> str:
        return summary_to_json(self.summary)


class SweepEngine:
    """Orchestrates one sweep end-to-end."""

    def __init__(
        self,
        spec: SweepSpec,
        store_path: Optional[str] = None,
        config: Optional[EngineConfig] = None,
        fresh: bool = False,
        registry: Optional[MetricRegistry] = None,
    ):
        self.spec = spec
        self.config = config or EngineConfig()
        self.store = (
            ResultStore(store_path, fresh=fresh) if store_path else MemoryStore()
        )
        self.registry = registry if registry is not None else MetricRegistry()

    def run(self) -> SweepReport:
        from repro.engine.runner import set_trace_dir

        if self.config.trace_dir is not None:
            import os

            os.makedirs(self.config.trace_dir, exist_ok=True)
        set_trace_dir(self.config.trace_dir)
        trials = self.spec.expand()
        completed = self.store.open(self.spec)
        execution_seconds = 0.0
        try:
            pending = [t for t in trials if t.trial_id not in completed]
            executor = make_executor(
                workers=self.config.workers,
                timeout=self.config.timeout,
                retries=self.config.retries,
                backoff_base=self.config.backoff_base,
                backoff_cap=self.config.backoff_cap,
            )
            degraded = self.config.workers > 0 and isinstance(
                executor, SerialExecutor
            )
            executed: List[Dict[str, Any]] = []

            def on_results(records: List[Dict[str, Any]]) -> None:
                executed.extend(records)
                self.store.append_many(records)

            if pending:
                import time

                started = time.perf_counter()
                executor.run_batched(pending, on_results)
                execution_seconds = time.perf_counter() - started
        finally:
            self.store.close()

        # Latest record wins per trial (a resumed run may re-run trials
        # that previously failed).
        latest: Dict[str, Dict[str, Any]] = dict(completed)
        for record in executed:
            latest[record["trial_id"]] = record
        records = sorted(
            latest.values(),
            key=lambda r: (int(r.get("point_index", 0)), int(r.get("repeat", 0))),
        )
        summary = summarize(self.spec, records, registry=self.registry)
        self.registry.gauge("sweep.execution_seconds").set(execution_seconds)
        return SweepReport(
            spec=self.spec,
            summary=summary,
            records=records,
            executed=len(executed),
            skipped=len(completed),
            degraded_to_serial=degraded,
            metrics=self.registry,
        )


def run_sweep(
    spec: SweepSpec,
    store_path: Optional[str] = None,
    workers: int = 0,
    timeout: Optional[float] = None,
    retries: int = 0,
    fresh: bool = False,
) -> SweepReport:
    """One-call convenience wrapper around :class:`SweepEngine`."""
    config = EngineConfig(workers=workers, timeout=timeout, retries=retries)
    return SweepEngine(spec, store_path=store_path, config=config, fresh=fresh).run()
