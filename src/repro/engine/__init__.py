"""Experiment orchestration: deterministic parallel parameter sweeps.

The paper's quantitative claims rest on repetition — Monte Carlo trials
for the §4.3 success probability, a grid of attack campaigns for the §5
mitigation scorecard.  This subsystem runs those campaigns at scale:

* :class:`SweepSpec` — a declarative grid/random parameter space plus
  trial counts, loadable from JSON (``python -m repro sweep spec.json``);
* deterministic fan-out — every trial's RNG stream is derived from the
  root seed and a spawn key, so any trial reproduces bit-for-bit in
  isolation and results never depend on scheduling;
* :class:`SweepEngine` — serial or multiprocessing execution with
  per-trial timeouts, bounded retry with backoff, JSONL checkpointing,
  and resume-after-kill;
* aggregation into :mod:`repro.sim.metrics` plus a deterministic summary
  (byte-identical for serial, pooled, and resumed runs).

``evaluate_all_mitigations`` and the probability studies run on this
engine; new experiment types plug in via
:func:`~repro.engine.runner.register_trial_kind`.
"""

from repro.engine.aggregate import fold_metrics, summarize, summary_to_json
from repro.engine.engine import EngineConfig, SweepEngine, SweepReport, run_sweep
from repro.engine.pool import SerialExecutor, WorkerPool, make_executor
from repro.engine.runner import execute_trial, register_trial_kind, trial_kinds
from repro.engine.spec import SweepSpec, TrialSpec
from repro.engine.store import (
    MemoryStore,
    ResultStore,
    canonical_record,
    diff_result_files,
)

__all__ = [
    "SweepSpec",
    "TrialSpec",
    "SweepEngine",
    "SweepReport",
    "EngineConfig",
    "run_sweep",
    "SerialExecutor",
    "WorkerPool",
    "make_executor",
    "execute_trial",
    "register_trial_kind",
    "trial_kinds",
    "MemoryStore",
    "ResultStore",
    "canonical_record",
    "diff_result_files",
    "fold_metrics",
    "summarize",
    "summary_to_json",
]
