"""Trial executors: serial in-process, and a multiprocessing worker pool.

Both executors implement ``run(trials, on_result)``: execute every trial,
invoking ``on_result(record)`` in the *calling* process as each trial
finishes (success or final failure).  Records are plain dicts (see
:func:`make_record`).  The engine calls ``run_batched(trials,
on_results)``, which hands the same records over in
:data:`BATCH_RECORDS` chunks and checkpoints each chunk with the store's
``append_many``, one fsync per chunk.

The pool owns real worker processes with one task pipe each, so the
scheduler always knows which worker holds which trial: a trial that blows
its per-trial timeout gets its worker terminated and respawned, and the
trial is retried (with exponential backoff) until its attempt budget is
spent.  Failures never kill the sweep — they become ``status: "failed"``
records.

Determinism: trial results depend only on the trial's derived seed, never
on scheduling, so serial and pool execution produce identical result sets
(the engine orders them before aggregation).  If worker processes cannot
be created at all (restricted platforms), :func:`make_executor` degrades
to the serial executor rather than failing the sweep.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from queue import Empty
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.runner import execute_trial
from repro.engine.spec import TrialSpec
from repro.errors import ConfigError

OnResult = Callable[[Dict[str, Any]], None]
OnResults = Callable[[List[Dict[str, Any]]], None]

#: Records buffered per batched checkpoint handoff.  The engine flushes
#: each chunk through ``store.append_many``: one flush+fsync per chunk
#: instead of one per record.  A kill loses at most one chunk, which the
#: next run re-executes on resume.
BATCH_RECORDS = 32


class _RecordBatcher:
    """Buffer per-trial records and hand them over in chunks.

    Bytes written downstream are identical to per-record handoff (the
    store's ``append_many`` is pinned to match looped ``append``); only
    the fsync cadence changes.
    """

    def __init__(self, on_results: OnResults, size: int = BATCH_RECORDS):
        self._on_results = on_results
        self._size = size
        self._buffer: List[Dict[str, Any]] = []

    def __call__(self, record: Dict[str, Any]) -> None:
        self._buffer.append(record)
        if len(self._buffer) >= self._size:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._on_results(self._buffer)
            self._buffer = []


class _BatchHandoffMixin:
    """Adds ``run_batched`` on top of an executor's ``run``."""

    def run_batched(
        self, trials: List[TrialSpec], on_results: OnResults
    ) -> None:
        """Like ``run``, but deliver records in ``BATCH_RECORDS`` chunks."""
        batcher = _RecordBatcher(on_results)
        try:
            self.run(trials, batcher)
        finally:
            # Flush even on an executor crash: finished trials reached
            # their callback and must reach the checkpoint.
            batcher.flush()


def make_record(
    trial: TrialSpec,
    status: str,
    result: Optional[Dict[str, Any]],
    error: Optional[str],
    attempts: int,
    elapsed: float,
) -> Dict[str, Any]:
    """The checkpointed per-trial record (one JSONL line)."""
    return {
        "trial_id": trial.trial_id,
        "status": status,
        "point_index": trial.point_index,
        "repeat": trial.repeat,
        "point": dict(trial.point),
        "params": dict(trial.params),
        "seed": trial.seed,
        "result": result,
        "error": error,
        "attempts": attempts,
        "elapsed": elapsed,
    }


def backoff_delay(attempt: int, base: float, cap: float) -> float:
    """Exponential backoff: ``base * 2**(attempt-1)``, capped."""
    return min(cap, base * (2 ** max(0, attempt - 1)))


class SerialExecutor(_BatchHandoffMixin):
    """Run every trial in-process, with the same retry semantics as the
    pool.  Per-trial timeouts are not enforceable without a worker process
    to kill; serial mode records elapsed time but never aborts a trial."""

    def __init__(self, retries: int = 0, backoff_base: float = 0.1,
                 backoff_cap: float = 2.0):
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap

    def run(self, trials: List[TrialSpec], on_result: OnResult) -> None:
        for trial in trials:
            attempts = 0
            started = time.monotonic()
            while True:
                attempts += 1
                try:
                    result = execute_trial(trial)
                except Exception:
                    if attempts <= self.retries:
                        time.sleep(
                            backoff_delay(attempts, self.backoff_base, self.backoff_cap)
                        )
                        continue
                    on_result(
                        make_record(
                            trial, "failed", None,
                            traceback.format_exc(limit=8),
                            attempts, time.monotonic() - started,
                        )
                    )
                    break
                on_result(
                    make_record(
                        trial, "ok", result, None,
                        attempts, time.monotonic() - started,
                    )
                )
                break


def _worker_main(task_conn, result_queue, worker_id: int) -> None:
    """Worker loop: receive a TrialSpec, run it, report on the shared
    result queue.  ``None`` is the shutdown sentinel."""
    while True:
        try:
            task = task_conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        started = time.monotonic()
        try:
            result = execute_trial(task)
            result_queue.put(
                (worker_id, task.trial_id, "ok", result, None,
                 time.monotonic() - started)
            )
        except Exception:
            result_queue.put(
                (worker_id, task.trial_id, "error", None,
                 traceback.format_exc(limit=8), time.monotonic() - started)
            )


class WorkerPool(_BatchHandoffMixin):
    """A bounded pool of worker processes with per-trial timeout, bounded
    retry with backoff, and worker respawn after a kill."""

    def __init__(
        self,
        workers: int,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        poll_interval: float = 0.02,
    ):
        if workers <= 0:
            raise ConfigError("WorkerPool needs at least one worker")
        import multiprocessing

        # Prefer fork: workers inherit the parent's trial-kind registry, so
        # custom kinds work; spawn re-imports and only sees built-ins.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.poll_interval = poll_interval

    # -- worker lifecycle ----------------------------------------------

    def _spawn_worker(self, worker_id: int):
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._result_queue, worker_id),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return {"process": process, "conn": parent_conn}

    def _kill_worker(self, worker_id: int) -> None:
        worker = self._procs[worker_id]
        worker["process"].terminate()
        worker["process"].join(timeout=5.0)
        worker["conn"].close()
        self._procs[worker_id] = self._spawn_worker(worker_id)

    # -- scheduling ----------------------------------------------------

    def run(self, trials: List[TrialSpec], on_result: OnResult) -> None:
        if not trials:
            return
        self._result_queue = self._ctx.Queue()
        count = min(self.workers, len(trials))
        self._procs = {i: self._spawn_worker(i) for i in range(count)}
        # pending holds (trial, attempt_number, not_before_monotonic)
        pending = deque((trial, 1, 0.0) for trial in trials)
        idle = deque(range(count))
        busy: Dict[int, Tuple[TrialSpec, int, float, float]] = {}
        attempts_used: Dict[str, int] = {}
        first_start: Dict[str, float] = {}

        def dispatch() -> None:
            now = time.monotonic()
            blocked = []
            while pending and idle:
                trial, attempt, not_before = pending.popleft()
                if not_before > now:
                    blocked.append((trial, attempt, not_before))
                    continue
                worker_id = idle.popleft()
                deadline = now + self.timeout if self.timeout else float("inf")
                busy[worker_id] = (trial, attempt, deadline, now)
                first_start.setdefault(trial.trial_id, now)
                self._procs[worker_id]["conn"].send(trial)
            pending.extendleft(reversed(blocked))

        def handle_failure(trial: TrialSpec, attempt: int, error: str) -> None:
            attempts_used[trial.trial_id] = attempt
            if attempt <= self.retries:
                delay = backoff_delay(attempt, self.backoff_base, self.backoff_cap)
                pending.append((trial, attempt + 1, time.monotonic() + delay))
            else:
                elapsed = time.monotonic() - first_start[trial.trial_id]
                on_result(
                    make_record(trial, "failed", None, error, attempt, elapsed)
                )

        try:
            while pending or busy:
                dispatch()
                try:
                    message = self._result_queue.get(timeout=self.poll_interval)
                except Empty:
                    message = None
                if message is not None:
                    worker_id, trial_id, status, result, error, _elapsed = message
                    if worker_id in busy and busy[worker_id][0].trial_id == trial_id:
                        trial, attempt, _deadline, _started = busy.pop(worker_id)
                        idle.append(worker_id)
                    else:
                        # Late result from a worker we already killed for
                        # timing out: its trial was handled then.  Drop it.
                        continue
                    if status == "ok":
                        attempts_used[trial.trial_id] = attempt
                        elapsed = time.monotonic() - first_start[trial.trial_id]
                        on_result(
                            make_record(trial, "ok", result, None, attempt, elapsed)
                        )
                    else:
                        handle_failure(trial, attempt, error)
                # Enforce per-trial deadlines.
                if self.timeout:
                    now = time.monotonic()
                    for worker_id in list(busy):
                        trial, attempt, deadline, started = busy[worker_id]
                        if now > deadline:
                            busy.pop(worker_id)
                            self._kill_worker(worker_id)
                            idle.append(worker_id)
                            handle_failure(
                                trial, attempt,
                                "trial %s timed out after %.3fs (attempt %d)"
                                % (trial.trial_id, now - started, attempt),
                            )
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        for worker in self._procs.values():
            try:
                worker["conn"].send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._procs.values():
            worker["process"].join(timeout=2.0)
            if worker["process"].is_alive():
                worker["process"].terminate()
                worker["process"].join(timeout=2.0)
            worker["conn"].close()
        self._result_queue.close()
        self._procs = {}


def make_executor(
    workers: int = 0,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff_base: float = 0.1,
    backoff_cap: float = 2.0,
):
    """Build the right executor for ``workers``; degrade to serial when
    worker processes are unavailable on this platform."""
    if workers <= 0:
        return SerialExecutor(retries, backoff_base, backoff_cap)
    try:
        return WorkerPool(workers, timeout, retries, backoff_base, backoff_cap)
    except (ImportError, OSError, ValueError):
        return SerialExecutor(retries, backoff_base, backoff_cap)
