"""Inert trial kinds for soak-testing the sweep scheduler.

``sleep`` exercises the pool's per-trial timeout and ``flaky`` its
retry/backoff path.  They model no part of the paper, so they stay out
of the production registry; the test suite registers them with
:func:`register_soak_kinds`.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.engine.runner import register_trial_kind
from repro.engine.spec import TrialSpec


def trial_sleep(trial: TrialSpec) -> Dict[str, Any]:
    """Sleep for ``seconds`` — exercises the pool's per-trial timeout."""
    seconds = float(trial.params.get("seconds", 0.01))
    time.sleep(seconds)
    return {"slept": seconds}


def trial_flaky(trial: TrialSpec) -> Dict[str, Any]:
    """Fail the first ``fail_times`` attempts — exercises retry/backoff.

    Attempt state lives in the file at ``path`` (one line per attempt), so
    flakiness survives worker restarts and process boundaries.
    """
    path = trial.params["path"]
    fail_times = int(trial.params.get("fail_times", 1))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            attempts_so_far = len(handle.readlines())
    except FileNotFoundError:
        attempts_so_far = 0
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("attempt %d\n" % (attempts_so_far + 1))
    if attempts_so_far < fail_times:
        raise RuntimeError(
            "flaky trial failing on purpose (attempt %d)" % (attempts_so_far + 1)
        )
    return {"attempts_seen": attempts_so_far + 1}


def register_soak_kinds() -> None:
    """Register ``sleep`` and ``flaky``; idempotent.  Pool workers forked
    afterwards inherit them."""
    register_trial_kind("sleep", trial_sleep, replace=True)
    register_trial_kind("flaky", trial_flaky, replace=True)
