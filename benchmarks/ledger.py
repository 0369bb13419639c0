#!/usr/bin/env python3
"""Pin the perfbench ledger: each workload's output digest and per-layer
counts, as a committed golden.

Usage (from the repo root)::

    python3 benchmarks/ledger.py --check   # exit 1 if the ledger moved
    python3 benchmarks/ledger.py --write   # regenerate the golden

Every workload of ``BENCHMARK.json`` runs through ``perfbench/run.py`` at
``--seed 1 --seconds 2``, once with ``--trace 0`` (the output digest and
the operation counts) and once with ``--trace 1`` (the traced digest and
the per-layer counts).  The measured times (``*.self_s``,
``run.import_s``, ``run.trace_overhead_frac``) are dropped; everything
left repeats exactly for a given program, so a change that keeps
behaviour leaves ``tests/golden/perfbench_ledger.json`` byte-identical.
A change that means to move a count rewrites the golden and says why.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "perfbench_ledger.json")
SEED = 1
SECONDS = 2
_TIMES = ("run.import_s", "run.trace_overhead_frac")


def _run(workload: str, trace: int):
    """One perfbench run: its context and result lines, parsed."""
    argv = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    lines = subprocess.run(
        argv, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.splitlines()
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(
            "ledger: %s --trace %d is not correct: %s" % (workload, trace, lines[-1])
        )
    return context, result


def entry(workload: str) -> dict:
    """The ledger entry of one workload."""
    context, result = _run(workload, 0)
    traced_context, traced = _run(workload, 1)
    counts = {
        name: metric["value"]
        for name, metric in traced["metrics"].items()
        if not name.endswith(".self_s") and name not in _TIMES
    }
    return {
        "digest": context["digest"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "traced_digest": traced_context["digest"],
        "counts": counts,
    }


def ledger() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    return {name: entry(name) for name in workloads}


def encode(value: dict) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _flat(value: dict) -> dict:
    """``{"<workload>.<key>": value}``, the counts spliced in."""
    out = {}
    for workload, fields in value.items():
        for key, item in fields.items():
            if key == "counts":
                out.update(("%s.%s" % (workload, k), v) for k, v in item.items())
            else:
                out["%s.%s" % (workload, key)] = item
    return out


def differences(golden: dict, now: dict):
    """``(key, golden value, current value)`` for every entry that moved."""
    old, new = _flat(golden), _flat(now)
    return [
        (key, old.get(key), new.get(key))
        for key in sorted(set(old) | set(new))
        if old.get(key) != new.get(key)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate the golden")
    mode.add_argument("--check", action="store_true", help="compare with the golden")
    args = parser.parse_args(argv)

    now = ledger()
    if args.write:
        with open(GOLDEN, "w", encoding="utf-8") as f:
            f.write(encode(now))
        print("wrote %s" % os.path.relpath(GOLDEN, ROOT))
        return 0
    with open(GOLDEN, "r", encoding="utf-8") as f:
        text = f.read()
    moved = differences(json.loads(text), now)
    for key, old, new in moved:
        print("%s: golden %r, now %r" % (key, old, new))
    if moved or encode(now) != text:
        print("ledger: %d entries moved from %s" % (len(moved), os.path.relpath(GOLDEN, ROOT)))
        return 1
    print("ledger: %d workloads match %s" % (len(now), os.path.relpath(GOLDEN, ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
