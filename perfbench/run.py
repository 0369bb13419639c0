#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_fanout --seed 1 --seconds 20 --trace 0

Each invocation is one fresh, single-threaded interpreter.  Every module
of the program is imported before any clock starts; ``setup_s`` times only
the workload's own build calls and the end-to-end times are process CPU
seconds (wall time is printed beside them, and gated on nowhere).

``--trace 0`` runs the workload's passes untraced and reports the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs the first
pass (every pass, when the passes are the parts of one whole) three
times: once untraced, then twice under :class:`layers.LayerTracer`, and
reports the per-layer metrics.  It also
checks that the three runs produce the same output digest (the wrappers
change nothing the program computes) and that every per-layer count
repeats exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``context`` object (host, interpreter, wall time, output digest).
A program that raises fails the run: traceback on stderr, exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPECS = os.path.join(ROOT, "examples", "specs")

sys.path.insert(0, HERE)

import speed  # noqa: E402
from layers import LayerTracer  # noqa: E402
from workloads import WORKLOADS, cpu_clock, wall_clock  # noqa: E402

#: Per-layer metrics that are measured times; every other per-layer
#: metric must repeat exactly across runs of one input.
_VARYING = ("run.import_s", "run.trace_overhead_frac")


def _varies(name: str) -> bool:
    return name.endswith(".self_s") or name in _VARYING


def import_program() -> None:
    """Import every module of the program, so no import (not even one
    inside a function) lands in a timed phase."""
    import pkgutil

    import repro

    location = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([location, SRC]) != SRC:
        raise ImportError("repro was imported from %s, not %s" % (location, SRC))
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            __import__(info.name)


def host_context() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.machine(),
        "python": platform.python_version(),
    }


def measure(workload, seed: int, seconds: float):
    """The untraced run: every pass; the end-to-end values, with each
    pass's CPU times scaled to the nominal host speed (see :mod:`speed`)."""
    results = []
    factors = []
    before = speed.sample(workload.probe_samples)
    probes = list(before)
    for inp in workload.inputs(seed, workload.passes(seconds)):
        results.append(workload.run_pass(inp, workload.setup_repeats))
        after = speed.sample(workload.probe_samples)
        factors.append(speed.factor(before + after))
        probes += after
        before = after
    setup = [r.setup_s * f for r, f in zip(results, factors)]
    cpu = [r.cpu_s * f for r, f in zip(results, factors)]
    commands = [r.commands for r in results]
    if workload.parts:
        values = {
            "setup_s": sum(setup),
            "cpu_s": sum(cpu),
            "cmds_per_cpu_s": sum(commands) / sum(cpu),
        }
    else:
        values = {
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(cpu),
            "cmds_per_cpu_s": statistics.median(
                n / t for n, t in zip(commands, cpu)
            ),
        }
    attempted = sum(r.attempted for r in results)
    failed = sum(r.attempted - r.passed for r in results)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    values["ok_frac"] = (attempted - failed) / attempted
    context = {
        "passes": len(results),
        "digest": _digest(results),
        "pass_digests": [r.digest for r in results],
        "raw_cpu_s": [r.cpu_s for r in results],
        "raw_setup_s": [r.setup_s for r in results],
        "wall_s_per_pass": [r.wall_s for r in results],
        "speed_factors": factors,
        "probe_median_s": statistics.median(probes),
    }
    return failed == 0, attempted, failed, values, context


def _digest(results) -> str:
    """One digest for a run's outputs, whatever order its passes ran in."""
    return hashlib.sha256(
        "".join(sorted(r.digest for r in results)).encode()
    ).hexdigest()


def traced(workload, seed: int, import_s: float):
    """The traced run: the first pass (the whole grid, for a workload whose
    passes are parts) once untraced, then twice traced."""
    inputs = workload.inputs(seed, 1)
    runs = []
    cpus = []
    snapshots = []
    tracer = LayerTracer()
    for index in range(3):
        if index == 1:
            tracer.install()
        tracer.reset()
        gc.collect()
        cpu0 = cpu_clock()
        results = [workload.run_pass(inp, 1) for inp in inputs]
        cpus.append(cpu_clock() - cpu0)
        runs.append(results)
        if index:
            snapshot = tracer.snapshot()
            for result in results:
                for name, value in result.counts.items():
                    snapshot[name] += value
            snapshots.append(snapshot)
    tracer.uninstall()

    first, second = snapshots
    drifting = sorted(
        name for name in first if not _varies(name) and first[name] != second[name]
    )
    digests = [_digest(results) for results in runs]
    attempted = sum(r.attempted for results in runs for r in results)
    failed = sum(r.attempted - r.passed for results in runs for r in results)
    values = {
        name: statistics.fmean([first[name], second[name]])
        if _varies(name)
        else first[name]
        for name in first
    }
    values["run.import_s"] = import_s
    values["run.trace_overhead_frac"] = statistics.fmean(cpus[1:]) / cpus[0] - 1.0
    context = {
        "digest": digests[0],
        "digests_match": len(set(digests)) == 1,
        "counts_drifting": drifting,
        "missing_entry_points": tracer.missing,
        "untraced_pass_cpu_s": cpus[0],
        "traced_pass_cpu_s": cpus[1:],
    }
    correct = failed == 0 and len(set(digests)) == 1 and not drifting
    return correct, attempted, failed, values, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (
        os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))
        and os.path.isdir(SPECS)
    ):
        print(
            "perfbench: no program here (expected %s and %s)" % (SRC, SPECS),
            file=sys.stderr,
        )
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, SRC)
    import_program()
    import_s = cpu_clock()

    workload = WORKLOADS[args.workload](SPECS)
    modules = set(sys.modules)
    wall0 = wall_clock()
    if args.trace:
        outcome = traced(workload, args.seed, import_s)
    else:
        outcome = measure(workload, args.seed, args.seconds)
    correct, attempted, failed, values, context = outcome
    context.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        wall_s=wall_clock() - wall0,
        cpu_s=cpu_clock() - import_s,
        import_cpu_s=import_s,
        late_imports=sorted(set(sys.modules) - modules),
        **host_context(),
    )
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    print(json.dumps({"context": context}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
