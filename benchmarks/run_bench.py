#!/usr/bin/env python
"""Run the micro-benchmarks and drop a dated result file at the repo root.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/run_bench.py

Runs ``benchmarks/test_perf_micro.py`` under pytest-benchmark, then a
compute-bound sweep-throughput measurement (few huge trials, serial vs
pool; measures process fan-out), saves the combined machine-readable
output to ``BENCH_<YYYY-MM-DD>.json``, and prints per-benchmark tables.
Pass extra pytest args after ``--``::

    PYTHONPATH=src python benchmarks/run_bench.py -- -k read_burst

Pass ``--sweep-only`` to skip the pytest micro-benchmarks and run just
the sweep measurement (what the CI benchmark job does).
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILE = os.path.join(REPO_ROOT, "benchmarks", "test_perf_micro.py")

#: Compute-bound workload: few trials, heavy per-trial compute.  This
#: measures process fan-out only — on a single-vCPU host the pool
#: *cannot* win (it records the scheduler's overhead, honestly; check
#: ``cpu_count`` in the output before reading the speedup as a verdict).
SWEEP_TRIALS = 16
SWEEP_SAMPLES_PER_TRIAL = 500_000
#: Size the pool to the host.
SWEEP_POOL_WORKERS = min(4, os.cpu_count() or 1)


def _src_path() -> None:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def run_sweep_bench() -> dict:
    """Measure compute-bound sweep throughput (trials/sec), serial vs pool.

    Same spec both ways; the engine guarantees identical results, so the
    only thing this measures is scheduling and process fan-out.
    """
    _src_path()
    from repro.engine import SweepSpec, run_sweep

    spec = SweepSpec(
        name="bench-sweep",
        kind="monte_carlo",
        seed=7,
        repeats=SWEEP_TRIALS,
        base={"trials": SWEEP_SAMPLES_PER_TRIAL, "physical_blocks": 262_144},
    )
    results = {
        "trials": SWEEP_TRIALS,
        "samples_per_trial": SWEEP_SAMPLES_PER_TRIAL,
        "workers": SWEEP_POOL_WORKERS,
        "cpu_count": os.cpu_count(),
    }
    started = time.perf_counter()
    serial = run_sweep(spec, workers=0)
    serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    pooled = run_sweep(spec, workers=SWEEP_POOL_WORKERS)
    pool_seconds = time.perf_counter() - started
    if serial.summary_json() != pooled.summary_json():
        raise AssertionError("serial and pooled sweep summaries diverged")
    results["serial_seconds"] = serial_seconds
    results["pool_seconds"] = pool_seconds
    results["serial_trials_per_sec"] = SWEEP_TRIALS / serial_seconds
    results["pool_trials_per_sec"] = SWEEP_TRIALS / pool_seconds
    results["speedup"] = serial_seconds / pool_seconds
    results["pool_degraded_to_serial"] = pooled.degraded_to_serial
    return results


def main(argv: list) -> int:
    date = datetime.date.today().isoformat()
    out_path = os.path.join(REPO_ROOT, "BENCH_%s.json" % date)

    sweep_only = "--sweep-only" in argv
    extra = []
    if "--" in argv:
        extra = argv[argv.index("--") + 1 :]

    if sweep_only:
        report = {}
    else:
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        cmd = [
            sys.executable,
            "-m",
            "pytest",
            BENCH_FILE,
            "-q",
            "--benchmark-only",
            "--benchmark-json=%s" % out_path,
        ] + extra
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            return proc.returncode

        with open(out_path) as handle:
            report = json.load(handle)
        print()
        print("%-38s %12s %12s" % ("benchmark", "median (us)", "mean (us)"))
        for bench in report["benchmarks"]:
            stats = bench["stats"]
            print(
                "%-38s %12.2f %12.2f"
                % (bench["name"], stats["median"] * 1e6, stats["mean"] * 1e6)
            )

    sweep = run_sweep_bench()
    report["sweep_throughput"] = sweep
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print()
    print("sweep throughput, compute-bound (%d Monte Carlo trials x %d "
          "samples, %s cpus):"
          % (sweep["trials"], sweep["samples_per_trial"], sweep["cpu_count"]))
    print("%-38s %12s %12s" % ("mode", "seconds", "trials/sec"))
    print("%-38s %12.3f %12.1f"
          % ("serial", sweep["serial_seconds"], sweep["serial_trials_per_sec"]))
    print("%-38s %12.3f %12.1f"
          % ("pool (%d workers)" % sweep["workers"], sweep["pool_seconds"],
             sweep["pool_trials_per_sec"]))
    print("pool speedup: %.2fx%s"
          % (sweep["speedup"],
             " (degraded to serial)" if sweep["pool_degraded_to_serial"] else ""))
    print("\nwrote %s" % os.path.relpath(out_path, REPO_ROOT))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
