"""One workload in one process: set up, run units for a time, report JSON.

    python3 perfbench/worker.py --workload wer-n24 --seed 1 --seconds 10 [--trace] [--setup-only]

Run from the repository root with ``src`` on PYTHONPATH; ``run.py`` does
this with single-threaded BLAS pinned. The last line of standard output is a
JSON object. ``ready`` is the CLOCK_MONOTONIC time at which set-up finished,
so the parent can measure set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import tracer as tracing
import workloads


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "NUMPY_MADVISE_HUGEPAGE": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }


def measure(workload, seed, workdir, seconds=None, units=None, trace=False, budget_s=None):
    """Run ``workload`` for ``seconds`` of wall time, or for exactly ``units``
    units; returns a dict with per-trial records, unit outputs and metrics.
    Every wrapper is removed again before this returns."""
    w = workloads.WORKLOADS[workload]()
    w.setup(seed, workdir)
    ready = time.monotonic()
    tracer = tracing.Tracer() if trace else None
    clock = workloads.TrialClock(budget_s if budget_s is not None else w.budget_s, tracer)
    hooks = tracing.Patcher()
    outputs, violations = [], []
    try:
        if tracer is not None:
            tracer.install()
        if w.trial_end is not None:
            def end_trial(fn):
                def hook(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    clock.mark()
                    return result
                return hook
            hooks.replace(*w.trial_end, end_trial)
        unit_rates = []
        t0 = time.perf_counter()
        k = 0
        while (units is None and time.perf_counter() - t0 < seconds) or (units is not None and k < units):
            u0, done0 = time.perf_counter(), len(clock.records)
            out, bad = w.run_unit(k, clock)
            completed = sum(1 for r in clock.records[done0:] if r[1] is None)
            unit_rates.append(completed / (time.perf_counter() - u0))
            outputs.append(out)
            violations.extend(bad)
            k += 1
        wall = time.perf_counter() - t0
    finally:
        clock.stop()
        hooks.restore()
        if tracer is not None:
            tracer.remove()

    records = clock.records
    times = [r[0] for r in records if r[0] is not None]
    ok = sum(1 for r in records if r[1] is None)
    tail_ms, tail_pct = tracing.tail(times)
    result = {
        "workload": workload, "seed": seed, "budget_s": clock.budget_s,
        "ready": ready, "units": k, "wall_s": wall, "overall_trials_per_s": ok / wall,
        "attempted": len(records), "failed": len(records) - ok,
        "failures": [{"trial": i, "unit": r[2], "position": r[3], "error": r[1]}
                     for i, r in enumerate(records) if r[1] is not None],
        "tail_percentile": tail_pct, "tail_samples": len(times), "unit_rates": unit_rates,
        "trial_ms": times,
        "outputs": outputs, "violations": violations,
        "metrics": {
            # Median over units, so a burst of load on a shared machine moves
            # it less than the overall rate (ok / wall_s, also reported).
            "trials_per_s": statistics.median(unit_rates) if unit_rates else 0.0,
            "trial_ms_p50": statistics.median(times) if times else 0.0,
            "trial_ms_tail": tail_ms,
            "completed_frac": ok / len(records) if records else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(
            tracer.spans, len(records), tracer.constraints_peak_bytes)
        result["spans"] = len(tracer.spans)
        tracer.write(os.path.join(workdir, f"spans-{workload}-seed{seed}.jsonl"))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--units", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    if args.setup_only:
        workloads.WORKLOADS[args.workload]().setup(args.seed, args.workdir)
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    result = measure(args.workload, args.seed, args.workdir, seconds=args.seconds,
                     units=args.units, trace=args.trace)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
