"""lpldpc benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload wer-n24 --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src``. Each
workload runs in its own process with one thread and single-threaded BLAS.
Set-up is measured in ``SETUP_RUNS`` separate processes, from process start
to the first timed trial, and reported as their median.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the workload
untraced and then traced, prints the per-layer metrics and the tracing
overhead, and checks that both runs produced the same outputs. Every run
checks its outputs (invariants for any seed, stored references for the
default seed) and exits nonzero on a violation. The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--write-references`` re-records ``references.json`` at the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
REFERENCES = os.path.join(HERE, "references.json")
# Units recorded per workload by --write-references (wer-n48: one decode each).
REFERENCE_UNITS = {"wer-n24": 4, "wer-n48": 12, "witness-dv25": 3, "pseudo-scan": 4}
# trial_ms_tail is printed in the summary but is not an end-to-end metric:
# bursts of load on a shared machine moved it by 20-23% between seeds, as
# much as the largest bound a metric may have.
END_TO_END = (
    ("trials_per_s", "1/s"),
    ("trial_ms_p50", "ms"),
    ("completed_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _worker(root, args, timeout):
    """Run the worker process; returns its JSON result plus ``setup_s``."""
    env = dict(os.environ)
    # NUMPY_MADVISE_HUGEPAGE=0: whether a large array gets transparent huge
    # pages depends on the host's memory state, which moved pseudo-scan's
    # trial times by up to 40% between identical runs.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMPY_MADVISE_HUGEPAGE="0", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(root, "src"))
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def same_output(a, b):
    """Equal unit outputs: CSV digests byte for byte, decodes by status and
    objective (1e-9). A unit that failed on either side is not compared."""
    if a is None or b is None:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if "error" in a or "error" in b:
        return True
    return a["status"] == b["status"] and math.isclose(
        a["objective"], b["objective"], rel_tol=1e-9, abs_tol=1e-9)


def compare(outputs, expected, what):
    return [f"unit {k}: output differs from {what}"
            for k, (a, b) in enumerate(zip(outputs, expected)) if not same_output(a, b)]


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def write_references(root, workdir):
    refs = {"seed": workloads.DEFAULT_SEED}
    for name, units in REFERENCE_UNITS.items():
        res = _worker(root, ["--workload", name, "--seed", str(workloads.DEFAULT_SEED),
                             "--units", str(units), "--workdir", os.path.join(workdir, name)],
                      timeout=900)
        if res["violations"]:
            raise BenchError(f"{name}: {res['violations']}")
        refs[name] = res["outputs"]
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, runs, setup_times, violations):
    """Print the human-readable summary; returns the result object."""
    main, traced = runs[0], (runs[1] if len(runs) > 1 else None)
    shown = traced or main
    env = main["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for label, res in (("untraced", main), ("traced", traced)):
        if res is None:
            continue
        print(f"{label}: {res['attempted']} trials attempted, {res['failed']} failed "
              f"(failed_frac {res['failed'] / max(res['attempted'], 1):.4g}), "
              f"budget {res['budget_s']:g} s/trial, {res['units']} units in {res['wall_s']:.3f} s "
              f"({res['overall_trials_per_s']:.4g} trials/s overall)")
        print(f"  trial_ms_tail {res['metrics']['trial_ms_tail']:.6g} ms: "
              f"p{res['tail_percentile']:.2f} of {res['tail_samples']} trial times, "
              f"median over blocks of at least {tracing.TAIL_BLOCK}")
        fails = res["failures"]
        for i, f in enumerate(fails):
            if f["error"] != "DriverAborted":
                print(f"  failed trial {f['trial']} (unit {f['unit']}, position {f['position']}): {f['error']}")
            elif i == 0 or fails[i - 1]["error"] != "DriverAborted":
                skipped = sum(1 for g in fails if g["unit"] == f["unit"] and g["error"] == "DriverAborted")
                print(f"  failed trials {f['trial']}..{f['trial'] + skipped - 1} (unit {f['unit']}): "
                      "DriverAborted, not run after the abort")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_times)}")

    if args.trace:
        values = dict(traced["layers"])
        base = main["metrics"]["trials_per_s"]
        values["trace.overhead_pct"] = (
            100.0 * (base - traced["metrics"]["trials_per_s"]) / base if base > 0 else 0.0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
    else:
        values = dict(main["metrics"], setup_s=statistics.median(setup_times))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:40s} {_fmt(m['value']):>14s} {m['unit']}")
    for v in violations:
        print(f"VIOLATION: {v}")
    print("correct" if not violations else f"INCORRECT: {len(violations)} violation(s)")
    return {"correct": not violations, "attempted": shown["attempted"],
            "failed": shown["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lpldpc", "__init__.py")):
        print("perfbench: src/lpldpc not found; run from the repository root", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench")
    try:
        if args.write_references:
            write_references(root, workdir)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        wdir = os.path.join(workdir, f"{args.workload}-seed{args.seed}")
        common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", wdir]
        timeout = args.seconds + 60
        setup_times = [_worker(root, common + ["--setup-only"], timeout)["setup_s"]
                       for _ in range(SETUP_RUNS - 1 - args.trace)]
        runs = [_worker(root, common + ["--seconds", str(args.seconds)], timeout)]
        if args.trace:
            runs.append(_worker(root, common + ["--seconds", str(args.seconds), "--trace"], timeout))
        setup_times += [r["setup_s"] for r in runs]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    violations = [v for r in runs for v in r["violations"]]
    if args.seed == workloads.DEFAULT_SEED:
        expected = load_references().get(args.workload, [])
        for r in runs:
            violations += compare(r["outputs"], expected, "the default-seed reference")
    if args.trace:
        violations += compare(runs[1]["outputs"], runs[0]["outputs"], "the untraced run")
    result = report(args, runs, setup_times, violations)
    with open(os.path.join(wdir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({"result": result, "runs": runs, "setup_s": setup_times}, fh)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
