"""End-to-end benchmark of the dcSR stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload play_static --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` traces the set-up and every second session and reports the
per-layer metrics instead.  Workloads, metrics and predictions are
described in ``perfbench/README.md``.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a readable table with sample counts and the run's environment.  A failed
correctness check still prints the result (``"correct": false``) but
exits with status 1.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads, set before numpy loads.  One thread: the benchmark is one
#: closed-loop viewer, and a second BLAS thread only adds scheduling noise
#: on a shared two-core host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("play_static", "play_cuts_http")


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale=None):
    """Run one workload in this process.

    Returns ``(run, metrics, raw, recorder)``: ``raw`` is the end-to-end
    table of unscaled seconds (untraced runs only), ``recorder`` the span
    recorder (traced runs only).
    """
    import metrics
    import workloads
    from spans import SpanRecorder

    recorder = SpanRecorder() if trace else None
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.RUNNERS[name](
            seed, seconds, workdir, scale=scale or workloads.FULL,
            recorder=recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        return run, metrics.per_layer(run, recorder), None, recorder
    return (run, metrics.end_to_end(run),
            metrics.end_to_end(run, scaled=False), recorder)


def run_all(args) -> int:
    """Each workload in its own child process, one after another; the
    last line merges their results under ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import metrics
    import probe
    import workloads

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    run, table, raw, recorder = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        scale=workloads.FULL if args.scale == "full" else workloads.TINY)
    env["loadavg_after"] = os.getloadavg()
    env["probe_ms_median"] = 1e3 * probe.REFERENCE_S / metrics.run_scale(run)
    env["probe_reference_ms"] = 1e3 * probe.REFERENCE_S
    env["probe_samples"] = len(run.sampler.samples)
    if recorder is not None:
        recorder.write(ROOT / ".perfbench_work"
                       / f"spans-{args.workload}-seed{args.seed}.json")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env {json.dumps(env)}")
    width = max(len(name) for name in table)
    for name, (value, unit, samples) in table.items():
        note = ""
        if name == "frame_gap_tail_ms":
            note += f"  (p{metrics.TAIL_PERCENTILE})"
        if raw is not None and raw[name][0] != value:
            note += f"  (unscaled {raw[name][0]:.6g})"
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<9} "
              f"n={samples}{note}")
    correct = not run.mismatches
    for mismatch in run.mismatches:
        print(f"MISMATCH: {mismatch}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit, _n) in table.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
