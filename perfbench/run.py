"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload ne_refute --seed 1 --seconds 20 --trace 0

The package is imported from `src/` of the checkout this file sits in; the
run fails (exit 1, no result) when that source is missing. `--seconds` sets
the amount of work (a fixed amount per second), so the work depends only on
(seed, seconds); the times are scaled to a reference host speed measured
alongside them (see calibration.py). With `--trace 0` the last stdout line
carries the end-to-end metrics. With `--trace 1` the run first starts an
untraced run of the same work in a child process (for
`trace.overhead_ratio`), then repeats the work with the layer seams wrapped
and reports the per-layer metrics. Either way the results are checked after
the timed phase, and any failed check makes the exit code 1.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
IMPORT_SAMPLES = 10
# Times one import in a fresh interpreter, then the host's speed right after
# it; prints the raw and the calibrated import time.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = [{src!r}, {bench!r}]\n"
    "t0 = time.perf_counter()\n"
    "import workloads\n"
    "raw_s = time.perf_counter() - t0\n"
    "import calibration\n"
    "calibration.warm_up()\n"
    "for _ in range({samples}):\n"
    "    calibration.sample()\n"
    "print(raw_s, raw_s * calibration.scale())\n"
)
CHILD_TIMEOUT_S = 170
TAIL_PERCENTILES = (99, 95, 90, 85, 80, 75, 50)
MIN_SAMPLES_BEYOND_TAIL = 10


def _load_package():
    """Import `intervalgames` from this checkout's source, never from an
    installed copy."""
    if not (SRC / "intervalgames" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'intervalgames'}")
    sys.path.insert(0, str(SRC))
    import intervalgames
    if Path(intervalgames.__file__).resolve().parent != SRC / "intervalgames":
        sys.exit(f"perfbench: imported {intervalgames.__file__}, not the checkout")


def tail_percentile(n: int) -> int:
    """The highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= MIN_SAMPLES_BEYOND_TAIL:
            return p
    return TAIL_PERCENTILES[-1]


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _import_s() -> tuple[float, float]:
    """Median raw and calibrated time to import the package and the
    benchmark's modules, each time in a fresh interpreter, since an import
    cannot be repeated in one."""
    code = IMPORT_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), samples=IMPORT_SAMPLES)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"perfbench: import probe exited {proc.returncode}: {proc.stderr}")
        raw_s, scaled_s = map(float, proc.stdout.split())
        raw.append(raw_s)
        scaled.append(scaled_s)
    return statistics.median(raw), statistics.median(scaled)


def _setup(make, seed: int, seconds: int, workdir: Path):
    """Build the inputs SETUP_REPEATS times from the same seed; keep the last
    copy and return it with the median raw and calibrated build times.

    The collector is off while inputs are built, and the kept inputs are then
    frozen out of its reach, so collections of the benchmark's own heap
    neither slow the set-up nor land in the timed phase."""
    raw, scaled = [], []
    inputs = None
    gc.disable()
    try:
        for _ in range(SETUP_REPEATS):
            inputs = None
            gc.collect()
            inputs, raw_s, scaled_s = calibration.timed_step(
                lambda: make(seed, seconds, workdir))
            raw.append(raw_s)
            scaled.append(scaled_s)
    finally:
        gc.enable()
    gc.collect()
    gc.freeze()
    return inputs, statistics.median(raw), statistics.median(scaled)


def _untraced_child(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: untraced run exited {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("machine_stream", "ne_refute", "br_reduction",
                                 "family_cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    _load_package()
    import tracing
    import workloads
    first_import_s = time.perf_counter() - PROCESS_START
    child = _untraced_child(args) if args.trace else None

    make, run_workload, check = workloads.WORKLOADS[args.workload]
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calibration.warm_up()
        raw_import_s, import_s = _import_s()
        inputs, raw_build_s, build_s = _setup(make, args.seed, args.seconds, workdir)
        setup_s = import_s + build_s
        timed_samples = calibration.sample_count()

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            run = run_workload(inputs)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = _peak_rss_mb()
        failed, parts = check(inputs, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    for note in run.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed} seconds={args.seconds} "
          f"{workloads.digest(parts)}")

    # Times scaled to the reference host (see calibration.py): each op by the
    # kernel samples around it, the wall time by the ops' overall factor,
    # each set-up step by the samples next to it, traced seconds by all the
    # samples of the timed phase.
    k = calibration.scale(timed_samples)
    scaled = run.scaled_latencies_s()
    wall_s = run.wall_s * sum(scaled) / sum(run.latencies_s)
    print(f"perfbench: {args.workload}: calibration scale {k:.4f} in the timed "
          f"phase, {wall_s / run.wall_s:.4f} over the ops; raw setup_s "
          f"{raw_import_s + raw_build_s:.4f} (import {raw_import_s:.4f}, build "
          f"{raw_build_s:.4f}, this run's own import {first_import_s:.4f}), "
          f"raw wall_s {run.wall_s:.4f}", file=sys.stderr)
    if tracer is None:
        lat = sorted(x * 1000 for x in scaled)
        tail_p = tail_percentile(len(lat))
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(wall_s, "s"),
            "ops_per_s": _metric(run.ops / wall_s, "1/s"),
            "op_ms_p50": _metric(percentile(lat, 50), "ms"),
            "op_ms_tail": _metric(percentile(lat, tail_p), "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        print(f"perfbench: {args.workload}: {run.ops} ops, {failed} failed "
              f"(failed_ratio {failed / max(run.ops, 1):.6g}); op_ms_tail is "
              f"p{tail_p} over {len(lat)} op latencies", file=sys.stderr)
    else:
        metrics = {name: _metric(value * k if unit in ("s", "us") else value, unit)
                   for name, (value, unit) in tracer.metrics().items()}
        metrics["trace.overhead_ratio"] = _metric(
            wall_s / child["metrics"]["wall_s"]["value"], "ratio")
        counts = {k: v["value"] for k, v in sorted(metrics.items())
                  if v["unit"] in ("count", "ratio") and k != "trace.overhead_ratio"}
        print(f"counts {args.workload} seed={args.seed} seconds={args.seconds} "
              f"{workloads.digest(counts.items())}")
        layers = tracer.layer_self_seconds()
        split = ", ".join(f"{name} {v / run.wall_s:.1%}"
                          for name, v in sorted(layers.items()))
        print(f"perfbench: {args.workload}: self-time share of traced wall "
              f"{run.wall_s:.3f}s: {split}", file=sys.stderr)
        for seam in tracer.missing:
            print(f"perfbench: seam {seam} not found; its metrics are absent",
                  file=sys.stderr)

    result = {"correct": failed == 0, "attempted": max(run.ops, 1), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
