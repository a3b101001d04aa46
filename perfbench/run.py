"""Benchmark command for amplab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each sample is one run of the workload in a
fresh process (``worker.py``), so nothing cached in one timed run reaches the
next. Samples are taken until the next one would end after ``--seconds``;
there is always at least one.

``--trace 0`` reports the end-to-end metrics: medians over the samples of
``wall_s``, ``cpu_s`` and ``peak_rss_mb``, and of ``setup_s`` over the
samples plus as many processes that only set up, one after each sample, so
that set-up is timed several times a run. ``--trace 1``
alternates untraced and traced samples and reports the per-layer metrics of
the traced ones, plus ``trace.overhead_frac``, the traced wall time over the
untraced one, minus one.

Every sample checks the workload's outputs; each check is one operation
attempted. The last line of standard output is the JSON result; the lines
before it give each metric with its unit and sample count, every check with
its measured value and bound where it has them, and the manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import manifest  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402

WORKLOADS = ("spectral", "aniso", "se_matrix", "tensor")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SAMPLE_TIMEOUT_S = 120


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in the order the result lists them."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_frac"] = "ratio"
        units[f"{name}.calls"] = "count"
    units.update({
        "numpy.linalg.cholesky.failed": "count",
        "denoisers.analytic_div_frac": "ratio",
        "state_evolution.log_records": "count",
        "trace.wall_s": "s",
        "trace.unattributed_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


class SampleError(RuntimeError):
    pass


def sample(workload: str, seed: int, *flags: str) -> dict:
    """One worker process; its JSON line, or SampleError if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample exceeded {SAMPLE_TIMEOUT_S} s: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise SampleError(f"sample failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def take_samples(seconds: float, take) -> list:
    """Call ``take`` until the next call, lasting as long as the median so
    far, would end after ``seconds``; at least once."""
    start = time.monotonic()
    results, durations = [], []
    while True:
        t0 = time.monotonic()
        results.append(take())
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return results


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def count_checks(samples) -> tuple:
    checks = [c for s in samples for c in s["checks"]]
    return len(checks), sum(not c["passed"] for c in checks)


def end_to_end(args) -> tuple:
    pairs = take_samples(args.seconds, lambda: (sample(args.workload, args.seed),
                                                sample(args.workload, args.seed, "--setup-only")))
    runs = [r for r, _ in pairs]
    values = {name: [r[name] for r in runs] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = [s["setup_s"] for pair in pairs for s in pair]
    metrics = {}
    for name, unit in END_TO_END.items():
        metrics[name] = statistics.median(values[name])
        print(f"{name:<12} {metrics[name]:.6f} {unit:<3} median ({spread(values[name])})")
    return runs, metrics


def per_layer(args) -> tuple:
    pairs = take_samples(args.seconds, lambda: (sample(args.workload, args.seed),
                                                sample(args.workload, args.seed, "--trace")))
    plain = [p for p, _ in pairs]
    traced = [t["trace"] for _, t in pairs]
    metrics = {}
    for name, unit in per_layer_units().items():
        if name == "trace.overhead_frac":
            continue
        values = [t[name] for t in traced]
        if unit == "count":
            # counts repeat exactly, so keep them whole instead of averaging two
            metrics[name] = statistics.median_low(values)
            note = "" if len(set(values)) == 1 else "  (differs between runs)"
        else:
            metrics[name] = statistics.median(values)
            note = ""
        if name.endswith(".self_frac"):
            seconds = statistics.median(t[name] * t["trace.wall_s"] for t in traced)
            note = f"  self {seconds:.6g} s"
        print(f"{name:<52} {metrics[name]:.6g} {unit} median ({spread(values)}){note}")
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / untraced_wall - 1.0
    print(f"{'trace.overhead_frac':<52} {metrics['trace.overhead_frac']:.6g} ratio "
          f"(traced {metrics['trace.wall_s']:.4f} s / untraced {untraced_wall:.4f} s, "
          f"{len(pairs)} pairs)")
    metrics = {name: metrics[name] for name in per_layer_units()}
    return plain + [t for _, t in pairs], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so the running sample is killed and
    # waited for instead of left behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    try:
        runs, metrics = (per_layer if args.trace else end_to_end)(args)
    except SampleError as exc:
        print(exc, file=sys.stderr)
        return 1
    units = per_layer_units() if args.trace else END_TO_END
    attempted, failed = count_checks(runs)
    for check in runs[0]["checks"]:
        verdict = "pass" if check["passed"] else "FAIL"
        figures = "".join(f"  {key} {check[key]:.6g}" for key in ("value", "bound")
                          if check[key] is not None)
        print(f"check {check['name']:<28} {verdict}{figures}")
    print(f"checks {attempted - failed}/{attempted} passed over {len(runs)} samples")
    record = {"workload": args.workload, "seed": args.seed,
              "config_hash": runs[0]["config_hash"], **runs[0]["environment"],
              **manifest.revision(ROOT)}
    print("manifest " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
