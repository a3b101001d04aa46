"""One benchmark sample in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T [--trace | --setup-only]

Imports ``amplab`` from ``src/`` of the checkout this file sits in, builds the
workload's config from the seed, runs it once, checks its outputs and prints
one JSON line. ``--spawned-at`` is the ``time.monotonic()`` reading the parent
took just before starting this process, so ``setup_s`` covers interpreter
start, imports and config construction. With ``--setup-only`` the process
stops there; with ``--trace`` the run goes through :class:`tracer.Tracer`.
A fresh process per sample keeps caches from carrying across timed runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_amplab():
    """The checkout's own ``amplab``; an installed copy elsewhere is refused."""
    sys.path.insert(0, SRC)
    import amplab

    if not os.path.abspath(amplab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"amplab imported from {amplab.__file__}, not from {SRC}")
    return amplab


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_amplab()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    config = workload.build(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # the benchmark's own modules load after set-up is timed
    import manifest
    import tracer as tracing

    tracer = tracing.Tracer() if args.trace else None
    with tracing.counting_logs() as logs:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is None:
            output = workload.run(config)
        else:
            with tracer.tracing():
                output = workload.run(config)
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    checks = workload.check(config, output)
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        checks=[vars(c) for c in checks],
        config_hash=workloads.config_hash(config),
        environment=manifest.environment(),
    )
    if tracer is not None:
        result["trace"] = tracer.metrics(logs.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
