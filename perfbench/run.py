"""Repository benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the separate traced run: it wraps each layer's entry
points, records spans, and reports the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading

#: native thread pools pinned to one thread, so the run is one process
#: with one client thread and no hidden fan-out.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> dict:
    """Clear every ``REPRO_*`` knob and pin native thread pools.

    Must run before numpy or the program is imported.  Returns what it
    did, for the run record.
    """
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    for key in THREAD_ENV:
        os.environ[key] = "1"
    return {"cleared_env": cleared, "pinned_env": {k: "1" for k in THREAD_ENV}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("point", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = pin_environment()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: program source not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, root]

    import numpy as np

    from perfbench import workloads
    from perfbench.layers import PER_LAYER_UNITS

    bench = workloads.Bench(args.seed, args.seconds, bool(args.trace), workloads.Sizes())
    values = workloads.run(args.workload, bench)
    units = PER_LAYER_UNITS if args.trace else workloads.END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "clients": 1,
        # 1 means no pool workers or background threads ever started
        "threads_at_end": threading.active_count(),
        **pinned,
        **bench.notes,
        "errors": bench.errors,
    }
    print(json.dumps({"run": record}, default=str))
    for name, value in values.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": float(value) if np.isfinite(value) else 0.0,
                   "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
