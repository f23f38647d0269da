"""Run every figure/table report in sequence.

Usage:  python benchmarks/run_all.py [--only=mod1,mod2] [output_file]

Prints each benchmark module's paper-style series (the same output the
per-module ``python benchmarks/bench_*.py`` invocations give), in
paper order, optionally teeing to a file.  ``--only`` restricts the
run to a comma-separated subset of module names (with or without the
``bench_`` prefix) — CI uses this to run a small profile.

After the modules run, every ``BENCH_<name>.json`` they emitted (see
:func:`repro.bench.emit_bench_json`) is combined into one
``BENCH_report.json`` for ``tools/bench_compare.py`` to diff against a
previous run.
"""

from __future__ import annotations

import contextlib
import glob
import importlib
import json
import sys
import time

MODULES = [
    "bench_table1_features",
    "bench_fig8_ivf_systems",
    "bench_fig9_hnsw_systems",
    "bench_fig10_scalability",
    "bench_fig11_cache_aware",
    "bench_fig12_simd",
    "bench_fig13_gpu_hybrid",
    "bench_fig14_attr_strategies",
    "bench_fig15_attr_systems",
    "bench_fig16_multivector",
    "bench_ablation_lsm",
    "bench_ablation_blocksize",
    "bench_ablation_batched_ivf",
    "bench_ablation_kernels",
    "bench_ablation_categorical",
    "bench_mixed_rw",
    "bench_obs_overhead",
]

REPORT_PATH = "BENCH_report.json"


def run_all(stream=None, only=None) -> None:
    out = stream or sys.stdout
    modules = MODULES if only is None else _select(only)
    started = time.perf_counter()
    for name in modules:
        print(f"\n{'#' * 16} {name}", file=out)
        module = importlib.import_module(name)
        if stream is None:
            module.main()
        else:
            with contextlib.redirect_stdout(out):
                module.main()
    print(f"\nall reports done in {time.perf_counter() - started:.0f}s", file=out)
    combine_reports(out)


def _select(only) -> list:
    wanted = []
    for token in only.split(","):
        token = token.strip()
        if not token:
            continue
        name = token if token.startswith("bench_") else f"bench_{token}"
        if name not in MODULES:
            raise SystemExit(f"unknown benchmark module {token!r}; "
                             f"choose from {MODULES}")
        wanted.append(name)
    return wanted


def combine_reports(out=sys.stdout, report_path: str = REPORT_PATH) -> dict:
    """Merge all emitted BENCH_<name>.json files into one report."""
    benchmarks = {}
    for path in sorted(glob.glob("BENCH_*.json")):
        if path == report_path:
            continue
        with open(path) as fh:
            payload = json.load(fh)
        benchmarks[payload.get("name", path[len("BENCH_"):-len(".json")])] = payload
    report = {
        "schema_version": 1,
        "generated_by": "benchmarks/run_all.py",
        "benchmarks": benchmarks,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"combined {len(benchmarks)} reports into {report_path}", file=out)
    return report


def main() -> None:
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    only = None
    args = []
    for arg in sys.argv[1:]:
        if arg.startswith("--only="):
            only = arg[len("--only="):]
        else:
            args.append(arg)
    if args:
        with open(args[0], "w") as fh:
            run_all(fh, only=only)
        print(f"wrote {args[0]}")
    else:
        run_all(only=only)


if __name__ == "__main__":
    main()
