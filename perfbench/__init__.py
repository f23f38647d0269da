"""The repository benchmark: served workloads plus a traced per-layer run.

Run ``python3 perfbench/run.py --workload point --seed 1 --seconds 8
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
