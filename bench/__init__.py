"""Benchmark of lgradial: seeded workloads, checked results, traced layer spans.

Run it from the repository root as `python3 bench/run.py --workload NAME
--seed N --seconds S --trace 0|1`; `bench/README.md` explains the
workloads and metrics.
"""
