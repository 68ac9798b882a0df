"""Benchmark of the decotherm library and CLI.

Run from the repository root:

    python3 -m perfbench --workload steady_sweep --seed 1 --seconds 30 --trace 0

See perfbench/README.md for the workloads, metrics and checks.
"""

#: the benchmark's workloads, in BENCHMARK.json order
WORKLOADS = ("cli_configs", "steady_sweep", "dense_d16")
