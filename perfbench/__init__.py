"""End-to-end benchmark of the public ``repro`` API.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one seeded workload through ``repro.open`` and the relation it
returns, checks the outputs against an independent model, and prints one
JSON result line (see ``run.py``).  ``BENCHMARK.json`` at the repository
root declares the workloads and metrics.
"""
