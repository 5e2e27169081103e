"""Benchmark harness for the three representation tiers.

Runs deterministic, seeded operation traces — modelled on the paper's
Section 6 workloads (process scheduler, directed graph, spanning-forest
components) — against the reference, interpreted and compiled
implementations of the same relational specification, verifies they agree,
and reports median wall-clock plus deterministic
:class:`~repro.structures.base.OperationCounter` access counts in one JSON
report, which one checker tests against every claim.

Usage::

    PYTHONPATH=src python -m benchmarks --quick --output BENCH.json
    python benchmarks/check.py BENCH.json
"""

from .harness import main, run_all, run_workload
from .workloads import WORKLOADS, Workload, build_workloads

__all__ = ["WORKLOADS", "Workload", "build_workloads", "main", "run_all", "run_workload"]
