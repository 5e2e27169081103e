"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sched_serve --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics of a traced episode (plus ``trace.overhead``
against untraced episodes of the same seed) and writes its spans under
``.perfbench/``.  Standard output ends with one JSON line::

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

preceded by the full report (workload properties, sample counts, codegen
cache statistics, every end-to-end metric including ``stall_s`` and
``error_rate``).  Times are scaled to a reference machine speed measured
during the run (see ``measure.py``).  The interpreter is re-executed with
``PYTHONHASHSEED`` pinned, so hash-chain layouts give repeatable counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_HASH_SEED = "0"

#: The end-to-end metrics on the result line: those that are never zero.
#: ``stall_s`` (zero without a live relation) and ``error_rate`` (zero when
#: correct; the result line carries ``failed``/``attempted``) are in the
#: report only.
RESULT_END_TO_END = (
    "setup_s",
    "ops_per_s",
    "read_p50_us",
    "read_p99_us",
    "write_p50_us",
    "write_p99_us",
    "mem_bytes_per_row",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != PINNED_HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=PINNED_HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.measure import untraced_run
    from perfbench.tracing import traced_run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    factory = WORKLOADS[args.workload]
    if args.trace:
        report = traced_run(factory, args.seed, args.seconds, ROOT / ".perfbench")
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in report["per_layer"].items()}
    else:
        report = untraced_run(factory, args.seed, args.seconds)
        metrics = {name: {"value": report["metrics"][name]["value"],
                          "unit": report["metrics"][name]["unit"]}
                   for name in RESULT_END_TO_END}
    report.update(seed=args.seed, pythonhashseed=os.environ["PYTHONHASHSEED"],
                  seconds=args.seconds, trace=args.trace)
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
