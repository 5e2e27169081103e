"""Counted accesses and tuning decisions do not follow the ``str`` hash seed.

Equal decisions under two hash seeds is a property of a *pair* of runs (a
2-safety hyperproperty), which one process cannot observe: the test runs
this module as a script in two subprocesses, at ``PYTHONHASHSEED=0`` and
``PYTHONHASHSEED=7``, and compares what they print.  Each run autotunes the
``graph`` and ``scheduler`` quick traces with their hand layouts included,
as the benchmark's ``autotuned`` column does, and drives the 1,000-op FD-off
drifting workload of ``test_live.py`` through a live relation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = ("0", "7")


def decisions() -> dict:
    """The replayed counts, winners and live re-tunes of one run."""
    from benchmarks.workloads import build_workloads
    from repro import SamplingTraceRecorder, open_relation
    from repro.autotuner import Trace, autotune
    from test_live import EDGE_SPEC, FORWARD_LAYOUT, apply_op, drifting_workload

    out = {}
    for workload in build_workloads(quick=True, names=["graph", "scheduler"]):
        result = autotune(
            workload.spec,
            Trace.from_workload(workload),
            include=list(workload.hand_layouts().values()),
        )
        out[workload.name] = {
            "replayed": [[c.layout, c.accesses] for c in result.replayed],
            "winner": result.winner.layout,
        }
    live = open_relation(
        EDGE_SPEC,
        FORWARD_LAYOUT,
        live=True,
        enforce_fds=False,
        policy={"min_ops": 150, "drift_threshold": 0.25},
        sampler=SamplingTraceRecorder(),
    )
    for op in drifting_workload(1000, fd_off=True):
        apply_op(live, op)
    out["live"] = [[r.op_index, r.swapped, r.new_layout] for r in live.retunes]
    return out


def test_two_hash_seeds_decide_alike():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    runs = [
        subprocess.Popen(
            [sys.executable, __file__],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in SEEDS
    ]
    try:
        outputs = [run.communicate(timeout=300)[0] for run in runs]
    finally:
        for run in runs:
            run.kill()
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (json.loads(output) for output in outputs)
    assert first.keys() == {"graph", "scheduler", "live"}
    for name in ("graph", "scheduler"):
        assert first[name]["replayed"] == second[name]["replayed"], name
        assert first[name]["winner"] == second[name]["winner"], name
    assert first["live"] == second["live"]
    assert any(swapped for _, swapped, _ in first["live"])


if __name__ == "__main__":
    json.dump(decisions(), sys.stdout)
