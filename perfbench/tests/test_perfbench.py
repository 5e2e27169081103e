"""Self-tests of the benchmark: determinism, metric coverage, spans, checks.

Run from the repository root with ``python -m pytest perfbench/tests``.  The
workloads are shrunk through their module constants so each test takes
seconds; the code paths are the ones a full run takes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few thousand operations."""
    for name, value in {
        "NAMESPACES": 2,
        "PIDS_PER_NAMESPACE": 64,
        "EVENTS_SPAN": 256,
        "TRAINING_SPAN": 32,
        "TRAINING_STEPS": 48,
        "DRIFT_AT": 400,
        "GRAPH_EPISODE_OPS": 800,
    }.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(workloads.Workload, "chunk_ops", 1_000)
    for cls in (workloads.SchedServe, workloads.EventsTune):
        monkeypatch.setattr(cls, "traced_ops", 3_000)
        monkeypatch.setattr(cls, "mem_ops", 2_000)
    monkeypatch.setattr(measure, "SETUP_SAMPLES", 2)


def fingerprint(workload):
    chunks = [chunk for chunk in (workload.next_chunk() for _ in range(2)) if chunk]
    return (
        workload.preload,
        [[op[:3] for op in ops] for ops, _ in chunks],
        [[rows for _, rows in expected] for _, expected in chunks],
        workload.rows(),
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed_and_differ_across_seeds(small, name):
    factory = workloads.WORKLOADS[name]
    assert fingerprint(factory(3)) == fingerprint(factory(3))
    assert fingerprint(factory(3)) != fingerprint(factory(4))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_is_correct_and_emits_every_end_to_end_metric(small, name):
    report = measure.untraced_run(workloads.WORKLOADS[name], 1, seconds=0.01)
    assert report["failed"] == 0, report["failures"]
    assert [m for m, _ in measure.END_TO_END] == list(report["metrics"])
    for metric, entry in report["metrics"].items():
        assert NAME.fullmatch(metric) and entry["unit"]
        assert entry["samples"] >= 0
    assert report["metrics"]["error_rate"]["value"] == 0
    for metric in run.RESULT_END_TO_END:
        assert report["metrics"][metric]["value"] > 0, metric


def test_benchmark_json_declares_the_emitted_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.RESULT_END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == [m for m, _ in tracing.PER_LAYER]
    units = dict(measure.END_TO_END)
    units.update(tracing.PER_LAYER)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and metric["unit"] == units[metric["name"]]
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(workloads.WORKLOADS)


COUNTED = (
    "structures.read_accesses_per_op",
    "structures.write_accesses_per_op",
    "structures.lookups_per_op",
    "structures.scans_per_op",
    "structures.allocations_per_op",
    "structures.accesses_per_row",
    "autotuner.candidates",
    "autotuner.replayed",
    "autotuner.winner_static_rank",
    "live.retunes",
    "live.swaps",
    "live.migrated_rows",
    "codegen.source_lines",
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_runs_emit_every_per_layer_metric_with_identical_counts(small, tmp_path, name):
    factory = workloads.WORKLOADS[name]
    first = tracing.traced_run(factory, 2, 0.01, tmp_path)
    second = tracing.traced_run(factory, 2, 0.01, tmp_path)
    assert first["failed"] == 0 and second["failed"] == 0, first["failures"]
    assert list(first["per_layer"]) == [m for m, _ in tracing.PER_LAYER]
    for metric, entry in first["per_layer"].items():
        assert NAME.fullmatch(metric) and entry["unit"]
    for metric in COUNTED:
        assert first["per_layer"][metric] == second["per_layer"][metric], metric
    assert first["per_layer"]["structures.read_accesses_per_op"]["value"] > 0
    assert Path(first["spans"]["path"]).is_file()
    if name == "graph_live":
        assert first["per_layer"]["live.retunes"]["value"] >= 1
        assert first["per_layer"]["live.observe_us"]["value"] > 0
    if name == "events_tune":
        assert first["per_layer"]["autotuner.candidates"]["value"] > 0


def test_spans_nest_inside_their_parents(small):
    episode = tracing.traced_episode(workloads.GraphLive, 1, "nesting")
    tracer = episode["tracer"]
    assert {"repro.open", "live.retune", "autotuner.autotune", "live.observe",
            "decomposition.exact_accesses", "codegen.compile_relation"} <= set(tracer.names)
    for start, end, parent in zip(tracer.starts, tracer.ends, tracer.parents):
        assert start <= end
        if parent >= 0:
            assert tracer.starts[parent] <= start and end <= tracer.ends[parent]
    assert min(tracer.self_times()) >= 0


class Forwarding:
    """Forwards the five operations and iteration to a correct relation."""

    def __init__(self, inner):
        self.inner = inner

    def query(self, pattern=None, output=None):
        return self.inner.query(pattern, output)

    def query_range(self, column, lo=None, hi=None):
        return self.inner.query_range(column, lo, hi)

    def insert(self, row):
        self.inner.insert(row)

    def remove(self, pattern=None):
        self.inner.remove(pattern)

    def update(self, pattern, changes):
        self.inner.update(pattern, changes)

    def __iter__(self):
        return iter(self.inner)


class LosesRows(Forwarding):
    """Deliberately wrong: every read drops its last row."""

    def query(self, pattern=None, output=None):
        return super().query(pattern, output)[:-1]

    def query_range(self, column, lo=None, hi=None):
        return super().query_range(column, lo, hi)[:-1]


class SkipsUpdates(Forwarding):
    """Deliberately wrong: updates are acknowledged and dropped."""

    def update(self, pattern, changes):
        pass


@pytest.mark.parametrize("wrong", [LosesRows, SkipsUpdates])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_wrong_relation_gives_a_positive_error_rate(small, name, wrong):
    workload = workloads.WORKLOADS[name](1)
    stats = measure.StreamStats()
    relation = wrong(measure.open_relation(workload))
    episode = measure.run_episode(workload, relation, stats, max_ops=3_000)
    assert len(episode["failures"] + stats.failures) / episode["attempted"] > 0


def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sched_serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

