"""The traced run: spans and counts at each layer boundary, from outside.

Nothing under ``src/`` is instrumented.  For one episode the benchmark
wraps the public functions each layer is reached through:

* ``repro.live.autotune`` and ``repro.live.compile_relation`` (what
  ``repro.open`` and ``LiveRelation`` call), and the tuner's own
  ``compile_relation``, ``enumerate_decompositions``, ``static_cost`` and
  ``exact_accesses`` (looked up in ``repro.autotuner.tuner`` at call time);
* ``retune`` on the ``LiveRelation`` instance and ``observe`` on the
  sampler instance the benchmark passes in;
* every relation call of the stream, which also takes the
  ``OperationCounter`` deltas of that call.

Spans ``(name, start, end, parent, run id)`` are kept in memory and written
out when the episode ends.  The ``OperationCounter`` is on only for this
episode's preload and stream, and counts are taken per stream call as
deltas.  ``exact_accesses`` enters ``with COUNTER:``, which resets and
disables the process-wide counter, so a call that ran a re-tune has no
usable delta: it is left out of the counts and the counter is re-armed.
"""

from __future__ import annotations

import gc
import gzip
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

import repro.autotuner.tuner as tuner_module
import repro.live as live_module
from repro import SamplingTraceRecorder
from repro.codegen import codegen_cache_stats
from repro.structures import COUNTER

from .measure import (
    StreamStats,
    cold_open,
    open_relation,
    run_episode,
    run_episodes,
    summarize,
)
from .workloads import QUERY, RANGE, Workload

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("codegen.compile_s", "s"),
    ("codegen.source_lines", "lines"),
    ("codegen.cache_hits", "count"),
    ("codegen.cache_misses", "count"),
    ("codegen.point_read_us", "us"),
    ("codegen.index_read_us", "us"),
    ("codegen.range_read_us", "us"),
    ("codegen.insert_us", "us"),
    ("codegen.remove_us", "us"),
    ("codegen.update_us", "us"),
    ("structures.read_accesses_per_op", "accesses/op"),
    ("structures.write_accesses_per_op", "accesses/op"),
    ("structures.lookups_per_op", "lookups/op"),
    ("structures.scans_per_op", "scans/op"),
    ("structures.allocations_per_op", "allocations/op"),
    ("structures.accesses_per_row", "accesses/row"),
    ("core.rows_per_read", "rows/read"),
    ("autotuner.tune_s", "s"),
    ("autotuner.enumerate_s", "s"),
    ("autotuner.static_s", "s"),
    ("autotuner.candidates", "count"),
    ("autotuner.replayed", "count"),
    ("autotuner.winner_static_rank", "rank"),
    ("decomposition.replay_s", "s"),
    ("decomposition.replay_us_per_op", "us/op"),
    ("live.observe_us", "us"),
    ("live.retunes", "count"),
    ("live.swaps", "count"),
    ("live.retune_yield", "ratio"),
    ("live.retune_failures", "count"),
    ("live.retune_s", "s"),
    ("live.retune_self_s", "s"),
    ("live.retune_trace_ops", "ops"),
    ("live.migrated_rows", "rows"),
    ("trace.overhead", "ratio"),
)

#: Call shapes the per-call medians are grouped by.
SHAPES = ("point_read", "index_read", "range_read", "insert", "remove", "update")


class Tracer:
    """Spans in parallel lists; a span's parent is the innermost open span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.stack: List[int] = []

    def wrap(self, name: str, fn, on_return=None):
        """*fn* recording one span per call; ``on_return(args, result)``
        sees each successful call."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def durations(self, name: str) -> List[int]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def self_times(self) -> List[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,name,start_ns,end_ns,parent,run_id\n")
            for i, (n, s, e, p) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                out.write(f"{i},{n},{s},{e},{p},{self.run_id}\n")


class CallLog:
    """Per relation call: shape, latency, counter deltas and rows returned."""

    def __init__(self, workload: Workload, retunes):
        self.keys = workload.spec.minimal_keys()
        self.retunes = retunes
        self.shapes: List[str] = []
        self.ns: List[int] = []
        self.deltas: List[tuple] = []  # (accesses, lookups, scans, allocations)
        self.rows: List[int] = []
        self.skipped = 0

    def shape(self, kind: int, args) -> str:
        if kind == QUERY:
            columns = args[0].columns
            return "point_read" if any(k <= columns for k in self.keys) else "index_read"
        return ("range_read", "insert", "remove", "update")[kind - RANGE]

    def wrap(self, tracer: Tracer, kind: int, name: str, fn):
        counter, retunes = COUNTER, self.retunes
        shape = self.shape
        clock = time.perf_counter_ns

        def counted(*args):
            tunes = len(retunes)
            before = (counter.accesses, counter.lookups, counter.scans, counter.allocations)
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            if len(retunes) != tunes:
                # The re-tune's scorer reset and disabled the counter.
                counter.enabled = True
                self.skipped += 1
                return result
            self.shapes.append(shape(kind, args))
            self.ns.append(elapsed)
            self.deltas.append((counter.accesses - before[0], counter.lookups - before[1],
                                counter.scans - before[2], counter.allocations - before[3]))
            self.rows.append(len(result) if kind <= RANGE else -1)
            return result

        return tracer.wrap(name, counted)


@contextmanager
def patched(tracer: Tracer, captured: Dict[str, list]):
    """Wrap the layer entry points for the duration of the block."""

    def keep(key):
        return lambda args, result: captured[key].append((args, result))

    targets = [
        (live_module, "autotune", "autotuner.autotune", keep("autotune")),
        (live_module, "compile_relation", "codegen.compile_relation", keep("compile")),
        (tuner_module, "compile_relation", "codegen.compile_relation", keep("compile")),
        (tuner_module, "enumerate_decompositions", "autotuner.enumerate_decompositions", None),
        (tuner_module, "static_cost", "autotuner.static_cost", None),
        (tuner_module, "exact_accesses", "decomposition.exact_accesses", keep("replay")),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for module, attr, name, on_return in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), on_return))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


class _SamplerWithDict(SamplingTraceRecorder):
    """A sampler whose instance can carry a wrapped ``observe``."""


def traced_episode(factory, seed: int, run_id: str) -> Dict:
    """One episode of ``traced_ops`` stream operations with every layer
    boundary traced; returns the raw record."""
    workload = factory(seed)
    tracer = Tracer(run_id)
    captured: Dict[str, list] = {"autotune": [], "compile": [], "replay": []}
    stats = StreamStats()
    gc.collect()
    with patched(tracer, captured):
        sampler = None
        if workload.live:
            sampler = _SamplerWithDict()
            sampler.observe = tracer.wrap("live.observe", sampler.observe)
        relation, setup = cold_open(workload, tracer.wrap("repro.open", open_relation), sampler)
        retunes = getattr(relation, "retunes", ())
        if workload.live:
            relation.retune = tracer.wrap("live.retune", relation.retune)
        log = CallLog(workload, retunes)
        methods = [
            log.wrap(tracer, kind, f"relation.{name}", getattr(relation, name))
            for kind, name in enumerate(("query", "query_range", "insert", "remove", "update"))
        ]
        COUNTER.reset()
        COUNTER.enabled = True
        try:
            episode = run_episode(workload, relation, stats, max_ops=workload.traced_ops,
                                  methods=methods)
        finally:
            COUNTER.enabled = False
    episode.update(
        tracer=tracer,
        captured=captured,
        log=log,
        relation=relation,
        stats=stats,
        setup_s=setup,
        cache=codegen_cache_stats(),
        failures=episode["failures"] + stats.failures,
    )
    return episode


def per_layer_metrics(episode: Dict, untraced_s_per_op: float) -> Dict[str, float]:
    tracer, captured, log = episode["tracer"], episode["captured"], episode["log"]

    def total_s(name):
        return sum(tracer.durations(name)) / 1e9

    def median_us(values):
        return statistics.median(values) / 1e3 if values else 0.0

    by_shape: Dict[str, List[int]] = {shape: [] for shape in SHAPES}
    for shape, ns in zip(log.shapes, log.ns):
        by_shape[shape].append(ns)

    reads = [d for d, r in zip(log.deltas, log.rows) if r >= 0]
    writes = [d for d, r in zip(log.deltas, log.rows) if r < 0]
    rows = sum(r for r in log.rows if r >= 0)
    read_accesses = sum(d[0] for d in reads)
    calls = max(1, len(log.deltas))

    tunings = [result for _, result in captured["autotune"]]
    replays = captured["replay"]
    replay_ops = sum(len(args[0]) for args, _ in replays)
    classes = {id(cls): cls for _, cls in captured["compile"]}
    retunes = list(getattr(episode["relation"], "retunes", ()))
    swaps = [r for r in retunes if r.swapped]
    self_ns = tracer.self_times()
    retune_self = sum(t for n, t in zip(tracer.names, self_ns) if n == "live.retune")

    values = {
        "codegen.compile_s": total_s("codegen.compile_relation"),
        "codegen.source_lines": sum(
            len(cls.__repro_source__.splitlines()) for cls in classes.values()),
        "codegen.cache_hits": episode["cache"]["hits"],
        "codegen.cache_misses": episode["cache"]["misses"],
        **{f"codegen.{shape}_us": median_us(by_shape[shape]) for shape in SHAPES},
        "structures.read_accesses_per_op": read_accesses / max(1, len(reads)),
        "structures.write_accesses_per_op": sum(d[0] for d in writes) / max(1, len(writes)),
        "structures.lookups_per_op": sum(d[1] for d in log.deltas) / calls,
        "structures.scans_per_op": sum(d[2] for d in log.deltas) / calls,
        "structures.allocations_per_op": sum(d[3] for d in log.deltas) / calls,
        "structures.accesses_per_row": read_accesses / max(1, rows),
        "core.rows_per_read": rows / max(1, len(reads)),
        "autotuner.tune_s": total_s("autotuner.autotune"),
        "autotuner.enumerate_s": total_s("autotuner.enumerate_decompositions"),
        "autotuner.static_s": total_s("autotuner.static_cost"),
        "autotuner.candidates": sum(len(t.candidates) for t in tunings),
        "autotuner.replayed": sum(len(t.replayed) for t in tunings),
        "autotuner.winner_static_rank": max(
            (_static_rank(t) for t in tunings), default=0),
        "decomposition.replay_s": total_s("decomposition.exact_accesses"),
        "decomposition.replay_us_per_op": (
            total_s("decomposition.exact_accesses") * 1e6 / replay_ops if replay_ops else 0.0),
        "live.observe_us": _mean_us(tracer.durations("live.observe")),
        "live.retunes": len(retunes),
        "live.swaps": len(swaps),
        "live.retune_yield": len(swaps) / len(retunes) if retunes else 0.0,
        "live.retune_failures": sum(1 for r in retunes if r.error is not None),
        "live.retune_s": total_s("live.retune"),
        "live.retune_self_s": retune_self / 1e9,
        "live.retune_trace_ops": sum(len(r.tuning.trace) for r in retunes if r.tuning),
        "live.migrated_rows": sum(r.migrated for r in swaps),
        # Stream time per operation, traced over untraced.
        "trace.overhead": (episode["stats"].wall_s / episode["stats"].calls) / untraced_s_per_op,
    }
    return values


def _mean_us(values: List[int]) -> float:
    return sum(values) / len(values) / 1e3 if values else 0.0


def _static_rank(tuning) -> int:
    return next(i for i, c in enumerate(tuning.candidates) if c is tuning.winner)


def traced_run(factory, seed: int, seconds: float, out_dir: Path) -> Dict:
    """Untraced episodes for *seconds* (the overhead baseline), then one
    traced episode of the same seed."""
    baseline = summarize(factory.name, run_episodes(factory, seed, seconds, False), None)
    untraced_s_per_op = baseline["stream_s"] / baseline["metrics"]["ops_per_s"]["samples"]
    run_id = f"{factory.name}-seed{seed}"
    episode = traced_episode(factory, seed, run_id)
    values = per_layer_metrics(episode, untraced_s_per_op)
    spans_path = out_dir / f"spans-{run_id}.csv.gz"
    episode["tracer"].write(spans_path)
    units = dict(PER_LAYER)
    return {
        "workload": factory.name,
        "properties": baseline["properties"],
        "per_layer": {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER},
        "untraced": baseline["metrics"],
        "spans": {"path": str(spans_path), "count": len(episode["tracer"].names)},
        "counted_calls": len(episode["log"].deltas),
        "calls_with_retune": episode["log"].skipped,
        "attempted": baseline["attempted"] + episode["attempted"],
        "failed": baseline["failed"] + len(episode["failures"]),
        "failures": (baseline["failures"] + episode["failures"])[:20],
    }
