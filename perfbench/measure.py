"""The untraced run: cold set-up, timed closed-loop stream, checks, memory.

A run opens a relation with an empty codegen class cache (one ``setup_s``
sample), inserts the preload untimed, then issues the stream as a closed
loop — one caller, each call issued after the previous one returns —
timing every call.  The stream comes in chunks; the run stops at the first
chunk boundary after its measured stream time reaches the requested
seconds.  A workload whose episodes end (``graph_live``) opens a fresh
relation for the next episode.  Sampled reads are checked after each chunk
and the contents after each episode.  Further cold opens are spread over
the run, and a separate pass under ``tracemalloc`` measures the memory the
relation retains.

Every time is reported at a reference speed: a fixed pure-Python job runs
between windows of stream calls and before each cold open, and each
window's times are scaled by the job's nominal over measured duration.
The raw stream seconds and the scales are in the report.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import tracemalloc
from typing import Dict, List, Optional, Sequence

import repro
from repro import SamplingTraceRecorder
from repro.codegen import clear_codegen_cache, codegen_cache_stats

from .workloads import INSERT, KIND_NAMES, QUERY, RANGE, REMOVE, Workload

#: Cold opens per run for ``setup_s``: one per episode, the rest spread
#: evenly over the run's stream time.
SETUP_SAMPLES = 7

#: How long :func:`reference_job` takes at the reference speed: on an idle
#: vCPU of the 2.0 GHz Xeon VM the benchmark was defined on.  Timings are
#: reported at that speed, because the host's speed swings by 25-50 % over
#: tens of seconds, far more than a run can average out.
REFERENCE_JOB_S = 0.0012
#: Stream calls per speed measurement.
SPEED_WINDOW_OPS = 1_000

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("stall_s", "s"),
    ("mem_bytes_per_row", "B/row"),
    ("error_rate", "ratio"),
)


def open_relation(workload: Workload, sampler: Optional[SamplingTraceRecorder] = None):
    """Open the workload's relation through the public factory."""
    args = workload.open_args()
    if workload.live:
        args["sampler"] = sampler if sampler is not None else SamplingTraceRecorder()
    return repro.open(workload.spec, **args)


def cold_open(workload: Workload, opener=open_relation, sampler=None):
    """Open with an empty codegen class cache; return the relation and the
    seconds it took, at the reference speed."""
    clear_codegen_cache()
    scale = speed_scale()
    start = time.perf_counter()
    relation = opener(workload, sampler)
    return relation, (time.perf_counter() - start) * scale


def relation_methods(relation) -> list:
    return [relation.query, relation.query_range, relation.insert, relation.remove,
            relation.update]


class StreamStats:
    """What timed stream chunks produced; times are at the reference speed."""

    def __init__(self):
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        self.scales: List[float] = []
        self.calls = 0
        self.read_ns: List[int] = []
        self.write_ns: List[int] = []
        #: Latency of each call that ran a re-tune.
        self.stall_ns: List[float] = []
        self.failures: List[str] = []


def run_preload(rows: Sequence, insert) -> List[str]:
    failures = []
    for index, row in enumerate(rows):
        try:
            insert(row)
        except Exception as exc:  # Counted as a failed call; the run goes on.
            failures.append(f"preload {index}: {exc!r}")
    return failures


def reference_job() -> int:
    """A fixed pure-Python job (dict probes, list and tuple building)."""
    table: Dict[tuple, list] = {}
    rows = []
    for i in range(1_500):
        key = (i % 977, i % 13)
        row = table.get(key)
        if row is None:
            table[key] = row = [i, key, i & 7]
        rows.append(tuple(row))
    return len(rows)


def speed_scale() -> float:
    """Nominal over current duration of :func:`reference_job`.

    Multiplying a time measured just after by this factor gives the time
    at the reference speed, so the host's speed swings cancel out.
    """
    start = time.perf_counter()
    reference_job()
    return REFERENCE_JOB_S / (time.perf_counter() - start)


def run_chunk(ops: Sequence, column: Optional[str], methods: Sequence,
              stats: StreamStats, retunes: Sequence = ()) -> list:
    """Issue *ops*, timing each call into *stats*; return the sampled results.

    Calls are timed in windows of ``SPEED_WINDOW_OPS``, each scaled by the
    mean of the :func:`speed_scale` taken just before and just after it.
    *retunes* is the live relation's re-tune list (empty otherwise): a call
    during which it grows ran a re-tune, and its latency counts as stall.
    """
    query, query_range, insert, remove, update = methods
    clock = time.perf_counter_ns
    reads, writes, captured = stats.read_ns, stats.write_ns, []
    after = speed_scale()
    for first in range(0, len(ops), SPEED_WINDOW_OPS):
        before = after
        read_from, write_from = len(reads), len(writes)
        stalls_from = len(stats.stall_ns)
        start = clock()
        for index, (kind, a, b, check) in enumerate(ops[first:first + SPEED_WINDOW_OPS], first):
            tunes = len(retunes)
            try:
                if kind == QUERY:
                    t0 = clock()
                    result = query(a, b)
                    t1 = clock()
                elif kind == RANGE:
                    t0 = clock()
                    result = query_range(column, a, b)
                    t1 = clock()
                elif kind == INSERT:
                    t0 = clock()
                    insert(a)
                    t1 = clock()
                elif kind == REMOVE:
                    t0 = clock()
                    remove(a)
                    t1 = clock()
                else:
                    t0 = clock()
                    update(a, b)
                    t1 = clock()
            except Exception as exc:  # Counted as a failed call; the stream goes on.
                stats.failures.append(
                    f"call {stats.calls + index} ({KIND_NAMES[kind]}): {exc!r}")
                if check:
                    captured.append(None)
                continue
            if kind <= RANGE:
                reads.append(t1 - t0)
                if check:
                    captured.append(result)
            else:
                writes.append(t1 - t0)
            if len(retunes) != tunes:
                stats.stall_ns.append(t1 - t0)
        wall = (clock() - start) / 1e9
        after = speed_scale()
        scale = (before + after) / 2
        stats.scales.append(scale)
        stats.raw_wall_s += wall
        stats.wall_s += wall * scale
        reads[read_from:] = [ns * scale for ns in reads[read_from:]]
        writes[write_from:] = [ns * scale for ns in writes[write_from:]]
        stalls = stats.stall_ns
        stalls[stalls_from:] = [ns * scale for ns in stalls[stalls_from:]]
    stats.calls += len(ops)
    return captured


def result_matches(result, columns, expected) -> bool:
    """Compare a read's tuples with the model's value rows (order matters
    only for ranges, whose expectation is a list)."""
    if any(len(t) != len(columns) for t in result):
        return False
    rows = [tuple(t[c] for c in columns) for t in result]
    if isinstance(expected, list):
        return rows == expected
    return len(rows) == len(expected) and set(rows) == expected


def check_results(captured: list, expected: list) -> List[str]:
    return [
        f"checked read {n}: result differs from the model"
        for n, (result, (columns, rows)) in enumerate(zip(captured, expected))
        if result is not None and not result_matches(result, columns, rows)
    ]


def check_contents(workload: Workload, relation) -> List[str]:
    """Compare the relation's contents with the model's (one more call)."""
    try:
        rows = [tuple(t[c] for c in workload.columns) for t in relation]
    except Exception as exc:  # The final read is a call too.
        return [f"final contents: {exc!r}"]
    expected = workload.rows()
    if len(rows) != len(expected) or set(rows) != expected:
        return [f"final contents differ from the model "
                f"({len(rows)} rows stored, {len(expected)} expected)"]
    return []


def run_episode(workload: Workload, relation, stats: StreamStats, *,
                until_s: float = math.inf, max_ops: float = math.inf,
                methods: Optional[Sequence] = None, between_chunks=None) -> Dict:
    """Preload *relation*, stream chunks into *stats* and check the outputs.

    The stream stops at the first chunk boundary where the episode has
    ended, ``stats.wall_s`` has reached *until_s*, or *max_ops* operations
    were issued.
    """
    methods = methods or relation_methods(relation)
    retunes = getattr(relation, "retunes", ())
    started = time.perf_counter()
    failures = run_preload(workload.preload, relation.insert)
    preload_s = time.perf_counter() - started
    cache_after_preload = codegen_cache_stats()
    calls_before = stats.calls
    while stats.wall_s < until_s and stats.calls - calls_before < max_ops:
        chunk = workload.next_chunk()
        if chunk is None:
            break
        ops, expected = chunk
        captured = run_chunk(ops, workload.range_column, methods, stats, retunes)
        failures += check_results(captured, expected)
        if between_chunks is not None:
            between_chunks()
    failures += check_contents(workload, relation)
    return {
        "preload_s": preload_s,
        # Preload calls, stream calls, and the final-contents read.
        "attempted": len(workload.preload) + stats.calls - calls_before + 1,
        "failures": failures,
        "codegen_cache": {"after_preload": cache_after_preload,
                          "after_stream": codegen_cache_stats()},
        "retunes": len(retunes),
        "swaps": sum(1 for r in retunes if r.swapped),
    }


def measure_memory(factory, seed: int) -> Dict:
    """Bytes a relation retains per stored row, in a pass of its own.

    Opens the relation, then under ``tracemalloc`` inserts the preload and
    replays the first ``mem_ops`` stream operations.  Retained bytes are
    the traced memory released when the relation is dropped, so objects
    shared with the inputs and the process-wide class cache do not count.
    """
    workload = factory(seed)
    gc.collect()
    relation = open_relation(workload)
    tracemalloc.start()
    try:
        _replay_prefix(workload, relation)
        rows = len(relation)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del relation
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {"bytes": retained, "rows": rows, "stream_ops": workload.mem_ops,
            "bytes_per_row": retained / max(1, rows)}


def _replay_prefix(workload: Workload, relation) -> None:
    methods = relation_methods(relation)
    run_preload(workload.preload, methods[2])
    stats = StreamStats()
    while stats.calls < workload.mem_ops:
        chunk = workload.next_chunk()
        if chunk is None:
            break
        run_chunk(chunk[0][: workload.mem_ops - stats.calls], workload.range_column, methods,
                  stats)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def run_episodes(factory, seed: int, seconds: float, extra_setups: bool = True) -> Dict:
    """Episodes until the measured stream time reaches *seconds*."""
    stats = StreamStats()
    episodes: List[Dict] = []
    setup_s: List[float] = []
    workload = factory(seed)

    def spread_setup_samples() -> None:
        # Extra cold opens, evenly spaced over the stream time.
        due = len(setup_s) < SETUP_SAMPLES and (
            stats.wall_s >= seconds * len(setup_s) / SETUP_SAMPLES)
        if extra_setups and due:
            relation, setup = cold_open(workload)
            del relation
            setup_s.append(setup)

    properties = None
    while stats.wall_s < seconds:
        if episodes:
            workload = factory(seed)
        gc.collect()
        relation, setup = cold_open(workload)
        setup_s.append(setup)
        cache_after_setup = codegen_cache_stats()
        stream_before = stats.wall_s
        episode = run_episode(workload, relation, stats, until_s=seconds,
                              between_chunks=spread_setup_samples)
        del relation
        episode["codegen_cache"]["after_setup"] = cache_after_setup
        episode["wall_s"] = setup + episode["preload_s"] + stats.wall_s - stream_before
        episodes.append(episode)
        if properties is None:
            properties = workload.properties()
    while extra_setups and len(setup_s) < SETUP_SAMPLES:
        gc.collect()
        spread_setup_samples()
    return {"stats": stats, "episodes": episodes, "setup_s": setup_s,
            "properties": properties}


def untraced_run(factory, seed: int, seconds: float) -> Dict:
    """The end-to-end metrics of one run."""
    run = run_episodes(factory, seed, seconds)
    return summarize(factory.name, run, measure_memory(factory, seed))


def summarize(name: str, run: Dict, memory: Optional[Dict]) -> Dict:
    stats, episodes, setup_s = run["stats"], run["episodes"], run["setup_s"]
    reads, writes = sorted(stats.read_ns), sorted(stats.write_ns)
    attempted = sum(e["attempted"] for e in episodes)
    failures = [f for e in episodes for f in e["failures"]] + stats.failures
    values = {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "ops_per_s": (stats.calls / stats.wall_s, stats.calls),
        "read_p50_us": (percentile(reads, 0.50) / 1e3, len(reads)),
        "read_p99_us": (percentile(reads, 0.99) / 1e3, len(reads)),
        "write_p50_us": (percentile(writes, 0.50) / 1e3, len(writes)),
        "write_p99_us": (percentile(writes, 0.99) / 1e3, len(writes)),
        # Per episode: a run holds as many episodes as fit its seconds.
        "stall_s": (sum(stats.stall_ns) / 1e9 / len(episodes), len(stats.stall_ns)),
        "mem_bytes_per_row": (memory["bytes_per_row"], memory["rows"]) if memory else (0.0, 0),
        "error_rate": (len(failures) / attempted, attempted),
    }
    return {
        "workload": name,
        "properties": run["properties"],
        "episodes": len(episodes),
        "episode_wall_s": [e["wall_s"] for e in episodes],
        "stream_s": stats.wall_s,
        "raw_stream_s": stats.raw_wall_s,
        "speed_scale": {"median": statistics.median(stats.scales), "min": min(stats.scales),
                        "max": max(stats.scales), "samples": len(stats.scales)},
        "metrics": {
            metric: {"value": values[metric][0], "unit": unit, "samples": values[metric][1]}
            for metric, unit in END_TO_END
        },
        "setup_s": setup_s,
        "memory": memory,
        "codegen_cache": [e["codegen_cache"] for e in episodes],
        "retunes_per_episode": [e["retunes"] for e in episodes],
        "swaps_per_episode": [e["swaps"] for e in episodes],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
    }
