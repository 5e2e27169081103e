"""Seeded workload generators.

A generator instance is one *episode* of a workload: how to open the
relation, the rows to preload, and then the stream, drawn lazily in chunks
so a run generates only what it executes.  Each chunk carries the expected
results of a seeded sample of its reads.  The expectations and the final
contents (:meth:`Workload.rows`) come from a key -> row model the generator
keeps while it draws operations; nothing here calls the library except to
build operation arguments (``Tuple``) and the training ``Trace``, so the
model is independent of every tier.  The same seed gives the same episode.

An operation is ``(kind, a, b, check)``:

* ``QUERY``  -> ``relation.query(a, b)`` (pattern, output columns or None)
* ``RANGE``  -> ``relation.query_range(range_column, a, b)``
* ``INSERT`` -> ``relation.insert(a)``
* ``REMOVE`` -> ``relation.remove(a)``
* ``UPDATE`` -> ``relation.update(a, b)``

``check`` marks the sampled reads; the n-th of them in a chunk is compared
with the chunk's n-th expectation.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Tuple as PyTuple

from repro import RelationSpec, Trace, Tuple

QUERY, RANGE, INSERT, REMOVE, UPDATE = range(5)
KIND_NAMES = ("query", "query_range", "insert", "remove", "update")

#: Entries the compiled tier's full-row interning memo (``_t_cache``) holds
#: before it is cleared; workload properties compare distinct result rows
#: with it.
MEMO_ENTRIES = 131_072

#: Share of reads whose results are checked against the model.
CHECK_SHARE = 1 / 16

#: Stream operations per chunk; a run stops at the first chunk boundary
#: after its measured seconds.
CHUNK_OPS = 10_000

Op = PyTuple[int, object, object, bool]
#: ``(columns, rows)`` per checked read: a frozenset of value rows for
#: ``QUERY``, the ordered list of full value rows for ``RANGE``.
Expected = PyTuple[PyTuple[str, ...], object]


class Workload:
    """One episode of a workload; subclasses draw the operations."""

    name = ""
    #: Column order of the model's value rows.
    columns: PyTuple[str, ...] = ()
    layout: Optional[str] = None
    live = False
    range_column: Optional[str] = None
    #: Stream operations replayed by the memory pass after the preload.
    mem_ops = 0
    #: Stream operations of the traced episode (a fixed count, so traced
    #: runs of one seed count identical work).
    traced_ops = 0
    #: Stream length of an episode; ``None`` streams until the run stops.
    episode_ops: Optional[int] = None
    chunk_ops = CHUNK_OPS

    def __init__(self, seed: int, spec: RelationSpec):
        self.seed = seed
        self.spec = spec
        self.rng = random.Random(f"{self.name}:{seed}")
        self._check_rng = random.Random(f"{self.name}:{seed}:check")
        self.training: Optional[Trace] = None
        #: Rows inserted before the stream; the model already holds them.
        self.preload: List[Tuple] = []
        self._ops: List[Op] = []
        self._expected: List[Expected] = []
        self.generated = 0
        self.kinds = [0] * len(KIND_NAMES)
        self.index_reads = 0
        self.index_rows = 0
        self.distinct_full_rows = 0

    def open_args(self) -> Dict[str, object]:
        """Keyword arguments for ``repro.open(spec, **args)`` (sampler aside)."""
        if self.training is not None:
            return {"tune": self.training}
        return {"layout": self.layout, "live": self.live}

    # -- what subclasses implement -------------------------------------------

    def step(self) -> None:
        """Append the next step of the mix (one or more operations)."""
        raise NotImplementedError

    def rows(self) -> frozenset:
        """The model's current contents as value rows in ``columns`` order."""
        raise NotImplementedError

    # -- chunks ---------------------------------------------------------------

    def next_chunk(self) -> Optional[PyTuple[List[Op], List[Expected]]]:
        """The next operations and their checked expectations, or ``None``
        once the episode has ended."""
        limit = self.episode_ops
        if limit is not None and self.generated >= limit:
            return None
        self._ops, self._expected = [], []
        while len(self._ops) < self.chunk_ops and (limit is None or self.generated < limit):
            before = len(self._ops)
            self.step()
            self.generated += len(self._ops) - before
        return self._ops, self._expected

    def _write(self, kind: int, a, b=None) -> None:
        self.kinds[kind] += 1
        self._ops.append((kind, a, b, False))

    def _read(self, kind: int, a, b, columns, expected) -> None:
        """Append a read; *expected* is a zero-argument callable giving its
        model result, called only when the read is sampled for checking."""
        self.kinds[kind] += 1
        check = self._check_rng.random() < CHECK_SHARE
        self._ops.append((kind, a, b, check))
        if check:
            self._expected.append((columns, expected()))

    def _index_read(self, rows: int) -> None:
        self.index_reads += 1
        self.index_rows += rows

    def properties(self) -> Dict[str, object]:
        """Shares, sizes and result-row figures of the stream drawn so far."""
        total = max(1, sum(self.kinds))
        reads = self.kinds[QUERY] + self.kinds[RANGE]
        return {
            "stream_ops": sum(self.kinds),
            "read_share": round(reads / total, 4),
            "write_share": round(1 - reads / total, 4),
            "kind_shares": {
                name: round(count / total, 4) for name, count in zip(KIND_NAMES, self.kinds)
            },
            "rows_stored": len(self.rows()),
            "distinct_full_rows_returned": self.distinct_full_rows,
            "distinct_full_rows_over_memo": round(self.distinct_full_rows / MEMO_ENTRIES, 4),
            "mean_rows_per_index_read": round(self.index_rows / max(1, self.index_reads), 2),
        }


class _IndexedList:
    """A list with O(1) membership, append, random pick and removal."""

    def __init__(self):
        self.items: list = []
        self.pos: dict = {}

    def add(self, item) -> None:
        self.pos[item] = len(self.items)
        self.items.append(item)

    def discard(self, item) -> None:
        at = self.pos.pop(item)
        last = self.items.pop()
        if at < len(self.items):
            self.items[at] = last
            self.pos[last] = at

    def pick(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]

    def __len__(self) -> int:
        return len(self.items)


# -- sched_serve -----------------------------------------------------------------

#: 33 * 4096 = 135,168 processes: more rows than ``MEMO_ENTRIES``.
NAMESPACES, PIDS_PER_NAMESPACE = 33, 4096
CPUS = 8
INITIAL_RUNNABLE, RUNNABLE_CAP = 40, 48


class SchedServe(Workload):
    """Serve the paper's process scheduler on an explicit layout (no tuning).

    Reads dominate: primary-key lookups of skewed hot processes (half
    full-row, half projected) and scans of the running (<= 8) and runnable
    (<= 48) sets.  Writes are context switches, wake-ups and exit/respawn.
    """

    name = "sched_serve"
    columns = ("ns", "pid", "state", "cpu")
    #: The section 3 shared-record layout: one process record reached from
    #: the primary-key index and from the per-state lists.
    layout = (
        "[ns, pid -> htable (state -> htable @rec)"
        " ; state -> htable (ns, pid -> ilist @rec)] where @rec = {cpu}"
    )
    mem_ops = 10_000
    traced_ops = 200_000

    def __init__(self, seed: int):
        super().__init__(
            seed, RelationSpec("ns, pid, state, cpu", fds=["ns, pid -> state, cpu"], name="process")
        )
        self.count = count = NAMESPACES * PIDS_PER_NAMESPACE
        self.hotness = list(range(count))
        self.rng.shuffle(self.hotness)
        self.state: List[str] = [""] * count
        self.cpu: List[int] = [0] * count
        self.running: List[Optional[int]] = [None] * CPUS
        self.runnable = _IndexedList()
        self.keys: List[Optional[Tuple]] = [None] * count
        self.seen_full_rows: set = set()
        self.running_pattern = Tuple(state="running")
        self.runnable_pattern = Tuple(state="runnable")
        self.to_state = {s: Tuple(state=s) for s in ("runnable", "sleeping")}
        self.to_running = [Tuple(state="running", cpu=c) for c in range(CPUS)]
        rng = self.rng
        for i in range(count):
            self.state[i] = "sleeping" if rng.random() < 0.7 else "blocked"
            self.cpu[i] = rng.randrange(CPUS)
        active = rng.sample(range(count), CPUS + INITIAL_RUNNABLE)
        for c, i in enumerate(active[:CPUS]):
            self.state[i], self.cpu[i], self.running[c] = "running", c, i
        for i in active[CPUS:]:
            self.state[i] = "runnable"
            self.runnable.add(i)
        self.preload = [self.full_row(i) for i in rng.sample(range(count), count)]

    def key(self, i: int) -> Tuple:
        k = self.keys[i]
        if k is None:
            k = self.keys[i] = Tuple(ns=i // PIDS_PER_NAMESPACE, pid=i % PIDS_PER_NAMESPACE)
        return k

    def row(self, i: int) -> PyTuple:
        return (i // PIDS_PER_NAMESPACE, i % PIDS_PER_NAMESPACE, self.state[i], self.cpu[i])

    def full_row(self, i: int) -> Tuple:
        return Tuple(ns=i // PIDS_PER_NAMESPACE, pid=i % PIDS_PER_NAMESPACE,
                     state=self.state[i], cpu=self.cpu[i])

    def hot(self) -> int:
        return self.hotness[int(self.count * self.rng.random() ** 3)]

    def point_read(self, i: int, full: bool) -> None:
        if full:
            row = self.row(i)
            self._count_full_rows([row])
            self._read(QUERY, self.key(i), None, self.columns, lambda: frozenset([row]))
        else:
            self._read(QUERY, self.key(i), "state, cpu", ("state", "cpu"),
                       lambda: frozenset([(self.state[i], self.cpu[i])]))

    def _count_full_rows(self, rows) -> None:
        seen = self.seen_full_rows
        before = len(seen)
        seen.update(rows)
        self.distinct_full_rows += len(seen) - before

    def step(self) -> None:
        rng, state = self.rng, self.state
        roll = rng.random()
        if roll < 0.56:
            self.point_read(self.hot(), rng.random() < 0.5)
        elif roll < 0.68:
            rows = [self.row(i) for i in self.running if i is not None]
            self._count_full_rows(rows)
            self._index_read(len(rows))
            self._read(QUERY, self.running_pattern, None, self.columns, lambda: frozenset(rows))
        elif roll < 0.78:
            members = [(i // PIDS_PER_NAMESPACE, i % PIDS_PER_NAMESPACE)
                       for i in self.runnable.items]
            self._index_read(len(members))
            self._read(QUERY, self.runnable_pattern, "ns, pid", ("ns", "pid"),
                       lambda: frozenset(members))
        elif roll < 0.90:  # Context switch on one CPU.
            c = rng.randrange(CPUS)
            out = self.running[c]
            if out is not None:
                preempted = rng.random() < 0.6 and len(self.runnable) < RUNNABLE_CAP
                new = "runnable" if preempted else "sleeping"
                self._write(UPDATE, self.key(out), self.to_state[new])
                state[out] = new
                self.running[c] = None
                if preempted:
                    self.runnable.add(out)
            if len(self.runnable):
                j = self.runnable.pick(rng)
                self.runnable.discard(j)
                self._write(UPDATE, self.key(j), self.to_running[c])
                state[j], self.cpu[j], self.running[c] = "running", c, j
        elif roll < 0.96:  # Wake-up.
            i = self.hot()
            if state[i] in ("sleeping", "blocked") and len(self.runnable) < RUNNABLE_CAP:
                self._write(UPDATE, self.key(i), self.to_state["runnable"])
                state[i] = "runnable"
                self.runnable.add(i)
            else:
                self.point_read(i, False)
        else:  # Exit and respawn under the same key.
            i = self.hot()
            if state[i] in ("sleeping", "blocked"):
                self._write(REMOVE, self.key(i))
                state[i], self.cpu[i] = "sleeping", rng.randrange(CPUS)
                self._write(INSERT, self.full_row(i))
            else:
                self.point_read(i, True)

    def rows(self) -> frozenset:
        return frozenset(self.row(i) for i in range(self.count))


# -- events_tune -----------------------------------------------------------------

SENSORS = ("temp", "flow", "volt")
#: Timestamps in the served log and in the training trace; three quarters
#: of them are present at any time.
EVENTS_SPAN, TRAINING_SPAN = 4096, 96
#: Range windows are up to ``span / WINDOW_DIVISOR`` timestamps wide.
WINDOW_DIVISOR = 32
TRAINING_STEPS = 144


class _EventLog:
    """Model of an event log over timestamps ``0 .. span-1``."""

    def __init__(self, span: int, rng: random.Random):
        self.span = span
        self.rng = rng
        self.rows: Dict[int, PyTuple[str, int]] = {}
        self.present: List[int] = []  # sorted
        self.missing = _IndexedList()
        stamps = list(range(span))
        rng.shuffle(stamps)
        for ts in stamps:
            self.missing.add(ts)

    def arrive(self) -> Tuple:
        """A late event: a missing timestamp gets a row."""
        ts = self.missing.pick(self.rng)
        sensor, reading = self.rng.choice(SENSORS), self.rng.randrange(1000)
        self.rows[ts] = (sensor, reading)
        self.missing.discard(ts)
        insort(self.present, ts)
        return Tuple(ts=ts, sensor=sensor, reading=reading)

    def fill(self) -> List[Tuple]:
        return [self.arrive() for _ in range(self.span * 3 // 4)]

    def step(self, emit) -> None:
        """Draw one operation; ``emit(kind, a, b, ts)`` records it.

        40 % range windows, 20 % point reads, 25 % residual (reading)
        updates, 7.5 % late inserts of missing timestamps and 7.5 % deletes,
        so the log stays near three quarters of its span.
        """
        rng, span = self.rng, self.span
        roll = rng.random()
        if roll < 0.40:
            lo = rng.randrange(span)
            hi = min(span - 1, lo + rng.randrange(1, max(2, span // WINDOW_DIVISOR)))
            emit(RANGE, lo, hi, None)
        elif roll < 0.60:
            ts = self.pick_present()
            emit(QUERY, Tuple(ts=ts), "sensor, reading", ts)
        elif roll < 0.85:
            ts = self.pick_present()
            reading = rng.randrange(1000)
            self.rows[ts] = (self.rows[ts][0], reading)
            emit(UPDATE, Tuple(ts=ts), Tuple(reading=reading), ts)
        elif roll < 0.925:
            emit(INSERT, self.arrive(), None, None)
        else:
            ts = self.pick_present()
            del self.rows[ts]
            self.present.pop(bisect_left(self.present, ts))
            self.missing.add(ts)
            emit(REMOVE, Tuple(ts=ts), None, ts)

    def pick_present(self) -> int:
        return self.present[self.rng.randrange(len(self.present))]


class EventsTune(Workload):
    """Tune an event log (``ts -> sensor, reading``) from a short training
    trace, then serve a longer stream from the same distribution: range
    windows among late inserts, deletes and residual updates."""

    name = "events_tune"
    columns = ("ts", "sensor", "reading")
    range_column = "ts"
    mem_ops = 20_000
    traced_ops = 60_000

    def __init__(self, seed: int):
        super().__init__(
            seed, RelationSpec("ts, sensor, reading", fds=["ts -> sensor, reading"], name="event")
        )
        self.training = self._training_trace()
        self.log = _EventLog(EVENTS_SPAN, self.rng)
        self.preload = self.log.fill()
        # Distinct full rows returned: a row version is (ts, writes to ts).
        self.version = [0] * EVENTS_SPAN
        self.seen = [-1] * EVENTS_SPAN
        self.ranges = self.ranges_after_key_write = 0
        self.key_write_pending = False

    def _training_trace(self) -> Trace:
        """A short trace from the stream's distribution, in the library's
        ``(kind, *args)`` operation format."""
        log = _EventLog(TRAINING_SPAN, random.Random(f"{self.name}:{self.seed}:training"))
        ops = [("insert", row) for row in log.fill()]

        def emit(kind, a, b, _):
            if kind == RANGE:
                ops.append(("range", "ts", a, b))
            elif kind in (INSERT, REMOVE):
                ops.append((KIND_NAMES[kind], a))
            else:
                ops.append((KIND_NAMES[kind], a, b))

        for _ in range(TRAINING_STEPS):
            log.step(emit)
        return Trace(self.spec, ops, name="events-training")

    def step(self) -> None:
        self.log.step(self._emit)

    def _emit(self, kind, a, b, ts) -> None:
        log = self.log
        if kind == RANGE:
            window = log.present[bisect_left(log.present, a):bisect_right(log.present, b)]
            version, seen = self.version, self.seen
            for t in window:
                if seen[t] != version[t]:
                    seen[t] = version[t]
                    self.distinct_full_rows += 1
            self._index_read(len(window))
            self.ranges += 1
            self.ranges_after_key_write += self.key_write_pending
            self.key_write_pending = False
            self._read(RANGE, a, b, self.columns,
                       lambda: [(t, *log.rows[t]) for t in window])
        elif kind == QUERY:
            self._read(QUERY, a, b, ("sensor", "reading"), lambda: frozenset([log.rows[ts]]))
        else:
            ts = a["ts"]
            self.version[ts] += 1
            self.key_write_pending |= kind != UPDATE
            self._write(kind, a, b)

    def rows(self) -> frozenset:
        return frozenset((ts, *row) for ts, row in self.log.rows.items())

    def properties(self) -> Dict[str, object]:
        return {
            **super().properties(),
            "ranges_after_key_changing_write": round(
                self.ranges_after_key_write / max(1, self.ranges), 4),
            "training_ops": len(self.training),
        }


# -- graph_live ------------------------------------------------------------------

GRAPH_NODES, OUT_DEGREE = 48, 2
#: Operation index (preload included) at which the hot query flips from
#: out-neighbours to in-neighbours, and the episode length.  The default
#: policy's first tune fires at operation 512 and each later one needs 512
#: operations since the last, so the flip leaves room for one re-tune
#: before it and two after it; the long steady tail after those gives the
#: serving latencies enough samples.
DRIFT_AT, GRAPH_EPISODE_OPS = 1_500, 40_000
#: Share of the hot neighbour query in the mix.  Well above the policy's
#: 0.3 drift threshold plus its residual after a re-tune, so the number of
#: re-tunes does not depend on sampling noise.
HOT_SHARE = 0.8


class GraphLive(Workload):
    """A live relation on the forward-only graph layout whose hot query
    flips from out-neighbours to in-neighbours mid-stream.  Each episode
    opens a fresh live relation and runs to its end."""

    name = "graph_live"
    columns = ("src", "dst", "weight")
    layout = "src -> htable (dst -> htable {weight})"
    live = True
    mem_ops = 1_000

    def __init__(self, seed: int):
        super().__init__(
            seed, RelationSpec("src, dst, weight", fds=["src, dst -> weight"], name="edge")
        )
        edges = GRAPH_NODES * OUT_DEGREE
        self.episode_ops = self.traced_ops = self.chunk_ops = GRAPH_EPISODE_OPS - edges
        self.drift_at = DRIFT_AT - edges
        rng = self.rng
        self.weight: Dict[PyTuple[int, int], int] = {}
        self.out_edges: Dict[int, List[int]] = {}
        self.in_edges: Dict[int, List[int]] = {n: [] for n in range(GRAPH_NODES)}
        for src in range(GRAPH_NODES):
            self.out_edges[src] = rng.sample(range(GRAPH_NODES), OUT_DEGREE)
            for dst in self.out_edges[src]:
                self.weight[(src, dst)] = rng.randrange(100)
                self.in_edges[dst].append(src)
        self.edges = list(self.weight)
        self.preload = [Tuple(src=s, dst=d, weight=self.weight[(s, d)])
                        for s, d in rng.sample(self.edges, len(self.edges))]

    def step(self) -> None:
        rng, weight = self.rng, self.weight
        src, dst = self.edges[rng.randrange(len(self.edges))]
        roll = rng.random()
        if roll < HOT_SHARE:
            if self.generated < self.drift_at:
                found = [(d, weight[(src, d)]) for d in self.out_edges[src]]
                self._read(QUERY, Tuple(src=src), "dst, weight", ("dst", "weight"),
                           lambda: frozenset(found))
            else:
                found = [(s, weight[(s, dst)]) for s in self.in_edges[dst]]
                self._read(QUERY, Tuple(dst=dst), "src, weight", ("src", "weight"),
                           lambda: frozenset(found))
            self._index_read(len(found))
        elif roll < HOT_SHARE + 0.10:
            w = weight[(src, dst)]
            self._read(QUERY, Tuple(src=src, dst=dst), "weight", ("weight",),
                       lambda: frozenset([(w,)]))
        elif roll < HOT_SHARE + 0.16:
            weight[(src, dst)] = rng.randrange(100)
            self._write(UPDATE, Tuple(src=src, dst=dst), Tuple(weight=weight[(src, dst)]))
        else:  # Remove the edge and add it back with a new weight.
            self._write(REMOVE, Tuple(src=src, dst=dst))
            weight[(src, dst)] = rng.randrange(100)
            self._write(INSERT, Tuple(src=src, dst=dst, weight=weight[(src, dst)]))

    def rows(self) -> frozenset:
        return frozenset((s, d, w) for (s, d), w in self.weight.items())

    def properties(self) -> Dict[str, object]:
        return {**super().properties(), "drift_at_op": DRIFT_AT}


WORKLOADS = {cls.name: cls for cls in (SchedServe, EventsTune, GraphLive)}
