"""Deterministic operation traces in the spirit of the paper's Section 6.

Each workload is a relational specification, a decomposition, and a seeded
trace of the five relational operations.  Traces are generated once and
replayed identically against every tier, so timings and operation counts
are directly comparable; all traces are FD-respecting so they run with
enforcement on (the benchmarked configuration) without raising.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple as PyTuple

from repro.core import RelationSpec, Tuple

__all__ = [
    "Operation",
    "Workload",
    "WORKLOADS",
    "build_workloads",
    "SHARED_SCHEDULER_LAYOUT",
    "COPIED_SCHEDULER_LAYOUT",
    "SPLIT_GRAPH_LAYOUT",
]

#: ("insert", tuple) | ("remove", pattern) | ("update", pattern, changes)
#: | ("query", pattern, output-or-None) | ("range", column, lo, hi)
Operation = PyTuple


class Workload:
    """A named spec + decomposition + seeded operation trace.

    ``alternatives`` are additional hand-written layouts for the same
    specification: the autotuner column of the benchmark report replays the
    trace on each of them so the synthesized winner is shown next to every
    layout a developer might plausibly have written by hand.
    """

    def __init__(
        self,
        name: str,
        description: str,
        spec: RelationSpec,
        layout: str,
        trace: List[Operation],
        alternatives: Dict[str, str] = None,
        tail_start: int = None,
    ):
        self.name = name
        self.description = description
        self.spec = spec
        self.layout = layout
        self.trace = trace
        self.alternatives: Dict[str, str] = dict(alternatives or {})
        #: For drifting workloads: the trace index where the operation mix
        #: flips.  ``trace[tail_start:]`` is the drifted tail the report's
        #: ``retune`` section measures layouts against.
        self.tail_start = tail_start

    def hand_layouts(self) -> Dict[str, str]:
        """Every hand-written layout, keyed by display name (primary first)."""
        layouts = {"primary": self.layout}
        layouts.update(self.alternatives)
        return layouts

    def __repr__(self) -> str:
        return f"Workload({self.name!r}, {len(self.trace)} ops)"


def scheduler(scale: int) -> Workload:
    """The paper's running example: an OS process scheduler.

    Processes keyed by ``(ns, pid)`` with a per-state index; the trace mixes
    process creation/exit, context switches (state/cpu updates by primary
    key), primary-key queries and per-state queue scans.
    """
    spec = RelationSpec(
        "ns, pid, state, cpu",
        fds=["ns, pid -> state, cpu"],
        name="process",
    )
    layout = (
        "[ns -> htable pid -> btree {state, cpu}"
        " ; state -> htable (ns, pid -> dlist {cpu})]"
    )
    rng = random.Random(0x5EED0)
    states = ["running", "sleeping", "waiting"]
    processes = [(ns, pid) for ns in range(max(2, scale // 50)) for pid in range(50)]
    trace: List[Operation] = [
        ("insert", Tuple(ns=ns, pid=pid, state=rng.choice(states), cpu=rng.randrange(4)))
        for ns, pid in processes
    ]
    for _ in range(scale * 10):
        ns, pid = rng.choice(processes)
        roll = rng.random()
        if roll < 0.35:
            trace.append(("query", Tuple(ns=ns, pid=pid), "state, cpu"))
        elif roll < 0.55:
            trace.append(("query", Tuple(state=rng.choice(states)), "ns, pid"))
        elif roll < 0.85:
            trace.append(
                (
                    "update",
                    Tuple(ns=ns, pid=pid),
                    Tuple(state=rng.choice(states), cpu=rng.randrange(4)),
                )
            )
        else:  # Process exit and re-spawn.
            trace.append(("remove", Tuple(ns=ns, pid=pid)))
            trace.append(
                ("insert", Tuple(ns=ns, pid=pid, state="running", cpu=rng.randrange(4)))
            )
    return Workload(
        "scheduler",
        "process scheduler: pk index + per-state lists (paper §1/§6)",
        spec,
        layout,
        trace,
        alternatives={
            "flat-htable": "ns, pid -> htable {state, cpu}",
            "nested-trees": "ns -> btree pid -> btree {state, cpu}",
            "shared-records": SHARED_SCHEDULER_LAYOUT,
        },
    )


#: The §3 shared-record layout: one process record object reached from both
#: the primary-key index and the per-state lists, with intrusive O(1)
#: unlink on removal (decomposition 5 of the paper's Figure 12 family).
SHARED_SCHEDULER_LAYOUT = (
    "[ns, pid -> htable (state -> htable @rec)"
    " ; state -> htable (ns, pid -> ilist @rec)] where @rec = {cpu}"
)

#: The per-branch-copy twin of the shared layout: the same two indexes, but
#: every branch materialises its own copy of the record, so a removal pays
#: a per-state-list victim scan instead of an O(1) unlink.
COPIED_SCHEDULER_LAYOUT = (
    "[ns, pid -> htable {state, cpu}"
    " ; state -> htable (ns, pid -> dlist {cpu})]"
)


def scheduler_churn(scale: int) -> Workload:
    """Remove-heavy scheduler churn: the shared-record layout's home turf.

    Processes constantly exit and respawn (remove + insert by primary key)
    while the per-state lists stay hot.  On the copied layout every exit
    scans the victim's state list twice (lookup + unlink); on the shared
    layout the record is one object unlinked in O(1) from the intrusive
    list — the access-count gap the ``sharing`` claim pins.
    """
    spec = RelationSpec(
        "ns, pid, state, cpu",
        fds=["ns, pid -> state, cpu"],
        name="process",
    )
    rng = random.Random(0x5EED4)
    states = ["running", "sleeping", "waiting"]
    processes = [(ns, pid) for ns in range(max(2, scale // 50)) for pid in range(50)]
    trace: List[Operation] = [
        ("insert", Tuple(ns=ns, pid=pid, state=rng.choice(states), cpu=rng.randrange(4)))
        for ns, pid in processes
    ]
    for _ in range(scale * 10):
        ns, pid = rng.choice(processes)
        roll = rng.random()
        if roll < 0.7:  # Process exit and re-spawn: the dominant operation.
            trace.append(("remove", Tuple(ns=ns, pid=pid)))
            trace.append(
                ("insert", Tuple(ns=ns, pid=pid, state=rng.choice(states), cpu=rng.randrange(4)))
            )
        elif roll < 0.85:
            trace.append(("query", Tuple(state=rng.choice(states)), "ns, pid"))
        else:
            trace.append(("query", Tuple(ns=ns, pid=pid), "state, cpu"))
    return Workload(
        "scheduler_churn",
        "remove-heavy scheduler churn: shared records vs per-branch copies (§3)",
        spec,
        SHARED_SCHEDULER_LAYOUT,
        trace,
        alternatives={
            "copied-2branch": COPIED_SCHEDULER_LAYOUT,
            "flat-htable": "ns, pid -> htable {state, cpu}",
        },
    )


def directed_graph(scale: int) -> Workload:
    """A weighted directed graph with successor and predecessor indexes.

    Edges ``(src, dst, weight)`` with both adjacency directions indexed —
    the shape used by the paper's graph benchmarks (DFS, shortest paths).
    The trace mixes edge insertion/removal, weight relaxation by edge key,
    and out-/in-neighbour queries.
    """
    spec = RelationSpec(
        "src, dst, weight",
        fds=["src, dst -> weight"],
        name="edge",
    )
    layout = "[src -> htable (dst -> htable {weight}) ; dst -> htable (src -> htable {weight})]"
    rng = random.Random(0x5EED1)
    nodes = max(8, scale // 4)
    edges = [
        (rng.randrange(nodes), rng.randrange(nodes)) for _ in range(max(16, scale * 2))
    ]
    edges = sorted(set(edges))
    trace: List[Operation] = [
        ("insert", Tuple(src=s, dst=d, weight=rng.randrange(100))) for s, d in edges
    ]
    for _ in range(scale * 8):
        roll = rng.random()
        src, dst = rng.choice(edges)
        if roll < 0.35:
            trace.append(("query", Tuple(src=src), "dst, weight"))
        elif roll < 0.55:
            trace.append(("query", Tuple(dst=dst), "src, weight"))
        elif roll < 0.75:
            trace.append(("update", Tuple(src=src, dst=dst), Tuple(weight=rng.randrange(100))))
        elif roll < 0.9:
            trace.append(("query", Tuple(src=src, dst=dst), "weight"))
        else:
            trace.append(("remove", Tuple(src=src, dst=dst)))
            trace.append(("insert", Tuple(src=src, dst=dst, weight=rng.randrange(100))))
    return Workload(
        "graph",
        "directed graph: successor + predecessor adjacency (paper §6 graph benchmarks)",
        spec,
        layout,
        trace,
        alternatives={
            "flat-htable": "src, dst -> htable {weight}",
            "forward-only": "src -> htable dst -> htable {weight}",
        },
    )


#: The §4 split-pattern layout: the primary branch holds full edges keyed
#: ``src`` then ``dst``; the secondary is a **key-projection branch** — it
#: indexes only the edge keys by ``dst`` (no weight).  A reverse-neighbour
#: query ``{dst}`` binds a column that only the secondary serves, but needs
#: the weight that only the primary stores: the planner answers it with a
#: cross-branch join plan (lookup the secondary, probe the primary per row)
#: validated by the Figure 8 FD-closure rule.
SPLIT_GRAPH_LAYOUT = (
    "[src -> htable (dst -> htable {weight})"
    " ; dst -> htable (src -> htable {})]"
)


def graph_reverse(scale: int) -> Workload:
    """Reverse-neighbour-heavy directed graph: the join plan's home turf.

    The hot query binds ``{dst}`` and wants ``src, weight`` — its bound
    column lives in the ``dst``-keyed key-projection branch while the
    weights live only under the ``src``-keyed primary, so the two branches
    must be joined.  On the best single-path plan the query scans the whole
    ``src`` level; the join plan pays one secondary lookup plus two primary
    lookups per in-edge.  The ``join`` claim of ``benchmarks/check.py``
    gates that the join stays strictly cheaper.
    """
    spec = RelationSpec(
        "src, dst, weight",
        fds=["src, dst -> weight"],
        name="edge",
    )
    rng = random.Random(0x5EED5)
    nodes = max(16, scale // 2)
    edges: Dict[PyTuple[int, int], int] = {}
    while len(edges) < max(32, scale * 2):
        edges.setdefault(
            (rng.randrange(nodes), rng.randrange(nodes)), rng.randrange(100)
        )
    trace: List[Operation] = [
        ("insert", Tuple(src=s, dst=d, weight=w)) for (s, d), w in sorted(edges.items())
    ]
    edge_list = sorted(edges)
    for _ in range(scale * 8):
        roll = rng.random()
        src, dst = rng.choice(edge_list)
        if roll < 0.6:  # The hot split-pattern query: who points at dst?
            trace.append(("query", Tuple(dst=dst), "src, weight"))
        elif roll < 0.75:
            trace.append(("query", Tuple(src=src, dst=dst), "weight"))
        elif roll < 0.9:
            trace.append(
                ("update", Tuple(src=src, dst=dst), Tuple(weight=rng.randrange(100)))
            )
        else:
            trace.append(("remove", Tuple(src=src, dst=dst)))
            trace.append(("insert", Tuple(src=src, dst=dst, weight=rng.randrange(100))))
    return Workload(
        "graph_reverse",
        "reverse-neighbour graph: key-projection secondary + cross-branch join (§4)",
        spec,
        SPLIT_GRAPH_LAYOUT,
        trace,
        alternatives={
            "forward-only": "src -> htable (dst -> htable {weight})",
            "both-full": (
                "[src -> htable (dst -> htable {weight})"
                " ; dst -> htable (src -> htable {weight})]"
            ),
            "flat-htable": "src, dst -> htable {weight}",
        },
    )


def graph_drift(scale: int) -> Workload:
    """A graph workload whose mix flips to reverse-neighbour mid-run.

    Phase 1 (before ``tail_start``) is forward-neighbour-heavy: ``{src}``
    queries dominate, and the forward-only layout serves them in O(1).
    Phase 2 flips the hot query to ``{dst}`` — on the forward-only layout
    every reverse query scans the whole ``src`` level.  This is the
    online-adaptivity scenario: a ``LiveRelation`` opened on the phase-1
    layout detects the mix drift, re-tunes, and hot-swaps to a
    ``dst``-keyed layout; the ``retune`` claim of ``benchmarks/check.py``
    gates that the post-swap layout is strictly cheaper on the drifted tail.
    """
    spec = RelationSpec(
        "src, dst, weight",
        fds=["src, dst -> weight"],
        name="edge",
    )
    rng = random.Random(0x5EED6)
    nodes = max(16, scale // 2)
    edges: Dict[PyTuple[int, int], int] = {}
    while len(edges) < max(32, scale * 2):
        edges.setdefault(
            (rng.randrange(nodes), rng.randrange(nodes)), rng.randrange(100)
        )
    trace: List[Operation] = [
        ("insert", Tuple(src=s, dst=d, weight=w)) for (s, d), w in sorted(edges.items())
    ]
    edge_list = sorted(edges)

    def churn(forward: bool) -> None:
        roll = rng.random()
        src, dst = rng.choice(edge_list)
        if roll < 0.6:  # The hot query: direction depends on the phase.
            if forward:
                trace.append(("query", Tuple(src=src), "dst, weight"))
            else:
                trace.append(("query", Tuple(dst=dst), "src, weight"))
        elif roll < 0.75:
            trace.append(("query", Tuple(src=src, dst=dst), "weight"))
        elif roll < 0.9:
            trace.append(
                ("update", Tuple(src=src, dst=dst), Tuple(weight=rng.randrange(100)))
            )
        else:
            trace.append(("remove", Tuple(src=src, dst=dst)))
            trace.append(("insert", Tuple(src=src, dst=dst, weight=rng.randrange(100))))

    for _ in range(scale * 4):
        churn(forward=True)
    tail_start = len(trace)
    for _ in range(scale * 4):
        churn(forward=False)
    return Workload(
        "graph_drift",
        "drifting graph: forward-neighbour mix flips to reverse mid-run (online adaptivity)",
        spec,
        "src -> htable (dst -> htable {weight})",
        trace,
        alternatives={
            "reverse-capable": SPLIT_GRAPH_LAYOUT,
            "flat-htable": "src, dst -> htable {weight}",
        },
        tail_start=tail_start,
    )


def ordered_scan(scale: int) -> Workload:
    """A time-series event log scanned by timestamp range.

    Events keyed by timestamp with an ordered (``avl``) root index; the
    trace mixes out-of-order arrival, timestamp range scans (the ``range``
    operation — an ordered window over ``ts``), point queries, reading
    updates (residual-only: the in-place batch path) and late deletions.
    The ordered root serves every window by bounded descent where the
    hash-rooted alternative filters a full scan — the first workload that
    actually exercises ``avl`` range iteration.
    """
    spec = RelationSpec(
        "ts, sensor, reading",
        fds=["ts -> sensor, reading"],
        name="event",
    )
    layout = "ts -> btree {sensor, reading}"
    rng = random.Random(0x5EED7)
    span = max(64, scale * 4)
    stamps = list(range(span))
    rng.shuffle(stamps)  # Out-of-order arrival: the tree must rebalance.
    sensors = ["temp", "flow", "volt"]
    trace: List[Operation] = [
        ("insert", Tuple(ts=ts, sensor=rng.choice(sensors), reading=rng.randrange(1000)))
        for ts in stamps
    ]
    for _ in range(scale * 6):
        roll = rng.random()
        ts = rng.randrange(span)
        if roll < 0.4:  # The hot operation: a timestamp window.
            width = rng.randrange(1, max(2, span // 8))
            trace.append(("range", "ts", ts, min(span - 1, ts + width)))
        elif roll < 0.6:
            trace.append(("query", Tuple(ts=ts), "sensor, reading"))
        elif roll < 0.85:
            trace.append(("update", Tuple(ts=ts), Tuple(reading=rng.randrange(1000))))
        else:  # Late deletion and re-arrival.
            trace.append(("remove", Tuple(ts=ts)))
            trace.append(
                ("insert", Tuple(ts=ts, sensor=rng.choice(sensors), reading=rng.randrange(1000)))
            )
    return Workload(
        "ordered_scan",
        "time-series event log: timestamp range scans over an ordered root index",
        spec,
        layout,
        trace,
        alternatives={
            "flat-htable": "ts -> htable {sensor, reading}",
            "sensor-index": (
                "[ts -> btree {sensor, reading}"
                " ; sensor -> htable (ts -> dlist {reading})]"
            ),
        },
    )


def spanning(scale: int) -> Workload:
    """Spanning-forest components, Kruskal-style union by bulk update.

    Nodes carry a component id (``node -> comp``) with a per-component
    index; merging two components is a single pattern update
    ``update {comp: a} {comp: b}`` over the component index — the bulk
    operation that stresses pattern-resolved updates in every tier.
    """
    spec = RelationSpec("node, comp", fds=["node -> comp"], name="component")
    layout = "[node -> htable {comp} ; comp -> htable (node -> dlist {})]"
    rng = random.Random(0x5EED2)
    nodes = max(16, scale)
    trace: List[Operation] = [
        ("insert", Tuple(node=n, comp=n)) for n in range(nodes)
    ]
    live = list(range(nodes))
    for _ in range(scale * 4):
        roll = rng.random()
        if roll < 0.35 and len(live) > 1:
            a, b = rng.sample(live, 2)
            trace.append(("update", Tuple(comp=a), Tuple(comp=b)))
            live.remove(a)
        elif roll < 0.7:
            trace.append(("query", Tuple(node=rng.randrange(nodes)), "comp"))
        else:
            trace.append(("query", Tuple(comp=rng.choice(live)), "node"))
        if len(live) <= max(2, nodes // 8):
            # Reset the forest so unions keep happening at scale.
            trace.append(("remove", None))
            trace.extend(("insert", Tuple(node=n, comp=n)) for n in range(nodes))
            live = list(range(nodes))
    return Workload(
        "spanning",
        "spanning-forest components: union via bulk pattern update",
        spec,
        layout,
        trace,
        alternatives={"flat-htable": "node -> htable {comp}"},
    )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "scheduler": scheduler,
    "scheduler_churn": scheduler_churn,
    "graph": directed_graph,
    "graph_drift": graph_drift,
    "graph_reverse": graph_reverse,
    "ordered_scan": ordered_scan,
    "spanning": spanning,
}

#: Default scale knobs: ``--quick`` must stay CI-smoke-test fast.
DEFAULT_SCALE = 400
QUICK_SCALE = 60


def build_workloads(quick: bool = False, names: List[str] = None) -> List[Workload]:
    scale = QUICK_SCALE if quick else DEFAULT_SCALE
    selected = names or sorted(WORKLOADS)
    unknown = sorted(set(selected) - set(WORKLOADS))
    if unknown:
        raise ValueError(f"unknown workloads {unknown}; available: {sorted(WORKLOADS)}")
    return [WORKLOADS[name](scale) for name in selected]
