"""Operation traces: record, profile, and replay the five relational operations.

The autotuner (Section 5) scores candidate decompositions against a
*workload*: a concrete sequence of the five relational operations of
Section 2.  This module provides the workload representation:

* :class:`Trace` — an immutable-ish list of operations over one
  specification, replayable against any :class:`RelationInterface` tier
  (reference, interpreted, compiled) via :func:`replay_trace`;
* :class:`TraceRecorder` — a transparent :class:`RelationInterface`
  wrapper that forwards every operation to an inner relation and records
  the ones that succeed, so real application code can be profiled without
  modification;
* :meth:`Trace.from_workload` — adapter for the benchmark workloads in
  ``benchmarks/workloads.py``, which already store their traces in the
  same ``(kind, *args)`` format;
* :meth:`Trace.profile` — the static summary (operation counts per pattern
  column set, approximate live size) consumed by the autotuner's cheap
  scoring phase.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Tuple as PyTuple, Union

from ..core.errors import AutotunerError
from ..core.interface import RelationInterface, coerce_tuple
from ..core.relation import Relation
from ..core.spec import RelationSpec
from ..core.tuples import Tuple

__all__ = [
    "Operation",
    "Trace",
    "TraceProfile",
    "TraceRecorder",
    "replay_operations",
    "replay_trace",
]

#: ``("insert", tuple) | ("remove", pattern) | ("update", pattern, changes)
#: | ("query", pattern, output-or-None) | ("range", column, lo, hi)`` — the
#: format shared with ``benchmarks/workloads.py``.
Operation = PyTuple

#: Operation kind → full tuple length (kind plus its arguments).
_ARITIES = {"insert": 2, "remove": 2, "update": 3, "query": 3, "range": 4}


class TraceProfile:
    """Static summary of a trace, consumed by the autotuner's cheap scorer.

    Attributes:
        inserts: number of insert operations.
        queries / removes / updates: operation counts keyed by the frozenset
            of pattern columns each operation binds.
        update_changes: update counts keyed by ``(pattern columns, changed
            columns)`` — the finer split the static scorer needs to price
            residual-only updates by the in-place batch path instead of the
            generic remove/re-insert (see
            :func:`repro.autotuner.scorer.static_cost`).
        approx_max_size: upper estimate of the relation's live size while
            the trace runs (inserts minus full clears; removals by pattern
            are not tracked, so this over-estimates).  Informational — the
            static scorer sizes containers from the distinct-value
            statistics below, not from this.
        column_distinct: distinct values observed per column across the
            trace's inserts — the workload statistics the static scorer uses
            to estimate per-edge container sizes (how many entries a map
            keyed by ``K`` holds, under the usual independence assumption).
        distinct_tuples: distinct full tuples observed across inserts.
    """

    __slots__ = (
        "inserts",
        "queries",
        "removes",
        "updates",
        "update_changes",
        "approx_max_size",
        "column_distinct",
        "distinct_tuples",
    )

    def __init__(self) -> None:
        self.inserts = 0
        self.queries: Dict[frozenset, int] = {}
        self.removes: Dict[frozenset, int] = {}
        self.updates: Dict[frozenset, int] = {}
        self.update_changes: Dict[tuple, int] = {}
        self.approx_max_size = 0
        self.column_distinct: Dict[str, int] = {}
        self.distinct_tuples = 0

    def distinct_count(self, columns: Iterable[str]) -> float:
        """Estimated distinct valuations of *columns* among stored tuples.

        The product of the per-column distinct counts, capped at the number
        of distinct tuples — the textbook independence estimate, good
        enough to size one map level against another.
        """
        ceiling = float(max(1, self.distinct_tuples))
        product = 1.0
        for column in columns:
            product *= float(max(1, self.column_distinct.get(column, self.distinct_tuples)))
            if product >= ceiling:
                return ceiling
        return max(1.0, product)

    def pattern_columns(self) -> List[frozenset]:
        """Every distinct pattern column set the trace binds, sorted."""
        seen = set(self.queries) | set(self.removes) | set(self.updates)
        return sorted(seen, key=lambda s: (len(s), sorted(s)))

    def operation_count(self) -> int:
        return (
            self.inserts
            + sum(self.queries.values())
            + sum(self.removes.values())
            + sum(self.updates.values())
        )


class Trace:
    """A named sequence of relational operations over one specification.

    ``enforce_fds`` records the FD mode of the relation the operations ran
    against: a trace recorded with enforcement off may legitimately contain
    FD-conflicting inserts (resolved by eviction), so it must be replayed —
    and scored by the autotuner — in the same mode.
    """

    __slots__ = ("spec", "operations", "name", "enforce_fds")

    def __init__(
        self,
        spec: RelationSpec,
        operations: Iterable[Operation] = (),
        name: str = "trace",
        enforce_fds: bool = True,
    ):
        self.spec = spec
        self.name = name
        self.enforce_fds = enforce_fds
        self.operations: List[Operation] = []
        for op in operations:
            self._check(op)
            self.operations.append(op)

    @staticmethod
    def _check(op: Operation) -> None:
        if not isinstance(op, tuple) or not op or op[0] not in _ARITIES:
            raise AutotunerError(
                f"trace operations must be ('insert'|'remove'|'update'|'query', ...) "
                f"tuples; got {op!r}"
            )
        if len(op) != _ARITIES[op[0]]:
            raise AutotunerError(
                f"{op[0]!r} operations take {_ARITIES[op[0]] - 1} argument(s); got {op!r}"
            )

    @classmethod
    def from_workload(cls, workload) -> "Trace":
        """Adapt a ``benchmarks.workloads.Workload`` (same operation format)."""
        return cls(workload.spec, workload.trace, name=workload.name)

    # -- recording --------------------------------------------------------------

    def record(self, kind: str, *args) -> None:
        op = (kind,) + args
        self._check(op)
        self.operations.append(op)

    # -- inspection -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self.operations)} ops)"

    def profile(self) -> TraceProfile:
        """Summarise the trace for the static scoring phase."""
        profile = TraceProfile()
        live = 0
        seen_values: Dict[str, set] = {}
        seen_tuples = set()
        for op in self.operations:
            kind = op[0]
            if kind == "insert":
                profile.inserts += 1
                live += 1
                profile.approx_max_size = max(profile.approx_max_size, live)
                tup = coerce_tuple(op[1])
                seen_tuples.add(tup)
                for column, value in tup.items():
                    seen_values.setdefault(column, set()).add(value)
            elif kind == "remove":
                cols = coerce_tuple(op[1]).columns
                profile.removes[cols] = profile.removes.get(cols, 0) + 1
                if not cols:
                    live = 0  # remove(None) clears the relation.
                elif live:
                    live -= 1
            elif kind == "update":
                cols = coerce_tuple(op[1]).columns
                profile.updates[cols] = profile.updates.get(cols, 0) + 1
                key = (cols, coerce_tuple(op[2]).columns)
                profile.update_changes[key] = profile.update_changes.get(key, 0) + 1
            elif kind == "range":
                # A range scan is charged as an unbound query, the filtered
                # full scan of the generic fallback.  That plan's cost
                # differs per candidate (on perfbench's seed-1 ``events_tune``
                # training trace, 81 per range read on
                # ``ts -> avl {reading, sensor}`` and 167 on
                # ``reading -> htable sensor, ts -> dlist {}``), and no
                # candidate is priced for an ordered index's bounded
                # descent; the exact replay phase rewards that descent.
                profile.queries[frozenset()] = profile.queries.get(frozenset(), 0) + 1
            else:  # query
                cols = coerce_tuple(op[1]).columns
                profile.queries[cols] = profile.queries.get(cols, 0) + 1
        profile.column_distinct = {c: len(values) for c, values in seen_values.items()}
        profile.distinct_tuples = len(seen_tuples)
        return profile

    def replay(self, relation: RelationInterface) -> RelationInterface:
        """Apply every operation to *relation* (returned for chaining)."""
        return replay_trace(self, relation)


def replay_operations(relation: RelationInterface, operations: List[Operation]) -> int:
    """Apply raw ``(kind, *args)`` operations to *relation*; return the count.

    The replay loop of :func:`replay_trace`, ``benchmarks.harness.replay``
    and the autotuner's exact replay
    (:func:`~repro.autotuner.scorer.exact_accesses`), which runs it on each
    candidate's compiled class.
    """
    insert = relation.insert
    remove = relation.remove
    update = relation.update
    query = relation.query
    for op in operations:
        kind = op[0]
        if kind == "insert":
            insert(op[1])
        elif kind == "remove":
            remove(op[1])
        elif kind == "update":
            update(op[1], op[2])
        elif kind == "query":
            query(op[1], op[2])
        elif kind == "range":
            relation.query_range(op[1], op[2], op[3])
        else:  # Unreachable for Trace (validated); raw lists may be malformed.
            raise AutotunerError(
                f"unknown operation {kind!r}; valid kinds: "
                f"insert, remove, update, query, range"
            )
    return len(operations)


def replay_trace(trace: Trace, relation: RelationInterface) -> RelationInterface:
    """Replay *trace* against any relational tier (returned for chaining)."""
    replay_operations(relation, trace.operations)
    return relation


class TraceRecorder(RelationInterface):
    """Record the operations applied to an inner relation.

    Wraps any :class:`RelationInterface` implementation, forwarding every
    operation and appending the ones that *succeed* to :attr:`trace` (an
    operation that raises — e.g. an FD violation under enforcement — never
    executed, so it is not part of the workload).  Profile real client code
    by swapping the relation for ``TraceRecorder(relation)``, then feed
    ``recorder.trace`` to :func:`repro.autotuner.synthesize`.
    """

    def __init__(self, inner: RelationInterface, name: str = "recorded"):
        spec = getattr(inner, "spec", None)
        if spec is None:
            raise AutotunerError(
                f"cannot record {type(inner).__name__}: the wrapped relation must "
                f"expose its RelationSpec as `.spec`"
            )
        self.inner = inner
        self.spec: RelationSpec = spec
        # Propagate the inner relation's FD mode: a trace recorded with
        # enforcement off can contain FD-conflicting inserts and must be
        # replayed (and autotuned) in the same mode.  Exposed as
        # `.enforce_fds` too, keeping the wrapper transparent (including
        # for a recorder wrapping another recorder).
        self.enforce_fds: bool = getattr(inner, "enforce_fds", True)
        self.trace = Trace(spec, name=name, enforce_fds=self.enforce_fds)

    # -- the five operations, forwarded and recorded -----------------------------

    def insert(self, tup: Union[Tuple, Mapping]) -> None:
        tup = coerce_tuple(tup)
        self.inner.insert(tup)
        self.trace.record("insert", tup)

    def remove(self, pattern: Union[Tuple, Mapping, None] = None) -> None:
        pattern = coerce_tuple(pattern)
        self.inner.remove(pattern)
        self.trace.record("remove", pattern)

    def update(self, pattern: Union[Tuple, Mapping], changes: Union[Tuple, Mapping]) -> None:
        pattern = coerce_tuple(pattern)
        changes = coerce_tuple(changes)
        self.inner.update(pattern, changes)
        self.trace.record("update", pattern, changes)

    def query(
        self,
        pattern: Union[Tuple, Mapping, None] = None,
        output: Union[str, Iterable[str], None] = None,
    ) -> List[Tuple]:
        pattern = coerce_tuple(pattern)
        # Normalise one-shot iterables before use: the recorded operation
        # must carry the same output columns the inner query consumed.
        if output is not None and not isinstance(output, str):
            output = tuple(output)
        results = self.inner.query(pattern, output)
        self.trace.record("query", pattern, output)
        return results

    def query_range(self, column: str, lo=None, hi=None) -> List[Tuple]:
        results = self.inner.query_range(column, lo, hi)
        self.trace.record("range", column, lo, hi)
        return results

    # -- inspection, forwarded ---------------------------------------------------

    def to_relation(self) -> Relation:
        return self.inner.to_relation()

    def checkpoint(self) -> Relation:
        return self.to_relation()

    # Inspection dunders forward without recording: ``len(r)`` / ``for t in
    # r`` / ``t in r`` are not part of the five-operation workload, and the
    # inner tier's O(1) ``__len__`` (where it has one) must survive wrapping.

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.inner)

    def __contains__(self, pattern: object) -> bool:
        return pattern in self.inner

    def __repr__(self) -> str:
        return f"TraceRecorder({self.inner!r}, {len(self.trace)} ops)"
