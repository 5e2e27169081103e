"""Two-phase scoring of candidate decompositions against a trace (Section 5).

Phase 1 — **static estimate** (:func:`static_cost`): a closed-form cost per
candidate computed from the trace *profile* (operation counts per pattern
column set) and the containers' cost models, via the same candidate plans,
plan rank and ``structure_cost`` machinery the live planner uses
(:func:`~repro.decomposition.plan.plan_query`).  Everything but the
container names is a property of the candidate's structure-free shape
(:func:`~repro.autotuner.enumerator.shape_skeleton`): edge sizes, shared
children, coverage, residual-safe update columns and the valid plans per
pattern.  The tuner computes that once per shape (:class:`ShapeCosts`) and
only prices each container assignment against it, so ranking the roughly
hundred assignments of each shape costs little more than one of them.

Phase 2 — **exact replay** (:func:`exact_accesses`): the surviving
candidates replay the full trace on the interpreted tier under the
library-wide :class:`~repro.structures.base.OperationCounter`, giving the
deterministic, machine-independent access count the benchmark harness also
reports.  The final ranking — and the Pareto front over (accesses, memory
proxy) — uses these exact numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.spec import RelationSpec
from ..decomposition.model import Decomposition, MapEdge
from ..decomposition.plan import candidate_plans, plan_rank, residual_update_columns
from ..decomposition.relation import DecomposedRelation
from ..structures.base import COUNTER
from ..structures.registry import structure_cost
from .enumerator import shape_skeleton
from .trace import Trace, TraceProfile, replay_trace

__all__ = [
    "ScoredCandidate",
    "ShapeCosts",
    "estimate_edge_sizes",
    "static_cost",
    "memory_proxy",
    "exact_accesses",
    "pareto_front",
]


class ScoredCandidate:
    """A candidate decomposition with its scores.

    ``accesses`` is ``None`` until the candidate survives static pruning and
    is replayed exactly.  ``static_scaled`` is the tie-break score: the
    static estimate recomputed at scaled-up container sizes (see
    ``tuner.TIEBREAK_SIZE_SCALE``), which separates flavours whose costs
    coincide at the trace's own small sizes.
    """

    __slots__ = ("decomposition", "static", "static_scaled", "memory", "accesses")

    def __init__(
        self,
        decomposition: Decomposition,
        static: float,
        memory: int,
        static_scaled: Optional[float] = None,
    ):
        self.decomposition = decomposition
        self.static = static
        self.static_scaled = static if static_scaled is None else static_scaled
        self.memory = memory
        self.accesses: Optional[int] = None

    @property
    def layout(self) -> str:
        return self.decomposition.describe()

    def __repr__(self) -> str:
        exact = f", accesses={self.accesses}" if self.accesses is not None else ""
        return (
            f"ScoredCandidate({self.layout!r}, static={self.static:.0f}, "
            f"memory={self.memory}{exact})"
        )


def memory_proxy(decomposition: Decomposition) -> int:
    """Per-tuple storage cost proxy: container entries plus residual fields.

    Every *distinct* edge stores one container entry per represented tuple
    and every *distinct* unit leaf stores its residual columns once — so
    the proxy is ``(# distinct edges) + Σ |unit columns|`` over distinct
    leaves (the second Pareto axis; the paper uses measured heap size,
    which a Python reproduction cannot compare meaningfully across
    container kinds).  Counting nodes once by identity is what lets shared
    layouts win the memory axis: a record shared by two branches pays its
    residual once, while the per-branch-copy twin pays it per branch.
    """
    nodes = decomposition.nodes()
    edges = sum(len(node.edges) for node in nodes)
    residuals = sum(len(node.unit_columns) for node in nodes if node.is_unit)
    return edges + residuals


def estimate_edge_sizes(
    decomposition: Decomposition, profile: TraceProfile
) -> Dict[MapEdge, float]:
    """Estimate each edge's average live container size from workload stats.

    A container for an edge with key ``K`` at the end of bound prefix ``B``
    holds one entry per distinct ``B ∪ K`` valuation of each distinct ``B``
    binding — estimated from the trace's per-column distinct counts
    (:meth:`TraceProfile.distinct_count`).  This is what lets the static
    phase see that scanning a ten-entry outer container is nearly free while
    scanning a thousand-entry one is not, instead of charging every edge the
    same symbolic size — the same per-edge-size shape the live planner
    consumes (:meth:`DecompositionInstance.edge_sizes`).
    """
    sizes: Dict[MapEdge, float] = {}
    for path in decomposition.paths():
        bound: frozenset = frozenset()
        for e in path.edges:
            parent_bindings = profile.distinct_count(bound)
            bound = bound | e.key
            sizes[e] = max(1.0, profile.distinct_count(bound) / parent_bindings)
    return sizes


class ShapeCosts:
    """What :func:`static_cost` reads of one structure-free shape.

    Built once from a *representative* decomposition of the shape and read
    for every candidate with the same skeleton.  Such candidates have the
    same graph, edge for edge in :meth:`Decomposition.edges` order, and
    differ only in container names, which nothing here reads: the
    representative's ``edges``, their estimated ``sizes``, the mutation
    charged on each (``"unlink"`` into a shared child, ``"lookup"``
    otherwise), the columns whose in-place update descends each
    (``in_place``: none into a shared child, which resolves through the
    uncounted registry), the residual-safe update columns, and per trace
    pattern the valid candidate plans the planner ranks
    (:func:`~repro.decomposition.plan.candidate_plans`).
    """

    __slots__ = ("edges", "sizes", "mutations", "in_place", "resid_safe", "plans")

    def __init__(
        self,
        representative: Decomposition,
        profile: TraceProfile,
        spec: Optional[RelationSpec] = None,
    ):
        self.edges: List[MapEdge] = representative.edges()
        self.sizes = estimate_edge_sizes(representative, profile)
        parent_counts = representative.parent_counts()
        shared = [parent_counts.get(id(e.child), 0) >= 2 for e in self.edges]
        self.mutations = ["unlink" if into_shared else "lookup" for into_shared in shared]
        self.in_place = [
            frozenset() if into_shared else representative.edge_coverage(e)
            for e, into_shared in zip(self.edges, shared)
        ]
        self.resid_safe = (
            residual_update_columns(representative, spec) if spec is not None else frozenset()
        )
        self.plans = {
            pattern: candidate_plans(representative, pattern, spec)[0]
            for pattern in profile.pattern_columns()
        }

    def structures(self, decomposition: Decomposition) -> Dict[MapEdge, str]:
        """*decomposition*'s container names, keyed by the matching edge of
        the representative (the decomposition must share its skeleton)."""
        return {e: own.structure for e, own in zip(self.edges, decomposition.edges())}

    def plan_cost(
        self, pattern: frozenset, structures: Dict[MapEdge, str], sizes: Dict[MapEdge, float]
    ) -> float:
        """The estimated cost of the plan :func:`~repro.decomposition.plan.plan_query`
        picks for *pattern* when each edge holds the container *structures*
        names for it: the pattern's plans priced under the planner's own rank."""
        plans = self.plans[pattern]
        return min(plan_rank(plan, order, sizes, structures) for order, plan in enumerate(plans))[0]


def static_cost(
    decomposition: Decomposition,
    profile: TraceProfile,
    size_scale: float = 1.0,
    spec: Optional[RelationSpec] = None,
    memo: Optional[Dict[str, ShapeCosts]] = None,
) -> float:
    """Estimated total accesses for a trace profile on *decomposition*.

    Each edge's container size is estimated from the trace's distinct-value
    statistics (:func:`estimate_edge_sizes`) and fed through the planner's
    live-size cost machinery; queries are charged their cheapest plan,
    inserts and removes the per-edge mutation cost for one victim on every
    edge (every branch stores the tuple), removes and updates additionally
    their pattern's plan (updates twice: remove + re-insert — unless the
    update's changed columns are residual-safe for the candidate, in which
    case it is charged the cheaper in-place batch path).  On an edge
    whose child is **shared**, the mutation cost is the structure's
    ``unlink`` cost instead of its lookup cost — the record is held by
    reference, so an intrusive container links/unlinks it in O(1) where a
    plain list would pay a victim scan.  The estimate only has to *rank*
    candidates well enough that the exact replay phase sees the contenders.

    *size_scale* multiplies every estimated container size — the tuner's
    tie-break recomputes the estimate at inflated sizes, separating
    flavours whose costs coincide at the trace's own (often tiny) sizes.

    With *spec* the planner also searches **cross-branch join plans**
    (validated by the Figure 8 FD-closure rule), so 2-branch candidates
    whose split patterns previously forced full scans are costed by their
    cheapest join instead and ranked fairly against single-path layouts.

    *memo* is a dict the caller keeps for one ``(spec, profile)`` pair: it
    maps each :func:`shape_skeleton` to its :class:`ShapeCosts`, so the
    candidates of one shape are planned once and each call only prices
    the candidate's own containers.  Without it the decomposition is
    planned for this call alone; the value is the same.
    """
    if memo is None:
        shape = ShapeCosts(decomposition, profile, spec)
    else:
        skeleton = shape_skeleton(decomposition)
        shape = memo.get(skeleton)
        if shape is None:
            shape = memo[skeleton] = ShapeCosts(decomposition, profile, spec)
    structures = shape.structures(decomposition)
    sizes = shape.sizes
    if size_scale != 1.0:
        sizes = {e: n * size_scale for e, n in sizes.items()}
    touch_all_edges = sum(
        structure_cost(structures[e], sizes[e], mutation)
        for e, mutation in zip(shape.edges, shape.mutations)
    )

    plan_costs: Dict[frozenset, float] = {}

    def plan_cost(pattern: frozenset) -> float:
        cached = plan_costs.get(pattern)
        if cached is None:
            cached = shape.plan_cost(pattern, structures, sizes)
            plan_costs[pattern] = cached
        return cached

    cost = profile.inserts * touch_all_edges
    for pattern, count in profile.queries.items():
        cost += count * plan_cost(pattern)
    for pattern, count in profile.removes.items():
        cost += count * (plan_cost(pattern) + touch_all_edges)

    # Updates whose changed columns are residual-safe on this candidate run
    # the in-place batch path: one keyed descent per branch that stores a
    # changed residual (shared children resolve through the uncounted
    # registry), instead of the full remove + re-insert.  Candidates that
    # keep hot update columns out of their edge keys are now priced for it.
    def resid_touch(changed: frozenset) -> float:
        return sum(
            structure_cost(structures[e], sizes[e], "lookup")
            for e, columns in zip(shape.edges, shape.in_place)
            if columns & changed
        )

    plain = dict(profile.updates)
    for (pattern, changed), count in profile.update_changes.items():
        if changed and changed <= shape.resid_safe:
            cost += count * (plan_cost(pattern) + resid_touch(changed))
            plain[pattern] = plain.get(pattern, 0) - count
    for pattern, count in plain.items():
        if count > 0:
            cost += count * (plan_cost(pattern) + 2.0 * touch_all_edges)
    return cost


def exact_accesses(
    trace: Trace,
    decomposition: Decomposition,
    enforce_fds: bool = True,
    spec: Optional[RelationSpec] = None,
) -> int:
    """Replay *trace* on the interpreted tier; return the exact access count.

    Deterministic and machine-independent: the same
    :class:`~repro.structures.base.OperationCounter` numbers the benchmark
    harness records for the interpreted tier.  *spec* is the specification
    the relation is built against (default: the trace's own); the tuner
    passes the specification being tuned, so candidates are scored under
    exactly the FD semantics the winner will be compiled with.
    """
    relation = DecomposedRelation(spec or trace.spec, decomposition, enforce_fds=enforce_fds)
    with COUNTER:
        replay_trace(trace, relation)
        return COUNTER.accesses


def pareto_front(scored: Sequence[ScoredCandidate]) -> List[ScoredCandidate]:
    """The Pareto-optimal candidates over (exact accesses, memory proxy).

    Only exactly-replayed candidates participate.  Returned sorted by
    ascending accesses; ties and dominated candidates removed.
    """
    replayed = [c for c in scored if c.accesses is not None]
    replayed.sort(key=lambda c: (c.accesses, c.memory, c.layout))
    front: List[ScoredCandidate] = []
    best_memory: Optional[int] = None
    for candidate in replayed:
        if best_memory is None or candidate.memory < best_memory:
            front.append(candidate)
            best_memory = candidate.memory
    return front
