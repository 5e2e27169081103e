"""Query plans over decomposition instances (the Section 4 plan IR).

Plans form a small recursive IR instead of a single straight line:

* a **chain** (:class:`QueryPlan`) walks one root-to-leaf path.  At each
  edge the planner emits a :class:`LookupStep` when the edge's key columns
  are all bound (by the query pattern, or — inside a join — by the other
  branch's output) or a :class:`ScanStep` otherwise, and finishes with an
  explicit :class:`ResidualFilter` over the bound columns the leaf's unit
  tuple must be checked against;
* a **join** (:class:`JoinPlan`) composes two chains over *different*
  branches: the ``build`` side is evaluated first and the ``probe`` side is
  planned with the build side's columns treated as bound — so a probe whose
  keys become fully bound turns into per-row container lookups (the
  cheaper-side/other-side choice the cost model makes from live
  ``edge_sizes``), while an independent probe is enumerated once and
  matched through a temporary hash table on the common columns
  (``style == "hash"``).

**Validity (the paper's Figure 8).**  With partial-coverage branches
(key-projection secondaries, see :mod:`repro.decomposition.adequacy`) a
plan is no longer correct merely because adequacy says "any path binds
every column".  A plan is *valid* iff the columns it binds and checks
determine every specification column under the FD closure::

    fd.closure(bound ∪ checked) ⊇ C

and a join is additionally *lossless*: the columns the two sides are
matched on must determine one side's full column set, otherwise rows of
two different stored tuples could be glued into a tuple the relation never
contained.  :func:`plan_query` only returns valid plans and records the
witness on the plan (:class:`PlanWitness`, shown by ``describe()``);
:func:`validate_plan` re-checks any plan — including hand-built ones — and
raises :class:`QueryPlanError` naming the underdetermined columns.

**Cross-branch convergence on shared nodes** (Section 3) is the degenerate
join: branches converging on a shared record join on the record's full
bound column set, and the "join" is object identity — so the planner just
picks the cheapest converging chain (:attr:`QueryPlan.leaf_shared`,
:func:`converging_plans`).  Both the convergence helper and the join
search enumerate candidate chains through one shared helper,
:func:`path_steps`.

:func:`plan_query` is pure planning: it lists the valid candidates
(:func:`candidate_plans`) and picks the lowest by :func:`plan_rank` — the
listing and the rank the autotuner's static scorer also prices each
container assignment of a shape with.  :func:`execute_plan` runs any plan
of the IR against a :class:`~repro.decomposition.instance.DecompositionInstance`
through one eager chain walker (:func:`walk_chain`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple as PyTuple, Union

from ..core.columns import ColumnSet, columns, format_columns
from ..core.errors import QueryPlanError
from ..core.fd import FDSet
from ..core.spec import RelationSpec
from ..core.tuples import Tuple
from ..structures.base import COUNTER, MISSING
from ..structures.registry import structure_cost
from .instance import DecompositionInstance, NodeInstance
from .model import Decomposition, MapEdge, Path

__all__ = [
    "LookupStep",
    "ScanStep",
    "ResidualFilter",
    "PlanWitness",
    "QueryPlan",
    "JoinPlan",
    "path_steps",
    "candidate_plans",
    "plan_rank",
    "plan_query",
    "residual_update_columns",
    "validate_plan",
    "execute_plan",
    "converging_plans",
]

#: Symbolic container size at which plan costs are compared when no live
#: sizes are available (e.g. planning against a decomposition with no
#: instance, or an edge that has not materialised any container yet).
DEFAULT_COST_SIZE = 1000.0

#: Optional per-edge live container sizes (average entries per container),
#: as produced by :meth:`DecompositionInstance.edge_sizes`.
EdgeSizes = Mapping[MapEdge, float]

#: Optional per-edge container names to charge instead of each edge's own:
#: the autotuner prices one shape's plans under each container assignment
#: of that shape (see :func:`repro.autotuner.scorer.static_cost`).
EdgeStructures = Mapping[MapEdge, str]


class LookupStep:
    """Descend through one container entry whose key the context determines."""

    __slots__ = ("edge", "edge_index")

    def __init__(self, edge: MapEdge, edge_index: int):
        self.edge = edge
        self.edge_index = edge_index

    def cost(self, n: float, structures: Optional[EdgeStructures] = None) -> float:
        name = self.edge.structure if structures is None else structures[self.edge]
        return structure_cost(name, n, "lookup")

    def describe(self) -> str:
        return f"lookup[{', '.join(sorted(self.edge.key))}]({self.edge.structure})"


class ScanStep:
    """Visit every entry of a container, filtering keys against the context."""

    __slots__ = ("edge", "edge_index")

    def __init__(self, edge: MapEdge, edge_index: int):
        self.edge = edge
        self.edge_index = edge_index

    def cost(self, n: float, structures: Optional[EdgeStructures] = None) -> float:
        name = self.edge.structure if structures is None else structures[self.edge]
        return structure_cost(name, n, "scan")

    def describe(self) -> str:
        return f"scan({self.edge.structure})"


class ResidualFilter:
    """An explicit residual check: the leaf's unit tuple must agree with the
    bound context on these columns (the plan's ``checked`` contribution)."""

    __slots__ = ("columns",)

    def __init__(self, filter_columns: ColumnSet):
        self.columns: ColumnSet = frozenset(filter_columns)

    def describe(self) -> str:
        return f"filter[{', '.join(sorted(self.columns))}]"

    def __repr__(self) -> str:
        return f"ResidualFilter({format_columns(self.columns)})"


PlanStep = Union[LookupStep, ScanStep]


class PlanWitness:
    """The Figure 8 validity witness: what a plan binds, checks and closes.

    ``bound`` are the columns the plan reads out of containers and units
    (key columns of its steps plus unit residuals) together with the
    pattern columns; ``checked`` are the columns compared rather than
    introduced — residual filters and a join's matched columns; ``closed``
    is ``fd.closure(bound ∪ checked)``.  The plan is valid iff ``closed``
    covers every specification column (``missing`` is empty).
    """

    __slots__ = ("bound", "checked", "closed", "missing")

    def __init__(
        self,
        bound: ColumnSet,
        checked: ColumnSet,
        fds: FDSet,
        required: ColumnSet,
    ):
        self.bound = frozenset(bound)
        self.checked = frozenset(checked)
        self.closed = fds.closure(self.bound | self.checked)
        self.missing = frozenset(required) - self.closed

    @property
    def valid(self) -> bool:
        return not self.missing

    def describe(self) -> str:
        text = (
            f"binds {format_columns(self.bound)} "
            f"checks {format_columns(self.checked)} "
            f"closes {format_columns(self.closed)}"
        )
        if self.missing:
            text += f" MISSING {format_columns(self.missing)}"
        return text

    def __repr__(self) -> str:
        return f"PlanWitness({self.describe()})"


class QueryPlan:
    """A chain plan: one step per edge of a root-to-leaf path, plus an
    explicit residual filter at the leaf.

    ``leaf_shared`` records that the plan's leaf node has several parent
    edges: every converging path yields the *same* record objects, so two
    lookup-only plans over such a leaf are interchangeable up to access
    cost (the planner's degenerate cross-branch join, see the module
    docstring).  ``witness`` carries the Figure 8 validity witness when the
    plan was produced with a specification in hand.
    """

    __slots__ = ("path", "steps", "pattern_columns", "leaf_shared", "filter", "witness")

    def __init__(
        self,
        path: Path,
        steps: List[PlanStep],
        pattern_columns: ColumnSet,
        leaf_shared: bool = False,
        residual_filter: Optional[ResidualFilter] = None,
        witness: Optional[PlanWitness] = None,
    ):
        self.path = path
        self.steps = list(steps)
        self.pattern_columns = pattern_columns
        self.leaf_shared = leaf_shared
        if residual_filter is None:
            residual_filter = ResidualFilter(pattern_columns & path.leaf.unit_columns)
        self.filter = residual_filter
        self.witness = witness

    @property
    def scan_count(self) -> int:
        return sum(1 for step in self.steps if isinstance(step, ScanStep))

    @property
    def lookup_count(self) -> int:
        return sum(1 for step in self.steps if isinstance(step, LookupStep))

    @property
    def produced(self) -> ColumnSet:
        """The columns this chain physically reads: its path's coverage."""
        return self.path.covered

    def estimated_cost(
        self,
        n: float = DEFAULT_COST_SIZE,
        sizes: Optional[EdgeSizes] = None,
        structures: Optional[EdgeStructures] = None,
    ) -> float:
        """A coarse cost estimate: scans multiply the frontier, lookups do not.

        With *sizes* (a mapping from :class:`MapEdge` to its average live
        container size, see :meth:`DecompositionInstance.edge_sizes`), each
        step is charged against the size of the containers it actually
        touches instead of the symbolic *n* — so the estimate tracks the
        data distribution, e.g. a deep index whose second level holds two
        entries per key costs far less than one holding a thousand.  With
        *structures*, each step is charged as the container named there for
        its edge instead of the edge's own.
        """
        total = 0.0
        frontier = 1.0
        for step in self.steps:
            step_n = n if sizes is None else sizes.get(step.edge, n)
            total += frontier * step.cost(step_n, structures)
            if isinstance(step, ScanStep):
                frontier *= max(1.0, step_n)
        return total

    def estimated_rows(
        self, n: float = DEFAULT_COST_SIZE, sizes: Optional[EdgeSizes] = None
    ) -> float:
        """Upper-bound estimate of the rows the chain yields (scan fan-out)."""
        rows = 1.0
        for step in self.steps:
            if isinstance(step, ScanStep):
                step_n = n if sizes is None else sizes.get(step.edge, n)
                rows *= max(1.0, step_n)
        return rows

    def describe_bare(self) -> str:
        """The step chain without the validity witness (used inside joins,
        which print one combined witness for both sides)."""
        parts = [step.describe() for step in self.steps]
        if self.filter.columns:
            parts.append(self.filter.describe())
        return " -> ".join(parts) or "unit"

    def describe(self) -> str:
        body = self.describe_bare()
        if self.witness is not None:
            body += f" | {self.witness.describe()}"
        return body

    def __repr__(self) -> str:
        return f"QueryPlan({self.describe()} | pattern={format_columns(self.pattern_columns)})"


class JoinPlan:
    """A cross-branch join of two chain plans (the IR's ``Join`` node).

    The ``build`` chain is evaluated against the pattern alone.  The
    ``probe`` chain was planned with ``pattern ∪ build.produced`` treated
    as bound:

    * ``style == "probe"`` — the probe chain is re-walked once per build
      row with the row's columns bound, so probe lookups become direct
      container probes keyed by build-side values (the common case: a
      cheap secondary branch drives per-row lookups into the primary);
    * ``style == "hash"`` — the probe chain is independent of the build
      side's bindings; it is enumerated once and the two row sets are
      matched through a temporary hash table keyed on ``on`` (both the
      temporary inserts and the probes are charged one counted access, in
      this interpreter and in the compiled tier alike).

    ``on`` is the full set of columns the two sides share — rows are glued
    only when they agree on all of them; the planner's lossless check
    (``closure(on) ⊇ one side``) is what makes that sound.
    """

    __slots__ = ("build", "probe", "on", "pattern_columns", "style", "witness")

    def __init__(
        self,
        build: QueryPlan,
        probe: QueryPlan,
        on: ColumnSet,
        pattern_columns: ColumnSet,
        style: str = "probe",
        witness: Optional[PlanWitness] = None,
    ):
        if style not in ("probe", "hash"):
            raise QueryPlanError(f"unknown join style {style!r}; use 'probe' or 'hash'")
        self.build = build
        self.probe = probe
        self.on = frozenset(on)
        self.pattern_columns = pattern_columns
        self.style = style
        self.witness = witness

    leaf_shared = False

    @property
    def steps(self) -> List[PlanStep]:
        """Every access step of both sides (build first) — for inspection."""
        return self.build.steps + self.probe.steps

    @property
    def scan_count(self) -> int:
        return self.build.scan_count + self.probe.scan_count

    @property
    def lookup_count(self) -> int:
        return self.build.lookup_count + self.probe.lookup_count

    @property
    def produced(self) -> ColumnSet:
        return self.build.produced | self.probe.produced

    def estimated_cost(
        self,
        n: float = DEFAULT_COST_SIZE,
        sizes: Optional[EdgeSizes] = None,
        structures: Optional[EdgeStructures] = None,
    ) -> float:
        build_cost = self.build.estimated_cost(n, sizes, structures)
        build_rows = self.build.estimated_rows(n, sizes)
        probe_cost = self.probe.estimated_cost(n, sizes, structures)
        if self.style == "probe":
            return build_cost + build_rows * probe_cost
        probe_rows = self.probe.estimated_rows(n, sizes)
        # Temporary hash: one access per build-row insert and per probe-row probe.
        return build_cost + probe_cost + build_rows + probe_rows

    def estimated_rows(
        self, n: float = DEFAULT_COST_SIZE, sizes: Optional[EdgeSizes] = None
    ) -> float:
        return max(
            self.build.estimated_rows(n, sizes), self.probe.estimated_rows(n, sizes)
        )

    def describe(self) -> str:
        body = (
            f"join[{', '.join(sorted(self.on))}]"
            f"(build: {self.build.describe_bare()}; "
            f"{self.style}: {self.probe.describe_bare()})"
        )
        if self.witness is not None:
            body += f" | {self.witness.describe()}"
        return body

    def __repr__(self) -> str:
        return f"JoinPlan({self.describe()} | pattern={format_columns(self.pattern_columns)})"


AnyPlan = Union[QueryPlan, JoinPlan]


def path_steps(path: Path, bound: ColumnSet) -> List[PlanStep]:
    """The chain steps walking *path* with *bound* columns available.

    The one shared enumeration used by :func:`plan_query`'s single-path and
    join searches and by :func:`converging_plans` — an edge whose key is
    covered by *bound* becomes a :class:`LookupStep`, anything else a
    :class:`ScanStep`.
    """
    return [
        LookupStep(e, index) if e.key <= bound else ScanStep(e, index)
        for index, e in zip(path.edge_indices, path.edges)
    ]


def residual_update_columns(
    decomposition: Decomposition, spec: RelationSpec
) -> ColumnSet:
    """Columns an ``update`` may rewrite in place (the batch-update gate).

    A column qualifies when it is stored *only* as a leaf residual — it
    appears in no edge key anywhere in the decomposition, so changing it
    never moves a tuple between containers — and it is FD-inert: it sits on
    no functional dependency's left-hand side, and on a right-hand side only
    when that dependency's left-hand side closes over the whole schema.  The
    closure condition makes each victim the unique stored row for its
    left-hand-side binding (FD enforcement, or the FD-off last-writer-wins
    eviction invariant, guarantees uniqueness), so rewriting the residual
    can neither merge two rows into one nor create a conflict a re-insert
    would have evicted — the in-place path is state-identical to
    remove-then-reinsert in both FD modes.
    """
    all_cols = frozenset(spec.columns)
    key_cols: set = set()
    for node in decomposition.nodes():
        for e in node.edges:
            key_cols |= e.key
    safe = set()
    for c in all_cols - key_cols:
        ok = True
        for fd in spec.fds:
            if c in fd.lhs:
                ok = False
                break
            if c in fd.rhs and not all_cols <= spec.fds.closure(fd.lhs):
                ok = False
                break
        if ok:
            safe.add(c)
    return frozenset(safe)


def _chain_witness(
    path: Path, pattern: ColumnSet, fds: FDSet, required: ColumnSet
) -> PlanWitness:
    # Only columns the chain physically reads count: a pattern column the
    # path never binds or checks contributes nothing to validity (the
    # executor cannot filter on it).
    return PlanWitness(
        bound=path.covered,
        checked=pattern & path.leaf.unit_columns,
        fds=fds,
        required=required,
    )


def _chain_plan(
    path: Path,
    bound: ColumnSet,
    pattern: ColumnSet,
    leaf_shared: bool,
    spec: Optional[RelationSpec],
) -> QueryPlan:
    """Build one chain plan over *path*; *bound* may exceed *pattern* when
    the chain is a join's probe side (the build side's columns are bound)."""
    witness = None
    if spec is not None:
        witness = _chain_witness(path, pattern, spec.fds, spec.columns)
    return QueryPlan(
        path,
        path_steps(path, bound),
        pattern,
        leaf_shared=leaf_shared,
        residual_filter=ResidualFilter(bound & path.leaf.unit_columns),
        witness=witness,
    )


def validate_plan(plan: AnyPlan, spec: RelationSpec) -> PlanWitness:
    """Check a plan against the paper's Figure 8 validity rule.

    Recomputes the witness from the plan's own structure (so hand-built
    plans are judged on what they actually bind and check, not on a stored
    witness) and raises :class:`QueryPlanError` naming the underdetermined
    columns when ``fd.closure(bound ∪ checked)`` misses part of the
    specification, or when a join's matched columns fail the lossless
    condition.  Returns the witness on success and stores it on the plan.
    """
    fds = spec.fds
    required = spec.columns
    # A pattern column the plan never reads cannot be filtered on — the
    # executor would silently ignore the constraint — so it contributes
    # nothing to validity and renders the plan unable to answer its own
    # pattern.
    unservable = plan.pattern_columns - plan.produced
    if unservable:
        raise QueryPlanError(
            f"plan never binds or checks its own pattern columns "
            f"{format_columns(unservable)}: it reads only "
            f"{format_columns(plan.produced)}, so executing it would "
            f"silently ignore the constraint"
        )
    if isinstance(plan, JoinPlan):
        left, right = plan.build.produced, plan.probe.produced
        closed_on = fds.closure(plan.on)
        if not (left <= closed_on or right <= closed_on):
            undetermined = (left | right) - closed_on
            raise QueryPlanError(
                f"join plan is not lossless: matching on "
                f"{format_columns(plan.on)} determines neither side "
                f"({format_columns(left)} / {format_columns(right)}); "
                f"underdetermined columns: {format_columns(undetermined)}"
            )
        bound = left | right
        checked = (
            plan.on
            | plan.build.filter.columns
            | plan.probe.filter.columns
        )
    else:
        bound = plan.produced
        checked = plan.filter.columns
    witness = PlanWitness(bound, checked, fds, required)
    if not witness.valid:
        raise QueryPlanError(
            f"plan is not valid under the specification's functional "
            f"dependencies (Figure 8): closure of bound ∪ checked = "
            f"{format_columns(witness.closed)} does not determine columns "
            f"{format_columns(witness.missing)}"
        )
    plan.witness = witness
    return witness


def _join_witness(
    build: QueryPlan, probe: QueryPlan, on: ColumnSet, pattern: ColumnSet, spec: RelationSpec
) -> PlanWitness:
    return PlanWitness(
        bound=build.produced | probe.produced,
        checked=on | build.filter.columns | probe.filter.columns,
        fds=spec.fds,
        required=spec.columns,
    )


def candidate_plans(
    decomposition: Decomposition,
    pattern_columns: Union[str, Iterable[str]],
    spec: Optional[RelationSpec] = None,
    allow_join: bool = True,
) -> PyTuple[List[AnyPlan], List[QueryPlan]]:
    """Every valid plan for a pattern over *pattern_columns*.

    Returns ``(candidates, chain_plans)``: the valid plans :func:`plan_query`
    ranks — one chain per path that covers every required column, then
    :func:`_join_candidates` — and the chain plan of every path.  The
    listing reads no container name, so the autotuner lists it once per
    structure-free shape and prices each container assignment of that
    shape with :func:`plan_rank`.  Arguments are as for :func:`plan_query`.
    """
    bound = columns(pattern_columns)
    parent_counts = decomposition.parent_counts()
    required = spec.columns if spec is not None else decomposition.covered_columns()

    candidates: List[AnyPlan] = []
    chain_plans: List[QueryPlan] = []
    for path in decomposition.paths():
        leaf_shared = parent_counts.get(id(path.leaf), 0) >= 2
        plan = _chain_plan(path, bound, bound, leaf_shared, spec)
        chain_plans.append(plan)
        if path.covered >= required:
            candidates.append(plan)

    if spec is not None and allow_join:
        candidates.extend(
            _join_candidates(decomposition, bound, spec, chain_plans, parent_counts)
        )

    if not candidates and not chain_plans:
        raise QueryPlanError(
            f"decomposition {decomposition.name!r} has no root-to-leaf paths"
        )
    if not candidates:
        raise QueryPlanError(
            f"no valid plan answers a pattern over {format_columns(bound)} on "
            f"decomposition {decomposition.name!r}: no single path covers "
            f"{format_columns(required)} and no valid join combines the branches"
        )
    return candidates, chain_plans


def plan_rank(
    plan: AnyPlan,
    order: int,
    sizes: Optional[EdgeSizes] = None,
    structures: Optional[EdgeStructures] = None,
) -> tuple:
    """The planner's rank of a candidate, lowest first; *order* is its
    position in the candidate listing.

    With *sizes*, ``(estimated cost, scans, kind, order)``: chains before
    joins on ties.  Without, plans are ranked structurally, fewest scans
    first, then the symbolic cost.  *structures* is as for
    :meth:`QueryPlan.estimated_cost`.
    """
    kind = 1 if isinstance(plan, JoinPlan) else 0
    if sizes is None:
        return (plan.scan_count, plan.estimated_cost(structures=structures), kind, order)
    return (plan.estimated_cost(sizes=sizes, structures=structures), plan.scan_count, kind, order)


def plan_query(
    decomposition: Decomposition,
    pattern_columns: Union[str, Iterable[str]],
    require_lookup: bool = False,
    sizes: Optional[EdgeSizes] = None,
    spec: Optional[RelationSpec] = None,
    allow_join: bool = True,
) -> AnyPlan:
    """Choose the cheapest valid plan for a pattern over *pattern_columns*.

    Args:
        decomposition: the (validated) decomposition to plan against.
        pattern_columns: the columns the query pattern binds.
        require_lookup: when ``True``, raise :class:`QueryPlanError` unless a
            *chain* plan exists whose every step is a lookup (the paper's
            "query is supported efficiently" notion used by operation
            planning).
        sizes: optional per-edge live container sizes
            (:meth:`DecompositionInstance.edge_sizes`).  Without them plans
            are ranked structurally (fewest scans first, then the symbolic
            cost at :data:`DEFAULT_COST_SIZE`); with them the estimated cost
            against the real data leads, so the chosen plan flips when the
            data distribution does — including flips between single-path
            and join plans.
        spec: the relational specification.  With it the planner searches
            cross-branch **join** candidates, validates every candidate by
            the Figure 8 FD-closure rule, and attaches the validity witness
            to the returned plan.  Without it only full-coverage single
            paths are considered (which need no FD reasoning).
        allow_join: set ``False`` to restrict the search to single-path
            plans (used e.g. to measure how much a join plan saves).
    """
    candidates, chain_plans = candidate_plans(decomposition, pattern_columns, spec, allow_join)

    def cheapest(plans: Sequence[AnyPlan]) -> AnyPlan:
        return min(enumerate(plans), key=lambda item: plan_rank(item[1], item[0], sizes))[1]

    best = cheapest(candidates)
    if spec is not None:
        validate_plan(best, spec)

    if require_lookup:
        required = spec.columns if spec is not None else decomposition.covered_columns()
        lookup_only = [p for p in chain_plans if p.scan_count == 0 and p.produced >= required]
        if not lookup_only:
            raise QueryPlanError(
                f"no lookup-only plan answers a pattern over "
                f"{format_columns(columns(pattern_columns))} on decomposition "
                f"{decomposition.name!r}; best plan is {best.describe()}"
            )
        return cheapest(lookup_only)
    return best


def _join_candidates(
    decomposition: Decomposition,
    pattern: ColumnSet,
    spec: RelationSpec,
    chain_plans: Sequence[QueryPlan],
    parent_counts,
) -> List[JoinPlan]:
    """Every valid two-branch join candidate for *pattern*.

    For each ordered pair of distinct paths, the first is the build side
    (planned against the pattern alone) and the second the probe side
    (planned with the build side's columns additionally bound).  A pair
    qualifies when together the sides read every required column, and the
    full common column set — what the rows are matched on — FD-determines
    at least one side (the lossless condition that keeps the glued rows
    real).  Paths converging on one shared leaf are skipped: their join is
    the degenerate identity join already served by the cheapest single
    chain (see :func:`converging_plans`).
    """
    fds = spec.fds
    required = spec.columns
    paths = decomposition.paths()
    joins: List[JoinPlan] = []
    for i, build_path in enumerate(paths):
        if build_path.covered >= required:
            continue  # Probing adds nothing a full build side does not have.
        build = chain_plans[i]
        for j, probe_path in enumerate(paths):
            if i == j:
                continue
            if build_path.leaf is probe_path.leaf and parent_counts.get(
                id(build_path.leaf), 0
            ) >= 2:
                continue  # Degenerate identity join over a shared leaf.
            produced = build_path.covered | probe_path.covered
            if not required <= produced:
                continue
            on = build_path.covered & probe_path.covered
            closed_on = fds.closure(on)
            if not (build_path.covered <= closed_on or probe_path.covered <= closed_on):
                continue  # Not lossless: the glued rows could be spurious.
            leaf_shared = parent_counts.get(id(probe_path.leaf), 0) >= 2
            probe = _chain_plan(
                probe_path, pattern | build_path.covered, pattern, leaf_shared, spec
            )
            witness = _join_witness(build, probe, on, pattern, spec)
            if not witness.valid:
                continue
            joins.append(JoinPlan(build, probe, on, pattern, "probe", witness))
            if probe.scan_count:
                # The probe side scans; when those scans do not profit from
                # the build side's bindings, enumerating the probe once and
                # matching through a temporary hash beats re-scanning per
                # build row.  Offer it as a separate candidate and let the
                # cost ranking decide.
                independent = _chain_plan(probe_path, pattern, pattern, leaf_shared, spec)
                joins.append(
                    JoinPlan(build, independent, on, pattern, "hash", witness)
                )
    return joins


def converging_plans(
    decomposition: Decomposition,
    pattern_columns: Union[str, Iterable[str]],
) -> List[QueryPlan]:
    """Every lookup-only chain landing on one shared leaf for this pattern.

    When the pattern binds a shared leaf's full bound column set, each
    branch that reaches the leaf by lookups alone is an equivalent access
    path: executing any of them yields the *identical* record objects (the
    sharing invariant), so a cross-branch join between them is the
    degenerate identity join — which is why :func:`plan_query`'s join
    search skips converging pairs and simply ranks the chains.  Returns the
    equivalence class (possibly empty — e.g. when the pattern leaves some
    bound column free), cheapest plan first under the symbolic cost model.
    """
    bound = columns(pattern_columns)
    parent_counts = decomposition.parent_counts()
    target: Optional[int] = None
    plans: List[QueryPlan] = []
    for path in decomposition.paths():
        if parent_counts.get(id(path.leaf), 0) < 2:
            continue
        if not path.bound <= bound:
            continue
        if target is None:
            target = id(path.leaf)
        elif id(path.leaf) != target:
            continue  # Equivalence holds per shared leaf, not across leaves.
        steps = path_steps(path, path.bound)
        plans.append(QueryPlan(path, steps, bound, leaf_shared=True))
    plans.sort(key=lambda plan: plan.estimated_cost())
    return plans


def execute_plan(
    plan: AnyPlan, instance: DecompositionInstance, pattern: Tuple
) -> Iterator[Tuple]:
    """Run *plan* against *instance*; return an iterator over the full
    matching tuples.

    Chain plans walk their path with the pattern as context; join plans
    evaluate the build chain, then either re-walk the probe chain per build
    row with the row's columns bound (``style == "probe"``) or enumerate
    the probe chain once and match through a temporary hash table
    (``style == "hash"``, charged one counted access per temporary insert
    and probe, mirroring the compiled tier).

    Eager: every row is collected by :func:`walk_chain` before the first is
    returned.  The container calls are the ones a lazy walk makes when
    drained, and the rows come in the same depth-first order.
    """
    if not plan.pattern_columns <= pattern.columns:
        raise QueryPlanError(
            f"plan for pattern columns {format_columns(plan.pattern_columns)} cannot "
            f"execute pattern {pattern!r}: the pattern must bind at least the "
            f"planned columns"
        )
    rows: List[Tuple] = []
    if isinstance(plan, JoinPlan):
        _walk_join(plan, instance.root, pattern, rows)
    else:
        walk_chain(plan.steps, pattern, instance.root, rows)
    return iter(rows)


def _walk_join(plan: JoinPlan, root: NodeInstance, pattern: Tuple, rows: List[Tuple]) -> None:
    build_rows: List[Tuple] = []
    walk_chain(plan.build.steps, pattern, root, build_rows)
    if plan.style == "probe":
        for left in build_rows:
            probe_rows: List[Tuple] = []
            walk_chain(plan.probe.steps, pattern.merge(left), root, probe_rows)
            rows.extend(left.merge(right) for right in probe_rows)
        return
    on = sorted(plan.on)
    table: dict = {}
    for left in build_rows:
        COUNTER.count_access()  # Temporary-hash insert.
        table.setdefault(left.project(on), []).append(left)
    probe_rows = []
    walk_chain(plan.probe.steps, pattern, root, probe_rows)
    for right in probe_rows:
        COUNTER.count_access()  # Temporary-hash probe.
        rows.extend(left.merge(right) for left in table.get(right.project(on), ()))


def walk_chain(
    steps: Sequence[PlanStep], pattern: Tuple, root: NodeInstance, rows: List[Tuple]
) -> None:
    """Walk *steps* down from *root*, one level at a time, appending to
    *rows* each full tuple that matches *pattern*.

    A lookup step probes each node's container with the pattern's value of
    the step's key; a scan step visits every entry and descends where the
    key matches the pattern.  The key is tested only when it shares a
    column with the pattern: otherwise it matches trivially.  Each node
    carries its bound tuple, the keys merged on the way down; each unit
    leaf whose merged tuple matches *pattern* gives a row.  Each level
    keeps its parents' order, so the rows come in depth-first order.
    """
    columns_bound = pattern.columns
    nodes, bindings = [root], [Tuple.empty()]
    for step in steps:
        if not nodes:
            return
        index = step.edge_index
        found: List[NodeInstance] = []
        merged: List[Tuple] = []
        if type(step) is LookupStep:
            key = pattern.project(step.edge.key)
            for node, binding in zip(nodes, bindings):
                child = node.containers[index].lookup(key)
                if child is not MISSING:
                    found.append(child)
                    merged.append(binding.merge(key))
        else:
            test = not step.edge.key.isdisjoint(columns_bound)
            for node, binding in zip(nodes, bindings):
                for entry_key, child in node.containers[index].items():
                    if test and not entry_key.matches(pattern):
                        continue
                    found.append(child)
                    merged.append(binding.merge(entry_key))
        nodes, bindings = found, merged
    for node, binding in zip(nodes, bindings):
        unit = node.unit_value
        if unit is None:
            continue  # An empty unit represents no tuple.
        row = binding.merge(unit)
        if row.matches(pattern):
            rows.append(row)
