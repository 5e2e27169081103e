"""Bounded-depth enumeration of adequate candidate decompositions (Section 5).

The autotuner's search space is generated, not hand-listed: given a
specification ``(C, ∆)`` and the pattern column sets a workload binds, the
enumerator yields every decomposition it will consider, **adequate by
construction**:

* **single-path layouts** — for each interesting bound set ``B`` (the
  specification's minimal keys, and ``C`` itself for fully-bound layouts),
  every ordered partition of ``B`` into at most ``max_depth`` map levels,
  with the residual ``C \\ B`` stored in the unit leaf.  Since ``B`` is a
  key, the path's enforced dependency ``B → C \\ B`` is justified and the
  layout is adequate (Figure 6);
* **secondary index paths** — for each workload pattern column set ``P``
  that is not itself a key, the two-level path ``P → (K \\ P) → unit`` for
  each minimal key ``K`` (the scheduler's ``state → (ns, pid) → {cpu}``
  shape), plus the fully-bound variant ``P → (C \\ P) → {}``.  These are
  also offered standalone;
* **2-branch variants** — every primary single-path layout over a minimal
  key paired with every secondary index path, sharing the root (the
  paper's branching decompositions: one tuple stored once per branch);
* **shared-node variants** (Section 3's shared sub-nodes) — for each
  minimal key ``K`` and workload pattern ``P``, the two branches
  ``K → (P \\ K) → @u`` and ``(P \\ K) → K → @u`` *converging on one
  shared unit* ``@u = C \\ (K ∪ P)``: the paper's scheduler records,
  reached from both the primary-key index and the per-``P`` lists, stored
  once and unlinked in O(1) by intrusive containers.

Each shape is instantiated once per **structure assignment**: one container
choice per edge, drawn from :func:`~repro.structures.registry.default_structure_names`
(or a caller-supplied list) collapsed to one representative per *cost
class*.  ``dlist`` and ``ilist`` share lookup/scan cost curves, so for
ordinary edges ``dlist`` stands in for both — but on edges **into a shared
node** intrusiveness is behaviourally meaningful (O(1) unlink vs. a linear
victim scan), so there ``ilist`` is offered as an additional choice.
``ilist`` is never proposed on a non-shared edge, where it could not be
distinguished from ``dlist``.  Candidates are deduplicated by canonical
shape (structure aliases such as ``btree`` and ``vector`` resolve to their
canonical names first; sharing is part of the shape, so a shared layout
never collides with its per-branch-copy twin).
"Adequate by construction" is still checked, once per structure-free
shape (:func:`shape_skeleton`): the adequacy judgement
(:mod:`repro.decomposition.adequacy`) reads no structure name.

What the enumerator deliberately does **not** explore (see ROADMAP):
≥3-branch layouts, depth beyond ``max_depth``, shared *map* sub-nodes
(only shared unit leaves are enumerated; the instance/codegen layers
support the general case), and key partitions inside shared variants.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..core.columns import ColumnSet, columns
from ..core.errors import AutotunerError
from ..core.spec import RelationSpec
from ..decomposition.adequacy import check_adequacy
from ..decomposition.model import Decomposition, DecompNode, MapEdge
from ..structures.registry import (
    canonical_structure_name,
    default_structure_names,
    get_structure,
)

__all__ = [
    "enumerate_decompositions",
    "canonical_shape",
    "shape_skeleton",
    "representative_structures",
    "PathShape",
]

#: A path shape: the ordered key groups of its map levels plus the unit
#: columns of its leaf.
PathShape = PyTuple[PyTuple[ColumnSet, ...], ColumnSet]


def canonical_shape(decomposition: Decomposition) -> str:
    """A canonical text key for deduplicating decompositions by shape.

    :meth:`Decomposition.describe` with structure aliases resolved
    (``btree`` → ``avl``), so a layout written with either name maps to the
    same key.  Node sharing is part of the key (shared nodes render as
    ``@name`` references), so a shared layout and its per-branch-copy twin
    are distinct candidates.  Rendered once per decomposition
    (:meth:`Decomposition.canonical_shape`).
    """
    return decomposition.canonical_shape()


def shape_skeleton(decomposition: Decomposition) -> str:
    """The decomposition's shape with the structure names erased.

    Candidates sharing a skeleton differ only in container flavour; the
    tuner's exact-replay beam caps how many of them advance, so a block of
    cost-tied same-shape variants cannot crowd every *different* shape out
    of the replay phase.  The static scorer plans each skeleton once and
    only prices its container assignments.  Rendered once per
    decomposition (:meth:`Decomposition.skeleton`).
    """
    return decomposition.skeleton()


def representative_structures(names: Optional[Sequence[str]] = None) -> List[str]:
    """Collapse *names* to one representative per cost model.

    Containers with identical lookup/scan cost curves (sampled at a few
    sizes) are indistinguishable to both scoring phases, so only the first
    of each group is kept — e.g. the default library's ``dlist`` stands in
    for ``ilist`` on ordinary edges.  Intrusiveness is *not* part of the curve:
    on edges into a shared node, where O(1) unlink is behaviourally
    meaningful, the enumerator re-adds ``ilist`` as an extra choice
    (:data:`SHARED_EDGE_EXTRAS`) rather than collapsing it here.
    """
    if names is None:
        names = default_structure_names()
    sample_sizes = (1.0, 8.0, 64.0, 1024.0)
    seen: Dict[tuple, str] = {}
    representatives: List[str] = []
    for name in names:
        canonical = canonical_structure_name(name)
        cls = get_structure(canonical)
        signature = tuple(
            (round(cls.estimate_accesses(n), 9), round(cls.scan_cost(n), 9))
            for n in sample_sizes
        )
        if signature not in seen:
            seen[signature] = canonical
            representatives.append(canonical)
    return representatives


def _ordered_partitions(cols: ColumnSet, max_groups: int) -> Iterator[PyTuple[ColumnSet, ...]]:
    """Ordered partitions of *cols* into 1..max_groups non-empty groups.

    Deterministic: first groups are enumerated by (size, sorted names).
    """
    members = sorted(cols)
    if not members:
        return
    if max_groups <= 1:
        yield (frozenset(members),)
        return

    def subsets() -> Iterator[FrozenSet[str]]:
        # Non-empty proper subsets by (size, lexicographic), then the whole set.
        from itertools import combinations

        for size in range(1, len(members)):
            for combo in combinations(members, size):
                yield frozenset(combo)

    yield (frozenset(members),)
    for first in subsets():
        rest = frozenset(members) - first
        for tail in _ordered_partitions(rest, max_groups - 1):
            yield (first,) + tail


#: Extra container choices offered on edges whose child is a shared node,
#: where intrusiveness is behaviourally meaningful (O(1) unlink of a record
#: both branches hold by reference) — never on ordinary edges, where these
#: structures are cost-indistinguishable from their representative.
SHARED_EDGE_EXTRAS = ("ilist",)


def _build_branch(shape: PathShape, structures: Sequence[str]) -> MapEdge:
    """Build one root edge chaining the shape's key groups down to its unit."""
    groups, unit_cols = shape
    node = DecompNode(unit_columns=unit_cols)
    for key, structure in zip(reversed(groups), reversed(list(structures))):
        node = DecompNode(edges=(MapEdge(key, structure, node),))
    return node.edges[0]


def _build_shared_root(
    key_set: ColumnSet,
    pattern: ColumnSet,
    unit_cols: ColumnSet,
    structures: Sequence[str],
) -> DecompNode:
    """Two branches converging on one shared unit leaf.

    ``structures`` is ``(sA1, sA2, sB1, sB2)``: branch A is
    ``K -sA1-> (P -sA2-> @u)``, branch B is ``P -sB1-> (K -sB2-> @u)``;
    both reach ``@u`` with bound columns ``K ∪ P``, so the shared node has
    a single type and instances materialise one record per binding.
    """
    a1, a2, b1, b2 = structures
    shared = DecompNode(unit_columns=unit_cols)
    branch_a = MapEdge(key_set, a1, DecompNode(edges=(MapEdge(pattern, a2, shared),)))
    branch_b = MapEdge(pattern, b1, DecompNode(edges=(MapEdge(key_set, b2, shared),)))
    return DecompNode(edges=(branch_a, branch_b))


def _shape_edge_count(shapes: Sequence[PathShape]) -> int:
    return sum(len(groups) for groups, _ in shapes)


def enumerate_decompositions(
    spec: RelationSpec,
    patterns: Iterable = (),
    structures: Optional[Sequence[str]] = None,
    max_depth: int = 2,
    max_candidates: Optional[int] = None,
) -> List[Decomposition]:
    """Enumerate adequate candidate decompositions for *spec*.

    Args:
        spec: the relational specification ``(C, ∆)``.
        patterns: pattern column sets the workload binds (strings, iterables
            or frozensets) — these seed the secondary index shapes.
        structures: container names to assign per edge (default:
            :func:`default_structure_names`), collapsed to cost-model
            representatives.
        max_depth: maximum number of map levels on any path (≥ 1).
        max_candidates: optional hard cap; enumeration stops (deterministically)
            once reached.

    Returns:
        Deduplicated list of adequate decompositions, each named
        ``auto0, auto1, ...`` in enumeration order.

    Raises:
        AutotunerError: on a non-positive depth or an empty search space.
    """
    if max_depth < 1:
        raise AutotunerError(f"max_depth must be at least 1; got {max_depth}")
    cols = spec.columns
    reps = representative_structures(structures)
    if not reps:
        raise AutotunerError("no candidate structures to assign to map edges")
    #: Every structure the caller actually allows (canonicalised) — the
    #: shared-edge extras are drawn from this set, never beyond it.
    allowed = {
        canonical_structure_name(name)
        for name in (structures if structures is not None else default_structure_names())
    }

    minimal_keys = [k for k in spec.minimal_keys() if k]
    pattern_sets: List[ColumnSet] = []
    for pattern in patterns:
        normalized = frozenset(columns(pattern)) & cols
        if normalized and normalized < cols and normalized not in pattern_sets:
            pattern_sets.append(normalized)
    pattern_sets.sort(key=lambda s: (len(s), sorted(s)))

    # -- path shapes ------------------------------------------------------------

    primary_shapes: List[PathShape] = []  # over minimal keys: 2-branch primaries
    single_shapes: List[PathShape] = []  # offered standalone

    def add_shape(target: List[PathShape], shape: PathShape) -> None:
        if shape not in target:
            target.append(shape)

    for key_set in minimal_keys:
        for groups in _ordered_partitions(key_set, max_depth):
            shape = (groups, cols - key_set)
            add_shape(primary_shapes, shape)
            add_shape(single_shapes, shape)
    if frozenset(cols) not in minimal_keys:
        for groups in _ordered_partitions(cols, max_depth):
            add_shape(single_shapes, (groups, frozenset()))

    secondary_shapes: List[PathShape] = []
    if max_depth >= 2:
        for pattern in pattern_sets:
            if spec.fds.is_key(pattern, cols):
                continue  # A key pattern is already served by a primary shape.
            residuals = [cols - pattern]
            for key_set in minimal_keys:
                residual = key_set - pattern
                if residual and residual not in residuals:
                    residuals.append(residual)
            for second in residuals:
                bound = pattern | second
                if not spec.fds.is_key(bound, cols):
                    continue  # Inadequate: the path would enforce an unjustified FD.
                shape = ((pattern, second), cols - bound)
                add_shape(secondary_shapes, shape)
                add_shape(single_shapes, shape)

    # -- instantiate structure assignments --------------------------------------

    decompositions: List[Decomposition] = []
    seen_shapes: set = set()
    adequate_skeletons: set = set()
    truncated = False

    def emit(branch_shapes: Sequence[PathShape]) -> bool:
        """Instantiate every structure assignment of one multi-branch shape.

        Returns ``False`` once the candidate cap is reached.
        """
        nonlocal truncated
        edge_count = _shape_edge_count(branch_shapes)
        for assignment in product(reps, repeat=edge_count):
            if max_candidates is not None and len(decompositions) >= max_candidates:
                truncated = True
                return False
            edges: List[MapEdge] = []
            offset = 0
            for groups, unit_cols in branch_shapes:
                branch_structures = assignment[offset : offset + len(groups)]
                offset += len(groups)
                edges.append(_build_branch((groups, unit_cols), branch_structures))
            root = DecompNode(edges=tuple(edges))
            keep(Decomposition(root, name=f"auto{len(decompositions)}"))
        return True

    def keep(decomposition: Decomposition) -> None:
        """Keep *decomposition* unless its canonical shape is already kept."""
        shape = canonical_shape(decomposition)
        if shape in seen_shapes:
            return
        skeleton = shape_skeleton(decomposition)
        if skeleton not in adequate_skeletons:
            check_adequacy(decomposition, spec)  # Adequate by construction.
            adequate_skeletons.add(skeleton)
        seen_shapes.add(shape)
        decompositions.append(decomposition)

    def emit_shared() -> bool:
        """Instantiate the shared-node 2-branch variants (one per minimal
        key × non-key workload pattern × structure assignment); edges into
        the shared unit additionally offer the intrusive choices."""
        nonlocal truncated
        if max_depth < 2:
            return True
        shared_extras = [
            canonical
            for canonical in (canonical_structure_name(n) for n in SHARED_EDGE_EXTRAS)
            if canonical in allowed and canonical not in reps
        ]
        into_shared = reps + shared_extras
        for key_set in minimal_keys:
            for pattern in pattern_sets:
                effective = pattern - key_set
                if not effective or spec.fds.is_key(pattern, cols):
                    continue
                unit_cols = cols - (key_set | effective)
                for assignment in product(reps, into_shared, reps, into_shared):
                    if max_candidates is not None and len(decompositions) >= max_candidates:
                        truncated = True
                        return False
                    root = _build_shared_root(key_set, effective, unit_cols, assignment)
                    keep(Decomposition(root, name=f"auto{len(decompositions)}"))
        return True

    for shape in single_shapes:
        if not emit([shape]):
            break
    if not truncated:
        for primary in primary_shapes:
            for secondary in secondary_shapes:
                if primary == secondary:
                    continue
                if not emit([primary, secondary]):
                    break
            if truncated:
                break
    if not truncated:
        emit_shared()

    if not decompositions:
        raise AutotunerError(
            f"no adequate decompositions enumerable for specification {spec.name!r} "
            f"(columns {sorted(cols)}, fds {spec.fds!r}) at max_depth={max_depth}"
        )
    return decompositions
