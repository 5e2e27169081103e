"""The adequacy judgement (Section 3.2, Figure 6).

A decomposition is *adequate* for a specification ``(C, ∆)`` when every
relation over ``C`` satisfying ``∆`` is representable by some instance of
the decomposition — i.e. the abstraction function α is surjective onto the
FD-satisfying relations.  Concretely this reproduction checks:

* **column justification** — for every leaf reachable with bound columns
  ``B`` and unit columns ``U``, the covered set ``B ∪ U`` mentions only
  specification columns; the decomposition as a whole (the root's
  coverage) mentions every one.  A branch need **not** cover every column:
  a *key-projection branch* stores only a key subset of the columns (e.g.
  a ``dst``-keyed index over the edge keys ``{src, dst}`` of a graph whose
  weights live in the ``src``-keyed primary), and queries reassemble full
  tuples with a cross-branch join plan validated by the Figure 8 FD-closure
  rule (:mod:`repro.decomposition.plan`).
* **FD justification** — ``∆ ⊢fd B → U``: a unit stores at most one tuple
  per binding of ``B``, so the decomposition structurally enforces the
  dependency ``B → U``.  Adequacy demands that this enforced dependency is
  *justified* by (entailed by) the specification's FDs — otherwise there
  are ∆-satisfying relations the decomposition cannot hold.
* **branch keyness** — ``∆ ⊢fd (B ∪ U) → C``: every path's covered column
  set must be a key.  A branch then stores one entry per represented
  tuple (its projection is a bijection), which is what lets the mutators
  insert and remove per-branch projections without reference counting and
  makes all-common-column join plans sound.
* **primary-branch completeness** — at every branching node, the first
  edge's coverage must contain every sibling edge's coverage.  The
  leftmost root-to-leaf walk therefore reads full tuples, which keeps the
  abstraction function α, iteration, and the compiled tier's primary-path
  enumeration single-branch reads; key-projection branches are secondary
  by construction.
* **shared-node typing** — a node reached through several parent edges
  (the paper's shared sub-nodes) must be reached with *one* bound column
  set, so it has a single type ``B ▷ C`` and instances can materialise one
  object per ``B``-binding.

The checks run over a traversal memoised on ``(node, bound)`` pairs
(:meth:`Decomposition.node_bounds`), so shared nodes are visited once per
distinct bound set — no exponential blowup when branches converge.

:func:`enforced_fds` exposes the dependencies a decomposition enforces by
construction, which the differential tests use to cross-check the theorem
that well-formed instances always abstract to FD-satisfying relations.
"""

from __future__ import annotations

from typing import List

from ..core.columns import format_columns
from ..core.errors import AdequacyError
from ..core.fd import FDSet, FunctionalDependency
from ..core.spec import RelationSpec
from .model import Decomposition

__all__ = ["check_adequacy", "is_adequate", "adequacy_problems", "enforced_fds"]


def _leaf_typings(decomposition: Decomposition) -> List[tuple]:
    """Every distinct ``(leaf node, bound columns)`` pair, deterministically.

    Built from the memoised :meth:`Decomposition.node_bounds` traversal:
    a shared leaf reachable from several branches with the same bound set
    contributes one entry, not one per root-to-leaf path.
    """
    bounds = decomposition.node_bounds()
    return [
        (node, bound)
        for node in decomposition.nodes()
        if node.is_unit
        for bound in bounds.get(id(node), [])
    ]


def adequacy_problems(decomposition: Decomposition, spec: RelationSpec) -> List[str]:
    """Return a human-readable list of reasons the decomposition is not
    adequate for *spec* (empty when it is adequate)."""
    problems: List[str] = []
    names = decomposition.node_names()
    bounds = decomposition.node_bounds()
    coverage = decomposition.node_coverage()
    for node in decomposition.shared_nodes():
        entries = bounds.get(id(node), [])
        if len(entries) > 1:
            rendered = ", ".join(format_columns(b) for b in entries)
            problems.append(
                f"shared node {names[id(node)]} ({node!r}) is reached with "
                f"{len(entries)} different bound column sets ({rendered}); a "
                f"shared sub-node must have a single type B ▷ C, i.e. every "
                f"path to it must bind the same columns"
            )
    root_coverage = coverage[id(decomposition.root)]
    missing_everywhere = spec.columns - root_coverage
    if missing_everywhere:
        problems.append(
            f"no branch mentions columns {format_columns(missing_everywhere)}: "
            f"the decomposition cannot represent them at all"
        )
    for node in decomposition.nodes():
        if len(node.edges) < 2:
            continue
        primary = decomposition.edge_coverage(node.edges[0])
        for index, e in enumerate(node.edges[1:], start=1):
            extra = decomposition.edge_coverage(e) - primary
            if extra:
                problems.append(
                    f"branching node {names[id(node)]}: its first branch covers "
                    f"{format_columns(primary)} but branch {index} additionally "
                    f"covers {format_columns(extra)}; the first (primary) branch "
                    f"must cover every sibling's columns so the leftmost walk "
                    f"reads full tuples (order key-projection branches after "
                    f"the primary)"
                )
    for leaf, bound in _leaf_typings(decomposition):
        where = (
            f"leaf {names[id(leaf)]} (unit{format_columns(leaf.unit_columns)} "
            f"reached with bound columns {format_columns(bound)})"
        )
        covered = bound | leaf.unit_columns
        extra = covered - spec.columns
        if extra:
            problems.append(
                f"{where} mentions columns {format_columns(extra)} "
                f"outside the specification columns {format_columns(spec.columns)}"
            )
            continue
        if not spec.fds.entails(bound, leaf.unit_columns):
            reason = (
                "are not a key"
                if covered == spec.columns
                else "do not determine the unit columns"
            )
            problems.append(
                f"{where} enforces the dependency "
                f"{format_columns(bound)} → {format_columns(leaf.unit_columns)}, "
                f"which the specification's FDs do not justify (the bound columns "
                f"{format_columns(bound)} {reason}); the decomposition cannot "
                f"represent every relation satisfying {spec.fds!r}"
            )
            continue
        if not spec.fds.is_key(covered, spec.columns):
            problems.append(
                f"{where} covers only {format_columns(covered)}, which is not a "
                f"key of the specification: distinct tuples would collapse to "
                f"one branch entry, so neither per-branch mutation nor a "
                f"cross-branch join plan can be sound (a key-projection branch "
                f"must cover a key)"
            )
    return problems


def check_adequacy(decomposition: Decomposition, spec: RelationSpec) -> None:
    """Raise :class:`AdequacyError` unless *decomposition* is adequate for *spec*."""
    problems = adequacy_problems(decomposition, spec)
    if problems:
        raise AdequacyError(
            f"decomposition {decomposition.name!r} ({decomposition.describe()}) is "
            f"not adequate for specification {spec.name!r}:\n  - " + "\n  - ".join(problems)
        )


def is_adequate(decomposition: Decomposition, spec: RelationSpec) -> bool:
    """Decide the adequacy judgement without raising."""
    return not adequacy_problems(decomposition, spec)


def enforced_fds(decomposition: Decomposition) -> FDSet:
    """The functional dependencies the decomposition enforces structurally.

    Each leaf reached with bound columns ``B`` holding unit columns ``U``
    contributes ``B → U`` (a unit holds one tuple per binding).  Leaves with
    no unit columns contribute nothing — a pure presence marker enforces no
    dependency.  A shared leaf contributes its dependency once, not once
    per converging branch.
    """
    seen = set()
    fds = []
    for leaf, bound in _leaf_typings(decomposition):
        if not leaf.unit_columns:
            continue
        key = (bound, leaf.unit_columns)
        if key in seen:
            continue
        seen.add(key)
        fds.append(FunctionalDependency(bound, leaf.unit_columns))
    return FDSet(fds)
