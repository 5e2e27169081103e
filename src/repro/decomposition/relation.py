"""``DecomposedRelation`` — the relational interface over a decomposition.

This is the paper's synthesized representation as an interpreter: the five
relational operations of Section 2 executed against a
:class:`~repro.decomposition.instance.DecompositionInstance` through query
plans.  It is interchangeable with
:class:`~repro.core.reference.ReferenceRelation` — the randomized
differential tests in ``tests/test_differential.py`` drive both through
identical operation sequences and assert ``α`` agrees after every step
(Theorem 5's dynamic counterpart).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Union

from ..core.columns import ColumnSet, columns
from ..core.errors import FunctionalDependencyError, IntegrityError
from ..core.interface import RelationInterface, coerce_tuple
from ..core.relation import Relation
from ..core.spec import RelationSpec
from ..core.tuples import Tuple
from .instance import DecompositionInstance
from .model import Decomposition
from .parser import parse_decomposition
from .plan import AnyPlan, execute_plan, plan_query, residual_update_columns

__all__ = ["DecomposedRelation"]


class DecomposedRelation(RelationInterface):
    """A mutable relation stored according to a decomposition.

    Parameters:
        spec: the relational specification ``(C, ∆)``.
        decomposition: a :class:`Decomposition` or a string in the textual
            notation of :mod:`repro.decomposition.parser`; it must be
            adequate for *spec* (:class:`~repro.core.errors.AdequacyError`
            is raised otherwise).
        enforce_fds: when ``True`` (default), ``insert`` and ``update``
            raise :class:`~repro.core.errors.FunctionalDependencyError`
            rather than perform an FD-violating operation, mirroring
            :class:`~repro.core.reference.ReferenceRelation`.  When
            ``False``, an FD-violating insert silently evicts the
            conflicting tuples (last-writer-wins, in every branch) — the
            structural behaviour of the representation, which can only
            hold FD-satisfying relations; see
            :class:`~repro.core.interface.RelationInterface` for the
            cross-tier contract.  The eviction is driven by the
            specification's FDs, not only by unit-binding collisions:
            a fully-bound layout (empty units) has no structural
            collisions, yet must still agree with the other tiers.
    """

    def __init__(
        self,
        spec: RelationSpec,
        decomposition: Union[Decomposition, str],
        enforce_fds: bool = True,
    ):
        if isinstance(decomposition, str):
            decomposition = parse_decomposition(decomposition)
        self.spec = spec
        self.decomposition = decomposition
        self.enforce_fds = enforce_fds
        self.instance = DecompositionInstance(decomposition, spec)
        self._plan_cache: Dict[ColumnSet, AnyPlan] = {}
        self._plan_signature = self.instance.size_signature()
        self._plan_version = self.instance._version
        #: Columns ``update`` may rewrite in place (fixed per layout).
        self._resid_safe = residual_update_columns(decomposition, spec)

    # -- planning ---------------------------------------------------------------

    def plan_for(self, pattern_columns: Union[str, Iterable[str], ColumnSet]) -> AnyPlan:
        """The (cached) plan used for patterns over *pattern_columns*.

        Plans are chosen against the instance's *live* container sizes
        (:meth:`DecompositionInstance.edge_sizes`) and cached per size-class
        signature: when any container's size class changes (crosses a power
        of two), the cache is invalidated and subsequent patterns are
        re-planned — so index-vs-scan choices track the data actually
        stored, not the symbolic :data:`~repro.decomposition.plan.DEFAULT_COST_SIZE`.

        The signature itself is only recomputed when the instance's
        mutation stamp has moved since the last call — a run of queries
        with no intervening mutation resolves its plans with two attribute
        reads and one dict probe.  The cache holds only validated column
        sets, so a ``frozenset`` it hits (what internal callers pass) needs
        no validation; anything else goes through :func:`columns` first.
        """
        version = self.instance._version
        if version != self._plan_version:
            self._plan_version = version
            signature = self.instance.size_signature()
            if signature != self._plan_signature:
                self._plan_cache.clear()
                self._plan_signature = signature
        if isinstance(pattern_columns, frozenset):
            plan = self._plan_cache.get(pattern_columns)
            if plan is not None:
                return plan
        key = columns(pattern_columns)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = plan_query(
                self.decomposition,
                key,
                sizes=self.instance.edge_sizes(),
                spec=self.spec,
            )
            self._plan_cache[key] = plan
        return plan

    def _matches(self, pattern: Tuple) -> List[Tuple]:
        """All full tuples extending *pattern* (deduplicated)."""
        plan = self.plan_for(pattern.columns)
        return list(dict.fromkeys(execute_plan(plan, self.instance, pattern)))

    # -- the five operations ----------------------------------------------------

    def insert(self, tup: Union[Tuple, Mapping]) -> None:
        tup = coerce_tuple(tup)
        self.spec.check_full_tuple(tup)
        if self._matches(tup):
            return  # Already present: insert is idempotent.
        if self.enforce_fds:
            for fd in self.spec.fds:
                for existing in self._matches(tup.project(fd.lhs)):
                    if existing.project(fd.rhs) != tup.project(fd.rhs):
                        raise FunctionalDependencyError(
                            f"inserting {tup!r} would violate {fd!r}"
                        )
        else:
            evicted = self._evict_fd_conflicts(tup)
            try:
                self.instance.insert_tuple(tup)
            except BaseException as exc:
                self._undo_ops([("rem", t) for t in evicted], exc)
                raise
            return
        self.instance.insert_tuple(tup)

    def _undo_ops(self, done: List, cause: BaseException) -> None:
        """Invert the completed sub-operations of a failed relational op.

        ``insert_tuple``/``remove_tuple`` are each individually atomic (they
        roll themselves back on failure), so restoring the operation as a
        whole means inverting the *completed* calls in reverse order.  A
        failure while inverting leaves the relation inconsistent and is
        reported as :class:`~repro.core.errors.IntegrityError` with the
        original failure as ``__cause__`` (injected faults are one-shot, so
        this path is unreachable under the fault harness).
        """
        try:
            for kind, tup in reversed(done):
                if kind == "rem":
                    self.instance.insert_tuple(tup)
                else:
                    self.instance.remove_tuple(tup)
        except BaseException:
            raise IntegrityError(
                "rollback of a failed relational operation could not restore "
                "the previous state; the relation may be corrupt"
            ) from cause

    def _evict_fd_conflicts(self, tup: Tuple) -> List[Tuple]:
        """Remove every stored tuple FD-conflicting with *tup* (the
        last-writer-wins semantics of ``enforce_fds=False``); returns the
        evicted tuples so a failing caller can reinsert them.

        ``insert_tuple`` already displaces tuples sharing a *unit binding*,
        but that structural notion depends on the layout — a fully-bound
        decomposition has empty units and displaces nothing — so the
        eviction is done here against the specification's FDs, keeping all
        layouts and tiers in agreement.  Strongly exception safe: a failure
        mid-eviction reinserts the tuples already evicted, then propagates.
        """
        removed: List[Tuple] = []
        try:
            for fd in self.spec.fds:
                rhs_value = tup.project(fd.rhs)
                for existing in self._matches(tup.project(fd.lhs)):
                    if existing.project(fd.rhs) != rhs_value:
                        self.instance.remove_tuple(existing)
                        removed.append(existing)
        except BaseException as exc:
            self._undo_ops([("rem", t) for t in removed], exc)
            raise
        return removed

    def remove(self, pattern: Union[Tuple, Mapping, None] = None) -> None:
        """Remove every tuple extending *pattern*.

        Victims are found through the cheapest branch only (the plan chosen
        by :meth:`plan_for` — e.g. one hash lookup when the pattern binds a
        key); the other branches are never scanned for victims.  Per
        victim, ``remove_tuple`` unlinks the remaining branches directly:
        shared children resolve through the instance's registry and
        intrusive containers unlink in O(1), so a multi-branch removal on a
        shared layout costs O(1) per branch instead of a per-branch scan.
        """
        pattern = coerce_tuple(pattern)
        self.spec.check_partial_tuple(pattern, role="removal pattern")
        removed: List[Tuple] = []
        try:
            for victim in self._matches(pattern):
                self.instance.remove_tuple(victim)
                removed.append(victim)
        except BaseException as exc:
            self._undo_ops([("rem", t) for t in removed], exc)
            raise

    def update(self, pattern: Union[Tuple, Mapping], changes: Union[Tuple, Mapping]) -> None:
        pattern = coerce_tuple(pattern)
        changes = coerce_tuple(changes)
        self.spec.check_partial_tuple(pattern, role="update pattern")
        self.spec.check_partial_tuple(changes, role="update changes")
        if not changes.columns:
            return
        victims = self._matches(pattern)
        if not victims:
            return
        if changes.columns <= self._resid_safe:
            # Residual-only changes: no container key moves and no FD can
            # become violated (see ``residual_update_columns``), so the
            # victims are rewritten in place — state-identical to the
            # remove/re-insert below in both FD modes, without the churn.
            self.instance.update_residuals(victims, changes)
            return
        merged = [victim.merge(changes) for victim in victims]
        if self.enforce_fds:
            # Only FD groups containing a merged tuple can become violated:
            # untouched tuples keep their values and were mutually consistent
            # before the update.  Check each reachable group through indexed
            # queries instead of rescanning the whole relation.
            victim_set = set(victims)
            for fd in self.spec.fds:
                groups: Dict[Tuple, Tuple] = {}
                for tup in merged:
                    lhs_value = tup.project(fd.lhs)
                    rhs_value = tup.project(fd.rhs)
                    first = groups.setdefault(lhs_value, rhs_value)
                    if first != rhs_value:
                        raise FunctionalDependencyError(
                            f"update with pattern {pattern!r} and changes {changes!r} "
                            f"would merge tuples into conflicting values for {fd!r}"
                        )
                for lhs_value, rhs_value in groups.items():
                    for existing in self._matches(lhs_value):
                        if existing in victim_set:
                            continue
                        if existing.project(fd.rhs) != rhs_value:
                            raise FunctionalDependencyError(
                                f"update with pattern {pattern!r} and changes "
                                f"{changes!r} would violate {fd!r} against {existing!r}"
                            )
        done: List = []
        try:
            for victim in victims:
                self.instance.remove_tuple(victim)
                done.append(("rem", victim))
            if self.enforce_fds:
                for tup in merged:
                    # A merged tuple can coincide with a row that was already
                    # stored (and was not a victim); the insert is then a
                    # no-op and must NOT be journalled — undoing it would
                    # delete the pre-existing row.  The O(1) count delta
                    # tells the two cases apart without extra probes.
                    before = len(self.instance)
                    self.instance.insert_tuple(tup)
                    if len(self.instance) != before:
                        done.append(("ins", tup))
            else:
                # Canonical re-insertion order: colliding merges must resolve
                # to the same winner in every tier, independent of container
                # iteration order (see RelationInterface).
                for tup in sorted(dict.fromkeys(merged), key=Tuple.sort_key):
                    for evicted in self._evict_fd_conflicts(tup):
                        done.append(("rem", evicted))
                    before = len(self.instance)
                    self.instance.insert_tuple(tup)
                    if len(self.instance) != before:
                        done.append(("ins", tup))
        except BaseException as exc:
            self._undo_ops(done, exc)
            raise

    def query(
        self,
        pattern: Union[Tuple, Mapping, None] = None,
        output: Union[str, Iterable[str], None] = None,
    ) -> List[Tuple]:
        pattern = coerce_tuple(pattern)
        self.spec.check_partial_tuple(pattern, role="query pattern")
        if output is None:
            wanted = self.spec.columns
        else:
            wanted = self.spec.check_output_columns(output)
        results = {t.project(wanted) for t in self._matches(pattern)}
        return list(results)

    def query_range(self, column, lo=None, hi=None) -> List[Tuple]:
        """Ordered range scan over *column* (see :class:`RelationInterface`).

        When the root holds an **ordered** edge keyed by exactly *column*
        (e.g. ``ts -> avl ...``), the scan descends that container's
        :meth:`~repro.structures.base.AssociativeContainer.items_range`
        fast path — O(log n) boundary probes plus the in-range subtrees —
        instead of filtering a full scan.  Key groups arrive in ascending
        key order; each group is sorted by tuple sort key, matching the
        generic tier-independent ordering bit for bit.
        """
        wanted = self.spec.check_output_columns(column)
        root = self.instance.root
        for container, e in zip(root.containers, root.node.edges):
            if e.key == wanted and e.structure_class().ORDERED:
                lo_bound = Tuple({column: lo}) if lo is not None else None
                hi_bound = Tuple({column: hi}) if hi is not None else None
                results: List[Tuple] = []
                for key, child in container.items_range(lo_bound, hi_bound):
                    results.extend(
                        sorted(self.instance._iter(child, key), key=Tuple.sort_key)
                    )
                return results
        return super().query_range(column, lo, hi)

    # -- inspection -------------------------------------------------------------

    def to_relation(self) -> Relation:
        return self.instance.alpha()

    def checkpoint(self) -> Relation:
        """Alias of :meth:`to_relation`, used by differential tests."""
        return self.to_relation()

    def check_well_formed(self) -> None:
        """Check the underlying instance (delegates to Figure 5's rules)."""
        self.instance.check_well_formed()

    def __len__(self) -> int:
        """O(1): delegates to the instance's incremental tuple count."""
        return len(self.instance)

    def is_empty(self) -> bool:
        """O(1) via the incremental tuple count."""
        return self.instance.is_empty()

    def __repr__(self) -> str:
        return (
            f"DecomposedRelation(spec={self.spec.name!r}, "
            f"decomposition={self.decomposition.describe()!r}, size={len(self)})"
        )
