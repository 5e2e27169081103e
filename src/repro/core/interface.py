"""The relational interface every representation implements.

Section 2 of the paper defines five operations on relations::

    empty ()        = ref ∅
    insert r t      = r ← !r ∪ {t}
    remove r s      = r ← !r \\ {t ∈ !r | t ⊇ s}
    update r s u    = r ← {if t ⊇ s then t ◁ u else t | t ∈ !r}
    query r s C     = π_C {t ∈ !r | t ⊇ s}

:class:`RelationInterface` captures this contract as an abstract base class.
Three implementations exist in the library:

* :class:`repro.core.reference.ReferenceRelation` — the specification-level
  implementation (a mutable wrapper around :class:`repro.core.Relation`);
* :class:`repro.decomposition.DecomposedRelation` — the interpreted
  runtime over a decomposition instance (Section 3), executing each
  operation through query plans over primitive containers; and
* the classes produced by :func:`repro.codegen.compile_relation` — the
  compiled tier, specialising every operation to one decomposition at
  class-generation time (the paper's code generator).

All are interchangeable from the client's point of view, which is the
paper's central abstraction claim; ``benchmarks/`` quantifies what each
tier buys.
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, List, Mapping, Union

from .relation import Relation
from .tuples import Tuple
from .values import Value, ensure_value, value_sort_key

__all__ = ["RelationInterface", "coerce_tuple"]


def coerce_tuple(value: Union[Tuple, Mapping, None]) -> Tuple:
    """Accept ``Tuple``, plain mappings or ``None`` (the empty pattern)."""
    if value is None:
        return Tuple.empty()
    if isinstance(value, Tuple):
        return value
    return Tuple(value)


class RelationInterface(abc.ABC):
    """Abstract mutable relation supporting the paper's five operations.

    **Functional-dependency semantics.**  Every implementation is
    constructed with an ``enforce_fds`` flag and honours one shared
    contract, so the tiers stay interchangeable in both modes:

    * ``enforce_fds=True`` (the default): ``insert`` and ``update`` raise
      :class:`~repro.core.errors.FunctionalDependencyError` rather than
      perform an FD-violating operation, leaving the relation untouched —
      the premise of the paper's Lemma 4, which only promises soundness for
      FD-respecting operation sequences.
    * ``enforce_fds=False``: operations never raise on FD conflicts.
      Because a decomposition can only *hold* FD-satisfying relations
      (Lemma 4 — a unit leaf stores one tuple per key binding), an
      FD-violating ``insert`` instead **evicts** every stored tuple that
      agrees with the new tuple on some FD's left-hand side but disagrees
      on its right-hand side, then adds the new tuple (last-writer-wins).
      A bulk ``update`` removes the matched tuples and re-inserts the
      merged results in canonical (sorted) order under the same eviction
      rule, so colliding merges resolve to the same winner in every tier.
      The represented relation therefore *always* satisfies the
      specification's FDs, in every implementation, in both modes.
    """

    # -- operations ------------------------------------------------------------

    @abc.abstractmethod
    def insert(self, tup: Union[Tuple, Mapping]) -> None:
        """Insert a full tuple into the relation.

        Inserting an already-present tuple is a no-op.  On an FD conflict,
        raises when ``enforce_fds`` is set, evicts the conflicting tuples
        otherwise (see the class docstring).
        """

    @abc.abstractmethod
    def remove(self, pattern: Union[Tuple, Mapping, None] = None) -> None:
        """Remove every tuple that extends *pattern*."""

    @abc.abstractmethod
    def update(self, pattern: Union[Tuple, Mapping], changes: Union[Tuple, Mapping]) -> None:
        """Apply *changes* to every tuple extending *pattern*.

        On an FD conflict, raises when ``enforce_fds`` is set (leaving the
        relation untouched), resolves last-writer-wins in canonical order
        otherwise (see the class docstring).
        """

    @abc.abstractmethod
    def query(
        self,
        pattern: Union[Tuple, Mapping, None] = None,
        output: Union[str, Iterable[str], None] = None,
    ) -> List[Tuple]:
        """Return ``π_output {t ∈ r | t ⊇ pattern}`` as a list of tuples.

        ``output=None`` requests all columns.  The result is duplicate-free
        (it is a set of tuples) but returned as a list for convenient
        iteration; ordering is unspecified.
        """

    def query_range(
        self,
        column: str,
        lo: "Union[Value, None]" = None,
        hi: "Union[Value, None]" = None,
    ) -> List[Tuple]:
        """The tuples whose *column* value lies in ``[lo, hi]``, ordered.

        Both bounds are inclusive; ``None`` leaves that side unbounded, so
        ``query_range(c)`` is an ordered full scan.  Results are full
        tuples in ascending *column* order (ties broken by the tuple sort
        key), using the same cross-type total order as container keys
        (:func:`~repro.core.values.value_sort_key`) — every tier returns
        the identical list, which is what the ordered-scan differential
        tests pin.

        This default filters and sorts a full ``query``; representations
        whose layout keeps an **ordered** index on *column* (e.g. an
        ``avl`` root edge) override it with a bounded range descent, and
        compiled classes run the same filter over their value rows, so
        they build Tuples only for the rows kept.
        """
        spec = getattr(self, "spec", None)
        if spec is not None:
            spec.check_output_columns(column)
        lo_key = value_sort_key(ensure_value(lo)) if lo is not None else None
        hi_key = value_sort_key(ensure_value(hi)) if hi is not None else None
        results = []
        for tup in self.query(None, None):
            key = value_sort_key(tup[column])
            if lo_key is not None and key < lo_key:
                continue
            if hi_key is not None and key > hi_key:
                continue
            results.append(tup)
        results.sort(key=lambda t: (value_sort_key(t[column]), t.sort_key()))
        return results

    # -- conveniences shared by all implementations ------------------------------

    @abc.abstractmethod
    def to_relation(self) -> Relation:
        """Materialise the current contents as an immutable :class:`Relation`."""

    def scan(self) -> List[Tuple]:
        """Return every tuple of the relation (all columns)."""
        return self.query(None, None)

    def contains(self, pattern: Union[Tuple, Mapping]) -> bool:
        """Does any tuple extend *pattern*?"""
        return bool(self.query(pattern, None))

    def count(self, pattern: Union[Tuple, Mapping, None] = None) -> int:
        """Number of tuples extending *pattern*."""
        return len(self.query(pattern, None))

    def __len__(self) -> int:
        return self.count(None)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.scan())

    def __contains__(self, pattern: object) -> bool:
        if isinstance(pattern, (Tuple, Mapping)):
            return self.contains(pattern)  # type: ignore[arg-type]
        return False
