"""Tuples: immutable mappings from column names to values.

A tuple ``t = <c1: v1, c2: v2, ...>`` maps a set of columns to values
(Section 2 of the paper).  This module implements the tuple operations the
formalism relies on:

* ``dom t`` — the columns of a tuple (:meth:`Tuple.columns`),
* ``t ⊇ s`` — *t extends s* (:meth:`Tuple.extends`),
* ``t ∼ s`` — *t matches s*: equal on all common columns (:meth:`Tuple.matches`),
* ``s ◁ t`` — merge, taking values from *t* where the tuples disagree
  (:meth:`Tuple.merge`),
* ``π_C t`` — projection onto a column set (:meth:`Tuple.project`).

Tuples are hashable and therefore usable as keys of associative containers,
which is how map decompositions index their children.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple as PyTuple

from .errors import TupleError
from .values import Value, ensure_value, value_sort_key

__all__ = ["Tuple", "t"]

_column_of = itemgetter(0)


class Tuple(Mapping[str, Value]):
    """An immutable named tuple of relation values.

    Construct either from a mapping or from keyword arguments::

        Tuple({"ns": 1, "pid": 2})
        Tuple(ns=1, pid=2)

    Instances are hashable, comparable for equality, and support the
    operators of the paper's formal development.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, mapping: Optional[Mapping[str, Value]] = None, **kwargs: Value):
        items: Dict[str, Value] = {}
        if mapping is not None:
            for column, value in mapping.items():
                items[self._check_column(column)] = ensure_value(value)
        for column, value in kwargs.items():
            if column in items:
                raise TupleError(f"column {column!r} given both positionally and by keyword")
            items[self._check_column(column)] = ensure_value(value)
        # Store in sorted column order so equality/hash/repr are canonical.
        self._items: PyTuple[PyTuple[str, Value], ...] = tuple(
            (c, items[c]) for c in sorted(items)
        )
        self._hash = hash(self._items)

    @staticmethod
    def _check_column(column: Any) -> str:
        if not isinstance(column, str) or not column:
            raise TupleError(f"column names must be non-empty strings; got {column!r}")
        return column

    # -- Mapping protocol ---------------------------------------------------

    def __getitem__(self, column: str) -> Value:
        for c, v in self._items:
            if c == column:
                return v
        raise KeyError(column)

    def __iter__(self) -> Iterator[str]:
        return (c for c, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, column: object) -> bool:
        return any(c == column for c, _ in self._items)

    # -- identity -----------------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Tuple):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self._items) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{c}: {v!r}" for c, v in self._items)
        return f"⟨{body}⟩"

    # -- formalism operations ------------------------------------------------

    @property
    def columns(self) -> frozenset:
        """``dom t`` — the set of columns of this tuple."""
        return frozenset(map(_column_of, self._items))

    def is_valuation_of(self, columns: Iterable[str]) -> bool:
        """Return ``True`` if this tuple is a valuation for exactly *columns*."""
        return self.columns == frozenset(columns)

    def extends(self, other: "Tuple") -> bool:
        """``self ⊇ other``: self agrees with *other* on every column of *other*.

        Both item tuples are sorted by column, so a single merge walk
        decides containment without per-column scans.
        """
        mine = self._items
        n = len(mine)
        i = 0
        for c, v in other._items:
            while i < n and mine[i][0] < c:
                i += 1
            if i >= n or mine[i][0] != c or mine[i][1] != v:
                return False
            i += 1
        return True

    def matches(self, other: "Tuple") -> bool:
        """``self ∼ other``: the tuples are equal on all common columns.

        A merge walk over the two sorted item tuples — O(|self| + |other|)
        with no temporary sets, the hot comparison of plan execution.
        """
        a = self._items
        b = other._items
        i = j = 0
        na = len(a)
        nb = len(b)
        while i < na and j < nb:
            ca = a[i][0]
            cb = b[j][0]
            if ca == cb:
                if a[i][1] != b[j][1]:
                    return False
                i += 1
                j += 1
            elif ca < cb:
                i += 1
            else:
                j += 1
        return True

    def merge(self, updates: "Tuple") -> "Tuple":
        """``self ◁ updates``: take values from *updates* wherever both define a column.

        Columns present only in *updates* are added to the result.  Both
        inputs carry validated, column-sorted items, so the result is built
        through the trusted constructor without re-validation.
        """
        if not updates._items:
            return self
        if not self._items:
            return updates
        merged = dict(self._items)
        merged.update(updates._items)
        return Tuple.from_sorted_items((c, merged[c]) for c in sorted(merged))

    def project(self, columns: Iterable[str]) -> "Tuple":
        """``π_C self``: restrict the tuple to *columns*.

        Raises:
            TupleError: if a requested column is absent from the tuple.
        """
        wanted = frozenset(columns)
        items = self._items
        if len(wanted) == len(items) and all(p[0] in wanted for p in items):
            return self  # Full projection of an immutable tuple: share it.
        picked = tuple(p for p in items if p[0] in wanted)
        if len(picked) != len(wanted):
            missing = wanted - frozenset(c for c, _ in items)
            raise TupleError(
                f"cannot project tuple {self!r} onto missing columns {sorted(missing)}"
            )
        return Tuple.from_sorted_items(picked)

    def restrict(self, columns: Iterable[str]) -> "Tuple":
        """Like :meth:`project`, but silently drops columns the tuple lacks."""
        wanted = frozenset(columns)
        return Tuple({c: v for c, v in self._items if c in wanted})

    def drop(self, columns: Iterable[str]) -> "Tuple":
        """Return a copy of the tuple without *columns*."""
        dropped = frozenset(columns)
        return Tuple({c: v for c, v in self._items if c not in dropped})

    def with_value(self, column: str, value: Value) -> "Tuple":
        """Return a copy of the tuple with *column* set to *value*."""
        updated = dict(self._items)
        updated[self._check_column(column)] = ensure_value(value)
        return Tuple(updated)

    def sort_key(self) -> PyTuple:
        """A total-order sort key over tuples with identical columns."""
        return tuple(value_sort_key(v) for _, v in self._items)

    def as_dict(self) -> Dict[str, Value]:
        """Return the tuple's contents as a plain dictionary."""
        return dict(self._items)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def empty() -> "Tuple":
        """The empty tuple ``⟨⟩`` (the unique valuation of the empty column set)."""
        return _EMPTY_TUPLE

    @classmethod
    def from_sorted_items(cls, items: Iterable[PyTuple[str, Value]]) -> "Tuple":
        """Trusted fast-path constructor used by compiled representations.

        *items* must be ``(column, value)`` pairs already sorted by column
        name, with validated column names and values — no checks are
        performed.  Compiled relation classes (:mod:`repro.codegen`) store
        rows as plain value tuples in sorted column order, so they can
        materialise :class:`Tuple` results without re-sorting or
        re-validating on every query.
        """
        self = cls.__new__(cls)
        self._items = tuple(items)
        self._hash = hash(self._items)
        return self

    @staticmethod
    def from_pairs(pairs: Iterable[PyTuple[str, Value]]) -> "Tuple":
        """Build a tuple from an iterable of ``(column, value)`` pairs."""
        return Tuple(dict(pairs))


def t(**kwargs: Value) -> Tuple:
    """Shorthand constructor: ``t(ns=1, pid=2)`` builds ``⟨ns: 1, pid: 2⟩``."""
    return Tuple(kwargs)


_EMPTY_TUPLE = Tuple({})
