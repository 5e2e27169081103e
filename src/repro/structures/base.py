"""The associative-container interface and its cost model.

Map decompositions ``C --ψ--> v`` are implemented by a data structure ψ
drawn from an extensible library of primitives, all of which implement a
common key→value associative-map interface (Section 3.1 and Section 6 of the
paper).  This module defines that interface (:class:`AssociativeContainer`),
the per-structure cost model ``m_ψ(n)`` used by the query planner's cost
estimator, and a light-weight operation counter used by the autotuner's
deterministic cost metric.

Keys are :class:`repro.core.Tuple` values (projections of a tuple onto the
map's key columns); values are arbitrary Python objects — in practice the
node instances of a decomposition instance.
"""

from __future__ import annotations

import abc
import math
from threading import get_ident
from typing import Any, Iterator, List, Optional, Tuple as PyTuple

from ..core.tuples import Tuple

__all__ = ["AssociativeContainer", "OperationCounter", "COUNTER", "MISSING"]


class _Missing:
    """Sentinel distinguishing "no entry" from a stored ``None`` value."""

    _instance: Optional["_Missing"] = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<MISSING>"

    def __bool__(self) -> bool:
        return False


MISSING = _Missing()


class OperationCounter:
    """Counts primitive container operations.

    The counter approximates "memory accesses": each probe of a list node,
    hash bucket, or tree node counts as one access.  The autotuner can use
    the counter as a deterministic, machine-independent cost metric, and
    tests use it to verify asymptotic claims (e.g. that hash lookups touch
    O(1) entries while list lookups touch O(n)).

    Only charges made on ``owner`` count: the thread that last entered the
    counter (before any did, the thread that created it).  Setting
    ``enabled`` by hand arms it for that thread.  A background re-tune
    replays candidates under ``with COUNTER`` on its own thread while the
    caller keeps operating on its relation, and the caller's charges must
    not land in the candidates' counts.  One counter still holds one count
    at a time: entering it resets whatever count another thread has open.
    """

    __slots__ = (
        "enabled",
        "owner",
        "accesses",
        "lookups",
        "inserts",
        "removals",
        "scans",
        "allocations",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.owner = get_ident()
        self.reset()

    def reset(self) -> None:
        self.accesses = 0
        self.lookups = 0
        self.inserts = 0
        self.removals = 0
        self.scans = 0
        self.allocations = 0

    def snapshot(self) -> dict:
        return {
            "accesses": self.accesses,
            "lookups": self.lookups,
            "inserts": self.inserts,
            "removals": self.removals,
            "scans": self.scans,
            "allocations": self.allocations,
        }

    # The hot path is guarded by ``enabled`` so uninstrumented runs stay fast;
    # the owner check runs only while the counter is on.

    def count_access(self, amount: int = 1) -> None:
        if self.enabled and self.owner == get_ident():
            self.accesses += amount

    def count_lookup(self) -> None:
        if self.enabled and self.owner == get_ident():
            self.lookups += 1

    def count_insert(self) -> None:
        if self.enabled and self.owner == get_ident():
            self.inserts += 1

    def count_removal(self) -> None:
        if self.enabled and self.owner == get_ident():
            self.removals += 1

    def count_scan(self) -> None:
        if self.enabled and self.owner == get_ident():
            self.scans += 1

    def count_allocation(self) -> None:
        if self.enabled and self.owner == get_ident():
            self.allocations += 1

    # -- context manager -------------------------------------------------------

    def __enter__(self) -> "OperationCounter":
        self.reset()
        self.owner = get_ident()
        self.enabled = True
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.enabled = False


#: The library-wide counter used by all containers.
COUNTER = OperationCounter()


class AssociativeContainer(abc.ABC):
    """Abstract key→value associative map.

    Concrete subclasses must define:

    * ``NAME`` — the identifier used in decompositions (``htable``, ``dlist``, ...),
    * ``ORDERED`` — whether iteration follows the key ordering,
    * ``INTRUSIVE`` — whether values are linked into the container so that
      :meth:`remove_value` is constant time,
    * :meth:`estimate_accesses` — the cost model ``m_ψ(n)``,
    * the core operations below.
    """

    #: Identifier used in decompositions and mapping files.
    NAME: str = "abstract"
    #: Whether iteration follows key order.
    ORDERED: bool = False
    #: Whether the structure supports O(1) removal given the stored value.
    INTRUSIVE: bool = False
    #: How the code generator (:mod:`repro.codegen`) lowers this structure:
    #: ``"hash"`` — a Python dict with O(1) probes; ``"tree"`` — a dict whose
    #: probes are charged ``log2(n)`` accesses (matching the cost model of a
    #: balanced tree); ``"list"`` — a plain list of entries with genuinely
    #: linear search, so compiled list layouts keep their real asymptotics;
    #: ``"intrusive"`` — a dict charged like an intrusive linked list: key
    #: *searches* cost ``n`` accesses (an unordered list cannot probe), but
    #: linking a known-new entry and unlinking a held entry cost 1.
    #: Structures registered by users default to ``"hash"``.
    CODEGEN_STRATEGY: str = "hash"
    #: The operations instrumented with :mod:`repro.faults` checks.  The
    #: registry registers one named injection site per entry
    #: (``structures.<NAME>.<op>``) when the class is registered, so the
    #: chaos suite's sweep surface tracks the container library
    #: automatically.  Subclasses that instrument extra operations
    #: (``insert_unique``, ``remove_value``) extend this tuple.
    FAULT_OPS: "PyTuple[str, ...]" = ("insert", "lookup", "remove")

    #: No per-instance dict at the base: concrete containers declare their
    #: own slots, and instances stay as small as the node records they
    #: model.  (User-registered structures may still opt out by omitting
    #: ``__slots__`` in their subclass.)
    __slots__ = ()

    # -- cost model --------------------------------------------------------------

    @classmethod
    def estimate_accesses(cls, n: float) -> float:
        """``m_ψ(n)``: expected memory accesses to look up a key among *n* entries."""
        raise NotImplementedError

    @classmethod
    def scan_cost(cls, n: float) -> float:
        """Expected accesses to iterate over all *n* entries (default: ``n``)."""
        return max(1.0, float(n))

    @classmethod
    def unlink_cost(cls, n: float) -> float:
        """Expected accesses to remove an entry whose *value* the caller
        already holds (default: the entry must still be found by key, so the
        lookup cost).  Intrusive structures override this with ``O(1)`` —
        the property that makes shared decompositions cheap to update."""
        return cls.estimate_accesses(n)

    # -- core operations -----------------------------------------------------------

    @abc.abstractmethod
    def insert(self, key: Tuple, value: Any) -> None:
        """Insert or overwrite the entry for *key*."""

    @abc.abstractmethod
    def lookup(self, key: Tuple) -> Any:
        """Return the value stored under *key*, or :data:`MISSING`."""

    @abc.abstractmethod
    def remove(self, key: Tuple) -> bool:
        """Remove the entry for *key*; return ``True`` if it existed."""

    @abc.abstractmethod
    def items(self) -> Iterator[PyTuple[Tuple, Any]]:
        """Iterate over ``(key, value)`` pairs."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of entries."""

    # -- derived operations ----------------------------------------------------------

    def remove_value(self, key: Tuple, value: Any) -> bool:
        """Remove the entry holding *value* (hint: stored under *key*).

        Non-intrusive containers fall back to a key-based removal; intrusive
        containers override this with a constant-time unlink.
        """
        return self.remove(key)

    def insert_unique(self, key: Tuple, value: Any) -> None:
        """Insert an entry the caller guarantees is not already present.

        Non-intrusive containers fall back to :meth:`insert` (which may
        search for an existing entry); intrusive containers override this
        with a constant-time link.  Decomposition instances use it when the
        shared-node registry proves a key is new to every parent container.
        """
        self.insert(key, value)

    def items_range(
        self, lo: "Optional[Tuple]" = None, hi: "Optional[Tuple]" = None
    ) -> Iterator[PyTuple[Tuple, Any]]:
        """Iterate ``(key, value)`` pairs with ``lo ≤ key ≤ hi`` in key-sort
        order (both bounds inclusive; ``None`` leaves that side unbounded).

        The default filters a fully-sorted scan — O(n log n) accesses —
        which is correct for any container; :class:`ordered <AVLTreeMap>`
        structures override it with a bounded descent that touches only
        the boundary paths and the entries in range (O(log n + k)).
        """
        lo_key = lo.sort_key() if lo is not None else None
        hi_key = hi.sort_key() if hi is not None else None
        for key, value in self.sorted_items():
            sort_key = key.sort_key()
            if lo_key is not None and sort_key < lo_key:
                continue
            if hi_key is not None and sort_key > hi_key:
                break
            yield key, value

    def keys(self) -> Iterator[Tuple]:
        for key, _ in self.items():
            yield key

    def values(self) -> Iterator[Any]:
        for _, value in self.items():
            yield value

    def get(self, key: Tuple, default: Any = None) -> Any:
        found = self.lookup(key)
        return default if found is MISSING else found

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, Tuple):
            return False
        return self.lookup(key) is not MISSING

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Tuple]:
        return self.keys()

    def is_empty(self) -> bool:
        return len(self) == 0

    def clear(self) -> None:
        """Remove every entry (default: repeated removal)."""
        for key in list(self.keys()):
            self.remove(key)

    def sorted_items(self) -> List[PyTuple[Tuple, Any]]:
        """Items sorted by key (deterministic order for tests and display)."""
        return sorted(self.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self) -> str:
        entries = ", ".join(f"{k!r}: ..." for k, _ in self.sorted_items())
        return f"{type(self).__name__}({{{entries}}})"


def log2_cost(n: float) -> float:
    """Helper shared by tree-like structures: ``log2(n) + 1`` accesses."""
    return math.log2(n) + 1.0 if n > 1 else 1.0
