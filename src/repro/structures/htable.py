"""A hash table (``htable``).

This mirrors ``boost::unordered_map`` in the paper's container library.  It
is backed by a Python ``dict`` and charged exactly as the compiled tier's
``hash`` lowering charges the same container: one access per probe, hit or
miss; one access per entry a scan visits; nothing for growth.  Iteration
follows insertion order.  So its counts, and every tuning decision made
from them, do not depend on the interpreter's ``str`` hash.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple as PyTuple

from ..core.tuples import Tuple
from ..faults import FAULTS
from .base import COUNTER, MISSING, AssociativeContainer

__all__ = ["HashTableMap"]


class HashTableMap(AssociativeContainer):
    """Hash table charged one access per probe."""

    NAME = "htable"
    ORDERED = False
    INTRUSIVE = False

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[Tuple, Any] = {}

    @classmethod
    def estimate_accesses(cls, n: float) -> float:
        return 1.0

    def insert(self, key: Tuple, value: Any) -> None:
        if FAULTS.active:
            FAULTS.check("structures.htable.insert")
        COUNTER.count_insert()
        COUNTER.count_access()
        if key not in self._entries:
            COUNTER.count_allocation()
        self._entries[key] = value

    def lookup(self, key: Tuple) -> Any:
        if FAULTS.active:
            FAULTS.check("structures.htable.lookup")
        COUNTER.count_lookup()
        COUNTER.count_access()
        return self._entries.get(key, MISSING)

    def remove(self, key: Tuple) -> bool:
        if FAULTS.active:
            FAULTS.check("structures.htable.remove")
        COUNTER.count_removal()
        COUNTER.count_access()
        return self._entries.pop(key, MISSING) is not MISSING

    def items(self) -> Iterator[PyTuple[Tuple, Any]]:
        COUNTER.count_scan()
        for entry in self._entries.items():
            COUNTER.count_access()
            yield entry

    def __len__(self) -> int:
        return len(self._entries)
