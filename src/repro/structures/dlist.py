"""Doubly-linked list containers (non-intrusive and intrusive).

``dlist`` is the paper's unordered doubly-linked list of key/value pairs
(``std::list`` in the C++ implementation); ``ilist`` is the intrusive
variant (``boost::intrusive::list``), where the link fields live inside the
stored value so that an entry can be unlinked in constant time given the
value alone — the property that makes shared decompositions such as
decomposition 5 of Figure 12 cheap to update.

Lookup is linear, insertion is constant time (at the head), iteration is in
insertion order.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple as PyTuple

from ..core.tuples import Tuple
from ..faults import FAULTS
from .base import COUNTER, MISSING, AssociativeContainer

__all__ = ["DListMap", "IntrusiveListMap"]


class _ListNode:
    """A doubly-linked list node holding one key/value entry."""

    __slots__ = ("key", "value", "prev", "next")

    def __init__(self, key: Tuple, value: Any):
        self.key = key
        self.value = value
        self.prev: Optional["_ListNode"] = None
        self.next: Optional["_ListNode"] = None


class DListMap(AssociativeContainer):
    """Unordered doubly-linked list of key/value pairs (``dlist``)."""

    NAME = "dlist"
    ORDERED = False
    INTRUSIVE = False
    CODEGEN_STRATEGY = "list"
    FAULT_OPS = ("insert", "insert_unique", "lookup", "remove")

    __slots__ = ("_head", "_tail", "_size")

    def __init__(self) -> None:
        self._head: Optional[_ListNode] = None
        self._tail: Optional[_ListNode] = None
        self._size = 0

    @classmethod
    def estimate_accesses(cls, n: float) -> float:
        return max(1.0, float(n) / 2.0)

    # -- internal helpers ---------------------------------------------------------

    def _find(self, key: Tuple) -> Optional[_ListNode]:
        node = self._head
        while node is not None:
            COUNTER.count_access()
            if node.key == key:
                return node
            node = node.next
        return None

    def _link_back(self, node: _ListNode) -> None:
        node.prev = self._tail
        node.next = None
        if self._tail is None:
            self._head = node
        else:
            self._tail.next = node
        self._tail = node
        self._size += 1

    def _unlink(self, node: _ListNode) -> None:
        if node.prev is None:
            self._head = node.next
        else:
            node.prev.next = node.next
        if node.next is None:
            self._tail = node.prev
        else:
            node.next.prev = node.prev
        node.prev = node.next = None
        self._size -= 1

    # -- interface ------------------------------------------------------------------

    def insert(self, key: Tuple, value: Any) -> None:
        if FAULTS.active:
            FAULTS.check("structures.dlist.insert")
        COUNTER.count_insert()
        existing = self._find(key)
        if existing is not None:
            existing.value = value
            return
        COUNTER.count_allocation()
        self._link_back(_ListNode(key, value))

    def insert_unique(self, key: Tuple, value: Any) -> None:
        """Constant-time append of a key the caller guarantees is new.

        ``push_back`` without the duplicate scan — legal exactly when the
        key is proven fresh (the shared-node registry's case), and what
        keeps the interpreted tier's access counts comparable to the
        compiled lowering, which links new shared cells in O(1)."""
        if FAULTS.active:
            FAULTS.check("structures.dlist.insert_unique")
        COUNTER.count_insert()
        COUNTER.count_allocation()
        COUNTER.count_access()
        self._link_back(_ListNode(key, value))

    def lookup(self, key: Tuple) -> Any:
        if FAULTS.active:
            FAULTS.check("structures.dlist.lookup")
        COUNTER.count_lookup()
        node = self._find(key)
        return MISSING if node is None else node.value

    def remove(self, key: Tuple) -> bool:
        if FAULTS.active:
            FAULTS.check("structures.dlist.remove")
        COUNTER.count_removal()
        node = self._find(key)
        if node is None:
            return False
        self._unlink(node)
        return True

    def items(self) -> Iterator[PyTuple[Tuple, Any]]:
        COUNTER.count_scan()
        node = self._head
        while node is not None:
            COUNTER.count_access()
            yield node.key, node.value
            node = node.next

    def __len__(self) -> int:
        return self._size


class IntrusiveListMap(DListMap):
    """Intrusive doubly-linked list (``ilist``).

    The link node for each entry is stored on the value object itself (in a
    per-container slot of the value's ``intrusive_links`` dictionary), so
    :meth:`remove_value` unlinks in O(1) without searching.  Values that lack
    an ``intrusive_links`` attribute are still accepted — the container then
    keeps the link node in a private side table, degrading removal-by-value
    to a constant-time dictionary lookup, which preserves behaviour for
    plain-value tests.
    """

    NAME = "ilist"
    INTRUSIVE = True
    CODEGEN_STRATEGY = "intrusive"
    FAULT_OPS = ("insert", "insert_unique", "lookup", "remove", "remove_value")

    __slots__ = ("_side_links",)

    def __init__(self) -> None:
        super().__init__()
        self._side_links: dict = {}

    @classmethod
    def unlink_cost(cls, n: float) -> float:
        # The defining property: given the value, unlinking is O(1).
        return 1.0

    # -- link bookkeeping -------------------------------------------------------------
    #
    # Values opting in to intrusive storage expose an ``intrusive_links``
    # attribute (``None`` until first linked — the container creates the
    # per-value dict on demand); everything else is tracked in a side table
    # keyed by ``id(value)``, preserving behaviour for plain values.

    def _store_link(self, value: Any, node: _ListNode) -> None:
        try:
            links = value.intrusive_links
        except AttributeError:
            self._side_links[id(value)] = node
            return
        if links is None:
            links = {}
            value.intrusive_links = links
        links[id(self)] = node

    def _load_link(self, value: Any) -> Optional[_ListNode]:
        try:
            links = value.intrusive_links
        except AttributeError:
            return self._side_links.get(id(value))
        if links is None:
            return None
        return links.get(id(self))

    def _drop_link(self, value: Any) -> None:
        try:
            links = value.intrusive_links
        except AttributeError:
            self._side_links.pop(id(value), None)
            return
        if links is not None:
            links.pop(id(self), None)

    # -- interface ---------------------------------------------------------------------

    def insert(self, key: Tuple, value: Any) -> None:
        if FAULTS.active:
            FAULTS.check("structures.ilist.insert")
        COUNTER.count_insert()
        existing = self._find(key)
        if existing is not None:
            self._drop_link(existing.value)
            existing.value = value
            self._store_link(value, existing)
            return
        COUNTER.count_allocation()
        node = _ListNode(key, value)
        self._link_back(node)
        self._store_link(value, node)

    def insert_unique(self, key: Tuple, value: Any) -> None:
        """Constant-time link of a key the caller guarantees is new.

        No search for an existing entry — the intrusive counterpart of
        ``push_back``; decomposition instances call this when the shared
        registry proves the binding is fresh."""
        if FAULTS.active:
            FAULTS.check("structures.ilist.insert_unique")
        COUNTER.count_insert()
        COUNTER.count_allocation()
        COUNTER.count_access()
        node = _ListNode(key, value)
        self._link_back(node)
        self._store_link(value, node)

    def lookup(self, key: Tuple) -> Any:
        if FAULTS.active:
            FAULTS.check("structures.ilist.lookup")
        COUNTER.count_lookup()
        node = self._find(key)
        return MISSING if node is None else node.value

    def remove(self, key: Tuple) -> bool:
        if FAULTS.active:
            FAULTS.check("structures.ilist.remove")
        COUNTER.count_removal()
        node = self._find(key)
        if node is None:
            return False
        self._drop_link(node.value)
        self._unlink(node)
        return True

    def remove_value(self, key: Tuple, value: Any) -> bool:
        """Constant-time unlink given the stored value."""
        if FAULTS.active:
            FAULTS.check("structures.ilist.remove_value")
        COUNTER.count_removal()
        node = self._load_link(value)
        if node is None or (node.prev is None and node.next is None and self._head is not node):
            return False
        COUNTER.count_access()
        self._drop_link(value)
        self._unlink(node)
        return True
