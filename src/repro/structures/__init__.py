"""Primitive container library used by map decompositions.

All containers implement the :class:`AssociativeContainer` key→value map
interface and expose a cost model ``m_ψ(n)`` used by the query planner.
The library mirrors the paper's C++ container set:

=============  =================================  ==========================
Name           Paper counterpart                  Characteristics
=============  =================================  ==========================
``dlist``      ``std::list``                      unordered list, O(n) lookup
``ilist``      ``boost::intrusive::list``         intrusive list, O(1) unlink
``htable``     ``boost::unordered_map``           hash table, O(1) lookup
``btree``      ``std::map`` / intrusive ``set``   AVL tree, O(log n), ordered
=============  =================================  ==========================

``btree`` is an alias of the AVL tree's registered name ``avl``.  The
paper's ``std::vector`` of pairs probes linearly, as ``std::list`` does,
so ``vector`` is an alias of ``dlist``.
"""

from .avltree import AVLTreeMap
from .base import COUNTER, MISSING, AssociativeContainer, OperationCounter
from .dlist import DListMap, IntrusiveListMap
from .htable import HashTableMap
from .registry import (
    STRUCTURE_REGISTRY,
    default_structure_names,
    get_structure,
    register_structure,
    size_class,
    structure_cost,
    structure_names,
)

__all__ = [
    "AVLTreeMap",
    "AssociativeContainer",
    "COUNTER",
    "DListMap",
    "HashTableMap",
    "IntrusiveListMap",
    "MISSING",
    "OperationCounter",
    "STRUCTURE_REGISTRY",
    "default_structure_names",
    "get_structure",
    "register_structure",
    "size_class",
    "structure_cost",
    "structure_names",
]
