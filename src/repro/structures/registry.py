"""Registry of container implementations.

The set of data structures usable in a decomposition is extensible
(Section 3.1): "any data structure implementing a common interface may be
used".  New containers are added by subclassing
:class:`repro.structures.AssociativeContainer` and calling
:func:`register_structure`.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..core.errors import DecompositionError
from ..faults import register_site
from .avltree import AVLTreeMap
from .base import AssociativeContainer
from .dlist import DListMap, IntrusiveListMap
from .htable import HashTableMap

__all__ = [
    "register_structure",
    "register_alias",
    "get_structure",
    "canonical_structure_name",
    "structure_names",
    "structure_cost",
    "size_class",
    "default_structure_names",
    "STRUCTURE_REGISTRY",
    "STRUCTURE_ALIASES",
]

STRUCTURE_REGISTRY: Dict[str, Type[AssociativeContainer]] = {}

#: Alternative names resolving to a registered structure.  ``btree`` is the
#: paper's generic "balanced tree"; the library's implementation is an AVL
#: tree registered as ``avl``.  ``vector`` (the paper's ``std::vector`` of
#: pairs) is an unordered linear-probe map like ``dlist``, and every tier
#: serves and charges the two alike, so it resolves to ``dlist``.  The
#: aliases keep every existing decomposition string (and mapping file)
#: parsing unchanged.
STRUCTURE_ALIASES: Dict[str, str] = {}


def register_structure(cls: Type[AssociativeContainer]) -> Type[AssociativeContainer]:
    """Register a container class under its ``NAME``; usable as a decorator."""
    name = cls.NAME
    if not name or name == "abstract":
        raise DecompositionError(f"container class {cls.__name__} must define a NAME")
    existing = STRUCTURE_REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise DecompositionError(
            f"container name {name!r} already registered by {existing.__name__}"
        )
    alias_target = STRUCTURE_ALIASES.get(name)
    if alias_target is not None and STRUCTURE_REGISTRY.get(alias_target) is not cls:
        raise DecompositionError(
            f"container name {name!r} already registered as an alias for {alias_target!r}"
        )
    STRUCTURE_REGISTRY[name] = cls
    # Thread the fault-injection surface through the registry: one named
    # site per instrumented container operation, so user-registered
    # structures join the chaos suite's sweep with no further wiring.
    for op in cls.FAULT_OPS:
        register_site(f"structures.{name}.{op}")
    return cls


def register_alias(alias: str, canonical: str) -> None:
    """Make *alias* resolve to the registered structure *canonical*."""
    if canonical not in STRUCTURE_REGISTRY:
        known = ", ".join(sorted(STRUCTURE_REGISTRY))
        raise DecompositionError(
            f"cannot alias {alias!r} to unregistered structure {canonical!r} "
            f"(registered structures: {known})"
        )
    existing = STRUCTURE_REGISTRY.get(alias)
    if existing is not None and existing is not STRUCTURE_REGISTRY[canonical]:
        raise DecompositionError(
            f"alias {alias!r} collides with the registered structure of the same name"
        )
    STRUCTURE_ALIASES[alias] = canonical


def canonical_structure_name(name: str) -> str:
    """Resolve aliases (``btree`` → ``avl``, ``vector`` → ``dlist``);
    canonical names pass through.

    The autotuner deduplicates candidate decompositions by canonical shape,
    so a layout written with ``btree`` and one written with ``avl`` count as
    the same candidate.
    """
    resolved = STRUCTURE_ALIASES.get(name, name)
    if resolved not in STRUCTURE_REGISTRY:
        known = ", ".join(sorted(STRUCTURE_REGISTRY) + sorted(STRUCTURE_ALIASES))
        raise DecompositionError(f"unknown data structure {name!r}; known structures: {known}")
    return resolved


def get_structure(name: str) -> Type[AssociativeContainer]:
    """Look up a container class by name or alias (``htable``, ``avl``, ...)."""
    return STRUCTURE_REGISTRY[canonical_structure_name(name)]


def structure_names() -> List[str]:
    """All registered structure names, sorted."""
    return sorted(STRUCTURE_REGISTRY)


def structure_cost(name: str, n: float, operation: str = "lookup") -> float:
    """Cost-model hook by structure *name*: expected accesses for *operation*.

    ``operation`` is ``"lookup"`` (the per-key cost ``m_ψ(n)``), ``"scan"``
    (full iteration) or ``"unlink"`` (removal of an entry whose value the
    caller already holds — O(1) for intrusive structures, the lookup cost
    otherwise).  The query planner's step costs
    (:mod:`repro.decomposition.plan`) go through this entry point, so
    user-registered containers participate in cost estimation with no
    further wiring; the autotuner (see ROADMAP) will use it the same way.
    """
    cls = get_structure(name)
    if operation == "lookup":
        return cls.estimate_accesses(n)
    if operation == "scan":
        return cls.scan_cost(n)
    if operation == "unlink":
        return cls.unlink_cost(n)
    raise DecompositionError(
        f"unknown cost operation {operation!r}; use 'lookup', 'scan' or 'unlink'"
    )


def size_class(n: float) -> int:
    """The power-of-two bucket of a container size (``0, 1, 2, 4, 8, ...``).

    Live cost-based planning re-ranks query plans only when a container's
    *size class* changes rather than on every mutation: costs estimated from
    ``n`` and from ``1.9 n`` never differ enough to flip an index-vs-scan
    choice under the ``m_ψ(n)`` cost models, so plans are cached per size
    class.  ``DecomposedRelation`` compares the per-edge size-class
    signature of its instance on each planning request and invalidates its
    plan cache when the signature moves.
    """
    return int(n).bit_length() if n > 0 else 0


def default_structure_names() -> List[str]:
    """The structures the autotuner considers by default: the paper's list,
    intrusive list, tree and hash table (its ``vector`` is the ``dlist``
    alias).

    The returned names are validated against :data:`STRUCTURE_REGISTRY` at
    call time, so a renamed or unregistered container fails loudly here
    rather than surfacing later as an unknown-structure error deep inside
    decomposition construction.
    """
    names = ["dlist", "ilist", "avl", "htable"]
    unregistered = [name for name in names if name not in STRUCTURE_REGISTRY]
    if unregistered:
        known = ", ".join(sorted(STRUCTURE_REGISTRY))
        raise DecompositionError(
            f"default structure names {unregistered!r} are not registered "
            f"(registered structures: {known}); update default_structure_names() "
            f"to match the container library"
        )
    return names


for _cls in (DListMap, IntrusiveListMap, HashTableMap, AVLTreeMap):
    register_structure(_cls)

register_alias("btree", "avl")
register_alias("vector", "dlist")
