"""The value universe used by relations.

The paper assumes an untyped universe of values ``V`` that includes the
integers.  In this reproduction a value may be any hashable Python object;
helpers in this module implement the comparisons and orderings the rest of
the library relies on.

Two requirements drive the design:

* values must be *hashable*, because map decompositions use them as keys in
  hash tables and other associative containers; and
* values must be *totally orderable within a column*, because tree-based
  containers need an ordering.  Values of mixed Python types in the same
  column are ordered by ``(type name, value)`` so that ordered containers
  never raise ``TypeError``; ``bool``, ``int`` and ``float`` share one
  numeric class, so numbers that are equal (``0``, ``0.0``, ``False``)
  sort equal, as they hash and compare equal.

A float NaN equals nothing, itself included, so no key could find it and
no order could place it; it is rejected where values enter.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Tuple

__all__ = [
    "Value",
    "is_valid_value",
    "ensure_value",
    "value_sort_key",
    "values_sort_key",
]

#: Type alias for values stored in relations.
Value = Hashable


def is_valid_value(value: Any) -> bool:
    """Return ``True`` if *value* may be stored in a relation.

    A value is valid when it is hashable.  ``None`` is permitted and simply
    behaves as an ordinary value (it is not interpreted as "missing").
    """
    try:
        hash(value)
    except TypeError:
        return False
    return True


def ensure_value(value: Any) -> Value:
    """Validate *value* and return it.

    Raises:
        TypeError: if the value is not hashable and therefore cannot be used
            as a relation value.
        ValueError: if the value is a float NaN, which equals no value.
    """
    if not is_valid_value(value):
        raise TypeError(
            f"relation values must be hashable; got {value!r} of type {type(value).__name__}"
        )
    if isinstance(value, float) and value != value:
        raise ValueError("relation values must equal themselves; got a float NaN")
    return value


def value_sort_key(value: Value) -> Tuple[str, Any]:
    """Return a sort key that totally orders arbitrary relation values.

    ``bool``, ``int`` and ``float`` form one numeric class, ordered by
    numeric value: ``False == 0 == 0.0`` get one key, ``1.5`` sorts
    between ``1`` and ``2``, and the class sits where ``int`` always did
    among other types.  Other values of the same type compare by their
    natural ordering; values of different types compare by type name, and
    unorderable values fall back to their ``repr``.
    """
    if isinstance(value, (int, float)):  # bool is an int subclass
        return ("int", value)
    if isinstance(value, str):
        return ("str", value)
    type_name = type(value).__name__
    try:
        # Probe that the value is orderable against itself; if not, fall back
        # to repr so that ordered containers still work.
        value < value  # type: ignore[operator]  # noqa: B015
    except TypeError:
        return (type_name, repr(value))
    return (type_name, value)


def values_sort_key(values: Iterable[Value]) -> Tuple[Tuple[str, Any], ...]:
    """Return a sort key for a sequence of values (e.g. a projected tuple)."""
    return tuple(value_sort_key(v) for v in values)
