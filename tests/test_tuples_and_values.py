"""Tuples, column sets, and the value universe."""

import pytest

from repro.core import Tuple, columns, format_columns, t
from repro.core.errors import SpecificationError, TupleError
from repro.core.values import ensure_value, is_valid_value, value_sort_key


class TestColumns:
    def test_string_and_iterable_forms_agree(self):
        assert columns("ns, pid") == columns(["pid", "ns"]) == frozenset({"ns", "pid"})

    def test_space_separated(self):
        assert columns("a b c") == frozenset({"a", "b", "c"})

    def test_invalid_names_rejected(self):
        with pytest.raises(SpecificationError):
            columns([""])
        with pytest.raises(SpecificationError):
            columns([42])

    def test_format_is_deterministic(self):
        assert format_columns(frozenset({"b", "a"})) == "{a, b}"


class TestTuple:
    def test_equality_hash_and_canonical_order(self):
        assert t(a=1, b=2) == Tuple({"b": 2, "a": 1})
        assert hash(t(a=1, b=2)) == hash(Tuple({"b": 2, "a": 1}))
        assert t(a=1, b=2) == {"a": 1, "b": 2}

    def test_extends_and_matches(self):
        full = t(ns=1, pid=2, state="R")
        assert full.extends(t(ns=1))
        assert full.extends(Tuple.empty())
        assert not full.extends(t(ns=2))
        assert not full.extends(t(cpu=0))
        assert full.matches(t(cpu=0))  # disjoint columns always match
        assert not full.matches(t(ns=2, cpu=0))

    def test_merge_prefers_updates(self):
        assert t(a=1, b=2).merge(t(b=9, c=3)) == t(a=1, b=9, c=3)

    def test_project_and_restrict_and_drop(self):
        full = t(a=1, b=2, c=3)
        assert full.project(["a", "b"]) == t(a=1, b=2)
        with pytest.raises(TupleError):
            full.project(["z"])
        assert full.restrict(["a", "z"]) == t(a=1)
        assert full.drop(["a"]) == t(b=2, c=3)

    def test_unhashable_value_rejected(self):
        with pytest.raises(TypeError):
            t(a=[1, 2])

    def test_empty_tuple_is_singleton_identity(self):
        assert Tuple.empty() is Tuple.empty()
        assert len(Tuple.empty()) == 0


class TestValues:
    def test_validity(self):
        assert is_valid_value(1) and is_valid_value("x") and is_valid_value(None)
        assert not is_valid_value({})
        with pytest.raises(TypeError):
            ensure_value(set())

    def test_nan_is_rejected_where_values_enter(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="NaN"):
            ensure_value(nan)
        for build in (
            lambda: t(a=nan),
            lambda: Tuple({"a": 1, "b": nan}),
            lambda: t(a=1).with_value("a", nan),
        ):
            with pytest.raises(ValueError, match="NaN"):
                build()

    def test_infinities_and_signed_zero_stay_values(self):
        inf = float("inf")
        for value in (inf, -inf, -0.0):
            assert ensure_value(value) == value
        assert t(a=-0.0) == t(a=0)
        assert sorted([inf, 1, -inf, -0.0, 0.5], key=value_sort_key) == [-inf, -0.0, 0.5, 1, inf]

    def test_sort_key_orders_mixed_types_without_error(self):
        values = [3, "b", 1, "a", None, 2.5]
        ordered = sorted(values, key=value_sort_key)
        assert ordered.index(1) < ordered.index(3)
        assert ordered.index("a") < ordered.index("b")

    def test_bool_folds_into_int_order(self):
        assert sorted([True, 0, 2], key=value_sort_key) == [0, True, 2]

    def test_equal_numbers_share_one_key_and_order_by_value(self):
        assert value_sort_key(0) == value_sort_key(0.0) == value_sort_key(False)
        assert value_sort_key(1) == value_sort_key(1.0) == value_sort_key(True)
        assert sorted([3, 2.5, True, -0.5, 2], key=value_sort_key) == [-0.5, True, 2, 2.5, 3]
