"""OperationCounter-based asymptotic guarantees across the tiers.

These tests pin down the *reason* the representations are fast, not just
that they are: hash-indexed patterns must touch O(1) container entries in
both the compiled and the (live-cost-planned) interpreted tier, list
layouts must genuinely scan, plan choice must flip when the live data
distribution flips, and the maintained counts must make ``len``/``is_empty``
access-free.
"""

import pytest

from repro.codegen import compile_relation
from repro.core import RelationSpec, t
from repro.decomposition import DecomposedRelation
from repro.structures import COUNTER

KV_SPEC = RelationSpec("k, v", fds=["k -> v"], name="kv")


def fill_kv(relation, n):
    for i in range(n):
        relation.insert(t(k=i, v=i % 7))


def counted_query(relation, pattern):
    with COUNTER as counter:
        relation.query(pattern)
        return counter.accesses


class TestCompiledAsymptotics:
    @pytest.mark.parametrize("n_small, n_large", [(64, 512)])
    def test_hash_lookup_is_constant(self, n_small, n_large):
        cls = compile_relation(KV_SPEC, "k -> htable {v}", class_name="KvHash")
        small, large = cls(), cls()
        fill_kv(small, n_small)
        fill_kv(large, n_large)
        a_small = counted_query(small, {"k": n_small - 1})
        a_large = counted_query(large, {"k": n_large - 1})
        assert a_small <= 2
        assert a_large <= a_small  # O(1): independent of container size.

    @pytest.mark.parametrize("n_small, n_large", [(64, 512)])
    def test_list_lookup_scans(self, n_small, n_large):
        cls = compile_relation(KV_SPEC, "k -> dlist {v}", class_name="KvList")
        small, large = cls(), cls()
        fill_kv(small, n_small)
        fill_kv(large, n_large)
        # The most recently appended key sits at the end of the entry list.
        a_small = counted_query(small, {"k": n_small - 1})
        a_large = counted_query(large, {"k": n_large - 1})
        assert a_small >= n_small
        assert a_large >= 4 * a_small  # Genuinely linear, not hash-backed.

    def test_counting_is_off_by_default(self):
        cls = compile_relation(KV_SPEC, "k -> htable {v}", class_name="KvOff")
        relation = cls()
        fill_kv(relation, 16)
        COUNTER.reset()
        relation.query({"k": 3})
        assert COUNTER.accesses == 0  # Counter disabled outside the context.


class TestInterpretedAsymptotics:
    @pytest.mark.parametrize("n_small, n_large", [(64, 512)])
    def test_live_planner_uses_hash_index(self, n_small, n_large):
        small = DecomposedRelation(KV_SPEC, "k -> htable {v}")
        large = DecomposedRelation(KV_SPEC, "k -> htable {v}")
        fill_kv(small, n_small)
        fill_kv(large, n_large)
        a_small = counted_query(small, {"k": n_small - 1})
        a_large = counted_query(large, {"k": n_large - 1})
        assert a_small == 1  # One hash probe, no scan.
        assert a_large == a_small

    @pytest.mark.parametrize("n_small, n_large", [(64, 512)])
    def test_list_layout_scans(self, n_small, n_large):
        small = DecomposedRelation(KV_SPEC, "k -> dlist {v}")
        large = DecomposedRelation(KV_SPEC, "k -> dlist {v}")
        fill_kv(small, n_small)
        fill_kv(large, n_large)
        a_small = counted_query(small, {"k": n_small - 1})
        a_large = counted_query(large, {"k": n_large - 1})
        assert a_small >= n_small
        assert a_large >= 4 * a_small


class TestLiveCostPlanning:
    SPEC = RelationSpec("a, b, c", fds=["a, b -> c"], name="skewed")
    LAYOUT = "[a -> htable (b -> dlist {c}) ; b -> htable (a -> dlist {c})]"

    def chosen_first_key(self, relation):
        return set(relation.plan_for("a, b").steps[0].edge.key)

    def test_plan_flips_with_the_data_distribution(self):
        relation = DecomposedRelation(self.SPEC, self.LAYOUT)
        # Skew 1: many distinct a, two distinct b — the per-a dlists are
        # tiny, the per-b dlists are huge; the a-branch must win.
        for i in range(64):
            relation.insert(t(a=i, b=i % 2, c=0))
        assert self.chosen_first_key(relation) == {"a"}

        # Skew 2 (reversed): the same relation, re-populated with two
        # distinct a and many distinct b; size classes change, the plan
        # cache is invalidated, and the b-branch must now win.
        relation.remove(None)
        for i in range(64):
            relation.insert(t(a=i % 2, b=i, c=0))
        assert self.chosen_first_key(relation) == {"b"}

    def test_plan_cache_reused_within_a_size_class(self):
        relation = DecomposedRelation(self.SPEC, self.LAYOUT)
        for i in range(64):
            relation.insert(t(a=i, b=i % 2, c=0))
        first = relation.plan_for("a, b")
        assert relation.plan_for("a, b") is first  # No mutation: cached.
        relation.insert(t(a=100, b=0, c=0))  # Same size class: still cached.
        assert relation.plan_for("a, b") is first

    def test_lookup_beats_scan_only_on_real_sizes(self):
        """The scheduler regression behind DEFAULT_COST_SIZE: with live
        sizes the planner charges the actual (small) containers."""
        relation = DecomposedRelation(self.SPEC, self.LAYOUT)
        for i in range(8):
            relation.insert(t(a=i, b=i % 2, c=0))
        plan = relation.plan_for("a, b")
        sizes = relation.instance.edge_sizes()
        assert plan.estimated_cost(sizes=sizes) <= plan.estimated_cost()


class TestMaintainedCounts:
    def test_len_and_is_empty_are_access_free(self):
        relation = DecomposedRelation(KV_SPEC, "k -> htable {v}")
        fill_kv(relation, 128)
        with COUNTER as counter:
            assert len(relation) == 128
            assert len(relation.instance) == 128
            assert not relation.is_empty()
            assert not relation.instance.is_empty()
            assert counter.accesses == 0

    def test_compiled_len_is_access_free(self):
        cls = compile_relation(KV_SPEC, "k -> htable {v}", class_name="KvLen")
        relation = cls()
        fill_kv(relation, 128)
        with COUNTER as counter:
            assert len(relation) == 128
            assert counter.accesses == 0

    def test_count_tracks_removals_and_conflicts(self):
        relation = DecomposedRelation(KV_SPEC, "k -> htable {v}", enforce_fds=False)
        fill_kv(relation, 10)
        relation.insert(t(k=3, v=99))  # Conflict eviction: net count unchanged.
        assert len(relation) == 10
        relation.remove(t(k=3))
        assert len(relation) == 9
        relation.instance.clear()
        assert len(relation) == 0 and relation.is_empty()


class TestUpdateLocality:
    def test_keyed_update_does_not_rescan_the_relation(self, scheduler_spec):
        """The FD check in update must only touch the groups reachable from
        the merged tuples (satellite fix), so a primary-key update costs
        O(1) accesses regardless of the relation size."""

        def accesses_at(n):
            relation = DecomposedRelation(
                scheduler_spec, "ns, pid -> htable {state, cpu}"
            )
            for pid in range(n):
                relation.insert(t(ns=1, pid=pid, state="R", cpu=0))
            with COUNTER as counter:
                relation.update({"ns": 1, "pid": n - 1}, {"cpu": 1})
                return counter.accesses

        small, large = accesses_at(32), accesses_at(256)
        # O(1) (was O(n) ≈ hundreds before the fix): a hash probe costs one
        # access whatever the table's size.
        assert large == small
