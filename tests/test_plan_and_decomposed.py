"""Query planning and the DecomposedRelation operations."""

import pytest

from repro.core import ReferenceRelation, t
from repro.core.errors import (
    FunctionalDependencyError,
    QueryPlanError,
    SpecificationError,
    TupleError,
)
from repro.decomposition import (
    DecomposedRelation,
    LookupStep,
    ScanStep,
    execute_plan,
    parse_decomposition,
    plan_query,
)

SCHEDULER = (
    "[ns -> htable pid -> btree {state, cpu} ; state -> htable (ns, pid -> dlist {cpu})]"
)


class TestPlanner:
    @pytest.fixture
    def decomposition(self):
        return parse_decomposition(SCHEDULER, name="scheduler")

    def test_primary_key_pattern_is_all_lookups(self, decomposition):
        plan = plan_query(decomposition, "ns, pid")
        assert plan.scan_count == 0
        assert plan.lookup_count == 2
        assert [type(s) for s in plan.steps] == [LookupStep, LookupStep]

    def test_state_pattern_uses_the_state_index(self, decomposition):
        plan = plan_query(decomposition, "state")
        assert isinstance(plan.steps[0], LookupStep)
        assert plan.steps[0].edge.key == frozenset({"state"})
        assert plan.scan_count == 1

    def test_full_scan_prefers_cheap_path(self, decomposition):
        plan = plan_query(decomposition, [])
        assert plan.scan_count == len(plan.steps)
        assert all(isinstance(step, ScanStep) for step in plan.steps)

    def test_residual_pattern_columns_are_filtered_not_planned(self, decomposition):
        plan = plan_query(decomposition, "ns, pid, cpu")
        assert plan.scan_count == 0  # cpu is filtered at the leaf

    def test_require_lookup(self, decomposition):
        plan_query(decomposition, "ns, pid", require_lookup=True)
        plan_query(decomposition, "state", require_lookup=False)
        with pytest.raises(QueryPlanError, match="no lookup-only plan"):
            plan_query(decomposition, "cpu", require_lookup=True)

    def test_cost_estimates_rank_plans(self, decomposition):
        keyed = plan_query(decomposition, "ns, pid")
        scan = plan_query(decomposition, [])
        assert keyed.estimated_cost(1000) < scan.estimated_cost(1000)

    def test_plan_describe(self, decomposition):
        assert "lookup" in plan_query(decomposition, "ns, pid").describe()
        assert "scan" in plan_query(decomposition, []).describe()

    def test_execute_rejects_pattern_missing_planned_columns(
        self, decomposition, scheduler_spec
    ):
        from repro.decomposition import DecompositionInstance

        instance = DecompositionInstance(decomposition, scheduler_spec)
        with pytest.raises(QueryPlanError, match="cannot execute"):
            list(execute_plan(plan_query(decomposition, "ns"), instance, t(state="R")))
        # A pattern binding fewer columns than the plan's lookups need must
        # be rejected up front, not crash inside a lookup step.
        with pytest.raises(QueryPlanError, match="cannot execute"):
            list(execute_plan(plan_query(decomposition, "ns, pid"), instance, t(ns=1)))

    def test_execute_accepts_pattern_binding_extra_columns(
        self, decomposition, scheduler_spec
    ):
        from repro.decomposition import DecompositionInstance

        instance = DecompositionInstance(decomposition, scheduler_spec)
        instance.insert_tuple(t(ns=1, pid=1, state="R", cpu=0))
        instance.insert_tuple(t(ns=1, pid=2, state="R", cpu=1))
        plan = plan_query(decomposition, "ns")
        results = list(execute_plan(plan, instance, t(ns=1, cpu=1)))
        assert results == [t(ns=1, pid=2, state="R", cpu=1)]


class TestDecomposedRelationOps:
    @pytest.fixture(params=["ns, pid -> htable {state, cpu}", SCHEDULER])
    def rel(self, request, scheduler_spec):
        rel = DecomposedRelation(scheduler_spec, request.param)
        rel.insert(t(ns=1, pid=1, state="R", cpu=0))
        rel.insert(t(ns=1, pid=2, state="S", cpu=1))
        rel.insert(t(ns=2, pid=1, state="R", cpu=1))
        return rel

    def test_accepts_textual_decomposition(self, scheduler_spec):
        rel = DecomposedRelation(scheduler_spec, "ns, pid -> htable {state, cpu}")
        assert rel.decomposition.structures() == ["htable"]

    def test_insert_query_roundtrip(self, rel):
        assert len(rel) == 3
        assert rel.query({"ns": 1, "pid": 1}, "state")[0]["state"] == "R"

    def test_insert_is_idempotent(self, rel):
        rel.insert(t(ns=1, pid=1, state="R", cpu=0))
        assert len(rel) == 3

    def test_insert_rejects_partial_tuple(self, rel):
        with pytest.raises(TupleError):
            rel.insert(t(ns=1, pid=9))

    def test_insert_enforces_fds(self, rel):
        with pytest.raises(FunctionalDependencyError):
            rel.insert(t(ns=1, pid=1, state="Z", cpu=5))
        assert len(rel) == 3  # nothing was clobbered

    def test_unenforced_insert_overwrites_unit(self, scheduler_spec):
        rel = DecomposedRelation(
            scheduler_spec, "ns, pid -> htable {state, cpu}", enforce_fds=False
        )
        rel.insert(t(ns=1, pid=1, state="R", cpu=0))
        rel.insert(t(ns=1, pid=1, state="Z", cpu=5))
        assert rel.query({"ns": 1, "pid": 1}, "state")[0]["state"] == "Z"
        assert len(rel) == 1

    def test_unenforced_insert_evicts_conflicts_from_all_branches(self):
        # Regression: on a branching decomposition an unenforced conflicting
        # insert must remove the displaced tuple from sibling branches too,
        # not leave a stale entry under the old tuple's keys.
        from repro.core import RelationSpec

        spec = RelationSpec("a, b", fds=["a -> b", "b -> a"], name="bijective")
        rel = DecomposedRelation(
            spec, "[a -> htable {b} ; b -> htable {a}]", enforce_fds=False
        )
        rel.insert(t(a=1, b=2))
        rel.insert(t(a=1, b=3))  # violates a -> b against the first tuple
        rel.check_well_formed()
        assert rel.to_relation().tuples == frozenset({t(a=1, b=3)})
        assert rel.query({"b": 2}) == []  # no stale entry in the b-branch
        assert rel.query({"b": 3}) == [t(a=1, b=3)]

    def test_query_deduplicates_projections(self, rel):
        states = rel.query(None, "state")
        assert sorted(s["state"] for s in states) == ["R", "S"]

    def test_query_validates_columns(self, rel):
        with pytest.raises(TupleError):
            rel.query({"bogus": 1})
        with pytest.raises(SpecificationError):
            rel.query(None, "bogus")

    def test_remove_by_secondary_pattern(self, rel):
        rel.remove({"state": "R"})
        assert len(rel) == 1
        rel.check_well_formed()

    def test_remove_everything(self, rel):
        rel.remove()
        assert len(rel) == 0
        assert rel.instance.is_empty()
        rel.check_well_formed()

    def test_remove_missing_is_noop(self, rel):
        rel.remove({"ns": 99})
        assert len(rel) == 3

    def test_update_nonkey_column(self, rel):
        rel.update({"state": "R"}, {"cpu": 7})
        assert {tup["cpu"] for tup in rel.query({"state": "R"})} == {7}
        rel.check_well_formed()

    def test_update_key_column_moves_tuples(self, rel):
        rel.update({"ns": 2, "pid": 1}, {"pid": 9})
        assert rel.query({"ns": 2, "pid": 1}) == []
        assert rel.query({"ns": 2, "pid": 9}, "state")[0]["state"] == "R"
        rel.check_well_formed()

    def test_update_enforces_fds(self, rel):
        with pytest.raises(FunctionalDependencyError):
            rel.update({"ns": 1}, {"pid": 1})
        assert len(rel) == 3

    def test_update_with_empty_changes_is_noop(self, rel):
        rel.update({"ns": 1}, {})
        assert len(rel) == 3

    def test_matches_reference_on_a_small_script(self, rel, scheduler_spec):
        ref = ReferenceRelation(scheduler_spec)
        for tup in rel.scan():
            ref.insert(tup)
        for op in (
            lambda r: r.update({"state": "S"}, {"cpu": 3}),
            lambda r: r.remove({"ns": 1, "pid": 1}),
            lambda r: r.insert(t(ns=3, pid=3, state="W", cpu=2)),
        ):
            op(rel)
            op(ref)
            assert rel.to_relation() == ref.to_relation()

    def test_plan_cache_is_reused(self, rel):
        first = rel.plan_for("ns, pid")
        again = rel.plan_for(["pid", "ns"])
        assert first is again
        assert rel.plan_for(frozenset({"ns", "pid"})) is first
        # A cached plan answers only a validated column set.
        for bad in (frozenset({""}), frozenset({1}), ["ns", ""], ["ns", 2]):
            with pytest.raises(SpecificationError):
                rel.plan_for(bad)
