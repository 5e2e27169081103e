"""The Section 4 plan IR: cross-branch joins, Figure 8 validity, witnesses.

Covers the recursive plan IR introduced for split-pattern queries:

* key-projection branches are adequate and instances over them stay
  well-formed (projected branch agreement);
* the planner answers a split pattern with a :class:`JoinPlan` once live
  sizes show the join paying off, and the join is strictly cheaper than
  the best single-path plan on counted accesses;
* every plan the planner returns passes the Figure 8 FD-closure validity
  check, and hand-built invalid plans are rejected with diagnostics naming
  the underdetermined columns;
* the generated-class cache of :mod:`repro.codegen` reuses compiled
  classes keyed by canonical shape, and stays within its LRU bound.
"""

import random

import pytest

from repro.codegen import (
    clear_codegen_cache,
    codegen_cache_stats,
    compile_relation,
)
from repro.core import ReferenceRelation, RelationSpec, Tuple
from repro.core.errors import QueryPlanError
from repro.decomposition import (
    DecomposedRelation,
    JoinPlan,
    LookupStep,
    QueryPlan,
    converging_plans,
    execute_plan,
    parse_decomposition,
    path_steps,
    plan_query,
    validate_plan,
)
from repro.decomposition.model import Path
from repro.structures import COUNTER

GRAPH_SPEC = RelationSpec("src, dst, weight", fds=["src, dst -> weight"], name="edge")

#: Primary full-coverage branch + dst-keyed key-projection branch.
SPLIT = "[src -> htable (dst -> htable {weight}) ; dst -> htable (src -> htable {})]"


def populated(n_edges=200, nodes=40, seed=3):
    rng = random.Random(seed)
    rel = DecomposedRelation(GRAPH_SPEC, SPLIT)
    ref = ReferenceRelation(GRAPH_SPEC)
    edges = {}
    while len(edges) < n_edges:
        edges.setdefault(
            (rng.randrange(nodes), rng.randrange(nodes)), rng.randrange(9)
        )
    for (s, d), w in edges.items():
        tup = Tuple(src=s, dst=d, weight=w)
        rel.insert(tup)
        ref.insert(tup)
    return rel, ref


def join_friendly_sizes(decomposition):
    """Per-edge size estimates with wide roots and thin second levels —
    the regime where probing the primary per secondary row beats scanning."""
    root_edges = set(map(id, decomposition.root.edges))
    return {
        e: 64.0 if id(e) in root_edges else 2.0
        for node in decomposition.nodes()
        for e in node.edges
    }


class TestKeyProjectionInstances:
    def test_split_layout_is_adequate_and_well_formed(self):
        rel, ref = populated()
        rel.check_well_formed()
        assert rel.to_relation() == ref.to_relation()

    def test_projected_branch_agreement_detects_corruption(self):
        from repro.core.errors import WellFormednessError

        rel, _ = populated(n_edges=20, nodes=6)
        secondary = rel.instance.root.containers[1]
        key = next(iter(secondary.keys()))
        secondary.remove(key)
        with pytest.raises(WellFormednessError, match="disagree"):
            rel.check_well_formed()

    def test_removal_through_the_key_projection_branch(self):
        rel, ref = populated(n_edges=40, nodes=8)
        victim = next(iter(ref.to_relation().tuples))
        rel.remove(victim.project(["src", "dst"]))
        ref.remove(victim.project(["src", "dst"]))
        rel.check_well_formed()
        assert rel.to_relation() == ref.to_relation()


class TestJoinPlanning:
    def test_live_sizes_flip_the_split_pattern_to_a_join(self):
        rel, _ = populated()
        plan = rel.plan_for(frozenset({"dst"}))
        assert isinstance(plan, JoinPlan)
        assert plan.style == "probe"
        # The probe side becomes pure lookups once the build side binds src.
        assert all(isinstance(s, LookupStep) for s in plan.probe.steps)

    def test_symbolic_ranking_keeps_the_single_path(self):
        # At the uniform symbolic size the join cannot win (in-degree looks
        # as large as the whole src level), so the structural choice is the
        # scanning chain — the flip is a live-size decision.
        d = parse_decomposition(SPLIT)
        plan = plan_query(d, {"dst"}, spec=GRAPH_SPEC)
        assert isinstance(plan, QueryPlan)

    def test_fully_bound_pattern_needs_no_join(self):
        rel, _ = populated()
        plan = rel.plan_for(frozenset({"src", "dst"}))
        assert isinstance(plan, QueryPlan)
        assert all(isinstance(s, LookupStep) for s in plan.steps)

    def test_join_results_match_the_reference(self):
        rel, ref = populated()
        for dst in range(8):
            assert set(rel.query(Tuple(dst=dst))) == set(ref.query(Tuple(dst=dst)))
            assert set(rel.query(Tuple(dst=dst), "src, weight")) == set(
                ref.query(Tuple(dst=dst), "src, weight")
            )

    def test_join_is_strictly_cheaper_than_the_best_single_path(self):
        rel, _ = populated()
        sizes = rel.instance.edge_sizes()
        join = plan_query(rel.decomposition, {"dst"}, sizes=sizes, spec=GRAPH_SPEC)
        single = plan_query(
            rel.decomposition, {"dst"}, sizes=sizes, spec=GRAPH_SPEC, allow_join=False
        )
        assert isinstance(join, JoinPlan) and isinstance(single, QueryPlan)
        pattern = Tuple(dst=1)
        with COUNTER:
            join_rows = set(execute_plan(join, rel.instance, pattern))
            join_accesses = COUNTER.accesses
        with COUNTER:
            single_rows = set(execute_plan(single, rel.instance, pattern))
            single_accesses = COUNTER.accesses
        assert join_rows == single_rows
        assert join_accesses < single_accesses

    def test_hash_style_join_executes_correctly(self):
        # Hand-build the hash flavour (both sides enumerated independently,
        # matched on the full common column set) and check it agrees with
        # the planner's probe flavour.
        rel, ref = populated()
        d = rel.decomposition
        paths = d.paths()
        pattern_cols = frozenset({"dst"})
        build = QueryPlan(paths[1], path_steps(paths[1], pattern_cols), pattern_cols)
        probe = QueryPlan(paths[0], path_steps(paths[0], pattern_cols), pattern_cols)
        plan = JoinPlan(
            build, probe, paths[0].covered & paths[1].covered, pattern_cols, "hash"
        )
        validate_plan(plan, GRAPH_SPEC)
        for dst in range(6):
            got = set(execute_plan(plan, rel.instance, Tuple(dst=dst)))
            assert got == set(ref.query(Tuple(dst=dst)))

    def test_shared_leaf_convergence_stays_a_degenerate_join(self, scheduler_spec):
        shared = parse_decomposition(
            "[ns, pid -> htable (state -> htable @rec)"
            " ; state -> htable (ns, pid -> ilist @rec)] where @rec = {cpu}"
        )
        plan = plan_query(shared, "ns, pid, state", spec=scheduler_spec)
        assert isinstance(plan, QueryPlan) and plan.leaf_shared
        assert converging_plans(shared, "ns, pid, state")


class TestFigure8Validity:
    def test_every_planner_plan_is_valid(self):
        rel, _ = populated()
        cols = sorted(GRAPH_SPEC.columns)
        sizes = rel.instance.edge_sizes()
        for mask in range(2 ** len(cols)):
            subset = frozenset(c for i, c in enumerate(cols) if mask >> i & 1)
            plan = plan_query(rel.decomposition, subset, sizes=sizes, spec=GRAPH_SPEC)
            witness = validate_plan(plan, GRAPH_SPEC)
            assert witness.valid and not witness.missing

    def test_truncated_chain_rejected_naming_missing_columns(self):
        d = parse_decomposition(SPLIT)
        primary = d.paths()[0]
        # A chain stopping after the src level binds {src} only.
        truncated = Path(
            primary.edges[:1], primary.edges[0].child, primary.edge_indices[:1]
        )
        plan = QueryPlan(
            truncated, path_steps(truncated, frozenset({"src"})), frozenset({"src"})
        )
        with pytest.raises(QueryPlanError) as excinfo:
            validate_plan(plan, GRAPH_SPEC)
        message = str(excinfo.value)
        assert "dst" in message and "weight" in message

    def test_plan_ignoring_its_own_pattern_column_rejected(self):
        # A chain over the key-projection path never reads weight; a plan
        # claiming to answer a {weight} pattern with it would silently
        # ignore the constraint, so validation must refuse it.
        d = parse_decomposition(SPLIT)
        secondary = d.paths()[1]
        plan = QueryPlan(
            secondary,
            path_steps(secondary, frozenset({"weight"})),
            frozenset({"weight"}),
        )
        with pytest.raises(QueryPlanError, match="weight"):
            validate_plan(plan, GRAPH_SPEC)

    def test_non_lossless_join_rejected(self):
        d = parse_decomposition(SPLIT)
        paths = d.paths()
        pattern_cols = frozenset()
        build = QueryPlan(paths[1], path_steps(paths[1], pattern_cols), pattern_cols)
        probe = QueryPlan(paths[0], path_steps(paths[0], pattern_cols), pattern_cols)
        # Matching only on dst under-determines both sides: {dst} closes
        # to nothing further, so gluing rows could fabricate tuples.
        bogus = JoinPlan(build, probe, frozenset({"dst"}), pattern_cols, "hash")
        with pytest.raises(QueryPlanError, match="lossless"):
            validate_plan(bogus, GRAPH_SPEC)

    def test_witness_is_printed_by_describe(self):
        rel, _ = populated()
        plan = rel.plan_for(frozenset({"dst"}))
        text = plan.describe()
        assert "binds" in text and "checks" in text and "closes" in text

    def test_explicit_residual_filter_is_printed(self):
        rel, _ = populated()
        plan = plan_query(
            rel.decomposition,
            {"src", "weight"},
            sizes=rel.instance.edge_sizes(),
            spec=GRAPH_SPEC,
        )
        assert "filter[weight]" in plan.describe()


class TestCompiledJoinTier:
    def test_compiled_plan_table_contains_the_join(self):
        d = parse_decomposition(SPLIT)
        cls = compile_relation(GRAPH_SPEC, d, sizes=join_friendly_sizes(d))
        assert "join[" in cls.__repro_source__

    def test_compiled_join_agrees_with_reference_and_counts_less(self):
        d = parse_decomposition(SPLIT)
        join_cls = compile_relation(GRAPH_SPEC, d, sizes=join_friendly_sizes(d))
        scan_cls = compile_relation(GRAPH_SPEC, parse_decomposition(SPLIT))
        joined, scanned = join_cls(), scan_cls()
        _, ref = populated()
        for tup in sorted(ref.to_relation().tuples, key=Tuple.sort_key):
            joined.insert(tup)
            scanned.insert(tup)
        joined.check_well_formed()
        with COUNTER:
            join_rows = set(joined.query(Tuple(dst=1)))
            join_accesses = COUNTER.accesses
        with COUNTER:
            scan_rows = set(scanned.query(Tuple(dst=1)))
            scan_accesses = COUNTER.accesses
        assert join_rows == scan_rows == set(ref.query(Tuple(dst=1)))
        assert join_accesses < scan_accesses


class TestCompiledHashJoin:
    def test_generated_hash_join_code_agrees_with_reference(self, monkeypatch):
        """Force a hash-flavour join into the compiled dispatch table and
        execute the generated temporary-table code against the reference."""
        import repro.codegen.compiler as compiler_mod

        clear_codegen_cache()
        d = parse_decomposition(SPLIT)
        paths = d.paths()
        pattern_cols = frozenset({"dst"})
        build = QueryPlan(paths[1], path_steps(paths[1], pattern_cols), pattern_cols)
        probe = QueryPlan(paths[0], path_steps(paths[0], pattern_cols), pattern_cols)
        hash_plan = JoinPlan(
            build, probe, paths[0].covered & paths[1].covered, pattern_cols, "hash"
        )
        validate_plan(hash_plan, GRAPH_SPEC)

        real_plan_query = compiler_mod.plan_query

        def forced(decomposition, subset, *args, **kwargs):
            if decomposition is d and frozenset(subset) == pattern_cols:
                return hash_plan
            return real_plan_query(decomposition, subset, *args, **kwargs)

        monkeypatch.setattr(compiler_mod, "plan_query", forced)
        cls = compile_relation(GRAPH_SPEC, d, class_name="Compiled_hash_join_test")
        assert "_tbl" in cls.__repro_source__  # The temporary-table emission ran.

        compiled = cls()
        _, ref = populated()
        for tup in sorted(ref.to_relation().tuples, key=Tuple.sort_key):
            compiled.insert(tup)
        compiled.check_well_formed()
        with COUNTER:
            for dst in range(10):
                assert set(compiled.query(Tuple(dst=dst))) == set(
                    ref.query(Tuple(dst=dst))
                )
            assert COUNTER.accesses  # The temp inserts/probes are charged.


class TestCodegenClassCache:
    def test_repeat_compilations_hit_the_cache(self):
        clear_codegen_cache()
        first = compile_relation(GRAPH_SPEC, SPLIT)
        assert codegen_cache_stats() == {"hits": 0, "misses": 1, "size": 1}
        second = compile_relation(GRAPH_SPEC, SPLIT)
        assert second is first
        assert codegen_cache_stats()["hits"] == 1

    def test_structure_aliases_share_one_entry(self, scheduler_spec):
        clear_codegen_cache()
        avl = compile_relation(scheduler_spec, "ns, pid -> avl {state, cpu}")
        btree = compile_relation(scheduler_spec, "ns, pid -> btree {state, cpu}")
        assert btree is avl
        assert codegen_cache_stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_sizes_with_a_layout_string_are_rejected(self):
        from repro.core.errors import DecompositionError

        d = parse_decomposition(SPLIT)
        with pytest.raises(DecompositionError, match="MapEdge identity"):
            compile_relation(GRAPH_SPEC, SPLIT, sizes=join_friendly_sizes(d))

    def test_different_fds_or_sizes_miss(self, scheduler_spec):
        clear_codegen_cache()
        compile_relation(GRAPH_SPEC, SPLIT)
        no_fd_spec = RelationSpec(
            "src, dst, weight", fds=["src, dst -> weight", "weight -> weight"], name="edge"
        )
        compile_relation(no_fd_spec, SPLIT)
        d = parse_decomposition(SPLIT)
        compile_relation(GRAPH_SPEC, d, sizes=join_friendly_sizes(d))
        assert codegen_cache_stats()["misses"] == 3


class TestBoundedClassCache:
    """The class cache evicts least-recently-used entries past its bound."""

    @pytest.fixture(autouse=True)
    def bound_of_four(self, monkeypatch):
        import repro.codegen.compiler as compiler_mod

        monkeypatch.setattr(compiler_mod, "CLASS_CACHE_BOUND", 4)
        clear_codegen_cache()
        yield
        clear_codegen_cache()

    @staticmethod
    def compile_named(i):
        # The class name is part of the cache key: one distinct entry each.
        return compile_relation(GRAPH_SPEC, SPLIT, class_name=f"Bounded{i}")

    def test_size_never_exceeds_the_bound(self):
        for i in range(10):
            self.compile_named(i)
            assert codegen_cache_stats()["size"] == min(i + 1, 4)
        assert codegen_cache_stats() == {"hits": 0, "misses": 10, "size": 4}

    def test_a_hit_refreshes_recency(self):
        first = [self.compile_named(i) for i in range(4)]
        assert self.compile_named(0) is first[0]  # hit: 0 is now the newest
        self.compile_named(4)  # evicts 1, the least recently used
        assert self.compile_named(0) is first[0]
        assert codegen_cache_stats()["hits"] == 2
        assert self.compile_named(1) is not first[1]

    def test_an_evicted_key_recompiles_as_a_miss(self):
        evicted = self.compile_named(0)
        for i in range(1, 5):
            self.compile_named(i)
        before = codegen_cache_stats()["misses"]
        again = self.compile_named(0)
        assert again is not evicted
        assert codegen_cache_stats()["misses"] == before + 1

    def test_instances_of_an_evicted_class_keep_answering(self):
        relation = self.compile_named(0)()
        relation.insert(Tuple(src=1, dst=2, weight=3))
        for i in range(1, 9):
            self.compile_named(i)
        relation.insert(Tuple(src=4, dst=2, weight=5))
        assert set(relation.query(Tuple(dst=2))) == {
            Tuple(src=1, dst=2, weight=3),
            Tuple(src=4, dst=2, weight=5),
        }
        relation.check_well_formed()

    def test_a_collected_evicted_class_releases_its_linecache_entry(self):
        import gc
        import linecache

        filename = self.compile_named(0).__repro_meta__["filename"]
        assert filename in linecache.cache
        for i in range(1, 5):
            self.compile_named(i)
        gc.collect()
        assert filename not in linecache.cache
