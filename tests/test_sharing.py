"""Shared sub-nodes across branches (Section 3) — end-to-end coverage.

The tentpole guarantees, each pinned here:

* the parser/formatter round-trips node sharing by **object identity**
  (``@name`` references + ``where`` clause);
* adequacy types shared decompositions once per ``(node, bound)`` pair and
  rejects shared nodes reached with inconsistent bound sets;
* instances materialise **one** record object per binding, reachable from
  every parent edge, with intrusive O(1) unlink on removal (the
  ``OperationCounter`` asymptotics tests);
* the planner knows converging branches land on the same record;
* the compiled tier lowers sharing to genuinely shared cells with unrolled
  constant-time unlink, and a 1000-op seeded differential run keeps all
  three tiers in lockstep (FDs enforced and FD-off);
* the autotuner enumerates shared candidates and proposes ``ilist`` only
  where a parent holds the record by reference.
"""

import copy
import pickle
import random

import pytest

from repro.autotuner import Trace, enumerate_decompositions, exact_accesses
from repro.codegen import compile_relation
from repro.core import ReferenceRelation, Tuple, t
from repro.core.errors import (
    FunctionalDependencyError,
    ParseError,
    WellFormednessError,
)
from repro.decomposition import (
    DecomposedRelation,
    DecompNode,
    MapEdge,
    adequacy_problems,
    converging_plans,
    enforced_fds,
    is_adequate,
    parse_decomposition,
    plan_query,
)
from repro.structures import COUNTER

#: The paper's shared scheduler: one process record reached from both the
#: primary-key index and the per-state lists, unlinked in O(1) via ilist.
SHARED = (
    "[ns, pid -> htable (state -> htable @rec)"
    " ; state -> htable (ns, pid -> ilist @rec)] where @rec = {cpu}"
)
#: The per-branch-copy twin: same indexes, one record copy per branch.
COPIED = "[ns, pid -> htable {state, cpu} ; state -> htable (ns, pid -> dlist {cpu})]"

NS_DOMAIN = [0, 1, 2]
PID_DOMAIN = [0, 1, 2, 3]
STATE_DOMAIN = ["R", "S", "W"]
CPU_DOMAIN = [0, 1]
COLUMNS = ("ns", "pid", "state", "cpu")
DOMAINS = {"ns": NS_DOMAIN, "pid": PID_DOMAIN, "state": STATE_DOMAIN, "cpu": CPU_DOMAIN}


def random_full_tuple(rng: random.Random) -> Tuple:
    return Tuple({c: rng.choice(DOMAINS[c]) for c in COLUMNS})


def random_pattern(rng: random.Random, max_columns: int = 3) -> Tuple:
    chosen = rng.sample(COLUMNS, k=rng.randint(0, max_columns))
    return Tuple({c: rng.choice(DOMAINS[c]) for c in chosen})


def shared_record_instance(relation, ns, pid, state):
    """Navigate both branches of a SHARED-layout instance to the record."""
    inst = relation.instance
    via_pk = inst.root.containers[0].lookup(Tuple(ns=ns, pid=pid)).containers[0].lookup(
        Tuple(state=state)
    )
    via_state = inst.root.containers[1].lookup(Tuple(state=state)).containers[0].lookup(
        Tuple(ns=ns, pid=pid)
    )
    return via_pk, via_state


class TestParserSharing:
    def test_references_resolve_to_one_object(self):
        d = parse_decomposition(SHARED)
        rec_a = d.root.edges[0].child.edges[0].child
        rec_b = d.root.edges[1].child.edges[0].child
        assert rec_a is rec_b
        assert d.shared_nodes() == [rec_a]

    def test_format_emits_each_shared_node_once(self):
        d = parse_decomposition(SHARED)
        text = d.describe()
        assert text.count("{cpu}") == 1  # The record body appears once.
        assert "where" in text and "@s0" in text

    def test_round_trip_preserves_identity(self):
        """parse(format(d)) must preserve sharing by object identity — the
        pre-fix formatter duplicated shared subtrees, so the reparse held
        two separate record nodes."""
        shared = DecompNode(unit_columns="cpu")
        root = DecompNode(
            edges=(
                MapEdge("ns, pid", "htable", DecompNode(edges=(MapEdge("state", "htable", shared),))),
                MapEdge("state", "htable", DecompNode(edges=(MapEdge("ns, pid", "ilist", shared),))),
            )
        )
        from repro.decomposition import Decomposition

        d = Decomposition(root, name="shared")
        again = parse_decomposition(d.describe())
        assert len(again.nodes()) == len(d.nodes())
        rec_a = again.root.edges[0].child.edges[0].child
        rec_b = again.root.edges[1].child.edges[0].child
        assert rec_a is rec_b

    @pytest.mark.parametrize(
        "copy_of",
        [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_rebuild_their_node_caches(self, copy_of):
        """A copy has new node objects, so the caches keyed by ``id(node)``
        must not travel with it: it answers like a fresh parse."""
        d = parse_decomposition(SHARED)
        d.node_coverage()
        d.parent_counts()
        d.node_bounds()
        again = copy_of(d)
        fresh = parse_decomposition(SHARED)
        assert [again.edge_coverage(e) for e in again.edges()] == [
            fresh.edge_coverage(e) for e in fresh.edges()
        ]
        rec = again.root.edges[0].child.edges[0].child
        assert rec is again.root.edges[1].child.edges[0].child
        assert again.parent_counts()[id(rec)] == 2
        assert again.shared_nodes() == [rec]
        assert again.shared_bound(rec) == fresh.shared_bound(fresh.shared_nodes()[0])

    def test_plain_layouts_have_no_where_clause(self):
        d = parse_decomposition(COPIED)
        assert "where" not in d.describe()
        assert parse_decomposition(d.describe()).describe() == d.describe()

    def test_undefined_reference_rejected(self):
        with pytest.raises(ParseError, match="undefined shared node"):
            parse_decomposition("ns, pid -> htable @rec")

    def test_duplicate_definition_rejected(self):
        with pytest.raises(ParseError, match="defined twice"):
            parse_decomposition(
                "ns, pid -> htable @a where @a = {state, cpu} ; @a = {cpu, state}"
            )

    def test_empty_where_clause_rejected(self):
        with pytest.raises(ParseError, match="at least one"):
            parse_decomposition("ns, pid -> htable {state, cpu} where")

    def test_forward_reference_rejected(self):
        with pytest.raises(ParseError, match="defined before"):
            parse_decomposition(
                "a -> htable @x where @x = b -> htable @y ; @y = {c}"
            )

    def test_definitions_may_reference_earlier_names(self):
        d = parse_decomposition(
            "[a -> htable @x ; b -> htable @x] where @y = {c} ; @x = b2 -> htable @y"
        )
        # @x is shared; @y has one parent inside the @x definition.
        assert len(d.shared_nodes()) == 1


class TestAdequacySharing:
    def test_shared_scheduler_is_adequate(self, scheduler_spec):
        assert is_adequate(parse_decomposition(SHARED), scheduler_spec)

    def test_inconsistent_bound_sets_rejected(self, scheduler_spec):
        # The record is reached with {ns, pid, state} on one branch and
        # {ns, pid} on the other: no single type B ▷ C.
        d = parse_decomposition(
            "[ns, pid, state -> htable @rec ; ns, pid -> htable @rec]"
            " where @rec = {cpu}"
        )
        problems = adequacy_problems(d, scheduler_spec)
        assert any("single type" in p for p in problems)

    def test_shared_leaf_contributes_one_enforced_fd(self, scheduler_spec):
        fds = list(enforced_fds(parse_decomposition(SHARED)))
        assert len(fds) == 1
        (fd,) = fds
        assert fd.lhs == frozenset({"ns", "pid", "state"})
        assert fd.rhs == frozenset({"cpu"})

    def test_node_bounds_visits_shared_nodes_once(self):
        d = parse_decomposition(SHARED)
        (rec,) = d.shared_nodes()
        assert d.node_bounds()[id(rec)] == [frozenset({"ns", "pid", "state"})]
        assert d.shared_bound(rec) == frozenset({"ns", "pid", "state"})


class TestInstanceSharing:
    def test_one_record_object_reachable_from_both_branches(self, scheduler_spec):
        relation = DecomposedRelation(scheduler_spec, SHARED)
        relation.insert(t(ns=1, pid=2, state="R", cpu=0))
        via_pk, via_state = shared_record_instance(relation, 1, 2, "R")
        assert via_pk is via_state
        assert via_pk.unit_value == Tuple(cpu=0)

    def test_registry_empties_with_the_relation(self, scheduler_spec):
        relation = DecomposedRelation(scheduler_spec, SHARED)
        for pid in range(8):
            relation.insert(t(ns=0, pid=pid, state="R", cpu=0))
        relation.remove(None)
        assert relation.is_empty()
        (registry,) = relation.instance._shared.values()
        assert registry == {}
        relation.check_well_formed()

    def test_well_formedness_detects_broken_sharing(self, scheduler_spec):
        from repro.decomposition import NodeInstance

        relation = DecomposedRelation(scheduler_spec, SHARED)
        relation.insert(t(ns=1, pid=2, state="R", cpu=0))
        # Replace the state-branch entry with a same-valued copy: α still
        # agrees, but the sharing invariant is gone.
        state_node = relation.instance.root.containers[1].lookup(Tuple(state="R"))
        (rec_node,) = relation.decomposition.shared_nodes()
        clone = NodeInstance(rec_node)
        clone.unit_value = Tuple(cpu=0)
        state_node.containers[0].insert(Tuple(ns=1, pid=2), clone)
        with pytest.raises(WellFormednessError, match="sharing invariant"):
            relation.check_well_formed()

    def test_interpreted_unlink_is_constant_time(self, scheduler_spec):
        def remove_cost(layout, n):
            relation = DecomposedRelation(scheduler_spec, layout)
            for pid in range(n):
                relation.insert(t(ns=0, pid=pid, state="R", cpu=0))
            with COUNTER as counter:
                relation.remove(Tuple(ns=0, pid=n - 1))
                return counter.accesses

        shared_small, shared_large = remove_cost(SHARED, 32), remove_cost(SHARED, 256)
        copied_small, copied_large = remove_cost(COPIED, 32), remove_cost(COPIED, 256)
        # Shared: O(1) — independent of the state list length.
        assert shared_large == shared_small
        # Copied: genuinely linear in the per-state list.
        assert copied_large >= 4 * copied_small
        assert shared_large < copied_large

    def test_update_through_shared_records(self, scheduler_spec):
        relation = DecomposedRelation(scheduler_spec, SHARED)
        reference = ReferenceRelation(scheduler_spec)
        for r in (relation, reference):
            r.insert(t(ns=0, pid=1, state="R", cpu=0))
            r.insert(t(ns=0, pid=2, state="R", cpu=1))
            r.update(Tuple(state="R"), Tuple(state="S"))
        assert relation.to_relation() == reference.to_relation()
        relation.check_well_formed()


class TestPlannerSharing:
    def test_plans_know_the_leaf_is_shared(self, scheduler_spec):
        d = parse_decomposition(SHARED)
        assert plan_query(d, "ns, pid").leaf_shared
        assert not plan_query(parse_decomposition(COPIED), "ns, pid").leaf_shared

    def test_converging_plans_are_lookup_only_and_land_on_one_leaf(self):
        d = parse_decomposition(SHARED)
        plans = converging_plans(d, "ns, pid, state")
        assert len(plans) == 2
        (rec,) = d.shared_nodes()
        for plan in plans:
            assert plan.scan_count == 0
            assert plan.leaf_shared
            assert plan.path.leaf is rec  # The identity the join degenerates to.

    def test_converging_plans_require_the_full_bound_set(self):
        d = parse_decomposition(SHARED)
        assert converging_plans(d, "ns, pid") == []

    def test_converging_plans_yield_identical_results(self, scheduler_spec):
        from repro.decomposition import execute_plan

        relation = DecomposedRelation(scheduler_spec, SHARED)
        relation.insert(t(ns=1, pid=2, state="R", cpu=0))
        pattern = Tuple(ns=1, pid=2, state="R")
        results = [
            list(execute_plan(plan, relation.instance, pattern))
            for plan in converging_plans(relation.decomposition, pattern.columns)
        ]
        assert results[0] == results[1] == [t(ns=1, pid=2, state="R", cpu=0)]


class TestCompiledSharing:
    def test_compiled_unlink_is_constant_time(self, scheduler_spec):
        def remove_cost(layout, name, n):
            cls = compile_relation(scheduler_spec, layout, class_name=name)
            relation = cls()
            for pid in range(n):
                relation.insert(t(ns=0, pid=pid, state="R", cpu=0))
            with COUNTER as counter:
                relation.remove(Tuple(ns=0, pid=n - 1))
                return counter.accesses

        shared_small = remove_cost(SHARED, "CSharedS", 32)
        shared_large = remove_cost(SHARED, "CSharedL", 256)
        copied_small = remove_cost(COPIED, "CCopiedS", 32)
        copied_large = remove_cost(COPIED, "CCopiedL", 256)
        assert shared_large <= shared_small + 4
        assert copied_large >= 4 * copied_small
        assert shared_large < copied_large

    def test_compiled_well_formedness_checks_the_registry(self, scheduler_spec):
        cls = compile_relation(scheduler_spec, SHARED, class_name="CShWf")
        relation = cls()
        relation.insert(t(ns=1, pid=2, state="R", cpu=0))
        relation.check_well_formed()
        # Replace the state-branch entry with an equal-valued copy.
        relation._root[1]["R"][(1, 2)] = [0]
        with pytest.raises(WellFormednessError, match="sharing invariant"):
            relation.check_well_formed()

    def test_compiled_registry_tracks_rows(self, scheduler_spec):
        cls = compile_relation(scheduler_spec, SHARED, class_name="CShReg")
        relation = cls()
        relation.insert(t(ns=1, pid=2, state="R", cpu=0))
        relation._s0.clear()  # Simulate a stale registry.
        with pytest.raises(WellFormednessError, match="registry"):
            relation.check_well_formed()


class TestSharedDifferential:
    def test_differential_1000_ops_three_tiers(self, scheduler_spec):
        """FD-respecting sequences: reference vs interpreted vs compiled in
        lockstep on the shared scheduler layout, α checked after every op."""
        rng = random.Random(20110604)  # PLDI 2011 started June 4th.
        reference = ReferenceRelation(scheduler_spec)
        decomposed = DecomposedRelation(scheduler_spec, SHARED)
        compiled = compile_relation(scheduler_spec, SHARED, class_name="CShDiff")()
        tiers = (reference, decomposed, compiled)

        def apply_all(op):
            outcomes = []
            for relation in tiers:
                try:
                    op(relation)
                    outcomes.append(None)
                except FunctionalDependencyError as error:
                    outcomes.append(error)
            assert len({o is None for o in outcomes}) == 1, (
                f"tiers disagree on FD enforcement: {outcomes!r}"
            )

        for step in range(1000):
            roll = rng.random()
            if roll < 0.45:
                tup = random_full_tuple(rng)
                apply_all(lambda r: r.insert(tup))
            elif roll < 0.65:
                pattern = random_pattern(rng)
                apply_all(lambda r: r.remove(pattern))
            elif roll < 0.85:
                pattern = random_pattern(rng, max_columns=2)
                changes = random_pattern(rng, max_columns=2)
                apply_all(lambda r: r.update(pattern, changes))
            else:
                pattern = random_pattern(rng)
                output = rng.sample(COLUMNS, k=rng.randint(1, 4))
                expected = set(reference.query(pattern, output))
                assert set(decomposed.query(pattern, output)) == expected
                assert set(compiled.query(pattern, output)) == expected

            oracle = reference.to_relation()
            assert decomposed.to_relation() == oracle, f"interpreted diverged at {step}"
            assert compiled.to_relation() == oracle, f"compiled diverged at {step}"
            if step % 100 == 0 or step == 999:
                decomposed.check_well_formed()
                compiled.check_well_formed()
                assert oracle.satisfies(scheduler_spec.fds)

    def test_differential_1000_ops_fd_off_three_tiers(self, scheduler_spec):
        """FD-*violating* sequences with enforcement off: last-writer-wins
        eviction must flow through the shared records identically in every
        tier (the FD-off eviction path unlinks through shared nodes)."""
        rng = random.Random(20110608)  # PLDI 2011 ended June 8th.
        reference = ReferenceRelation(scheduler_spec, enforce_fds=False)
        decomposed = DecomposedRelation(scheduler_spec, SHARED, enforce_fds=False)
        compiled = compile_relation(scheduler_spec, SHARED, class_name="CShOff")(
            enforce_fds=False
        )
        tiers = (reference, decomposed, compiled)

        for step in range(1000):
            roll = rng.random()
            if roll < 0.5:
                tup = random_full_tuple(rng)
                for relation in tiers:
                    relation.insert(tup)
            elif roll < 0.65:
                pattern = random_pattern(rng)
                for relation in tiers:
                    relation.remove(pattern)
            elif roll < 0.85:
                pattern = random_pattern(rng, max_columns=2)
                changes = random_pattern(rng, max_columns=2)
                for relation in tiers:
                    relation.update(pattern, changes)
            else:
                pattern = random_pattern(rng)
                output = rng.sample(COLUMNS, k=rng.randint(1, 4))
                expected = set(reference.query(pattern, output))
                assert set(decomposed.query(pattern, output)) == expected
                assert set(compiled.query(pattern, output)) == expected

            oracle = reference.to_relation()
            assert decomposed.to_relation() == oracle, f"interpreted diverged at {step}"
            assert compiled.to_relation() == oracle, f"compiled diverged at {step}"
            if step % 100 == 0 or step == 999:
                decomposed.check_well_formed()
                compiled.check_well_formed()
                assert oracle.satisfies(scheduler_spec.fds)


class TestAutotunerSharing:
    def test_enumerator_emits_shared_candidates(self, scheduler_spec):
        candidates = enumerate_decompositions(
            scheduler_spec, [frozenset({"ns", "pid"}), frozenset({"state"})]
        )
        shared = [d for d in candidates if d.shared_nodes()]
        assert shared, "no shared-node candidates enumerated"
        with_ilist = [
            d
            for d in shared
            if any(e.structure == "ilist" for node in d.nodes() for e in node.edges)
        ]
        assert with_ilist, "no shared candidate proposes ilist"

    def test_ilist_only_proposed_into_shared_nodes(self, scheduler_spec):
        candidates = enumerate_decompositions(
            scheduler_spec, [frozenset({"ns", "pid"}), frozenset({"state"})]
        )
        for d in candidates:
            shared_ids = {id(node) for node in d.shared_nodes()}
            for node in d.nodes():
                for e in node.edges:
                    if e.structure == "ilist":
                        assert id(e.child) in shared_ids, d.describe()

    def test_shared_extras_respect_the_caller_structure_list(self, scheduler_spec):
        """A caller-supplied structure list is a hard allowlist: the
        shared-edge extras must not smuggle ilist past it."""
        candidates = enumerate_decompositions(
            scheduler_spec, [frozenset({"state"})], structures=["htable"]
        )
        used = {
            e.structure for d in candidates for node in d.nodes() for e in node.edges
        }
        assert used == {"htable"}
        # The default list allows ilist, so shared candidates do offer it.
        assert any(d.shared_nodes() for d in candidates)

    def test_ilist_matches_dlist_on_ordinary_edges(self, scheduler_spec):
        """The enumerator collapses ilist into dlist's cost class for
        non-shared edges; that is only sound if their replayed access
        counts actually coincide there — the O(1) unlink advantage must
        flow exclusively through the shared record-by-reference path."""
        ops = [("insert", t(ns=0, pid=pid, state="R", cpu=0)) for pid in range(20)]
        ops += [("remove", Tuple(ns=0, pid=pid)) for pid in reversed(range(20))]
        trace = Trace(scheduler_spec, ops)
        costs = {
            name: exact_accesses(
                trace, parse_decomposition(f"ns, pid -> {name} {{state, cpu}}")
            )
            for name in ("dlist", "ilist")
        }
        assert costs["dlist"] == costs["ilist"]

    def test_shared_layout_beats_copy_on_remove_heavy_trace(self, scheduler_spec):
        rng = random.Random(3)
        ops = [
            ("insert", t(ns=0, pid=pid, state="R", cpu=0)) for pid in range(40)
        ]
        for _ in range(200):
            pid = rng.randrange(40)
            ops.append(("remove", Tuple(ns=0, pid=pid)))
            ops.append(("insert", t(ns=0, pid=pid, state="R", cpu=0)))
        trace = Trace(scheduler_spec, ops)
        shared_cost = exact_accesses(trace, parse_decomposition(SHARED))
        copied_cost = exact_accesses(trace, parse_decomposition(COPIED))
        assert shared_cost < copied_cost
