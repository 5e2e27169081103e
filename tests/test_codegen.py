"""Unit tests for the code generator (repro.codegen)."""

import pytest

from repro.codegen import MAX_ENUMERATED_COLUMNS, compile_relation, generate_source, runtime
from repro.core import ReferenceRelation, RelationInterface, RelationSpec, t
from repro.core.errors import (
    AdequacyError,
    FaultInjected,
    FunctionalDependencyError,
    SpecificationError,
    TupleError,
)

SCHEDULER = (
    "[ns -> htable pid -> btree {state, cpu} ; state -> htable (ns, pid -> dlist {cpu})]"
)


@pytest.fixture
def compiled(scheduler_spec):
    cls = compile_relation(scheduler_spec, SCHEDULER, class_name="CompiledScheduler")
    rel = cls()
    rel.insert(t(ns=1, pid=1, state="R", cpu=0))
    rel.insert(t(ns=1, pid=2, state="S", cpu=1))
    rel.insert(t(ns=2, pid=1, state="R", cpu=1))
    return rel


class TestGeneratedSource:
    def test_source_is_standalone_python(self, scheduler_spec):
        source = generate_source(scheduler_spec, SCHEDULER, class_name="X")
        compile(source, "<generated>", "exec")  # Syntactically valid.
        assert "class X(CompiledRelation):" in source
        assert "_PLANS" in source

    def test_source_attached_to_class(self, scheduler_spec):
        cls = compile_relation(scheduler_spec, SCHEDULER)
        assert "def insert(self, tup):" in cls.__repro_source__
        assert cls.SPEC is scheduler_spec
        assert cls.DECOMPOSITION.describe()

    def test_no_interpretation_machinery_in_methods(self, scheduler_spec):
        """The generated class must not plan, project or walk edges at run
        time: no references to plan_query, Tuple.project or node.edges."""
        source = generate_source(scheduler_spec, SCHEDULER)
        assert "plan_query" not in source
        assert ".project(" not in source
        assert ".edges" not in source

    def test_dispatch_covers_every_pattern_subset(self, scheduler_spec):
        cls = compile_relation(scheduler_spec, SCHEDULER)
        import itertools

        columns = sorted(scheduler_spec.columns)
        masks = 0
        for size in range(len(columns) + 1):
            for combo in itertools.combinations(columns, size):
                method = getattr(cls, f"_q_{sum(1 << columns.index(c) for c in combo)}")
                assert callable(method)
                masks += 1
        assert masks == 2 ** len(columns)

    def test_inadequate_decomposition_is_rejected(self, scheduler_spec):
        with pytest.raises(AdequacyError):
            generate_source(scheduler_spec, "ns -> htable {pid, state, cpu}")


class TestCompiledOperations:
    def test_is_a_relation_interface(self, compiled):
        assert isinstance(compiled, RelationInterface)

    def test_insert_query_roundtrip(self, compiled):
        assert len(compiled) == 3
        assert compiled.query({"ns": 1, "pid": 1}, "state")[0]["state"] == "R"
        assert {r["pid"] for r in compiled.query({"state": "R"}, "pid")} == {1}

    def test_insert_is_idempotent(self, compiled):
        compiled.insert(t(ns=1, pid=1, state="R", cpu=0))
        assert len(compiled) == 3

    def test_insert_rejects_partial_tuple(self, compiled):
        with pytest.raises(TupleError):
            compiled.insert(t(ns=1, pid=9))

    def test_insert_accepts_plain_mappings(self, compiled):
        compiled.insert({"ns": 3, "pid": 3, "state": "W", "cpu": 0})
        assert compiled.contains({"ns": 3, "pid": 3})

    def test_insert_enforces_fds(self, compiled):
        with pytest.raises(FunctionalDependencyError):
            compiled.insert(t(ns=1, pid=1, state="Z", cpu=5))
        assert len(compiled) == 3

    def test_query_validates_columns(self, compiled):
        with pytest.raises(TupleError):
            compiled.query({"bogus": 1})
        with pytest.raises(SpecificationError):
            compiled.query(None, "bogus")

    def test_remove_by_secondary_pattern(self, compiled):
        compiled.remove({"state": "R"})
        assert len(compiled) == 1
        compiled.check_well_formed()

    def test_remove_everything(self, compiled):
        compiled.remove()
        assert len(compiled) == 0
        compiled.check_well_formed()

    def test_update_key_column_moves_tuples(self, compiled):
        compiled.update({"ns": 2, "pid": 1}, {"pid": 9})
        assert compiled.query({"ns": 2, "pid": 1}) == []
        assert compiled.query({"ns": 2, "pid": 9}, "state")[0]["state"] == "R"
        compiled.check_well_formed()

    def test_update_enforces_fds(self, compiled):
        with pytest.raises(FunctionalDependencyError):
            compiled.update({"ns": 1}, {"pid": 1})
        assert len(compiled) == 3
        compiled.check_well_formed()

    def test_matches_reference_on_a_small_script(self, compiled, scheduler_spec):
        reference = ReferenceRelation(scheduler_spec)
        for tup in compiled.scan():
            reference.insert(tup)
        for op in (
            lambda r: r.update({"state": "S"}, {"cpu": 3}),
            lambda r: r.remove({"ns": 1, "pid": 1}),
            lambda r: r.insert(t(ns=3, pid=3, state="W", cpu=2)),
        ):
            op(compiled)
            op(reference)
            assert compiled.to_relation() == reference.to_relation()


class TestSchemaShapes:
    def test_none_is_an_ordinary_stored_value(self):
        """None is a legal value (values.py), so it must be distinguishable
        from an absent entry — the compiled tier uses a _MISS sentinel."""
        spec = RelationSpec("k, v", fds=["k -> v"], name="kv")
        cls = compile_relation(spec, "k -> htable {v}")
        rel = cls()
        rel.insert(t(k=1, v=None))
        assert len(rel) == 1
        assert rel.query({"k": 1}) == [t(k=1, v=None)]
        rel.update({"k": 1}, {"v": None})  # No-op merge must not drop the row.
        assert len(rel) == 1
        rel.insert(t(k=2, v="x"))
        rel.update({"k": 2}, {"v": None})
        assert rel.query({"k": 2}, "v") == [t(v=None)]
        rel.check_well_formed()
        reference = ReferenceRelation(spec)
        reference.insert(t(k=1, v=None))
        reference.insert(t(k=2, v=None))
        assert rel.to_relation() == reference.to_relation()
        rel.remove({"v": None})
        assert len(rel) == 0
        rel.check_well_formed()

    def test_list_edge_over_map_child_indexes_new_entries(self):
        """A list-strategy edge whose child is a map node (or a shared cell)
        appends fresh entries and indexes them together, so the uncounted
        probes taken while the counter is off find them again instead of
        appending duplicates."""
        from repro.structures.base import COUNTER

        assert not COUNTER.enabled
        spec = RelationSpec("src, dst, weight", fds=["src, dst -> weight"], name="edge")
        for layout in (
            "dst -> dlist src -> avl {weight}",
            "[src, dst -> htable @w ; dst -> vector (src -> htable @w)] where @w = {weight}",
        ):
            rel = compile_relation(spec, layout)()
            reference = ReferenceRelation(spec)
            for r in (rel, reference):
                for src in range(3):
                    for dst in range(3):
                        r.insert(t(src=src, dst=dst, weight=src * dst))
                r.remove({"src": 1, "dst": 1})
            assert rel.to_relation() == reference.to_relation()
            assert set(rel.query({"dst": 2})) == set(reference.query({"dst": 2}))
            rel.check_well_formed()

    def test_list_unlink_rides_on_its_probe_and_keeps_order(self):
        """A list unlink charges nothing past the probe that found its entry
        and deletes in place, as the interpreted ``dlist`` unlinks: a
        compiled remove-all pays no more than the interpreted tier's, and a
        rolled-back remove puts the entry back where it was."""
        from repro.decomposition import DecomposedRelation
        from repro.faults import inject
        from repro.structures.base import COUNTER

        kv = RelationSpec("k, v, w", fds=["k -> v, w"], name="kv")
        spanning = RelationSpec("node, comp", fds=["node -> comp"], name="component")
        cases = (
            (kv, "k -> dlist {v, w}", [t(k=i, v=i % 3, w=-i) for i in range(50)]),
            (
                spanning,
                "[node -> htable {comp} ; comp -> htable (node -> dlist {})]",
                [t(node=i, comp=i % 7) for i in range(60)],
            ),
        )
        for spec, layout, rows in cases:
            counts = {}
            for tier in ("interpreted", "compiled"):
                if tier == "interpreted":
                    rel = DecomposedRelation(spec, layout)
                else:
                    rel = compile_relation(spec, layout)()
                for row in rows:
                    rel.insert(row)
                with COUNTER:
                    rel.remove(None)
                    counts[tier] = COUNTER.accesses
                assert len(rel) == 0
            assert counts["compiled"] <= counts["interpreted"], (layout, counts)

        rel = compile_relation(kv, "[k -> dlist {v, w} ; v -> htable k -> htable {w}]")()
        for i in range(6):
            rel.insert(t(k=i, v=i % 2, w=i))
        with inject("codegen.remove.unlink", 2):
            with pytest.raises(FaultInjected):
                rel.remove({"k": 2})
        assert [e[0] for e in rel._root[0]] == [0, 1, 2, 3, 4, 5]
        rel.remove({"k": 2})
        assert [e[0] for e in rel._root[0]] == [0, 1, 3, 4, 5]

    def test_list_unlinks_roll_back_in_order_wherever_the_fault_lands(self):
        """A remove of several rows journals one in-place list delete per
        row; a fault at any unlink after them re-inserts the deleted
        entries, latest first, each at the index it left."""
        from repro.faults import inject

        kv = RelationSpec("k, v, w", fds=["k -> v, w"], name="kv")
        cls = compile_relation(kv, "[k -> dlist {v, w} ; v -> htable k -> htable {w}]")
        hit = 0
        while True:
            hit += 1
            rel = cls()
            for i in range(6):
                rel.insert(t(k=i, v=i % 2, w=i))
            try:
                with inject("codegen.remove.unlink", hit):
                    rel.remove({"v": 0})
            except FaultInjected:
                assert [e[0] for e in rel._root[0]] == [0, 1, 2, 3, 4, 5], hit
                assert len(rel) == 6
                rel.check_well_formed()
                continue
            break
        # Each of the 3 rows unlinks from both branches; the last also
        # prunes its emptied ``v`` node.
        assert hit == 8
        assert [e[0] for e in rel._root[0]] == [1, 3, 5]

    def test_alias_layouts_share_one_compiled_class(self):
        spec = RelationSpec("k, v", fds=["k -> v"], name="kv")
        for alias, canonical in (("vector", "dlist"), ("btree", "avl")):
            assert compile_relation(spec, f"k -> {alias} {{v}}") is compile_relation(
                spec, f"k -> {canonical} {{v}}"
            )

    def test_single_column_spec(self):
        spec = RelationSpec("k", name="presence")
        cls = compile_relation(spec, "k -> htable {}")
        rel = cls()
        rel.insert(t(k=1))
        rel.insert(t(k=2))
        rel.insert(t(k=1))
        assert len(rel) == 2
        assert set(rel.query({"k": 1})) == {t(k=1)}
        rel.remove({"k": 1})
        assert rel.query() == [t(k=2)]
        rel.check_well_formed()

    def test_unit_root_decomposition(self):
        """A pure unit root: the relation holds at most one constant tuple."""
        from repro.decomposition import Decomposition, unit

        spec = RelationSpec("a, b", fds=["-> a, b"], name="constant")
        cls = compile_relation(spec, Decomposition(unit("a, b"), name="unitroot"))
        rel = cls()
        assert len(rel) == 0
        rel.insert(t(a=1, b=2))
        assert rel.query() == [t(a=1, b=2)]
        assert rel.query({"a": 1}, "b") == [t(b=2)]
        rel.check_well_formed()
        rel.remove({"a": 1})
        assert len(rel) == 0
        rel.check_well_formed()

    def test_wide_schema_uses_fallback_dispatch(self):
        """Schemas wider than MAX_ENUMERATED_COLUMNS dispatch unlisted
        patterns through the scanning fallback — correct, if unspecialised."""
        width = MAX_ENUMERATED_COLUMNS + 2
        cols = [f"c{i}" for i in range(width)]
        spec = RelationSpec(cols, fds=[f"c0 -> {', '.join(cols[1:])}"], name="wide")
        layout = "c0 -> htable {" + ", ".join(cols[1:]) + "}"
        cls = compile_relation(spec, layout)
        rel = cls()
        rows = [t(**{c: (i + j) % 5 for j, c in enumerate(cols)}) for i in range(20)]
        for row in rows:
            rel.insert(row)
        reference = ReferenceRelation(spec)
        for row in rows:
            reference.insert(row)
        # c0 is a key-prefix pattern: specialised.  (c3, c5) is not listed:
        # it must fall back to scan-and-filter with identical results.
        assert set(rel.query({"c0": 3})) == set(reference.query({"c0": 3}))
        pattern = {"c3": 1, "c5": 3}
        assert set(rel.query(pattern)) == set(reference.query(pattern))
        assert set(rel.query(pattern, "c0, c1")) == set(reference.query(pattern, "c0, c1"))


class TestBoundedInternMemos:
    """Churn (insert, read, remove) keeps every interning memo within
    ``runtime.INTERN_BOUND``: full-row reads, projected reads and range
    reads each fill one."""

    BOUND = 64

    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(runtime, "INTERN_BOUND", self.BOUND)

    def test_point_and_projected_reads(self, scheduler_spec):
        rel = compile_relation(scheduler_spec, "ns, pid -> htable {state, cpu}")()
        for i in range(5 * self.BOUND):
            row = t(ns=0, pid=1, state="run", cpu=i)
            rel.insert(row)
            assert rel.query({"ns": 0, "pid": 1}) == [row]
            assert rel.query({"ns": 0, "pid": 1}, "cpu") == [t(cpu=i)]
            rel.remove({"ns": 0, "pid": 1})
        assert len(rel._t_cache) <= self.BOUND
        assert max(len(entry[3]) for entry in rel._proj_cache.values()) <= self.BOUND

    def test_range_reads(self):
        spec = RelationSpec("ts, id, v", fds=["id -> ts, v"], name="event")
        rel = compile_relation(spec, "ts -> avl id -> htable {v}")()
        for i in range(5 * self.BOUND):
            row = t(ts=i % 5, id=i, v=i)
            rel.insert(row)
            assert rel.query_range("ts", 0, 5) == [row]
            rel.remove({"id": i})
        assert len(rel._t_cache) <= self.BOUND


def test_three_layouts_roundtrip(scheduler_spec):
    """The seeded layouts of the differential suite all compile and agree on
    a deterministic script (cheap smoke version of the 1000-op suite)."""
    from test_differential import DECOMPOSITIONS

    script = [
        t(ns=ns, pid=pid, state="RS"[pid % 2], cpu=pid % 2)
        for ns in range(3)
        for pid in range(4)
    ]
    relations = [
        compile_relation(scheduler_spec, layout)()
        for layout in DECOMPOSITIONS.values()
    ]
    for rel in relations:
        for tup in script:
            rel.insert(tup)
        rel.update({"state": "R"}, {"cpu": 1})
        rel.remove({"ns": 2})
        rel.check_well_formed()
    first = relations[0].to_relation()
    for rel in relations[1:]:
        assert rel.to_relation() == first
