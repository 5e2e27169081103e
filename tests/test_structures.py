"""The AssociativeContainer contract, checked for every registered container."""

import pytest

from repro.codegen import compile_relation
from repro.core import RelationSpec, t
from repro.core.errors import DecompositionError, FaultInjected
from repro.decomposition import DecomposedRelation
from repro.faults import FAULTS, inject
from repro.structures import (
    COUNTER,
    MISSING,
    STRUCTURE_REGISTRY,
    AVLTreeMap,
    DListMap,
    default_structure_names,
    get_structure,
    register_structure,
    structure_cost,
    structure_names,
)

ALL_NAMES = sorted(STRUCTURE_REGISTRY)


@pytest.fixture(params=ALL_NAMES)
def container(request):
    return STRUCTURE_REGISTRY[request.param]()


KEYS = [t(k=i) for i in range(8)]


class TestContract:
    def test_insert_lookup_roundtrip(self, container):
        for i, key in enumerate(KEYS):
            container.insert(key, f"v{i}")
        for i, key in enumerate(KEYS):
            assert container.lookup(key) == f"v{i}"
        assert len(container) == len(KEYS)

    def test_lookup_missing(self, container):
        assert container.lookup(t(k=99)) is MISSING
        assert container.get(t(k=99), "default") == "default"

    def test_insert_overwrites(self, container):
        container.insert(t(k=0), "old")
        container.insert(t(k=0), "new")
        assert container.lookup(t(k=0)) == "new"
        assert len(container) == 1

    def test_remove(self, container):
        container.insert(t(k=0), "a")
        container.insert(t(k=1), "b")
        assert container.remove(t(k=0)) is True
        assert container.remove(t(k=0)) is False
        assert container.lookup(t(k=0)) is MISSING
        assert container.lookup(t(k=1)) == "b"
        assert len(container) == 1

    def test_items_cover_all_entries(self, container):
        expected = {}
        for i, key in enumerate(KEYS):
            container.insert(key, i)
            expected[key] = i
        assert dict(container.items()) == expected
        assert set(container.keys()) == set(expected)
        assert sorted(container.values()) == sorted(expected.values())

    def test_contains_and_bool(self, container):
        assert not container
        container.insert(t(k=1), "x")
        assert container
        assert t(k=1) in container
        assert t(k=2) not in container
        assert "not-a-tuple" not in container

    def test_clear(self, container):
        for key in KEYS:
            container.insert(key, "x")
        container.clear()
        assert len(container) == 0 and container.is_empty()

    def test_remove_value(self, container):
        value = object()
        container.insert(t(k=1), value)
        assert container.remove_value(t(k=1), value) is True
        assert len(container) == 0

    def test_non_integer_keys(self, container):
        container.insert(t(name="alpha"), 1)
        container.insert(t(name="beta"), 2)
        assert container.lookup(t(name="alpha")) == 1
        assert container.remove(t(name="beta")) is True

    def test_cost_model_positive_and_monotone(self, container):
        cls = type(container)
        small, large = cls.estimate_accesses(4), cls.estimate_accesses(4096)
        assert small >= 1.0
        assert large >= small
        assert cls.scan_cost(100) >= 1.0


#: Every instrumented (container, operation) pair: one named fault site each.
FAULT_OPS = [(name, op) for name in ALL_NAMES for op in STRUCTURE_REGISTRY[name].FAULT_OPS]


@pytest.mark.parametrize("name, op", FAULT_OPS, ids=[f"{n}.{o}" for n, o in FAULT_OPS])
def test_each_operation_checks_its_own_fault_site_first(name, op):
    """Each site the registry names for a container fires, under that
    container's own name, before the operation changes anything.  An
    operation inherited from another container (``ilist`` derives from
    ``dlist``) would check the parent's site instead, leaving its own dead."""
    container = STRUCTURE_REGISTRY[name]()
    value = object()
    container.insert(t(k=1), value)
    container.insert(t(k=2), "b")
    before = list(container.items())
    calls = {
        "insert": lambda: container.insert(t(k=3), "c"),
        "insert_unique": lambda: container.insert_unique(t(k=3), "c"),
        "lookup": lambda: container.lookup(t(k=1)),
        "remove": lambda: container.remove(t(k=1)),
        "remove_value": lambda: container.remove_value(t(k=1), value),
    }
    site = f"structures.{name}.{op}"
    FAULTS.reset_stats()
    with inject(site):
        with pytest.raises(FaultInjected):
            calls[op]()
    assert FAULTS.fired_sites() == [site]
    assert list(container.items()) == before
    calls[op]()  # the one-shot plan disarmed itself


class TestStructureSpecifics:
    def test_avl_invariants_after_churn(self):
        tree = AVLTreeMap()
        for i in range(64):
            tree.insert(t(k=i), i)
            assert tree.check_invariants()
        for i in range(0, 64, 2):
            tree.remove(t(k=i))
            assert tree.check_invariants()
        assert len(tree) == 32

    def test_btree_iterates_in_key_order(self):
        tree = AVLTreeMap()
        for i in [5, 3, 8, 1, 9, 2]:
            tree.insert(t(k=i), i)
        assert [k["k"] for k, _ in tree.items()] == [1, 2, 3, 5, 8, 9]

    def test_htable_charges_one_access_per_probe(self):
        """Hit or miss, every probe costs one access, growth costs nothing,
        and a scan costs one access per entry in insertion order: the
        charges of the compiled tier's ``hash`` lowering."""
        table = get_structure("htable")()
        keys = [t(k=i) for i in range(100, 0, -1)]

        def charged(action):
            with COUNTER as counter:
                action()
                return counter.accesses

        for key in keys:
            assert charged(lambda: table.insert(key, key["k"])) == 1
        assert charged(lambda: table.insert(keys[0], 0)) == 1  # overwrite
        assert charged(lambda: table.lookup(keys[1])) == 1
        assert charged(lambda: table.lookup(t(k=999))) == 1
        assert charged(lambda: table.remove(keys[2])) == 1
        assert charged(lambda: table.remove(t(k=999))) == 1
        with COUNTER as counter:
            scanned = [key for key, _ in table.items()]
        assert scanned == keys[:2] + keys[3:]
        assert counter.accesses == len(scanned) == len(table)

    @pytest.mark.parametrize("layout", ["k -> htable {v, w}", "k -> htable v -> htable {w}"])
    def test_htable_layouts_charge_alike_on_both_tiers(self, layout):
        spec = RelationSpec("k, v, w", fds=["k -> v, w"], name="kvw")
        tiers = [DecomposedRelation(spec, layout), compile_relation(spec, layout)()]
        for relation in tiers:
            for i in range(50):
                relation.insert(t(k=i, v=i % 7, w=i))
        operations = {
            "key hit": lambda r: r.query(t(k=7)),
            "key miss": lambda r: r.query(t(k=99)),
            "{v} query": lambda r: r.query(t(v=3)),
            "full scan": lambda r: r.query(t()),
            "residual update": lambda r: r.update(t(k=7), t(w=-1)),
        }
        for name, operation in operations.items():
            counts = []
            for relation in tiers:
                with COUNTER as counter:
                    operation(relation)
                    counts.append(counter.accesses)
            assert counts[0] == counts[1] > 0, name
        assert tiers[0].to_relation() == tiers[1].to_relation()

    def test_counter_sees_linear_vs_constant_lookup(self):
        dlist = get_structure("dlist")()
        htable = get_structure("htable")()
        for i in range(64):
            dlist.insert(t(k=i), i)
            htable.insert(t(k=i), i)
        with COUNTER as c:
            dlist.lookup(t(k=63))
            linear = c.accesses
        with COUNTER as c:
            htable.lookup(t(k=63))
            constant = c.accesses
        assert linear > 8 * constant


class TestRegistry:
    def test_structure_names_match_registry(self):
        assert structure_names() == sorted(STRUCTURE_REGISTRY)

    def test_get_structure_unknown(self):
        with pytest.raises(DecompositionError, match="unknown data structure"):
            get_structure("splaytree")

    def test_default_names_are_validated_and_registered(self):
        names = default_structure_names()
        assert names
        for name in names:
            assert name in STRUCTURE_REGISTRY

    def test_default_names_fail_loudly_when_renamed(self, monkeypatch):
        # Simulate a rename (avl -> avltree): the default list must now
        # fail at call time instead of surfacing later as an unknown
        # structure deep inside decomposition construction.
        monkeypatch.delitem(STRUCTURE_REGISTRY, "avl")
        with pytest.raises(DecompositionError, match="default structure names"):
            default_structure_names()

    def test_register_rejects_duplicate_names(self):
        class Impostor(AVLTreeMap):
            NAME = "avl"

        with pytest.raises(DecompositionError, match="already registered"):
            register_structure(Impostor)

    def test_register_rejects_alias_collisions(self):
        class Impostor(AVLTreeMap):
            NAME = "btree"

        with pytest.raises(DecompositionError, match="already registered as an alias"):
            register_structure(Impostor)

    @pytest.mark.parametrize(
        "alias, canonical, cls",
        [("btree", "avl", AVLTreeMap), ("vector", "dlist", DListMap)],
        ids=["btree", "vector"],
    )
    def test_btree_alias_resolves_to_avl(self, alias, canonical, cls):
        from repro.structures.registry import canonical_structure_name

        assert cls.NAME == canonical
        assert get_structure(alias) is cls
        assert get_structure(canonical) is cls
        assert canonical_structure_name(alias) == canonical
        assert canonical_structure_name(canonical) == canonical
        assert canonical in STRUCTURE_REGISTRY and alias not in STRUCTURE_REGISTRY
        # Decomposition strings written with either name keep parsing, and
        # the autotuner counts them as one candidate shape.
        from repro.decomposition import parse_decomposition

        parsed = [
            parse_decomposition(f"ns, pid -> {name} {{state, cpu}}") for name in (alias, canonical)
        ]
        for d in parsed:
            assert d.root.edges[0].structure_class() is cls
        assert parsed[0].canonical_shape() == parsed[1].canonical_shape()

    def test_register_requires_name(self):
        from repro.structures import AssociativeContainer

        class Nameless(AssociativeContainer):  # pragma: no cover - never instantiated
            def insert(self, key, value):
                raise NotImplementedError

            def lookup(self, key):
                raise NotImplementedError

            def remove(self, key):
                raise NotImplementedError

            def items(self):
                raise NotImplementedError

            def __len__(self):
                return 0

        with pytest.raises(DecompositionError, match="must define a NAME"):
            register_structure(Nameless)

    def test_structure_cost_hook(self):
        assert structure_cost("htable", 1000) == 1.0
        assert structure_cost("dlist", 1000) > 100
        assert structure_cost("btree", 1024, "scan") >= 1024
        with pytest.raises(DecompositionError, match="unknown cost operation"):
            structure_cost("htable", 10, "sort")
