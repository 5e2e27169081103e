"""Randomized differential testing: DecomposedRelation vs ReferenceRelation.

The paper's soundness theorem (Theorem 5) says that running any sequence of
relational operations against an instance of an adequate, well-formed
decomposition yields — through the abstraction function α — exactly the
relation the specification-level reference implementation holds.  These
tests check the dynamic counterpart: ~1000 seeded random operations are
applied to both implementations in lockstep, asserting after **every**
operation that

* ``α(instance)`` equals the reference relation,
* query results agree (as sets) for random patterns and outputs,
* FD-violating operations raise :class:`FunctionalDependencyError` on both
  sides and leave both states untouched,

and, periodically, that the instance stays well-formed (Figure 5) and that
α always satisfies the specification's FDs.
"""

import random

import pytest

from repro.codegen import compile_relation
from repro.core import ReferenceRelation, RelationSpec, Tuple
from repro.core.errors import FunctionalDependencyError
from repro.decomposition import DecomposedRelation, parse_decomposition

#: Two structurally distinct adequate decompositions of the scheduler spec
#: (acceptance criterion: both must survive the 1000-op differential run).
DECOMPOSITIONS = {
    "flat-htable": "ns, pid -> htable {state, cpu}",
    "scheduler-indexes": (
        "[ns -> htable pid -> btree {state, cpu}"
        " ; state -> htable (ns, pid -> dlist {cpu})]"
    ),
    "all-bound": "ns, pid -> btree (state, cpu -> dlist {})",
}

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


def apply_both(op, reference, decomposed):
    """Apply *op* to both implementations; FD rejections must agree."""
    ref_error = dec_error = None
    try:
        op(reference)
    except FunctionalDependencyError as error:
        ref_error = error
    try:
        op(decomposed)
    except FunctionalDependencyError as error:
        dec_error = error
    assert (ref_error is None) == (dec_error is None), (
        f"implementations disagree on FD enforcement: "
        f"reference={ref_error!r}, decomposed={dec_error!r}"
    )


@pytest.mark.parametrize("layout", sorted(DECOMPOSITIONS))
def test_differential_1000_ops(layout, scheduler_spec):
    rng = random.Random(20110604)  # PLDI 2011 started June 4th.
    decomposition = parse_decomposition(DECOMPOSITIONS[layout], name=layout)
    reference = ReferenceRelation(scheduler_spec)
    decomposed = DecomposedRelation(scheduler_spec, decomposition)

    operations = 0
    for step in range(1000):
        roll = rng.random()
        if roll < 0.45:
            tup = random_full_tuple(rng)
            apply_both(lambda r: r.insert(tup), reference, decomposed)
        elif roll < 0.65:
            pattern = random_pattern(rng)
            apply_both(lambda r: r.remove(pattern), reference, decomposed)
        elif roll < 0.85:
            pattern = random_pattern(rng, max_columns=2)
            changes = random_pattern(rng, max_columns=2)
            apply_both(lambda r: r.update(pattern, changes), reference, decomposed)
        else:
            pattern = random_pattern(rng)
            output = rng.sample(COLUMNS, k=rng.randint(1, 4))
            assert set(decomposed.query(pattern, output)) == set(
                reference.query(pattern, output)
            )
        operations += 1

        # The soundness property, after every single operation.
        alpha = decomposed.to_relation()
        assert alpha == reference.to_relation(), (
            f"[{layout}] α diverged from the reference after step {step}"
        )
        if step % 100 == 0 or step == 999:
            decomposed.check_well_formed()
            assert alpha.satisfies(scheduler_spec.fds)

    assert operations == 1000


@pytest.mark.parametrize("layout", sorted(DECOMPOSITIONS))
def test_differential_1000_ops_fd_off_three_tiers(layout, scheduler_spec):
    """FD-*violating* op sequences agree across all three tiers.

    With ``enforce_fds=False`` every tier resolves FD conflicts
    last-writer-wins (see RelationInterface): the reference evicts
    conflicting tuples before adding, matching the structural behaviour of
    the decomposed and compiled tiers — including on layouts with no unit
    residual (``all-bound``), where the eviction cannot come from unit
    bindings.  This test fails on the pre-fix code, where the reference
    kept both conflicting tuples.
    """
    rng = random.Random(20110608)  # PLDI 2011 ended June 8th.
    decomposition = parse_decomposition(DECOMPOSITIONS[layout], name=layout)
    reference = ReferenceRelation(scheduler_spec, enforce_fds=False)
    decomposed = DecomposedRelation(scheduler_spec, decomposition, enforce_fds=False)
    compiled = compile_relation(scheduler_spec, decomposition)(enforce_fds=False)
    tiers = (reference, decomposed, compiled)

    for step in range(1000):
        roll = rng.random()
        if roll < 0.5:
            # Unrestricted inserts: FD conflicts are frequent on these
            # tiny domains and must resolve identically everywhere.
            tup = random_full_tuple(rng)
            for relation in tiers:
                relation.insert(tup)
        elif roll < 0.65:
            pattern = random_pattern(rng)
            for relation in tiers:
                relation.remove(pattern)
        elif roll < 0.85:
            # Unrestricted bulk updates: merged tuples may collide with
            # each other and with untouched tuples.
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
        assert decomposed.to_relation() == oracle, (
            f"[{layout}] interpreted tier diverged from the reference at step {step}"
        )
        assert compiled.to_relation() == oracle, (
            f"[{layout}] compiled tier diverged from the reference at step {step}"
        )
        if step % 100 == 0 or step == 999:
            decomposed.check_well_formed()
            compiled.check_well_formed()
            # Lemma 4: a representation only holds FD-satisfying relations,
            # and with the eviction semantics so does the oracle.
            assert oracle.satisfies(scheduler_spec.fds)


#: Split-across-branch layouts (the §4 join-plan PR): the primary branch
#: covers every column; the secondaries are key projections, so queries
#: binding their key columns are answered by cross-branch join plans.
GRAPH_SPEC = RelationSpec("src, dst, weight", fds=["src, dst -> weight"], name="edge")
SPLIT_DECOMPOSITIONS = {
    "split-secondary": (
        "[src -> htable (dst -> htable {weight}) ; dst -> htable (src -> htable {})]"
    ),
    "split-two-partials": (
        "[src, dst -> htable {weight}"
        " ; dst -> htable (src -> dlist {})"
        " ; src -> htable (dst -> dlist {})]"
    ),
}
GRAPH_DOMAINS = {"src": [0, 1, 2, 3, 4], "dst": [0, 1, 2, 3, 4], "weight": [0, 1, 2]}
GRAPH_COLUMNS = ("src", "dst", "weight")


def random_graph_tuple(rng: random.Random) -> Tuple:
    return Tuple({c: rng.choice(GRAPH_DOMAINS[c]) for c in GRAPH_COLUMNS})


def random_graph_pattern(rng: random.Random, max_columns: int = 2) -> Tuple:
    # Heavily weight the split patterns ({src} / {dst}) that force
    # cross-branch planning on the layouts above.
    roll = rng.random()
    if roll < 0.35:
        chosen = [rng.choice(["src", "dst"])]
    elif roll < 0.5:
        chosen = ["src", "dst"]
    else:
        chosen = rng.sample(GRAPH_COLUMNS, k=rng.randint(0, max_columns))
    return Tuple({c: rng.choice(GRAPH_DOMAINS[c]) for c in chosen})


def _join_capable_compiled(layout: str, enforce_fds: bool):
    """Compile *layout* with size estimates that put cross-branch join
    plans into the compile-time dispatch table (wide roots, thin second
    levels), so the differential exercises the compiled join lowering."""
    from repro.decomposition import parse_decomposition

    decomposition = parse_decomposition(SPLIT_DECOMPOSITIONS[layout], name=layout)
    root_edges = set(map(id, decomposition.root.edges))
    sizes = {
        e: 64.0 if id(e) in root_edges else 2.0
        for node in decomposition.nodes()
        for e in node.edges
    }
    cls = compile_relation(GRAPH_SPEC, decomposition, sizes=sizes)
    assert "join[" in cls.__repro_source__  # The differential must cover join code.
    return cls(enforce_fds=enforce_fds)


@pytest.mark.parametrize("layout", sorted(SPLIT_DECOMPOSITIONS))
@pytest.mark.parametrize("enforce_fds", [True, False], ids=["fd-on", "fd-off"])
def test_differential_1000_ops_split_patterns_three_tiers(layout, enforce_fds):
    """Split-across-branch queries agree across all three tiers.

    The op mix leans on patterns ({src} / {dst}) that only a key-projection
    branch indexes, so the interpreted tier plans cross-branch joins with
    live sizes and the compiled tier runs its join-bearing dispatch table —
    both FD-on (rejections must agree) and FD-off (evictions must agree).
    """
    rng = random.Random(20110606)
    decomposition = SPLIT_DECOMPOSITIONS[layout]
    reference = ReferenceRelation(GRAPH_SPEC, enforce_fds=enforce_fds)
    decomposed = DecomposedRelation(GRAPH_SPEC, decomposition, enforce_fds=enforce_fds)
    compiled = _join_capable_compiled(layout, enforce_fds)
    tiers = (reference, decomposed, compiled)

    for step in range(1000):
        roll = rng.random()
        if roll < 0.4:
            tup = random_graph_tuple(rng)
            if enforce_fds:
                errors = []
                for relation in tiers:
                    try:
                        relation.insert(tup)
                        errors.append(None)
                    except FunctionalDependencyError as error:
                        errors.append(error)
                assert len({e is None for e in errors}) == 1, (
                    f"[{layout}] tiers disagree on FD enforcement at step {step}: {errors}"
                )
            else:
                for relation in tiers:
                    relation.insert(tup)
        elif roll < 0.55:
            pattern = random_graph_pattern(rng)
            for relation in tiers:
                relation.remove(pattern)
        elif roll < 0.7:
            pattern = random_graph_pattern(rng)
            changes = Tuple(weight=rng.choice(GRAPH_DOMAINS["weight"]))
            for relation in tiers:
                relation.update(pattern, changes)
        else:
            pattern = random_graph_pattern(rng)
            output = rng.sample(GRAPH_COLUMNS, k=rng.randint(1, 3))
            expected = set(reference.query(pattern, output))
            assert set(decomposed.query(pattern, output)) == expected, (
                f"[{layout}] interpreted query diverged at step {step}"
            )
            assert set(compiled.query(pattern, output)) == expected, (
                f"[{layout}] compiled query diverged at step {step}"
            )

        oracle = reference.to_relation()
        assert decomposed.to_relation() == oracle, (
            f"[{layout}] interpreted tier diverged at step {step}"
        )
        assert compiled.to_relation() == oracle, (
            f"[{layout}] compiled tier diverged at step {step}"
        )
        if step % 100 == 0 or step == 999:
            decomposed.check_well_formed()
            compiled.check_well_formed()
            assert oracle.satisfies(GRAPH_SPEC.fds)


@pytest.mark.parametrize("layout", sorted(DECOMPOSITIONS))
def test_differential_without_fd_enforcement(layout, scheduler_spec):
    """FD-respecting op sequences agree even with enforcement turned off."""
    rng = random.Random(7)
    decomposed = DecomposedRelation(
        scheduler_spec, DECOMPOSITIONS[layout], enforce_fds=False
    )
    reference = ReferenceRelation(scheduler_spec, enforce_fds=False)
    live = {}
    for _ in range(300):
        if live and rng.random() < 0.3:
            key = rng.choice(sorted(live))
            del live[key]
            pattern = Tuple({"ns": key[0], "pid": key[1]})
            reference.remove(pattern)
            decomposed.remove(pattern)
        else:
            ns, pid = rng.choice(NS_DOMAIN), rng.choice(PID_DOMAIN)
            residual = (rng.choice(STATE_DOMAIN), rng.choice(CPU_DOMAIN))
            if (ns, pid) in live:
                # Replace via remove+insert so the sequence stays FD-respecting.
                reference.remove(Tuple({"ns": ns, "pid": pid}))
                decomposed.remove(Tuple({"ns": ns, "pid": pid}))
            live[(ns, pid)] = residual
            tup = Tuple({"ns": ns, "pid": pid, "state": residual[0], "cpu": residual[1]})
            reference.insert(tup)
            decomposed.insert(tup)
        assert decomposed.to_relation() == reference.to_relation()
    decomposed.check_well_formed()
    assert len(reference) == len(live)
