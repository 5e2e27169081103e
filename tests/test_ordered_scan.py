"""Ordered range scans: ``items_range`` on ``avl`` and ``query_range`` tiers.

ROADMAP named ``avl`` range iteration as never exercised; these tests pin it
at every layer:

* the container itself — :meth:`AVLTreeMap.items_range` agrees with a
  filtered sorted scan, yields in key order, and touches O(log n + k)
  counted accesses (a bounded descent, not a full in-order walk);
* the generic fallback — every container answers ``items_range`` through
  the base class's filtered sort;
* the relation operation — ``query_range`` returns the identical ordered
  list on all three tiers (reference, interpreted, compiled), under a
  seeded differential interleaving range scans with mutations, on ordered
  and unordered layouts alike;
* the asymptotics — an ordered root index serves a narrow window cheaply
  where a hash-rooted layout pays a full scan, in the interpreted and the
  compiled tier both;
* equal numbers of different types (``0``, ``0.0``, ``False``) — one key
  on every tier, with fractional bounds ordered numerically;
* the compiled tier's range snapshot and its cache of result rows —
  repaired from the root keys whose rows writes touched, the log bounded,
  the snapshot equal to a full rebuild and every cached row equal to the
  stored rows after every range read, with faults injected into the
  writes; an unwritten key's cached rows are served as the same objects.
"""

import random

import pytest

from repro.codegen import compile_relation
from repro.core import ReferenceRelation, RelationSpec, Tuple
from repro.core.errors import FaultInjected, FunctionalDependencyError
from repro.core.interface import RelationInterface
from repro.core.values import value_sort_key
from repro.decomposition import DecomposedRelation
from repro.faults import FAULTS, fault_sites
from repro.structures import COUNTER
from repro.structures.avltree import AVLTreeMap
from repro.structures.htable import HashTableMap

SPEC = RelationSpec("ts, sensor, reading", fds=["ts -> sensor, reading"], name="event")

LAYOUTS = {
    "avl-root": "ts -> btree {sensor, reading}",
    "avl-deep": "ts -> btree sensor -> htable {reading}",
    "hash-root": "ts -> htable {sensor, reading}",
    "two-branch": (
        "[ts -> btree {sensor, reading} ; sensor -> htable (ts -> dlist {reading})]"
    ),
}

SENSORS = ["temp", "flow", "volt"]


def fill(container, n, rng):
    expected = {}
    for value in rng.sample(range(n * 3), n):
        key = Tuple(ts=value)
        container.insert(key, value * 10)
        expected[value] = value * 10
    return expected


class TestItemsRange:
    def test_agrees_with_filtered_sorted_scan(self):
        rng = random.Random(7)
        tree = AVLTreeMap()
        expected = fill(tree, 120, rng)
        lo, hi = Tuple(ts=50), Tuple(ts=200)
        got = list(tree.items_range(lo, hi))
        want = [
            (Tuple(ts=v), expected[v]) for v in sorted(expected) if 50 <= v <= 200
        ]
        assert got == want

    def test_open_bounds(self):
        rng = random.Random(8)
        tree = AVLTreeMap()
        expected = fill(tree, 60, rng)
        inorder = [(Tuple(ts=v), expected[v]) for v in sorted(expected)]
        assert list(tree.items_range()) == inorder
        assert list(tree.items_range(lo=Tuple(ts=90))) == [
            e for e in inorder if e[0]["ts"] >= 90
        ]
        assert list(tree.items_range(hi=Tuple(ts=90))) == [
            e for e in inorder if e[0]["ts"] <= 90
        ]

    def test_empty_window_and_empty_tree(self):
        tree = AVLTreeMap()
        assert list(tree.items_range(Tuple(ts=1), Tuple(ts=2))) == []
        fill(tree, 30, random.Random(9))
        assert list(tree.items_range(Tuple(ts=-5), Tuple(ts=-1))) == []

    def test_bounded_descent_accesses(self):
        """A narrow window touches O(log n + k) nodes, not all n."""
        tree = AVLTreeMap()
        fill(tree, 512, random.Random(10))
        with COUNTER:
            hits = list(tree.items_range(Tuple(ts=100), Tuple(ts=110)))
            accesses = COUNTER.accesses
        assert hits  # The window is non-trivial.
        # Bounded descent: two boundary paths (≤ tree height each, ~1.44 log2 n)
        # plus the in-range nodes — far below the 512 an in-order walk visits.
        assert accesses <= 2 * 15 + len(hits) + 5
        with COUNTER:
            list(tree.items())
            full_walk = COUNTER.accesses
        assert accesses < full_walk / 4

    def test_generic_fallback_on_unordered_container(self):
        rng = random.Random(11)
        table = HashTableMap()
        expected = fill(table, 80, rng)
        got = list(table.items_range(Tuple(ts=40), Tuple(ts=160)))
        want = [
            (Tuple(ts=v), expected[v]) for v in sorted(expected) if 40 <= v <= 160
        ]
        assert got == want


def build_tiers(layout, enforce_fds=True):
    return {
        "reference": ReferenceRelation(SPEC, enforce_fds=enforce_fds),
        "interpreted": DecomposedRelation(SPEC, layout, enforce_fds=enforce_fds),
        "compiled": compile_relation(SPEC, layout)(enforce_fds=enforce_fds),
    }


def apply_all(op, tiers):
    """Apply *op* to every tier; FD rejections must agree across tiers."""
    outcomes = {}
    for name, tier in tiers.items():
        try:
            op(tier)
            outcomes[name] = None
        except FunctionalDependencyError as error:
            outcomes[name] = error
    rejected = {name for name, error in outcomes.items() if error is not None}
    assert rejected in (set(), set(tiers)), (
        f"tiers disagree on FD enforcement: rejected by {sorted(rejected)} only"
    )


def random_event(rng):
    return Tuple(
        ts=rng.randrange(300), sensor=rng.choice(SENSORS), reading=rng.randrange(50)
    )


class TestQueryRangeDifferential:
    @pytest.mark.parametrize("enforce_fds", [True, False], ids=["fd-on", "fd-off"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_seeded_differential(self, layout, enforce_fds):
        """Range scans interleaved with mutations agree across all tiers.

        The reference tier's generic filtered scan is the oracle; the
        interpreted and compiled tiers must return the **identical ordered
        list** — not merely the same set — whether they serve the scan
        from an ordered root index or from the fallback.  FD-violating
        inserts must be rejected (or evicted) identically everywhere.
        """
        rng = random.Random(20110604)
        tiers = build_tiers(LAYOUTS[layout], enforce_fds=enforce_fds)
        for step in range(400):
            roll = rng.random()
            if roll < 0.45:
                event = random_event(rng)
                apply_all(lambda tier: tier.insert(event), tiers)
            elif roll < 0.6:
                pattern = Tuple(ts=rng.randrange(300))
                for tier in tiers.values():
                    tier.remove(pattern)
            elif roll < 0.75:
                pattern = Tuple(ts=rng.randrange(300))
                changes = Tuple(reading=rng.randrange(50))
                for tier in tiers.values():
                    tier.update(pattern, changes)
            else:
                lo = rng.randrange(300)
                hi = lo + rng.randrange(1, 60)
                expected = tiers["reference"].query_range("ts", lo, hi)
                for name, tier in tiers.items():
                    assert tier.query_range("ts", lo, hi) == expected, (
                        f"tier {name} diverged on range [{lo}, {hi}] at step {step}"
                    )
        # Final full-order agreement, both unbounded and one-sided.
        for bounds in [(), (150, None), (None, 150)]:
            lo, hi = bounds if bounds else (None, None)
            expected = tiers["reference"].query_range("ts", lo, hi)
            assert expected  # The run must have left data behind.
            for name, tier in tiers.items():
                assert tier.query_range("ts", lo, hi) == expected, name

    def test_secondary_column_falls_back_everywhere(self):
        tiers = build_tiers(LAYOUTS["avl-root"])
        rng = random.Random(5)
        for ts in rng.sample(range(200), 50):
            event = Tuple(
                ts=ts, sensor=rng.choice(SENSORS), reading=rng.randrange(50)
            )
            for tier in tiers.values():
                tier.insert(event)
        expected = tiers["reference"].query_range("reading", 10, 30)
        assert expected
        for name, tier in tiers.items():
            assert tier.query_range("reading", 10, 30) == expected, name

    def test_unknown_column_rejected_everywhere(self):
        from repro.core.errors import SpecificationError

        for tier in build_tiers(LAYOUTS["avl-root"]).values():
            with pytest.raises(SpecificationError):
                tier.query_range("nope", 0, 1)


class TestRangeFallback:
    """A compiled class with no ordered root scans value rows for a range
    read: the interface default's rows, order and charges, interning only
    the rows in range."""

    def filled(self):
        relation = compile_relation(SPEC, LAYOUTS["hash-root"])()
        for ts in range(72):
            relation.insert(Tuple(ts=ts, sensor=SENSORS[ts % 3], reading=ts % 50))
        return relation

    def test_interns_only_the_rows_in_range(self):
        relation = self.filled()
        rows = relation.query_range("ts", 10, 19)
        assert [row["ts"] for row in rows] == list(range(10, 20))
        assert len(relation._t_cache) == len(rows)

    @pytest.mark.parametrize(
        "column, lo, hi", [("ts", 10, 19), ("reading", 5, 9), ("sensor", None, None)]
    )
    def test_agrees_with_the_interface_default(self, column, lo, hi):
        relation = self.filled()
        with COUNTER:
            rows = relation.query_range(column, lo, hi)
            charged = COUNTER.accesses
        with COUNTER:
            assert rows == RelationInterface.query_range(relation, column, lo, hi)
            assert COUNTER.accesses == charged
        assert rows


class TestOrderedIndexAsymptotics:
    def populate(self, layout, n=256):
        relation = (
            DecomposedRelation(SPEC, layout)
            if isinstance(layout, str)
            else layout
        )
        rng = random.Random(13)
        stamps = list(range(n))
        rng.shuffle(stamps)
        for ts in stamps:
            relation.insert(
                Tuple(ts=ts, sensor=rng.choice(SENSORS), reading=rng.randrange(50))
            )
        return relation

    def measure(self, relation, lo, hi):
        with COUNTER:
            hits = relation.query_range("ts", lo, hi)
            return len(hits), COUNTER.accesses

    def test_interpreted_ordered_root_beats_hash_root(self):
        ordered = self.populate(LAYOUTS["avl-root"])
        hashed = self.populate(LAYOUTS["hash-root"])
        hits, ordered_accesses = self.measure(ordered, 100, 107)
        hash_hits, hash_accesses = self.measure(hashed, 100, 107)
        assert hits == hash_hits > 0
        # The ordered root serves the window by bounded descent; the hash
        # root filters a full scan of all 256 rows.
        assert hash_accesses >= 256
        assert ordered_accesses < hash_accesses / 4

    def test_compiled_ordered_root_beats_fallback(self):
        ordered = self.populate(compile_relation(SPEC, LAYOUTS["avl-root"])())
        hashed = self.populate(compile_relation(SPEC, LAYOUTS["hash-root"])())
        hits, ordered_accesses = self.measure(ordered, 100, 107)
        hash_hits, hash_accesses = self.measure(hashed, 100, 107)
        assert hits == hash_hits > 0
        assert ordered_accesses < hash_accesses / 4


class TestOrderedScanWorkload:
    def test_workload_replays_identically_across_tiers(self):
        """The benchmark's ordered_scan trace (range ops included) agrees."""
        import os
        import sys

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        from benchmarks.workloads import ordered_scan

        from repro.autotuner import replay_operations

        workload = ordered_scan(12)
        assert any(op[0] == "range" for op in workload.trace)
        tiers = {
            "reference": ReferenceRelation(workload.spec),
            "interpreted": DecomposedRelation(workload.spec, workload.layout),
            "compiled": compile_relation(workload.spec, workload.layout)(),
        }
        final = None
        for name, tier in tiers.items():
            replay_operations(tier, workload.trace)
            outcome = tier.to_relation()
            if final is None:
                final = outcome
            else:
                assert outcome == final, f"tier {name} diverged on ordered_scan"
        # And the ordered window agrees after the replay, too.
        expected = tiers["reference"].query_range("ts", 20, 80)
        for name, tier in tiers.items():
            assert tier.query_range("ts", 20, 80) == expected, name


#: Equal numbers of different types: ``0 == 0.0 == False`` and
#: ``1 == 1.0 == True`` are one key each, as in a dict or a set.
MIXED_KEYS = (0, 0.0, False, 1, 1.0, True, 2, 2.0, 3, 5)
MIXED_LAYOUTS = {
    "flat": ("ts -> avl {v}", ["ts -> v"]),
    "nested": ("ts -> avl v -> htable {}", []),
    "shared": ("[ts -> avl @rec ; ts -> htable @rec] where @rec = {v}", ["ts -> v"]),
}
MIXED_SEQUENCES, MIXED_STEPS = 300, 40


def mixed_tiers(layout):
    text, fds = MIXED_LAYOUTS[layout]
    spec = RelationSpec("ts, v", fds=fds, name="mixed")
    return {
        "reference": ReferenceRelation(spec),
        "interpreted": DecomposedRelation(spec, text),
        "compiled": compile_relation(spec, text)(),
    }


def snapshot_is_fresh(relation):
    """The compiled range snapshot equals a full rebuild from the ordered
    root container (the first branch's, under a branching root), and its
    row cache is aligned with it: every built entry holds the rows stored
    under its key, in order (one Tuple for a unit child, a tuple of Tuples
    otherwise)."""
    root = relation._root
    container = root if isinstance(root, dict) else root[0]
    if relation._rkeys != sorted(map(value_sort_key, container)):
        return False
    if len(relation._rrows) != len(relation._rord):
        return False
    stored = {}
    for row in relation.to_relation():
        stored.setdefault(row["ts"], []).append(row)
    for (_, key), cached in zip(relation._rord, relation._rrows):
        if cached is None:
            continue
        rows = [cached] if isinstance(cached, Tuple) else list(cached)
        if rows != sorted(stored[key], key=Tuple.sort_key):
            return False
    return True


def log_is_bounded(relation):
    """At most an eighth of the snapshot's keys, plus the one entry past
    that bound which tells the next range read the log overflowed."""
    return len(relation._rlog) <= (len(relation._rkeys) >> 3) + 1


def mixed_operation(rng):
    """One seeded insert, remove or update (ts- or v-changing) over
    MIXED_KEYS, or ``None`` for a range read."""
    roll = rng.random()
    if roll < 0.35:
        row = Tuple(ts=rng.choice(MIXED_KEYS), v=rng.choice(MIXED_KEYS))
        return lambda tier: tier.insert(row)
    if roll < 0.55:
        pattern = Tuple(ts=rng.choice(MIXED_KEYS))
        return lambda tier: tier.remove(pattern)
    if roll < 0.75:
        pattern = Tuple(ts=rng.choice(MIXED_KEYS))
        changes = Tuple({rng.choice(("ts", "v")): rng.choice(MIXED_KEYS)})
        return lambda tier: tier.update(pattern, changes)
    return None


def run_mixed(layout, seed, fault_share=0.0):
    """Drive one seeded sequence on all three tiers.  *fault_share* of the
    compiled tier's mutations first run with a random ``codegen.*`` fault
    armed; one that fires must roll back, and the disarmed retry follows.
    Rows compare by value (``Tuple`` equality), so which of two equal key
    objects a tier stores is not observable."""
    rng = random.Random(seed)
    sites = sorted(site for site in fault_sites() if site.startswith("codegen."))
    tiers = mixed_tiers(layout)
    compiled = tiers["compiled"]
    for step in range(MIXED_STEPS):
        op = mixed_operation(rng)
        if op is None:
            lo = rng.choice(MIXED_KEYS + (None, 1.5))
            hi = rng.choice(MIXED_KEYS + (None, 2.5))
            expected = tiers["reference"].query_range("ts", lo, hi)
            for name, tier in tiers.items():
                assert tier.query_range("ts", lo, hi) == expected, (
                    f"{name} diverged on [{lo!r}, {hi!r}] at step {step} of seed {seed}"
                )
            assert snapshot_is_fresh(compiled), f"stale snapshot at step {step} of seed {seed}"
            continue
        pending = tiers
        if rng.random() < fault_share:
            FAULTS.arm(rng.choice(sites))
            try:
                op(compiled)
            except (FaultInjected, FunctionalDependencyError):
                pass  # Rolled back or rejected: retried with the others.
            else:
                pending = {name: tier for name, tier in tiers.items() if tier is not compiled}
            finally:
                FAULTS.disarm()
        apply_all(op, pending)
        assert log_is_bounded(compiled)
    final = tiers["reference"].to_relation()
    for name, tier in tiers.items():
        assert tier.to_relation() == final, f"{name} final state, seed {seed}"
    compiled.check_well_formed()


class TestMixedNumericKeys:
    @pytest.mark.parametrize("layout", sorted(MIXED_LAYOUTS))
    def test_fractional_bounds_order_numerically(self, layout):
        tiers = mixed_tiers(layout)
        for ts in (0, 1, 2, 3, 5):
            apply_all(lambda tier: tier.insert(Tuple(ts=ts, v=ts)), tiers)
        for name, tier in tiers.items():
            assert [r["ts"] for r in tier.query_range("ts", 1.5, 3)] == [2, 3], name
            assert [r["ts"] for r in tier.query_range("ts", 0, 2.5)] == [0, 1, 2], name

    @pytest.mark.parametrize("layout", sorted(MIXED_LAYOUTS))
    def test_seeded_differential(self, layout):
        """Inserts, removes, updates and range reads over equal keys of
        different types agree on all three tiers."""
        for seed in range(MIXED_SEQUENCES):
            run_mixed(layout, seed)

    def test_nan_is_rejected_on_every_tier(self):
        """A float NaN equals no value, itself included: a row, pattern,
        change or range bound holding one raises on every tier and leaves
        the contents as they were."""
        nan = float("nan")
        operations = (
            lambda r: r.insert({"ts": nan, "v": 0}),
            lambda r: r.query({"ts": nan}),
            lambda r: r.remove({"v": nan}),
            lambda r: r.update({"ts": nan}, {"v": 1}),
            lambda r: r.update({"ts": 1}, {"v": nan}),
            lambda r: r.query_range("ts", nan, 3),
            lambda r: r.query_range("ts", None, nan),
            lambda r: r.query_range("v", nan),
        )
        for layout in sorted(MIXED_LAYOUTS):
            tiers = mixed_tiers(layout)
            apply_all(lambda tier: tier.insert({"ts": 1, "v": 2}), tiers)
            for name, tier in tiers.items():
                before = tier.to_relation()
                for operation in operations:
                    with pytest.raises(ValueError, match="NaN"):
                        operation(tier)
                    assert tier.to_relation() == before, (layout, name)


class TestRangeSnapshotKeyLog:
    @pytest.mark.parametrize("layout", sorted(MIXED_LAYOUTS))
    def test_repair_under_faults_matches_rebuild(self, layout):
        """With a codegen fault armed on about 30% of mutations, every range
        read agrees with the reference and leaves the snapshot equal to a
        full rebuild from the live root container."""
        for seed in range(MIXED_SEQUENCES):
            run_mixed(layout, 1000 + seed, fault_share=0.3)

    def fill(self, rows=64):
        tiers = build_tiers(LAYOUTS["avl-root"])
        del tiers["interpreted"]
        for ts in range(rows):
            apply_all(lambda tier: tier.insert(Tuple(ts=ts, sensor="temp", reading=ts)), tiers)
        tiers["compiled"].query_range("ts")
        assert tiers["compiled"]._rlog == set()
        return tiers

    def test_log_is_bounded_then_switches_to_rebuild(self):
        tiers = self.fill()
        compiled = tiers["compiled"]
        bound = len(compiled._rkeys) >> 3
        for ts in range(bound):
            apply_all(lambda tier: tier.remove(Tuple(ts=ts)), tiers)
        assert compiled._rlog == set(range(bound))
        for ts in range(bound, 3 * bound):
            apply_all(lambda tier: tier.remove(Tuple(ts=ts)), tiers)
            assert len(compiled._rlog) == bound + 1
        snapshot = compiled._rord
        reference = tiers["reference"]
        for lo, hi in [(None, None), (0, 20), (10, 30)]:
            assert compiled.query_range("ts", lo, hi) == reference.query_range("ts", lo, hi)
        assert compiled._rord is not snapshot, "a log past the bound rebuilds"
        assert compiled._rlog == set() and snapshot_is_fresh(compiled)

    def test_overflowed_log_falls_back_to_the_net_change(self):
        """Churning more distinct keys than the bound overflows the log,
        but the key set's net change is one key: the read diffs the key
        set against the snapshot and repairs it in place, no rebuild."""
        tiers = self.fill()
        compiled = tiers["compiled"]
        bound = len(compiled._rkeys) >> 3
        for ts in range(3 * bound):
            apply_all(lambda tier: tier.remove(Tuple(ts=ts)), tiers)
            apply_all(lambda tier: tier.insert(Tuple(ts=ts, sensor="flow", reading=0)), tiers)
        apply_all(lambda tier: tier.remove(Tuple(ts=60)), tiers)
        assert len(compiled._rlog) == bound + 1
        snapshot = compiled._rord
        assert compiled.query_range("ts") == tiers["reference"].query_range("ts")
        assert compiled._rord is snapshot and snapshot_is_fresh(compiled)

    def test_logged_repair_serves_the_next_read(self):
        tiers = self.fill()
        compiled = tiers["compiled"]
        apply_all(lambda tier: tier.remove(Tuple(ts=5)), tiers)
        apply_all(lambda tier: tier.insert(Tuple(ts=100, sensor="flow", reading=1)), tiers)
        assert compiled._rlog == {5, 100}
        snapshot = compiled._rord
        assert compiled.query_range("ts", 4, 100) == tiers["reference"].query_range("ts", 4, 100)
        assert compiled._rord is snapshot, "a short log repairs in place"
        assert compiled._rlog == set() and snapshot_is_fresh(compiled)

    def test_same_key_churn_logs_the_key_once(self):
        """Removing and re-inserting one key more often than the bound
        leaves one logged key, repaired in place."""
        tiers = self.fill()
        compiled = tiers["compiled"]
        for reading in range(3 * (len(compiled._rkeys) >> 3)):
            apply_all(lambda tier: tier.remove(Tuple(ts=7)), tiers)
            apply_all(lambda tier: tier.insert(Tuple(ts=7, sensor="volt", reading=reading)), tiers)
        assert compiled._rlog == {7}
        snapshot = compiled._rord
        assert compiled.query_range("ts", 6, 8) == tiers["reference"].query_range("ts", 6, 8)
        assert compiled._rord is snapshot and snapshot_is_fresh(compiled)

    def assert_rebuilds_only(self, tiers, key):
        """*key* alone is logged; the next full read matches the reference,
        repairs the snapshot in place and rebuilds *key*'s cached rows
        only, every other entry being the same object as before."""
        compiled = tiers["compiled"]
        assert compiled._rlog == {key}
        snapshot, before = compiled._rord, dict(zip(compiled._rord, compiled._rrows))
        assert compiled.query_range("ts") == tiers["reference"].query_range("ts")
        assert compiled._rord is snapshot, "a short log repairs in place"
        assert snapshot_is_fresh(compiled)
        for entry, rows in zip(compiled._rord, compiled._rrows):
            if entry[1] == key:
                assert rows is not before[entry], "the written key's rows are rebuilt"
            else:
                assert rows is before[entry], f"rows of unwritten key {entry[1]!r} rebuilt"

    def test_writes_that_keep_the_root_key_log_it(self):
        """A residual-only update, and an insert or remove under a root key
        that stays present, keep the root key set but change that key's
        rows: each logs the key, and the next read rebuilds its rows."""
        tiers = self.fill()
        apply_all(lambda tier: tier.update(Tuple(ts=3), Tuple(reading=99)), tiers)
        self.assert_rebuilds_only(tiers, 3)
        tiers = mixed_tiers("nested")
        compiled = tiers["compiled"]
        for ts in range(16):  # An eighth of 16 keys: a log of 2 keys fits.
            apply_all(lambda tier: tier.insert(Tuple(ts=ts, v=ts)), tiers)
        compiled.query_range("ts")
        apply_all(lambda tier: tier.insert(Tuple(ts=1, v=20)), tiers)
        self.assert_rebuilds_only(tiers, 1)
        apply_all(lambda tier: tier.remove(Tuple(ts=1, v=1)), tiers)
        self.assert_rebuilds_only(tiers, 1)
        apply_all(lambda tier: tier.remove(Tuple(ts=1, v=20)), tiers)
        assert compiled._rlog == {1}
        expected = tiers["reference"].query_range("ts")
        assert [row["ts"] for row in expected] == [0] + list(range(2, 16))
        for name, tier in tiers.items():
            assert tier.query_range("ts") == expected, name

    @pytest.mark.parametrize("layout", sorted(MIXED_LAYOUTS))
    def test_reads_without_writes_return_the_same_rows(self, layout):
        tiers = mixed_tiers(layout)
        for ts in (0, 1, 2, 3, 5):
            apply_all(lambda tier: tier.insert(Tuple(ts=ts, v=ts)), tiers)
            apply_all(lambda tier: tier.insert(Tuple(ts=ts, v=ts + 1)), tiers)
        compiled = tiers["compiled"]
        first = compiled.query_range("ts", 1, 3)
        second = compiled.query_range("ts", 1, 3)
        assert first == tiers["reference"].query_range("ts", 1, 3)
        assert first is not second, "each read returns its own list"
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second)), "cached rows are served"

    def test_overflowed_log_drops_every_cached_row(self):
        """Residual-only updates to more keys than the bound overflow the
        log, after which writers log no row changes; the key set is
        unchanged, so the read repairs the snapshot in place but must
        rebuild every key's rows."""
        tiers = self.fill()
        compiled = tiers["compiled"]
        bound = len(compiled._rkeys) >> 3
        for ts in range(3 * bound):
            apply_all(lambda tier: tier.update(Tuple(ts=ts), Tuple(reading=-ts)), tiers)
        assert len(compiled._rlog) == bound + 1
        snapshot = compiled._rord
        assert compiled.query_range("ts") == tiers["reference"].query_range("ts")
        assert compiled._rord is snapshot and snapshot_is_fresh(compiled)
