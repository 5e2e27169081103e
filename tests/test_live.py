"""Tests for ``repro.live``: the LiveRelation facade, the sampler, the
re-tune loop, α-migration (synchronous and dual-write), and the unified
``repro.open`` factory.

The headline property is the ISSUE-6 acceptance differential: a seeded
1000-operation drifting workload driven through ``repro.open(spec,
live=True)`` triggers an automatic re-tune, hot-swaps the compiled backing
class, and the facade's contents match a ``ReferenceRelation`` mirror after
every single operation — FD-on and FD-off.
"""

import gc
import math
import random
import threading
import weakref

import pytest

import repro
import repro.live as live_module
from repro import (
    LiveRelation,
    ReferenceRelation,
    RelationInterface,
    RelationSpec,
    RetunePolicy,
    SamplingTraceRecorder,
    Trace,
    TraceRecorder,
    compile_relation,
    open_relation,
    parse_decomposition,
    t,
)
from repro.autotuner.enumerator import canonical_shape
from repro.codegen import clear_codegen_cache, codegen_cache_stats
from repro.core.errors import FunctionalDependencyError, LiveRelationError
from repro.core.tuples import Tuple
from repro.decomposition import DecomposedRelation
from repro.live import default_layout
from repro.structures.base import COUNTER

EDGE_SPEC = RelationSpec("src, dst, weight", fds=["src, dst -> weight"], name="edge")
FORWARD_LAYOUT = "src -> htable (dst -> htable {weight})"


def drifting_workload(n_ops=1000, seed=7, fd_off=False):
    """A seeded workload whose query mix flips from {src} to {dst} mid-run.

    With ``fd_off``, re-inserts of an existing (src, dst) pair carry a fresh
    weight, exercising last-writer-wins eviction across the hot-swap.
    """
    rng = random.Random(seed)
    ops = []
    for i in range(n_ops):
        phase_forward = i < n_ops // 2
        roll = rng.random()
        if roll < 0.3:
            s, d = rng.randrange(12), rng.randrange(12)
            weight = rng.randrange(1000) if fd_off else s * 100 + d
            ops.append(("insert", t(src=s, dst=d, weight=weight)))
        elif roll < 0.35:
            ops.append(("remove", t(src=rng.randrange(12), dst=rng.randrange(12))))
        elif roll < 0.4:
            ops.append(
                ("update", t(src=rng.randrange(12), dst=rng.randrange(12)),
                 t(weight=rng.randrange(1000)))
            )
        elif phase_forward:
            ops.append(("query", t(src=rng.randrange(12)), None))
        else:
            ops.append(("query", t(dst=rng.randrange(12)), None))
    return ops


def apply_op(relation, op):
    kind = op[0]
    if kind == "insert":
        relation.insert(op[1])
    elif kind == "remove":
        relation.remove(op[1])
    elif kind == "update":
        relation.update(op[1], op[2])
    else:
        return relation.query(op[1], op[2])


# -- the sampler -----------------------------------------------------------------


class TestSamplingTraceRecorder:
    def test_bounded_and_ordered(self):
        sampler = SamplingTraceRecorder(capacity=8, window=16)
        for i in range(500):
            sampler.observe(("insert", t(src=i, dst=i, weight=i)))
        sampled = sampler.sampled_operations()
        assert len(sampled) == 8  # never exceeds capacity
        indices = [op[1]["src"] for op in sampled]
        assert indices == sorted(indices)  # arrival order restored

    def test_tail_is_exactly_the_latest_operations(self):
        # The re-tune trace's tail is the last `capacity` operations, in
        # arrival order: the mix that fired a re-tune, undiluted by history.
        sampler = SamplingTraceRecorder(capacity=16, window=16)
        ops = [("insert", t(src=i, dst=0, weight=0)) for i in range(5000)]
        for count, op in enumerate(ops, 1):
            sampler.observe(op)
            if count in (1, 15, 16, 17, 5000):
                assert sampler.sampled_operations() == ops[max(0, count - 16):count]

    def test_drift_is_total_variation(self):
        sampler = SamplingTraceRecorder(capacity=8, window=100)
        assert math.isinf(sampler.drift())  # no baseline yet
        for _ in range(100):
            sampler.observe(("query", t(src=1), None))
        sampler.rebase()
        assert sampler.drift() == 0.0
        for _ in range(50):
            sampler.observe(("query", t(dst=1), None))
        # Window now 50/50 {src}/{dst} vs baseline 100% {src}: TV = 0.5.
        assert sampler.drift() == pytest.approx(0.5)

    def test_determinism(self):
        ops = drifting_workload(200)
        a = SamplingTraceRecorder()
        b = SamplingTraceRecorder()
        for op in ops:
            a.observe(op)
            b.observe(op)
        assert a.sampled_operations() == b.sampled_operations()
        assert a.recent_mix() == b.recent_mix()

    def test_rejects_bad_parameters(self):
        with pytest.raises(LiveRelationError):
            SamplingTraceRecorder(capacity=0)
        with pytest.raises(LiveRelationError):
            SamplingTraceRecorder(window=0)


# -- the drift check's skip ------------------------------------------------------


class CountingSampler(SamplingTraceRecorder):
    """Counts the drift recomputations its checks make."""

    recomputed = 0

    def drift(self):
        self.recomputed += 1
        return super().drift()


class RecomputingSampler(SamplingTraceRecorder):
    """A sampler whose drift check recomputes at every call (no skip)."""

    def drift_at_least(self, threshold):
        drift = self.drift()
        return drift if drift >= threshold else None


SRC_QUERY = ("query", t(src=1), None)
DST_QUERY = ("query", t(dst=1), None)
WEIGHT_QUERY = ("query", t(weight=1), None)
WEIGHT_RANGE = ("range", "weight", 0, 1)
INSERT = ("insert", t(src=1, dst=1, weight=1))


def mixed(rng, weights):
    """One operation drawn from *weights*: ``[(op, share), ...]``."""
    roll = rng.random()
    for op, share in weights:
        if roll < share:
            return op
        roll -= share
    return weights[-1][0]


class TestDriftSkip:
    """``drift_at_least`` must answer exactly as ``drift() >= threshold``
    at every operation, however long it skips the recomputation."""

    @pytest.mark.parametrize("window", [8, 64, 512])
    @pytest.mark.parametrize("threshold", [0.05, 0.25, 0.5])
    def test_matches_brute_force_at_every_operation(self, window, threshold):
        rng = random.Random(window * 1000 + int(threshold * 100))
        sampler = CountingSampler(capacity=8, window=window)
        forward = [(SRC_QUERY, 0.6), (INSERT, 0.3), (DST_QUERY, 0.1)]
        reverse = [(DST_QUERY, 0.7), (INSERT, 0.2), (SRC_QUERY, 0.1)]
        # (operations, mix, threshold, rebase first?): rebase while the
        # window still fills, drift away, rebase on a full window, then flip
        # to keys the baseline never saw — each such operation moves the
        # drift by exactly 1/window — once under a threshold lowered
        # mid-skip and once after another rebase.  A steady stretch ends
        # in a rebase that lands mid-skip.
        phases = [
            (window // 2, forward, threshold, False),
            (0, forward, threshold, True),
            (2 * window, forward, threshold, False),
            (2 * window, reverse, threshold, False),
            (window, reverse, threshold, True),
            (window, [(WEIGHT_QUERY, 1.0)], threshold / 2, False),
            (window, [(WEIGHT_RANGE, 1.0)], threshold, True),
            (window, forward, threshold, True),
            (window, forward, threshold, True),
            (0, forward, threshold, True),
        ]
        crossings = 0
        for length, mix, theta, rebase in phases:
            if rebase:
                sampler.rebase()
                before = sampler.recomputed
                sampler.drift_at_least(theta)
                assert sampler.recomputed == before + 1, "a skip survived rebase()"
            for _ in range(length):
                sampler.observe(mixed(rng, mix))
                got = sampler.drift_at_least(theta)
                want = SamplingTraceRecorder.drift(sampler)
                if want >= theta:
                    crossings += 1
                    assert got == want, (sampler.seen, got, want)
                else:
                    assert got is None, (sampler.seen, got, want)
        assert crossings  # the stream does cross

    def test_a_new_threshold_ends_the_skip(self):
        sampler = SamplingTraceRecorder(window=64)
        for _ in range(64):
            sampler.observe(SRC_QUERY)
        sampler.rebase()
        assert sampler.drift_at_least(0.5) is None  # skips the next 31 ops
        for _ in range(4):
            sampler.observe(DST_QUERY)
        assert sampler.drift_at_least(0.5) is None
        assert sampler.drift_at_least(0.0625) == sampler.drift() == 0.0625

    def test_infinite_threshold_is_never_reached(self):
        sampler = SamplingTraceRecorder(window=8)
        assert sampler.drift_at_least(math.inf) == math.inf  # no baseline yet
        sampler.rebase()
        for _ in range(40):
            sampler.observe(DST_QUERY)
            assert sampler.drift_at_least(math.inf) is None


# -- the acceptance differential --------------------------------------------------


@pytest.mark.parametrize("enforce_fds", [True, False], ids=["fd-on", "fd-off"])
def test_drift_differential_across_hot_swap(enforce_fds):
    """Contents match the oracle after every op of a seeded 1000-op
    drifting run, across automatic re-tune + hot-swap (ISSUE 6 acceptance)."""
    live = open_relation(
        EDGE_SPEC,
        FORWARD_LAYOUT,
        live=True,
        enforce_fds=enforce_fds,
        policy={"min_ops": 150, "drift_threshold": 0.25},
        sampler=SamplingTraceRecorder(),
    )
    mirror = ReferenceRelation(EDGE_SPEC, enforce_fds=enforce_fds)
    initial_backing = type(live.backing)
    for op in drifting_workload(1000, fd_off=not enforce_fds):
        try:
            expected = apply_op(mirror, op)
        except Exception as exc:  # FD violation: both tiers must refuse alike
            with pytest.raises(type(exc)):
                apply_op(live, op)
            continue
        got = apply_op(live, op)
        if op[0] == "query":
            assert sorted(got, key=Tuple.sort_key) == sorted(expected, key=Tuple.sort_key)
        assert live.to_relation() == mirror.to_relation()
    # The drift must actually have re-tuned and swapped the compiled class.
    assert live.generation >= 1
    assert any(r.swapped for r in live.retunes)
    assert type(live.backing) is not initial_backing
    assert type(live.backing).__mro__  # a compiled class, still a real type
    assert isinstance(live.backing, RelationInterface)
    live.check_well_formed()


def test_automatic_retune_flips_to_reverse_layout():
    """The drifted tail ({dst} queries) must pull in a dst-keyed layout."""
    live = open_relation(
        EDGE_SPEC,
        FORWARD_LAYOUT,
        live=True,
        policy={"min_ops": 150, "drift_threshold": 0.25},
        sampler=SamplingTraceRecorder(),
    )
    for op in drifting_workload(1000):
        try:
            apply_op(live, op)
        except FunctionalDependencyError:
            pass  # updates make some later re-inserts conflict; not under test
    assert live.generation >= 1
    layout = live.backing_layout()
    assert "dst -> htable" in layout


# -- explicit retune + migration --------------------------------------------------


class TestRetune:
    def make_live(self, **policy):
        policy.setdefault("auto", False)
        live = open_relation(EDGE_SPEC, FORWARD_LAYOUT, live=True, policy=policy)
        for i in range(40):
            s, d = divmod(i, 8)
            live.insert(t(src=s, dst=d, weight=i))
        return live

    def test_noop_when_layout_already_optimal(self):
        live = self.make_live()
        for _ in range(200):
            live.query(t(src=3), None)
        report = live.retune()
        assert not report.swapped
        assert live.generation == 0
        assert report.new_layout == report.old_layout
        assert report.tuning is not None  # the autotuner did run

    def test_swap_preserves_contents_and_counts_migrated_rows(self):
        live = self.make_live()
        for _ in range(200):
            live.query(t(dst=3), None)
        before = live.to_relation()
        report = live.retune()
        assert report.swapped
        assert report.migrated == len(before.tuples)
        assert live.to_relation() == before
        assert live.generation == 1
        assert report.generation == 1

    def test_retune_resets_drift_baseline(self):
        live = self.make_live()
        for _ in range(100):
            live.query(t(dst=3), None)
        live.retune()
        assert live.sampler.drift() == 0.0
        assert live.live_stats()["ops_since_tune"] == 0

    def test_dual_write_window_with_concurrent_mutations(self):
        live = self.make_live(migrate_batch=3)
        for _ in range(100):
            live.query(t(dst=3), None)
        report = live.retune(dual_write=True)
        assert not report.swapped  # window still open
        assert live.live_stats()["migration_open"]
        mirror = ReferenceRelation(EDGE_SPEC)
        for tup in live.to_relation().tuples:
            mirror.insert(tup)
        # Mutations land while rows are still being copied: each observed
        # operation pumps migrate_batch more rows across.
        mutations = [
            ("insert", t(src=9, dst=9, weight=999)),
            ("remove", t(src=0, dst=0)),
            ("update", t(src=0, dst=1), t(weight=-5)),
            ("insert", t(src=9, dst=8, weight=998)),
            ("remove", t(src=1)),
        ]
        for op in mutations:
            apply_op(live, op)
            apply_op(mirror, op)
            assert live.to_relation() == mirror.to_relation()
        # A range read mid-window is served by the old backing, not mirrored.
        assert live.live_stats()["migration_open"]
        assert live.query_range("weight", 0, 500) == mirror.query_range("weight", 0, 500)
        live.finish_migration()
        assert report.swapped
        assert report.dual_write
        assert live.generation == 1
        assert live.to_relation() == mirror.to_relation()
        live.check_well_formed()

    def test_retune_refused_while_window_open(self):
        live = self.make_live(migrate_batch=1)
        for _ in range(60):
            live.query(t(dst=3), None)
        live.retune(dual_write=True)
        with pytest.raises(LiveRelationError):
            live.retune()
        live.finish_migration()
        live.retune()  # fine again once drained

    def test_guard_skips_a_winner_that_cannot_pay_for_the_migration(self, monkeypatch):
        """A winner that beats the current layout by one access cannot pay
        for migrating every row: the guard keeps the current layout, and a
        skip is not a failure.  The search is real but its exact counts are
        pinned, so the winner's margin is exactly one access."""
        real_autotune = live_module.autotune
        forward = canonical_shape(parse_decomposition(FORWARD_LAYOUT))

        def marginal_autotune(*args, **kwargs):
            tuning = real_autotune(*args, **kwargs)
            replayed = tuning.replayed
            current = next(c for c in replayed if canonical_shape(c.decomposition) == forward)
            winner = next(c for c in replayed if c is not current)
            winner.accesses = current.accesses - 1
            replayed.remove(winner)
            replayed.insert(0, winner)
            tuning.winner = winner
            return tuning

        monkeypatch.setattr(live_module, "autotune", marginal_autotune)
        live = self.make_live(min_ops=1)
        for _ in range(100):
            live.query(t(dst=3), None)
        before = live.to_relation()
        report = live.retune()
        assert not report.swapped
        assert live.generation == 0
        assert report.new_layout == report.old_layout
        assert report.guard["skipped"]
        assert report.guard["projected_savings"] < report.guard["migration_cost"]
        assert live.to_relation() == before
        stats = live.live_stats()
        assert stats["guard_skips"] == 1
        assert stats["last_guard"] is report.guard
        assert report.error is None
        assert stats["failures"] == stats["consecutive_failures"] == 0
        assert stats["backoff_ops"] == 0
        assert stats["last_error"] is None
        assert not stats["quarantined"]

    def test_dual_write_threshold_routes_large_instances(self, monkeypatch):
        monkeypatch.setattr(live_module, "DUAL_WRITE_THRESHOLD", 10)  # 40 rows >= 10
        live = self.make_live()
        for _ in range(100):
            live.query(t(dst=3), None)
        report = live.retune()  # dual_write not forced: policy decides
        live.finish_migration()
        assert report.dual_write
        assert report.swapped


# -- the control loop's cost, and what a report keeps -----------------------------


def report_record(report):
    return (
        report.op_index,
        report.reason,
        report.drift,
        report.swapped,
        report.migrated,
        report.new_layout,
        report.guard,
    )


@pytest.mark.parametrize("enforce_fds", [True, False], ids=["fd-on", "fd-off"])
def test_drift_skip_changes_no_decision(enforce_fds):
    """The 1,000-op drifting run re-tunes identically whether the drift
    check skips or recomputes at every operation."""
    runs = []
    for sampler_class in (SamplingTraceRecorder, RecomputingSampler):
        live = open_relation(
            EDGE_SPEC,
            FORWARD_LAYOUT,
            live=True,
            enforce_fds=enforce_fds,
            policy={"min_ops": 150, "drift_threshold": 0.25},
            sampler=sampler_class(),
        )
        for op in drifting_workload(1000, fd_off=not enforce_fds):
            try:
                apply_op(live, op)
            except FunctionalDependencyError:
                pass  # refused alike in both runs
        runs.append([report_record(r) for r in live.retunes])
    assert runs[0] == runs[1]
    assert any(record[1].startswith("mix drift") for record in runs[0])


def graph_relation(rng, **open_args):
    """A live relation holding a 96-edge graph: 48 nodes, out-degree 2."""
    live = open_relation(EDGE_SPEC, FORWARD_LAYOUT, live=True, **open_args)
    for src in range(48):
        for dst in rng.sample(range(48), 2):
            live.insert(t(src=src, dst=dst, weight=rng.randrange(100)))
    return live


def test_steady_stream_rarely_recomputes_the_drift():
    """After the warm-up tune, a steady mix recomputes the drift on a small
    share of operations instead of on every one."""
    rng = random.Random(2)
    sampler = CountingSampler()
    live = graph_relation(rng, sampler=sampler)

    def step():
        if rng.random() < 0.8:
            live.query(t(src=rng.randrange(48)), "dst, weight")
        else:
            live.update(t(src=rng.randrange(48)), t(weight=rng.randrange(100)))

    while not live.retunes:
        step()  # the warm-up tune
    before = sampler.recomputed
    for _ in range(5000):
        step()
    assert len(live.retunes) == 1
    assert sampler.recomputed - before < 250  # under 5% of the operations


def test_report_keeps_only_the_replayed_candidates(monkeypatch):
    """A re-tune report keeps the replayed candidates, not every layout the
    search scored: the rest are freed once the attempt ends."""
    refs = []
    real_autotune = live_module.autotune

    def watched(*args, **kwargs):
        tuning = real_autotune(*args, **kwargs)
        replayed = {id(c) for c in tuning.replayed}
        refs.extend((weakref.ref(c.decomposition), id(c) in replayed) for c in tuning.candidates)
        return tuning

    monkeypatch.setattr(live_module, "autotune", watched)
    rng = random.Random(3)
    live = graph_relation(rng, policy={"auto": False})
    for _ in range(200):
        live.query(t(dst=rng.randrange(48)), "src, weight")
    report = live.retune()
    gc.collect()
    tuning = report.tuning
    assert tuning is not None and len(tuning.trace) > len(live)
    assert len(refs) > len(tuning.replayed)
    assert all(replayed for ref, replayed in refs if ref() is not None)
    replayed = {id(c) for c in tuning.replayed}
    assert {id(c) for c in tuning.candidates} == replayed
    assert id(tuning.winner) in replayed
    assert {id(c) for c in tuning.pareto} <= replayed
    assert tuning.describe().startswith(
        f"spec 'edge': {len(refs)} candidates enumerated, {len(tuning.replayed)} replayed"
    )


def test_background_search_counts_none_of_the_callers_operations(monkeypatch):
    """A background re-tune scores its candidates as a synchronous search of
    the same trace does, although the caller keeps operating on the backing
    while the search replays: only the thread that entered the counter
    charges it.  The search parks mid-replay, with its counter on, while
    the caller runs its queries."""
    calls = []
    real_autotune = live_module.autotune

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return real_autotune(*args, **kwargs)

    caller = threading.get_ident()
    parked, resume = threading.Event(), threading.Event()
    real_insert = DecomposedRelation.insert

    def parking_insert(self, tup):
        if threading.get_ident() != caller and not parked.is_set():
            parked.set()
            resume.wait(10)
        return real_insert(self, tup)

    monkeypatch.setattr(live_module, "autotune", recorded)
    monkeypatch.setattr(DecomposedRelation, "insert", parking_insert)
    rng = random.Random(4)
    live = graph_relation(rng, policy={"auto": False, "background": True})
    for _ in range(200):
        live.query(t(dst=rng.randrange(48)), "src, weight")
    report = live.retune()
    try:
        assert report.pending and parked.wait(10)
        assert COUNTER.enabled
        for _ in range(500):
            live.query(t(src=rng.randrange(48)), "dst, weight")
    finally:
        resume.set()
    assert live.finish_retune() is report and report.error is None
    [(args, kwargs)] = calls
    synchronous = real_autotune(*args, **kwargs)
    assert [(c.layout, c.accesses) for c in report.tuning.replayed] == [
        (c.layout, c.accesses) for c in synchronous.replayed
    ]


# -- the facade contract -----------------------------------------------------------


def test_range_reads_reach_the_backing_and_are_sampled_as_ranges():
    spec = RelationSpec("ts, id, v", fds=["id -> ts, v"], name="event")
    layout = "ts -> avl id -> htable {v}"
    # A tail as long as the stream keeps every operation.
    live = open_relation(
        spec, layout, live=True, policy={"auto": False},
        sampler=SamplingTraceRecorder(capacity=4096),
    )
    compiled = compile_relation(spec, layout)()
    for i in range(2000):
        row = t(ts=i % 500, id=i, v=i % 7)
        live.insert(row)
        compiled.insert(row)
    served = []
    for relation in (compiled, live):
        with COUNTER as counter:
            rows = relation.query_range("ts", 10, 12)
        served.append((rows, counter.accesses))
    assert served[0] == served[1]
    assert len(served[0][0]) == 12
    assert live.sampler.sampled_operations()[-1] == ("range", "ts", 10, 12)
    assert ("range", "ts") in live.sampler.recent_mix()
    trace = live._retune_trace()
    assert trace.operations[-1] == ("range", "ts", 10, 12)
    trace.replay(ReferenceRelation(spec))


class TestFacadeContract:
    def test_inspection_is_not_sampled(self):
        live = open_relation(EDGE_SPEC, FORWARD_LAYOUT, live=True, policy={"auto": False})
        live.insert(t(src=1, dst=2, weight=3))
        seen = live.sampler.seen
        len(live), list(live), (t(src=1, dst=2, weight=3) in live)
        live.to_relation()
        assert live.sampler.seen == seen

    def test_wraps_any_tier(self):
        for backing in (
            ReferenceRelation(EDGE_SPEC),
            DecomposedRelation(EDGE_SPEC, FORWARD_LAYOUT),
            compile_relation(EDGE_SPEC, parse_decomposition(FORWARD_LAYOUT))(),
        ):
            live = LiveRelation(backing, policy={"auto": False})
            live.insert(t(src=1, dst=2, weight=3))
            assert len(live) == 1
            # Compiled classes reconstruct their spec literally in the
            # generated module, so compare by value, not identity.
            assert live.spec == EDGE_SPEC

    def test_rejects_backing_without_spec(self):
        with pytest.raises(LiveRelationError):
            LiveRelation(object())

    def test_policy_coercion(self):
        assert RetunePolicy.coerce(None).auto
        policy = RetunePolicy(auto=False)
        assert RetunePolicy.coerce(policy) is policy
        assert RetunePolicy.coerce({"min_ops": 7}).min_ops == 7
        with pytest.raises(LiveRelationError):
            RetunePolicy.coerce("eager")
        with pytest.raises(LiveRelationError):
            RetunePolicy(min_ops=0)
        with pytest.raises(LiveRelationError):
            RetunePolicy(drift_threshold=0.0)

    def test_unknown_policy_fields_name_the_valid_ones(self):
        valid = "auto, min_ops, drift_threshold, migrate_batch, background, retune_timeout"
        # A typo, and a field the fixed failure policy replaced.
        for bad, field in (({"min_op": 5}, "min_op"), ({"guard": False}, "guard")):
            with pytest.raises(LiveRelationError) as excinfo:
                repro.open(EDGE_SPEC, live=True, policy=bad)
            message = str(excinfo.value)
            assert f"unknown tune policy field(s) {field};" in message
            assert message.endswith(f"valid fields: {valid}")


# -- the unified factory -----------------------------------------------------------


class TestOpenFactory:
    def test_tiers(self):
        layout = FORWARD_LAYOUT
        ref = repro.open(EDGE_SPEC, layout, tier="reference")
        interp = repro.open(EDGE_SPEC, layout, tier="interpreted")
        compiled = repro.open(EDGE_SPEC, layout, tier="compiled")
        auto = repro.open(EDGE_SPEC, layout)
        assert isinstance(ref, ReferenceRelation)
        assert isinstance(interp, DecomposedRelation)
        assert type(compiled).__name__.startswith("Compiled")
        assert type(auto) is type(compiled)  # auto == compiled, same cache entry
        for r in (ref, interp, compiled):
            assert isinstance(r, RelationInterface)

    def test_default_layout_is_adequate_everywhere(self):
        for spec in (
            EDGE_SPEC,
            RelationSpec("ns, pid, state, cpu", fds=["ns, pid -> state, cpu"]),
            RelationSpec("a, b"),  # no FDs: the key is the full column set
        ):
            layout = default_layout(spec)
            r = repro.open(spec, tier="interpreted")
            assert parse_decomposition(layout) is not None
            row = {c: 1 for c in spec.columns}
            r.insert(t(**row))
            assert len(r) == 1

    def test_tune_runs_the_autotuner(self):
        trace = Trace(EDGE_SPEC, name="tuned")
        for i in range(30):
            s, d = divmod(i, 6)
            trace.record("insert", t(src=s, dst=d, weight=i))
        for _ in range(120):
            trace.record("query", t(dst=3), None)
        r = repro.open(EDGE_SPEC, tune=trace)
        assert "dst -> htable" in type(r).DECOMPOSITION.describe()

    def test_tune_with_layout_includes_it_as_baseline(self):
        trace = Trace(EDGE_SPEC, name="tuned")
        for i in range(10):
            trace.record("insert", t(src=i, dst=i, weight=i))
        r = repro.open(EDGE_SPEC, FORWARD_LAYOUT, tune=trace, tier="interpreted")
        assert isinstance(r, DecomposedRelation)

    def test_enforce_fds_propagates(self):
        for tier in ("reference", "interpreted", "compiled"):
            r = repro.open(EDGE_SPEC, FORWARD_LAYOUT, tier=tier, enforce_fds=False)
            r.insert(t(src=1, dst=2, weight=3))
            r.insert(t(src=1, dst=2, weight=4))  # evicts, does not raise
            assert r.count(t(src=1, dst=2)) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(LiveRelationError):
            repro.open(EDGE_SPEC, tier="warp")
        with pytest.raises(LiveRelationError):
            repro.open(EDGE_SPEC, tune=Trace(EDGE_SPEC), sizes={})

    def test_open_is_open_relation(self):
        assert repro.open is open_relation


# -- cross-tier interface conformance (ISSUE 6 satellite) --------------------------


class TestInterfaceConformance:
    def all_tiers(self):
        compiled_cls = compile_relation(EDGE_SPEC, parse_decomposition(FORWARD_LAYOUT))
        tiers = [
            ReferenceRelation(EDGE_SPEC),
            DecomposedRelation(EDGE_SPEC, FORWARD_LAYOUT),
            compiled_cls(),
        ]
        tiers.append(TraceRecorder(compiled_cls()))
        tiers.append(LiveRelation(compiled_cls(), policy={"auto": False}))
        return tiers

    def test_compiled_is_a_real_subclass(self):
        cls = compile_relation(EDGE_SPEC, parse_decomposition(FORWARD_LAYOUT))
        assert issubclass(cls, RelationInterface)

    def test_dunders_agree_across_tiers(self):
        rows = [t(src=s, dst=d, weight=s * 10 + d) for s in range(3) for d in range(3)]
        present, absent = rows[0], t(src=9, dst=9, weight=0)
        for tier in self.all_tiers():
            for row in rows:
                tier.insert(row)
            assert len(tier) == len(rows)
            assert sorted(iter(tier), key=Tuple.sort_key) == sorted(rows, key=Tuple.sort_key)
            assert present in tier
            assert absent not in tier
            assert t(src=1) in tier  # partial patterns work in all tiers
            assert "not-a-pattern" not in tier
            assert isinstance(tier, RelationInterface)

    def test_len_is_constant_time_on_reference(self):
        # The base class counts via a full query; the override must not.
        ref = ReferenceRelation(EDGE_SPEC)
        ref.insert(t(src=1, dst=2, weight=3))
        ref._tuples = frozenset(ref._tuples)  # query() would need .extends scans
        assert len(ref) == 1


# -- codegen cache thread-safety (ISSUE 6 satellite) -------------------------------


class TestCacheThreadSafety:
    def test_clear_while_swap_in_flight(self):
        """clear/stats racing compile_relation (as a LiveRelation swap does)
        must neither corrupt the cache nor lose the same-class guarantee."""
        clear_codegen_cache()
        spec = RelationSpec("a, b, c", fds=["a -> b, c"], name="racy")
        layouts = [
            "a -> htable {b, c}",
            "b -> htable (a -> htable {c})",
            "c -> htable (a -> htable {b})",
        ]
        errors = []
        stop = threading.Event()

        def compiler(layout):
            try:
                for _ in range(30):
                    # A clear may land between any two statements here; the
                    # class returned must always be complete and functional.
                    cls = compile_relation(spec, parse_decomposition(layout))
                    r = cls()
                    r.insert(t(a=1, b=2, c=3))
                    assert len(r) == 1
                    assert r.to_relation().tuples == {t(a=1, b=2, c=3)}
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        def clearer():
            while not stop.is_set():
                clear_codegen_cache()
                stats = codegen_cache_stats()
                assert set(stats) == {"hits", "misses", "size"}

        threads = [threading.Thread(target=compiler, args=(lay,)) for lay in layouts]
        churn = threading.Thread(target=clearer)
        churn.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        churn.join()
        assert not errors
        clear_codegen_cache()

    def test_concurrent_same_key_compiles_share_one_class(self):
        """Racing compiles of one key resolve to a single class object
        (the insert re-checks under the lock and adopts the winner)."""
        clear_codegen_cache()
        spec = RelationSpec("a, b, c", fds=["a -> b, c"], name="samekey")
        layout = "a -> htable {b, c}"
        barrier = threading.Barrier(4)
        results = []

        def compiler():
            barrier.wait()
            results.append(compile_relation(spec, parse_decomposition(layout)))

        threads = [threading.Thread(target=compiler) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 4
        assert all(cls is results[0] for cls in results)
        assert codegen_cache_stats()["size"] == 1
        clear_codegen_cache()

    def test_live_swap_during_cache_churn(self):
        clear_codegen_cache()
        live = open_relation(EDGE_SPEC, FORWARD_LAYOUT, live=True, policy={"auto": False})
        for i in range(30):
            s, d = divmod(i, 6)
            live.insert(t(src=s, dst=d, weight=i))
        for _ in range(120):
            live.query(t(dst=2), None)
        before = live.to_relation()
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                clear_codegen_cache()

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            report = live.retune()
        finally:
            stop.set()
            thread.join()
        assert report.swapped
        assert live.to_relation() == before
        clear_codegen_cache()
