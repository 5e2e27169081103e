"""Tests for the §5 autotuner: enumeration, traces, scoring, synthesis.

The property tests pin the acceptance criteria of the autotuner:

* every enumerated candidate passes the adequacy judgement;
* the enumerated set is deduplicated by canonical shape;
* on a benchmark workload trace, the chosen layout's exactly-replayed
  access count is no worse than *every* hand-written layout's — without
  the hand layouts being force-included, i.e. the enumerator genuinely
  covers (or beats) the shapes a developer would write.
"""

from collections import Counter

import pytest

import repro
import repro.autotuner.tuner as tuner_module
from benchmarks.workloads import QUICK_SCALE, WORKLOADS
from repro.autotuner import (
    Trace,
    TraceRecorder,
    autotune,
    canonical_shape,
    enumerate_decompositions,
    exact_accesses,
    memory_proxy,
    pareto_front,
    representative_structures,
    static_cost,
    synthesize,
)
from repro.autotuner.enumerator import shape_skeleton
from repro.autotuner.scorer import ScoredCandidate, estimate_edge_sizes
from repro.autotuner.tuner import TIEBREAK_SIZE_SCALE
from repro.core import ReferenceRelation, RelationSpec, Tuple, t
from repro.core.errors import AdequacyError, AutotunerError, FunctionalDependencyError
from repro.core.interface import RelationInterface
from repro.decomposition import (
    DecomposedRelation,
    is_adequate,
    parse_decomposition,
    plan_query,
)

SCHEDULER_PATTERNS = [frozenset({"ns", "pid"}), frozenset({"state"})]


@pytest.fixture(scope="module")
def small_scheduler():
    return WORKLOADS["scheduler"](20)


@pytest.fixture(scope="module")
def scheduler_tuning(small_scheduler):
    return autotune(small_scheduler.spec, Trace.from_workload(small_scheduler))


class TestEnumerator:
    def test_every_candidate_is_adequate(self, scheduler_spec):
        candidates = enumerate_decompositions(scheduler_spec, SCHEDULER_PATTERNS)
        assert len(candidates) > 100
        for decomposition in candidates:
            assert is_adequate(decomposition, scheduler_spec)

    def test_candidates_deduplicated_by_canonical_shape(self, scheduler_spec):
        candidates = enumerate_decompositions(scheduler_spec, SCHEDULER_PATTERNS)
        shapes = [canonical_shape(d) for d in candidates]
        assert len(shapes) == len(set(shapes))

    def test_includes_paper_layout_shapes(self, scheduler_spec):
        """The running example's hand layouts are inside the search space."""
        candidates = enumerate_decompositions(scheduler_spec, SCHEDULER_PATTERNS)
        shapes = {canonical_shape(d) for d in candidates}
        for hand in (
            "ns, pid -> htable {state, cpu}",
            "[ns -> htable pid -> btree {state, cpu}"
            " ; state -> htable (ns, pid -> dlist {cpu})]",
        ):
            assert canonical_shape(parse_decomposition(hand)) in shapes

    def test_bounded_depth(self, scheduler_spec):
        for decomposition in enumerate_decompositions(
            scheduler_spec, SCHEDULER_PATTERNS, max_depth=2
        ):
            assert decomposition.depth() <= 2

    def test_depth_zero_rejected(self, scheduler_spec):
        with pytest.raises(AutotunerError, match="max_depth"):
            enumerate_decompositions(scheduler_spec, max_depth=0)

    def test_max_candidates_truncates(self, scheduler_spec):
        candidates = enumerate_decompositions(
            scheduler_spec, SCHEDULER_PATTERNS, max_candidates=7
        )
        assert len(candidates) == 7

    def test_no_fds_yields_fully_bound_layouts(self):
        spec = RelationSpec("a, b", name="pairs")  # no FDs: only C is a key
        candidates = enumerate_decompositions(spec, [frozenset({"a"})])
        assert candidates
        for decomposition in candidates:
            for path in decomposition.paths():
                assert path.bound == spec.columns

    def test_representative_structures_collapse_cost_classes(self):
        reps = representative_structures(["dlist", "ilist", "htable", "avl"])
        # dlist and ilist share the linear cost model; one representative.
        assert reps == ["dlist", "htable", "avl"]
        # Aliases resolve before grouping.
        assert representative_structures(["btree"]) == ["avl"]


class TestTrace:
    def test_recorder_records_successful_operations(self, scheduler_spec):
        recorder = TraceRecorder(ReferenceRelation(scheduler_spec))
        recorder.insert(t(ns=0, pid=1, state="R", cpu=0))
        recorder.update(t(ns=0, pid=1), t(state="S"))
        assert recorder.query(t(state="S"), "pid") == [Tuple(pid=1)]
        recorder.remove(t(ns=0))
        assert [op[0] for op in recorder.trace] == ["insert", "update", "query", "remove"]

    def test_recorder_skips_failed_operations(self, scheduler_spec):
        recorder = TraceRecorder(ReferenceRelation(scheduler_spec, enforce_fds=True))
        recorder.insert(t(ns=0, pid=1, state="R", cpu=0))
        with pytest.raises(FunctionalDependencyError):
            recorder.insert(t(ns=0, pid=1, state="S", cpu=0))
        assert len(recorder.trace) == 1  # The rejected insert never happened.

    def test_recorder_normalises_one_shot_output_iterables(self, scheduler_spec):
        recorder = TraceRecorder(ReferenceRelation(scheduler_spec))
        recorder.insert(t(ns=0, pid=1, state="R", cpu=0))
        live = recorder.query(t(ns=0), iter(["state"]))  # generator: consumed once
        assert live == [Tuple(state="R")]
        replayed = recorder.trace.replay(ReferenceRelation(scheduler_spec))
        assert replayed.query(t(ns=0), "state") == [Tuple(state="R")]
        # The recorded operation carries concrete columns, not a spent iterator.
        assert recorder.trace.operations[-1][2] == ("state",)

    def test_recorder_propagates_fd_mode_into_synthesis(self, scheduler_spec):
        """A trace recorded with enforcement off contains FD-conflicting
        inserts; autotune/synthesize must replay it in the same mode
        instead of raising mid-scoring."""
        recorder = TraceRecorder(ReferenceRelation(scheduler_spec, enforce_fds=False))
        for pid in range(6):
            recorder.insert(t(ns=0, pid=pid, state="R", cpu=0))
            recorder.insert(t(ns=0, pid=pid, state="S", cpu=0))  # FD conflict: evicts
        for pid in range(6):
            recorder.query(t(ns=0, pid=pid), "state")
        assert recorder.trace.enforce_fds is False
        assert recorder.enforce_fds is False  # The wrapper stays transparent.
        cls = synthesize(scheduler_spec, recorder.trace)
        # The synthesized class defaults to the mode it was tuned under.
        tuned = recorder.trace.replay(cls())
        assert tuned.enforce_fds is False
        assert tuned.to_relation() == recorder.to_relation()
        # A recorder wrapping a recorder still sees the FD mode.
        assert TraceRecorder(recorder).trace.enforce_fds is False

    def test_recorder_requires_a_spec(self):
        with pytest.raises(AutotunerError, match="must expose its RelationSpec"):
            TraceRecorder(object())

    def test_replay_reproduces_the_recorded_state(self, scheduler_spec):
        recorder = TraceRecorder(ReferenceRelation(scheduler_spec))
        recorder.insert(t(ns=0, pid=1, state="R", cpu=0))
        recorder.insert(t(ns=1, pid=2, state="S", cpu=1))
        recorder.update(t(state="R"), t(cpu=3))
        recorder.remove(t(pid=2))
        replayed = recorder.trace.replay(
            DecomposedRelation(scheduler_spec, "ns, pid -> htable {state, cpu}")
        )
        assert replayed.to_relation() == recorder.to_relation()

    def test_from_workload_and_profile(self, small_scheduler):
        trace = Trace.from_workload(small_scheduler)
        assert len(trace) == len(small_scheduler.trace)
        profile = trace.profile()
        assert profile.inserts > 0
        assert frozenset({"state"}) in profile.queries
        assert frozenset({"ns", "pid"}) in profile.queries
        assert profile.operation_count() == len(trace)
        assert profile.approx_max_size > 0

    def test_rejects_malformed_operations(self, scheduler_spec):
        with pytest.raises(AutotunerError, match="trace operations"):
            Trace(scheduler_spec, [("upsert", t(ns=0))])
        # Wrong arity fails at construction, not as an IndexError mid-replay.
        with pytest.raises(AutotunerError, match="argument"):
            Trace(scheduler_spec, [("update", t(ns=0))])
        with pytest.raises(AutotunerError, match="argument"):
            Trace(scheduler_spec, [("query", t(ns=0))])
        with pytest.raises(AutotunerError, match="argument"):
            Trace(scheduler_spec, [("insert", t(ns=0), None)])


class TestScorer:
    def test_static_cost_prefers_indexes_for_query_heavy_traces(self, scheduler_spec):
        ops = [("insert", t(ns=0, pid=i, state="R", cpu=0)) for i in range(10)]
        ops += [("query", t(ns=0, pid=3), None)] * 100
        profile = Trace(scheduler_spec, ops).profile()
        indexed = parse_decomposition("ns, pid -> htable {state, cpu}")
        chained = parse_decomposition("ns, pid -> dlist {state, cpu}")
        assert static_cost(indexed, profile) < static_cost(chained, profile)

    def test_memory_proxy_counts_edges_and_residuals(self):
        single = parse_decomposition("ns, pid -> htable {state, cpu}")
        branched = parse_decomposition(
            "[ns -> htable pid -> btree {state, cpu}"
            " ; state -> htable (ns, pid -> dlist {cpu})]"
        )
        # Distinct edges + residual columns per distinct leaf.
        assert memory_proxy(single) == 1 + 2
        assert memory_proxy(branched) == 4 + (2 + 1)

    def test_memory_proxy_rewards_node_sharing(self):
        """A record shared by two branches pays its residual once; the
        per-branch-copy twin pays one residual per branch."""
        shared = parse_decomposition(
            "[ns, pid -> htable (state -> htable @rec)"
            " ; state -> htable (ns, pid -> ilist @rec)] where @rec = {cpu}"
        )
        copied = parse_decomposition(
            "[ns, pid -> htable {state, cpu}"
            " ; state -> htable (ns, pid -> dlist {cpu})]"
        )
        assert memory_proxy(shared) == 4 + 1
        assert memory_proxy(copied) == 3 + (2 + 1)
        assert memory_proxy(shared) < memory_proxy(copied)

    def test_exact_accesses_is_deterministic(self, scheduler_spec):
        trace = Trace(
            scheduler_spec,
            [("insert", t(ns=0, pid=i, state="R", cpu=0)) for i in range(8)]
            + [("query", t(state="R"), "pid")] * 4,
        )
        layout = parse_decomposition("ns, pid -> htable {state, cpu}")
        assert exact_accesses(trace, layout) == exact_accesses(trace, layout)

    def test_pareto_front_drops_dominated_candidates(self, scheduler_spec):
        layout = parse_decomposition("ns, pid -> htable {state, cpu}")

        def scored(accesses, memory):
            candidate = ScoredCandidate(layout, 0.0, memory)
            candidate.accesses = accesses
            return candidate

        cheap_big = scored(100, 4)
        mid = scored(200, 2)
        dominated = scored(300, 2)  # Same memory as `mid`, more accesses.
        small = scored(400, 1)
        front = pareto_front([dominated, small, cheap_big, mid])
        assert [(c.accesses, c.memory) for c in front] == [(100, 4), (200, 2), (400, 1)]


class TestAutotune:
    def test_winner_beats_every_hand_layout(self, small_scheduler, scheduler_tuning):
        """Acceptance: the chosen layout's replayed access count is ≤ every
        hand-written layout's on the same trace (no force-include)."""
        trace = scheduler_tuning.trace
        for name, layout in small_scheduler.hand_layouts().items():
            hand = exact_accesses(trace, parse_decomposition(layout, name=name))
            assert scheduler_tuning.winner.accesses <= hand, (
                f"winner {scheduler_tuning.winner_layout!r} "
                f"({scheduler_tuning.winner.accesses} accesses) loses to hand "
                f"layout {name!r} ({hand})"
            )

    @pytest.mark.parametrize("workload_name", ["graph", "spanning"])
    def test_winner_beats_hand_layouts_other_workloads(self, workload_name):
        workload = WORKLOADS[workload_name](12)
        trace = Trace.from_workload(workload)
        result = autotune(workload.spec, trace)
        for name, layout in workload.hand_layouts().items():
            hand = exact_accesses(trace, parse_decomposition(layout, name=name))
            assert result.winner.accesses <= hand

    def test_winner_is_adequate_and_replayed(self, small_scheduler, scheduler_tuning):
        assert is_adequate(scheduler_tuning.winner_decomposition, small_scheduler.spec)
        assert scheduler_tuning.winner.accesses is not None
        assert scheduler_tuning.winner in scheduler_tuning.pareto
        assert scheduler_tuning.replayed[0] is scheduler_tuning.winner

    def test_replayed_are_sorted_and_static_ranking_kept(self, scheduler_tuning):
        accesses = [c.accesses for c in scheduler_tuning.replayed]
        assert accesses == sorted(accesses)
        statics = [c.static for c in scheduler_tuning.candidates]
        assert statics == sorted(statics)

    def test_include_forces_exact_replay(self, small_scheduler):
        trace = Trace.from_workload(small_scheduler)
        worst_hand = "ns, pid -> dlist {state, cpu}"
        result = autotune(
            small_scheduler.spec, trace, exact_top=2, include=[worst_hand]
        )
        shapes = {canonical_shape(c.decomposition) for c in result.replayed}
        assert canonical_shape(parse_decomposition(worst_hand)) in shapes
        assert len(result.replayed) == 3

    def test_candidates_scored_under_the_tuning_spec(self, scheduler_spec):
        """A trace recorded against a same-column spec with different FDs is
        scored under the spec being tuned — candidates adequate for the
        tuning spec must not be rejected against the trace's weaker spec."""
        fd_free = RelationSpec("ns, pid, state, cpu", name="process-raw")
        trace = Trace(
            fd_free,
            [("insert", t(ns=0, pid=i, state="R", cpu=0)) for i in range(6)]
            + [("query", t(ns=0, pid=3), None)] * 6,
        )
        result = autotune(scheduler_spec, trace)
        assert is_adequate(result.winner_decomposition, scheduler_spec)
        assert result.winner.accesses is not None

    def test_spec_mismatch_rejected(self, scheduler_spec):
        other = RelationSpec("a, b", name="other")
        with pytest.raises(AutotunerError, match="trace is over columns"):
            autotune(scheduler_spec, Trace(other))

    def test_describe_mentions_the_winner(self, scheduler_tuning):
        text = scheduler_tuning.describe()
        assert "winner:" in text
        assert scheduler_tuning.winner_layout in text


class TestShapePricing:
    """The static phase plans each structure-free shape once and prices
    every container assignment against it; the scores must be exactly
    those of planning each candidate on its own."""

    @pytest.fixture(
        scope="class", params=["scheduler", "scheduler_churn", "graph_reverse"]
    )
    def tuned(self, request):
        workload = WORKLOADS[request.param](QUICK_SCALE)
        trace = Trace.from_workload(workload)
        included = list(workload.hand_layouts().values())
        result = autotune(workload.spec, trace, include=included)
        return workload.spec, trace.profile(), result, included

    def test_parsed_layouts_priced_against_enumerated_shapes(self, tuned):
        """Hand layouts are parsed, not enumerated: priced against an
        enumerated representative of their skeleton, their edges must line
        up with the representative's."""
        spec, profile, result, included = tuned
        memo: dict = {}
        for candidate in result.candidates:
            if candidate.decomposition.name != "included":
                static_cost(candidate.decomposition, profile, spec=spec, memo=memo)
        shared = 0
        for layout in included:
            parsed = parse_decomposition(layout)
            shared += shape_skeleton(parsed) in memo
            for scale in (1.0, TIEBREAK_SIZE_SCALE):
                assert static_cost(
                    parsed, profile, size_scale=scale, spec=spec, memo=memo
                ) == static_cost(parsed, profile, size_scale=scale, spec=spec), layout
        assert shared

    def test_static_scores_equal_planning_each_candidate_alone(self, tuned):
        spec, profile, result, _ = tuned
        counts = Counter(c.static for c in result.candidates)
        for candidate in result.candidates:
            decomposition = candidate.decomposition
            assert candidate.static == static_cost(decomposition, profile, spec=spec)
            if counts[candidate.static] > 1:  # The tie-break ran.
                assert candidate.static_scaled == static_cost(
                    decomposition, profile, size_scale=TIEBREAK_SIZE_SCALE, spec=spec
                )
            else:
                assert candidate.static_scaled == candidate.static

    def test_priced_plans_equal_the_planners_pick(self, tuned):
        spec, profile, result, _ = tuned
        memo: dict = {}
        for candidate in result.candidates:
            static_cost(candidate.decomposition, profile, spec=spec, memo=memo)
        assert len(memo) < len(result.candidates)
        for candidate in result.candidates:
            decomposition = candidate.decomposition
            shape = memo[shape_skeleton(decomposition)]
            structures = shape.structures(decomposition)
            sizes = estimate_edge_sizes(decomposition, profile)
            for pattern in profile.pattern_columns():
                plan = plan_query(decomposition, pattern, sizes=sizes, spec=spec)
                priced = shape.plan_cost(pattern, structures, shape.sizes)
                assert priced == plan.estimated_cost(sizes=sizes), (candidate.layout, pattern)


class TestTunerPhases:
    def test_each_phase_entry_point_is_called_per_candidate(self, monkeypatch):
        """Traced benchmarks time the static phase by wrapping these three
        names; a tuner that bypasses them would report a zero phase."""
        calls = {"enumerate_decompositions": 0, "static_cost": 0, "exact_accesses": 0}
        for name in calls:
            original = getattr(tuner_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(tuner_module, name, counted)
        workload = WORKLOADS["graph"](12)
        result = autotune(
            workload.spec,
            Trace.from_workload(workload),
            include=list(workload.hand_layouts().values()),
        )
        counts = Counter(c.static for c in result.candidates)
        tie_broken = sum(n for n in counts.values() if n > 1)
        assert tie_broken
        assert calls == {
            "enumerate_decompositions": 1,
            "static_cost": len(result.candidates) + tie_broken,
            "exact_accesses": len(result.replayed),
        }

    def test_inadequate_include_fails_before_enumeration(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumerated before checking the included layout")

        monkeypatch.setattr(tuner_module, "enumerate_decompositions", never)
        workload = WORKLOADS["graph"](12)
        trace = Trace.from_workload(workload)
        inadequate = "src -> htable {dst, weight}"
        with pytest.raises(AdequacyError, match=r"src -> htable \{dst, weight\}"):
            autotune(workload.spec, trace, include=[inadequate])
        with pytest.raises(AdequacyError, match=r"src -> htable \{dst, weight\}"):
            repro.open(workload.spec, inadequate, tune=trace)


class TestSynthesize:
    def test_synthesize_returns_equivalent_compiled_class(self, small_scheduler):
        trace = Trace.from_workload(small_scheduler)
        cls = synthesize(small_scheduler.spec, trace)
        assert isinstance(cls, type) and issubclass(cls, RelationInterface)
        assert cls.TUNING.winner_layout == cls.DECOMPOSITION.describe()
        # The synthesized class replays the originating trace to the same
        # final relation as the reference oracle.
        tuned = trace.replay(cls())
        oracle = trace.replay(ReferenceRelation(small_scheduler.spec))
        assert tuned.to_relation() == oracle.to_relation()
