"""Drive the reference / interpreted / compiled tiers through identical traces.

``python -m benchmarks [--quick] [--output PATH]`` is the one benchmark
run; ``python benchmarks/check.py PATH`` checks every claim against the
report it writes.  For each workload the harness records, per tier:

* ``median_seconds`` and ``samples`` (interpreted and compiled tiers
  only): three timed replays (``time.perf_counter``), each on a fresh
  relation;
* ``accesses``: one replay under :data:`repro.structures.base.COUNTER`.
  Unlike the timings these counts are exact and machine-independent: the
  same on every interpreter and at every ``str`` hash seed;
* the final relation of the reference tier's one (instrumented) replay is
  the oracle: the last timed and the instrumented replay of each fast
  tier must equal it (a coarse soundness check riding along with every
  benchmark run).

Each workload also gets an ``autotuned`` section: the §5 autotuner
(:mod:`repro.autotuner`) picks a layout from the workload's own trace, and
the report shows the winner's access count next to every hand-written
layout replayed on the same trace.  Two sections measure one workload
each: ``join_plan`` (:func:`measure_join_benefit`, the §4 cross-branch
join on ``graph_reverse``) and ``retune`` (:func:`measure_retune`, the
live re-tune hot-swap on ``graph_drift``).

Every tier is constructed through :func:`repro.open`, so the factory's
dispatch path is exercised — and its overhead pinned — by the same access
claim that watches the tiers themselves.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from typing import Dict, List, Optional

import repro
from repro.autotuner import Trace, autotune, canonical_shape, replay_operations
from repro.autotuner.scorer import estimate_edge_sizes
from repro.core.interface import RelationInterface
from repro.decomposition import parse_decomposition
from repro.structures import COUNTER

from .workloads import Workload, build_workloads

__all__ = [
    "main",
    "run_all",
    "run_workload",
    "run_autotuner",
    "replay",
    "measure_join_benefit",
    "measure_retune",
    "tail_accesses",
]

TIERS = ("reference", "interpreted", "compiled")

#: Timed replays per workload and fast tier; the report keeps their median.
#: No claim reads a reference-tier timing, so that tier is only counted.
REPEAT = 3

#: Workload and hot pattern of the ``join_plan`` section.
JOIN_WORKLOAD = "graph_reverse"
HOT_PATTERN = ("dst",)

#: The drifting workload of the ``retune`` section, and the re-tune policy
#: for its live run: thresholds small enough that the drifted tail
#: (scale*4 operations) comfortably triggers the swap.
RETUNE_WORKLOAD = "graph_drift"
RETUNE_POLICY = {"min_ops": 150, "drift_threshold": 0.25}


def make_tier(tier: str, workload: Workload) -> RelationInterface:
    """Build one tier through the canonical :func:`repro.open` factory.

    The compiled tier is opened against the workload's trace-estimated
    container sizes — the §5 story: the representation (and its
    compile-time plan table, including cross-branch join plans on split
    patterns) is synthesized for the workload it will run.  Tiers are
    opened non-live: the benchmarked numbers measure the representations
    themselves, and the access claim thereby also pins the factory's
    dispatch overhead; the live facade is measured separately by the
    ``retune`` section.
    """
    if tier == "compiled":
        return _open_compiled(workload, workload.layout)
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}")
    return repro.open(workload.spec, workload.layout, tier=tier)


def _open_compiled(workload: Workload, layout: str) -> RelationInterface:
    """*layout* on the compiled tier, its plan table ranked at the container
    sizes estimated from *workload*'s trace (as the autotuner compiles)."""
    decomposition = parse_decomposition(layout)
    sizes = estimate_edge_sizes(decomposition, Trace.from_workload(workload).profile())
    return repro.open(workload.spec, decomposition, tier="compiled", sizes=sizes)


def replay(relation: RelationInterface, trace: List[tuple]) -> int:
    """Apply every operation of *trace* to *relation*; returns the op count.

    Delegates to the autotuner's public replay loop, which the autotuner's
    exact replay also runs on each candidate's compiled class; that its
    scores equal the compiled tier's counts is checked by the ``scorer``
    claim of ``benchmarks/check.py``.
    """
    return replay_operations(relation, trace)


def run_autotuner(workload: Workload) -> Dict:
    """Tune *workload* from its own trace; report the winner vs hand layouts.

    Every hand-written layout (the workload's primary plus its
    ``alternatives``) is force-included in the exact replay phase, so the
    report shows the synthesized winner's compiled-tier access count side
    by side with each of them — all on the identical trace, each counted
    on the class that would serve it.
    """
    hand_layouts = workload.hand_layouts()
    result = autotune(
        workload.spec,
        Trace.from_workload(workload),
        include=list(hand_layouts.values()),
    )
    by_shape = {canonical_shape(c.decomposition): c for c in result.replayed}
    hand_report = {}
    for name, layout in hand_layouts.items():
        candidate = by_shape[canonical_shape(parse_decomposition(layout))]
        hand_report[name] = {"layout": layout, "accesses": candidate.accesses}

    best_hand = min(hand_report.values(), key=lambda h: h["accesses"])
    report = {
        "layout": result.winner_layout,
        "accesses": result.winner.accesses,
        "candidates_enumerated": len(result.candidates),
        "candidates_replayed": len(result.replayed),
        "pareto": [
            {"layout": c.layout, "accesses": c.accesses, "memory": c.memory}
            for c in result.pareto
        ],
        "hand_written": hand_report,
        "speedup_vs_best_hand": round(
            best_hand["accesses"] / result.winner.accesses, 2
        )
        if result.winner.accesses
        else None,
    }
    print(
        f"  {'autotuned':12s} {report['accesses']:>12,d} accesses"
        f"  ({report['speedup_vs_best_hand']}x best hand layout; "
        f"{report['candidates_enumerated']} candidates)",
        file=sys.stderr,
    )
    return report


def run_workload(workload: Workload) -> Dict:
    """Count every tier and time the fast ones on *workload*; verify the
    tiers agree."""
    results: Dict[str, Dict] = {}
    final = None
    for tier in TIERS:
        replays, samples = [], []
        for _ in range(0 if tier == "reference" else REPEAT):
            relation = make_tier(tier, workload)
            started = time.perf_counter()
            replay(relation, workload.trace)
            samples.append(time.perf_counter() - started)
        if samples:
            replays.append(relation)

        # One instrumented replay on a fresh instance: COUNTER numbers are
        # deterministic and machine-independent, unlike the timings.
        instrumented = make_tier(tier, workload)
        with COUNTER:
            replay(instrumented, workload.trace)
            accesses = COUNTER.accesses
        replays.append(instrumented)

        # The reference's replay is the oracle.  Check both replays of a
        # fast tier: the compiled tier takes different code paths with
        # COUNTER off (the timed replays, and every user's default) and on
        # (the instrumented replay).
        for replayed in replays:
            outcome = replayed.to_relation()
            if final is None:
                final = outcome
            elif outcome != final:
                raise AssertionError(
                    f"tier {tier!r} diverged from the reference on workload "
                    f"{workload.name!r}: {len(outcome.tuples ^ final.tuples)} differing tuple(s)"
                )
        results[tier] = {"accesses": accesses}
        timing = ""
        if samples:
            results[tier]["median_seconds"] = round(statistics.median(samples), 6)
            results[tier]["samples"] = [round(s, 6) for s in samples]
            timing = f"  median {results[tier]['median_seconds']:.4f}s"
        print(f"  {tier:12s} {accesses:>12,d} accesses{timing}", file=sys.stderr)
    return {
        "description": workload.description,
        "layout": workload.layout,
        "ops": len(workload.trace),
        "final_size": len(final.tuples),
        "tiers": results,
    }


def measure_join_benefit(workload: Workload) -> Dict:
    """Replay *workload* on the interpreted tier, then measure the hot
    pattern's chosen plan against the best single-path plan.

    Both plans run over the identical populated instance and every distinct
    value of the hot pattern's column(s), under the library-wide
    :class:`~repro.structures.base.OperationCounter` — machine- and
    timing-independent.  Returns the ``join_plan`` report section.
    """
    from repro.core import Tuple
    from repro.decomposition import DecomposedRelation, JoinPlan, execute_plan, plan_query

    relation = DecomposedRelation(workload.spec, workload.layout)
    replay(relation, workload.trace)

    pattern_cols = frozenset(HOT_PATTERN)
    chosen = relation.plan_for(pattern_cols)
    single = plan_query(
        relation.decomposition,
        pattern_cols,
        sizes=relation.instance.edge_sizes(),
        spec=workload.spec,
        allow_join=False,
    )
    values = sorted(
        {tuple(t[c] for c in sorted(pattern_cols)) for t in relation.instance.iter_tuples()}
    )
    patterns = [
        Tuple(dict(zip(sorted(pattern_cols), value))) for value in values
    ]

    def count(plan) -> int:
        with COUNTER:
            for pattern in patterns:
                rows = list(execute_plan(plan, relation.instance, pattern))
                assert rows is not None
            return COUNTER.accesses

    chosen_accesses = count(chosen)
    single_accesses = count(single)
    # Both plans must agree on every result (they answer the same queries).
    for pattern in patterns:
        left = set(execute_plan(chosen, relation.instance, pattern))
        right = set(execute_plan(single, relation.instance, pattern))
        assert left == right, f"join and single-path plans disagree on {pattern!r}"
    return {
        "workload": workload.name,
        "pattern": sorted(pattern_cols),
        "queries": len(patterns),
        "chosen_plan": chosen.describe(),
        "chosen_is_join": isinstance(chosen, JoinPlan),
        "join_accesses": chosen_accesses,
        "single_accesses": single_accesses,
        "single_plan": single.describe(),
        "speedup": round(single_accesses / chosen_accesses, 2)
        if chosen_accesses
        else None,
    }


def measure_retune(workload: Workload) -> Dict:
    """Drive *workload* through a live relation; measure the swap's payoff.

    Three measurements over the same trace:

    1. a ``repro.open(spec, layout, live=True)`` run over the full trace —
       must auto-re-tune, hot-swap at least once, and finish α-equivalent
       to a :class:`~repro.core.reference.ReferenceRelation` mirror;
    2. the **pre-swap** layout: a fresh compiled instance of the phase-1
       layout, replaying the whole trace with only the drifted tail's
       accesses counted;
    3. the **post-swap** layout: the layout the live run swapped to, same
       protocol.

    Counting only the tail on fresh instances isolates the layouts'
    steady-state costs from the one-off migration cost (which is also
    reported, separately).
    """
    from repro.live import SamplingTraceRecorder

    assert workload.tail_start is not None, "drift workloads must set tail_start"
    live = repro.open(
        workload.spec,
        workload.layout,
        live=True,
        policy=RETUNE_POLICY,
        sampler=SamplingTraceRecorder(),
    )
    mirror = repro.open(workload.spec, tier="reference")
    replay(live, workload.trace)
    replay(mirror, workload.trace)
    alpha_equivalent = live.to_relation() == mirror.to_relation()
    swaps = [r for r in live.retunes if r.swapped]
    new_layout = live.backing_layout()

    old_tail = tail_accesses(workload, workload.layout)
    new_tail = tail_accesses(workload, new_layout)

    return {
        "workload": workload.name,
        "ops": len(workload.trace),
        "tail_start": workload.tail_start,
        "old_layout": workload.layout,
        "new_layout": new_layout,
        "retunes": len(live.retunes),
        "swaps": len(swaps),
        "generation": live.generation,
        "migrated_rows": sum(r.migrated for r in swaps),
        "alpha_equivalent": alpha_equivalent,
        "sampler": live.sampler.stats(),
        "old_tail_accesses": old_tail,
        "new_tail_accesses": new_tail,
        "speedup": round(old_tail / new_tail, 2) if new_tail else None,
    }


def tail_accesses(workload: Workload, layout: str) -> int:
    """The compiled accesses of *workload*'s drifted tail on *layout*.

    A fresh instance of *layout*, compiled at the container sizes estimated
    from the workload's trace (as :func:`make_tier` opens the compiled
    tier), replays the head uncounted and the tail counted.
    """
    relation = _open_compiled(workload, layout)
    replay(relation, workload.trace[: workload.tail_start])
    with COUNTER:
        replay(relation, workload.trace[workload.tail_start :])
        return COUNTER.accesses


def run_all(quick: bool = False) -> Dict:
    report: Dict = {
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "mode": "quick" if quick else "default",
            "repeat": REPEAT,
        },
        "workloads": {},
    }
    for workload in build_workloads(quick=quick):
        print(f"{workload.name}: {len(workload.trace)} ops", file=sys.stderr)
        data = run_workload(workload)
        data["autotuned"] = run_autotuner(workload)
        report["workloads"][workload.name] = data
        if workload.name == JOIN_WORKLOAD:
            section = report["join_plan"] = measure_join_benefit(workload)
            print(
                f"  {'join-plan':12s} {section['join_accesses']:>12,d} accesses"
                f"  vs single-path {section['single_accesses']:,d}",
                file=sys.stderr,
            )
        if workload.name == RETUNE_WORKLOAD:
            section = report["retune"] = measure_retune(workload)
            print(
                f"  {'retune':12s} {section['new_tail_accesses']:>12,d} accesses"
                f"  vs pre-swap {section['old_tail_accesses']:,d} on the tail"
                f" ({section['swaps']} swap(s))",
                file=sys.stderr,
            )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks",
        description="Benchmark the reference/interpreted/compiled representation tiers.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small traces (the CI configuration)"
    )
    parser.add_argument(
        "--output", default="BENCH.json", help="where to write the JSON report"
    )
    args = parser.parse_args(argv)
    report = run_all(quick=args.quick)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0
