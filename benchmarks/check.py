"""Check every benchmark claim against one report of ``python -m benchmarks``.

Usage::

    python benchmarks/check.py BENCH.json

Besides the report it reads two checked-in files at fixed paths:
``benchmarks/baseline.json``, a quick-mode report, and
``benchmarks/pr7_wallclock.json``, a full-length pin of an earlier
compiled tier's wall-clock medians.  It prints one line
per claim with the numbers it compared, and exits 1 if a claim fails, else
2 if the report's mode differs from the baseline's (trace sizes differ, so
access counts are not comparable), else 0.

The claims:

* ``accesses`` — every tier's counted accesses, and the autotuned
  winner's, are at most the baseline's: not one access more.  The counts
  follow neither the interpreter nor its ``str`` hash (every container
  charges by a fixed rule, and the interpreted ``htable`` as the compiled
  tier's dict does), so one strict rule holds on every interpreter.
* ``tier_ratio`` — the compiled tier's median wall-clock beats the
  interpreted tier's by at least 2.0x on each workload and 4.0x in
  aggregate.  The floors sit far below the measured ratios, so only a real
  dispatch regression trips them.
* ``prior_pin`` — summed compiled medians beat the prior pin's by at least
  3.0x over the workloads both share.  Skipped when the modes differ:
  quick-mode traces are shorter, so their medians are not comparable.
* ``sharing``, ``join``, ``retune`` and ``scorer`` — the rows of
  :data:`CLAIMS`.  ``scorer`` holds when, on every workload, the
  autotuner's exact replay of the primary hand layout counts what the
  interpreted tier's replay through the public API counts: the scorer's
  result-free reads make exactly the public reads' container calls.
"""

from __future__ import annotations

import json
import operator
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "baseline.json"
PRIOR = Path(__file__).resolve().parent / "pr7_wallclock.json"

MIN_TIER_RATIO = 2.0
MIN_AGGREGATE = 4.0
MIN_PRIOR_SPEEDUP = 3.0


class Field(str):
    """A :data:`CLAIMS` operand that names a second report field."""


_CHURN = "workloads.scheduler_churn.autotuned.hand_written."

#: The workloads of a report: ``python -m benchmarks`` runs all seven.
WORKLOADS = (
    "graph",
    "graph_drift",
    "graph_reverse",
    "ordered_scan",
    "scheduler",
    "scheduler_churn",
    "spanning",
)

#: ``(claim, report field, comparison, bound or Field)``.  A claim passes
#: when all of its rows hold; a missing field fails its row.
CLAIMS = [
    # §3: on the remove-heavy churn trace the primary layout shares one
    # record between its branches (intrusive O(1) unlink) and beats the
    # same two indexes holding per-branch copies (victim scans).
    ("sharing", _CHURN + "primary.layout", "contains", "where"),
    ("sharing", _CHURN + "primary.accesses", "<", Field(_CHURN + "copied-2branch.accesses")),
    # §4: the hot {dst} query is planned as a cross-branch join, strictly
    # cheaper than the best single-path plan over the same instance.
    ("join", "join_plan.workload", "==", "graph_reverse"),
    ("join", "join_plan.chosen_is_join", "==", True),
    ("join", "join_plan.join_accesses", ">", 0),
    ("join", "join_plan.join_accesses", "<", Field("join_plan.single_accesses")),
    # Live re-tune: the drift triggers a hot swap to a different layout,
    # the contents survive the migration, and the new layout is strictly
    # cheaper on the drifted tail.
    ("retune", "retune.workload", "==", "graph_drift"),
    ("retune", "retune.swaps", ">=", 1),
    ("retune", "retune.alpha_equivalent", "==", True),
    ("retune", "retune.new_layout", "!=", Field("retune.old_layout")),
    ("retune", "retune.new_tail_accesses", ">", 0),
    ("retune", "retune.new_tail_accesses", "<", Field("retune.old_tail_accesses")),
    # §5: the scorer counts the primary hand layout's replay as the
    # interpreted tier's public replay of the same trace does.
] + [
    (
        "scorer",
        f"workloads.{name}.autotuned.hand_written.primary.accesses",
        "==",
        Field(f"workloads.{name}.tiers.interpreted.accesses"),
    )
    for name in WORKLOADS
]

_OPS = {
    "<": operator.lt,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    "contains": operator.contains,
}


def _field(report: dict, path: str):
    value = report
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise KeyError(path)
        value = value[key]
    return value


def _show(value, path: str = "") -> str:
    shown = f"{value:,d}" if isinstance(value, int) and not isinstance(value, bool) else repr(value)
    if not path:
        return shown
    # The last two path components name a field within a claim; a field of
    # one workload also names the workload.
    parts = path.split(".")
    label = ".".join(parts[-2:])
    if parts[0] == "workloads":
        label = f"{parts[1]}/{label}"
    return f"{label}={shown}"


def check_row(report: dict, field: str, op: str, bound) -> "tuple[bool, str]":
    """Evaluate one :data:`CLAIMS` row: ``(holds, what was compared)``."""
    try:
        left = _field(report, field)
        right = _field(report, bound) if isinstance(bound, Field) else bound
    except KeyError as missing:
        return False, f"{missing.args[0]} missing"
    holds = _OPS[op](left, right)
    compared = f"{_show(left, field)} {op} {_show(right, bound if isinstance(bound, Field) else '')}"
    return holds, compared + ("" if holds else " FAILS")


def _mode(report: dict):
    return report.get("meta", {}).get("mode")


def check_accesses(report: dict, baseline: dict) -> "tuple[str, str]":
    """The ``accesses`` claim: every count the baseline has, at most its value."""
    if _mode(report) != _mode(baseline):
        return "MISMATCH", (
            f"report mode {_mode(report)!r} vs baseline {_mode(baseline)!r}: access "
            f"counts are not comparable (run the harness with matching --quick)"
        )
    failures, ratios, checked = [], [], 0
    for name, base in sorted(baseline.get("workloads", {}).items()):
        current = report.get("workloads", {}).get(name)
        if current is None:
            failures.append(f"{name} missing")
            continue
        pairs = [
            (tier, entry["accesses"], current.get("tiers", {}).get(tier))
            for tier, entry in sorted(base.get("tiers", {}).items())
        ]
        if "autotuned" in base:
            pairs.append(("autotuned", base["autotuned"]["accesses"], current.get("autotuned")))
        for label, limit, entry in pairs:
            checked += 1
            if entry is None:
                failures.append(f"{name}/{label} missing")
            elif entry["accesses"] > limit:
                failures.append(f"{name}/{label} {entry['accesses']:,d} > {limit:,d}")
            elif limit:
                ratios.append((entry["accesses"] / limit, f"{name}/{label}"))
    if failures:
        return "FAIL", "strict rule: " + "; ".join(failures)
    worst, label = max(ratios, default=(0.0, "none"))
    return "PASS", f"strict rule: {checked} counts; highest {worst:.2f}x of baseline ({label})"


def _medians(report: dict, tier: str) -> dict:
    return {
        name: entry["tiers"][tier]["median_seconds"]
        for name, entry in report.get("workloads", {}).items()
        if "median_seconds" in entry.get("tiers", {}).get(tier, {})
    }


def check_speedup(slow: dict, fast: dict, each, aggregate: float) -> "tuple[str, str]":
    """Median ratios *slow*/*fast* over the workloads both have: each at
    least *each* (None: no per-workload floor), in sum at least *aggregate*."""
    shared = sorted(set(slow) & set(fast))
    if not shared:
        return "FAIL", "no wall-clock medians to compare"
    ratios = {name: slow[name] / max(fast[name], 1e-9) for name in shared}
    total_slow, total_fast = sum(slow[n] for n in shared), sum(fast[n] for n in shared)
    total = total_slow / max(total_fast, 1e-9)
    low = [n for n in shared if each is not None and ratios[n] < each]
    listed = ", ".join(f"{n} {ratios[n]:.2f}x" for n in shared)
    floor = "" if each is None else f" (each >= {each:g}x)"
    text = (
        f"{listed}{floor}; aggregate {total_slow:.3f}s / {total_fast:.3f}s = "
        f"{total:.2f}x (>= {aggregate:g}x)"
    )
    return ("FAIL" if low or total < aggregate else "PASS"), text


def evaluate(report: dict, baseline: dict, prior: dict) -> "list[tuple[str, str, str]]":
    """Every claim as ``(claim, PASS | FAIL | SKIP | MISMATCH, compared numbers)``."""
    results = [("accesses",) + check_accesses(report, baseline)]
    compiled, interpreted = _medians(report, "compiled"), _medians(report, "interpreted")
    unmeasured = sorted(set(report.get("workloads", {})) - (set(compiled) & set(interpreted)))
    if unmeasured:
        results.append(("tier_ratio", "FAIL", f"no tier medians for {', '.join(unmeasured)}"))
    else:
        results.append(
            ("tier_ratio",)
            + check_speedup(interpreted, compiled, MIN_TIER_RATIO, MIN_AGGREGATE)
        )
    if _mode(report) != _mode(prior):
        results.append(
            ("prior_pin", "SKIP", f"modes differ ({_mode(report)!r} vs the pin's {_mode(prior)!r})")
        )
    else:
        results.append(
            ("prior_pin",)
            + check_speedup(_medians(prior, "compiled"), compiled, None, MIN_PRIOR_SPEEDUP)
        )
    for claim in dict.fromkeys(row[0] for row in CLAIMS):
        rows = [check_row(report, *row[1:]) for row in CLAIMS if row[0] == claim]
        status = "PASS" if all(holds for holds, _ in rows) else "FAIL"
        results.append((claim, status, "; ".join(text for _, text in rows)))
    return results


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    loaded = []
    for path in (argv[1], BASELINE, PRIOR):
        with open(path) as handle:
            loaded.append(json.load(handle))
    results = evaluate(*loaded)
    for claim, status, text in results:
        print(f"{status:8s} {claim:10s} {text}")
    statuses = {status for _, status, _ in results}
    if "FAIL" in statuses:
        return 1
    return 2 if "MISMATCH" in statuses else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
