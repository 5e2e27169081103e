"""Tests for the benchmark claims checker (``benchmarks/check.py``).

Each claim gets a healthy synthetic report that passes and broken reports
that fail it — one for every check the checker makes.  Access counts are
compared strictly, whatever hash configuration a report records;
wall-clock floors hold in quick and full-length mode alike.
"""

import json

import pytest

from benchmarks import check
from benchmarks.check import evaluate

SHARED = (
    "[ns, pid -> htable (state -> htable @rec)"
    " ; state -> htable (ns, pid -> ilist @rec)] where @rec = {cpu}"
)
COPIED = "[ns, pid -> htable {state, cpu} ; state -> htable (ns, pid -> dlist {cpu})]"


def report(mode="quick", accesses=1000, autotuned=400, interpreted=1.0, compiled=0.1):
    """A report on which every claim holds (``prior_pin`` skips across modes)."""
    def workload():
        return {
            "tiers": {
                "interpreted": {"accesses": accesses, "median_seconds": interpreted},
                "compiled": {"accesses": accesses // 2, "median_seconds": compiled},
            },
            "autotuned": {
                "accesses": autotuned,
                "hand_written": {
                    "primary": {"layout": SHARED, "accesses": accesses},
                    "copied-2branch": {"layout": COPIED, "accesses": 69750},
                },
            },
        }

    return {
        "meta": {"mode": mode},
        "workloads": {name: workload() for name in check.WORKLOADS},
        "join_plan": {
            "workload": "graph_reverse",
            "chosen_is_join": True,
            "join_accesses": 433,
            "single_accesses": 1335,
        },
        "retune": {
            "workload": "graph_drift",
            "swaps": 1,
            "alpha_equivalent": True,
            "old_layout": "src -> htable (dst -> htable {weight})",
            "new_layout": "dst -> htable (src -> htable {weight})",
            "old_tail_accesses": 9892,
            "new_tail_accesses": 1443,
        },
    }


def prior(mode="default", compiled=0.4):
    return {
        "meta": {"mode": mode},
        "workloads": {"scheduler": {"tiers": {"compiled": {"median_seconds": compiled}}}},
    }


def statuses(current, baseline=None, pin=None):
    baseline = report() if baseline is None else baseline
    pin = prior() if pin is None else pin
    return {claim: status for claim, status, _ in evaluate(current, baseline, pin)}


def texts(current, baseline):
    return {claim: text for claim, _, text in evaluate(current, baseline, prior())}


HEALTHY = {
    "accesses": "PASS",
    "tier_ratio": "PASS",
    "prior_pin": "SKIP",
    "sharing": "PASS",
    "join": "PASS",
    "retune": "PASS",
    "scorer": "PASS",
}


def test_healthy_report_passes():
    assert statuses(report()) == HEALTHY
    # With matching modes the prior pin is compared: 0.4s / 0.1s = 4x.
    full = report(mode="default")
    assert statuses(full, report(mode="default"), prior())["prior_pin"] == "PASS"


def test_access_regression_is_fatal_in_quick_mode():
    current = report(accesses=2100)
    assert statuses(current) == dict(HEALTHY, accesses="FAIL")
    assert "scheduler/interpreted 2,100 > 1,000" in texts(current, report())["accesses"]


def test_autotuned_access_regression_is_fatal():
    current = report(autotuned=850)
    assert statuses(current)["accesses"] == "FAIL"
    assert "scheduler/autotuned 850 > 400" in texts(current, report())["accesses"]


def test_missing_autotuned_section_fails_when_baseline_has_it():
    current = report()
    del current["workloads"]["scheduler"]["autotuned"]
    assert statuses(current)["accesses"] == "FAIL"
    assert "scheduler/autotuned missing" in texts(current, report())["accesses"]


def test_autotuned_section_optional_when_baseline_lacks_it():
    # Baselines without the autotuned column impose no autotuned bound.
    baseline = report()
    del baseline["workloads"]["scheduler"]["autotuned"]
    current = report()
    del current["workloads"]["scheduler"]["autotuned"]
    assert statuses(current, baseline)["accesses"] == "PASS"


@pytest.mark.parametrize("mode", ["quick", "default"])
def test_timing_inversion_fails_in_both_modes(mode):
    # Compiled 0.7x the interpreted tier: below the 2.0x floor in quick and
    # full-length mode alike (medians of three replays, not one sample).
    current = report(mode=mode, compiled=1.0 / 0.7)
    assert statuses(current, report(mode=mode))["tier_ratio"] == "FAIL"


def test_strict_accesses_fails_on_any_increase():
    # The counts are exact, so the zero-overhead gate allows not a single
    # extra access.
    current = report(accesses=1001)
    assert statuses(current)["accesses"] == "FAIL"
    text = texts(current, report())["accesses"]
    assert text.startswith("strict rule") and "1,001 > 1,000" in text


def test_strict_accesses_covers_the_autotuned_section():
    current = report(autotuned=401)
    assert statuses(current)["accesses"] == "FAIL"
    assert "scheduler/autotuned 401 > 400" in texts(current, report())["accesses"]


def test_strict_accesses_passes_on_identical_and_improved_counts():
    assert statuses(report()) == HEALTHY
    assert texts(report(), report())["accesses"].startswith("strict rule")
    assert statuses(report(accesses=900, autotuned=300)) == HEALTHY


@pytest.mark.parametrize(
    "hashing",
    [
        {"hash_algorithm": "siphash24", "hash_seed": 0},  # CPython 3.9/3.10
        {"hash_algorithm": "siphash13", "hash_seed": None},  # randomised hashing
        {"hash_algorithm": "siphash13", "hash_seed": 5},  # another seed
    ],
)
def test_strict_rule_applies_whatever_hash_meta_a_report_carries(hashing):
    # Counts follow no str hash, so hash fields (which older reports carry)
    # change nothing: not one access above the baseline passes.
    pinned = report()
    pinned["meta"].update(hash_algorithm="siphash13", hash_seed=0)
    for baseline in (report(), pinned):
        current = report()
        current["meta"].update(hashing)
        assert statuses(current, baseline) == HEALTHY
        assert texts(current, baseline)["accesses"].startswith("strict rule")
        for worse in (report(accesses=1001), report(autotuned=401)):
            worse["meta"].update(hashing)
            assert statuses(worse, baseline)["accesses"] == "FAIL"


def test_missing_workload_and_tier_are_fatal():
    current = report()
    del current["workloads"]["scheduler"]["tiers"]["compiled"]
    assert "scheduler/compiled missing" in texts(current, report())["accesses"]
    current = report()
    del current["workloads"]["scheduler"]
    assert statuses(current)["accesses"] == "FAIL"
    assert "scheduler missing" in texts(current, report())["accesses"]


_CHURN = "workloads.scheduler_churn.autotuned.hand_written."
_COMPILED = "workloads.{}.tiers.compiled.median_seconds"

#: One broken report per check: ``(claims it fails, [(field, new value)])``;
#: a value of ``None`` deletes the field.
BROKEN = {
    "one-workload-below-2x": ("tier_ratio", [(_COMPILED.format("scheduler"), 0.6)]),
    "aggregate-below-4x": (
        "tier_ratio", [(_COMPILED.format(w), 0.3) for w in check.WORKLOADS]
    ),
    "no-tier-median": (
        "tier_ratio", [("workloads.scheduler.tiers.interpreted.median_seconds", None)]
    ),
    "primary-not-shared": ("sharing", [(_CHURN + "primary.layout", COPIED)]),
    "shared-not-cheaper": ("sharing scorer", [(_CHURN + "primary.accesses", 69750)]),
    "churn-autotuned-missing": (
        "accesses sharing scorer", [("workloads.scheduler_churn.autotuned", None)]
    ),
    "autotuned-missing": ("accesses scorer", [("workloads.scheduler.autotuned", None)]),
    "join-missing": ("join", [("join_plan", None)]),
    "join-wrong-workload": ("join", [("join_plan.workload", "graph")]),
    "plan-not-a-join": ("join", [("join_plan.chosen_is_join", False)]),
    "join-not-cheaper": ("join", [("join_plan.join_accesses", 1335)]),
    "join-counted-nothing": ("join", [("join_plan.join_accesses", 0)]),
    "retune-missing": ("retune", [("retune", None)]),
    "retune-wrong-workload": ("retune", [("retune.workload", "graph")]),
    "no-swap": ("retune", [("retune.swaps", 0)]),
    "not-alpha-equivalent": ("retune", [("retune.alpha_equivalent", False)]),
    "same-layout": ("retune", [("retune.new_layout", "src -> htable (dst -> htable {weight})")]),
    "tail-not-cheaper": ("retune", [("retune.new_tail_accesses", 9892)]),
    "tail-counted-nothing": ("retune", [("retune.new_tail_accesses", 0)]),
    "scorer-diverges": (
        "scorer", [("workloads.graph_reverse.autotuned.hand_written.primary.accesses", 999)]
    ),
    "scorer-workload-missing": ("accesses scorer", [("workloads.spanning", None)]),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_each_check_fails_its_broken_report(case):
    failing, edits = BROKEN[case]
    current = report()
    for path, value in edits:
        *parents, leaf = path.split(".")
        node = current
        for key in parents:
            node = node[key]
        if value is None:
            del node[leaf]
        else:
            node[leaf] = value
    assert statuses(current) == dict(HEALTHY, **{claim: "FAIL" for claim in failing.split()})


def test_prior_pin_fails_below_floor_with_matching_modes_and_skips_otherwise():
    full = report(mode="default")
    slow = prior(compiled=0.29)  # 0.29s / 0.1s = 2.9x, below the 3.0x floor
    assert statuses(full, report(mode="default"), slow)["prior_pin"] == "FAIL"
    assert statuses(report(), report(), slow)["prior_pin"] == "SKIP"
    disjoint = prior()
    disjoint["workloads"] = {"elsewhere": disjoint["workloads"].pop("scheduler")}
    assert statuses(full, report(mode="default"), disjoint)["prior_pin"] == "FAIL"


def test_main_exit_codes_and_one_line_per_claim(tmp_path, monkeypatch, capsys):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    monkeypatch.setattr(check, "BASELINE", write("baseline.json", report()))
    monkeypatch.setattr(check, "PRIOR", write("prior.json", prior()))
    assert check.main(["check.py", write("ok.json", report())]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(HEALTHY)
    assert check.main(["check.py", write("bad.json", report(accesses=1001))]) == 1
    # A full-length report against the quick baseline: counts not comparable.
    assert check.main(["check.py", write("full.json", report(mode="default"))]) == 2
    assert "MISMATCH" in capsys.readouterr().out
    broken = report(mode="default")
    del broken["join_plan"]
    assert check.main(["check.py", write("broken.json", broken)]) == 1


def test_checked_in_reports_carry_every_field_the_claims_read():
    baseline = json.loads(check.BASELINE.read_text())
    pin = json.loads(check.PRIOR.read_text())
    assert statuses(baseline, baseline, pin) == HEALTHY
    full = json.loads((check.BASELINE.parent / "BENCH_14.json").read_text())
    result = statuses(full, baseline, pin)
    assert result["accesses"] == "MISMATCH"  # full-length counts vs the quick baseline
    assert {result[claim] for claim in ("tier_ratio", "sharing", "join", "retune", "scorer")} == {
        "PASS"
    }
