"""Chaos differentials: seeded fault sweeps against every tier (PR 7).

Exception safety is a property of *interleaving points*: a bug only shows
when a failure lands at exactly the wrong instruction inside a mutator.
These tests make that happen on purpose — the seeded 1000-op differentials
re-run with a one-shot fault armed at a different registered site on every
step, asserting after each **survived** fault that

* the faulted operation rolled back completely (α unchanged),
* the disarmed retry succeeds and agrees with the reference mirror,
* the instance stays well-formed (Figure 5),
* on an ordered-root layout, every range read returns the mirror's
  ordered list (the compiled tier serves cached rows that each write
  must invalidate),

and that the :class:`~repro.live.LiveRelation` self-healing loop survives
an injected failure at every re-tune / migration stage: the old backing
keeps serving, the failed layout is quarantined, the circuit breaker opens
after three consecutive failures, and a dual-write window interrupted
mid-flight aborts with every write in exactly one consistent backing.
"""

import random
import time

import pytest

import repro
import repro.live as live_module
from repro import RelationSpec, Tuple, t
from repro.codegen import compile_relation
from repro.core import ReferenceRelation
from repro.core.errors import (
    FaultInjected,
    FunctionalDependencyError,
    LiveRelationError,
    MigrationError,
    ReproError,
    RetuneFailed,
)
from repro.decomposition import DecomposedRelation
from repro.faults import FAULTS, fault_sites, inject

CHAOS_OPS = 1000

#: The shared-subnode scheduler layout: two branches, an intrusive list and
#: a shared residual node — the layout with the most distinct interleaving
#: points (registry entries, intrusive links, shared cells) per operation.
SHARED_LAYOUT = (
    "[ns, pid -> htable (state -> htable @rec)"
    " ; state -> htable (ns, pid -> ilist @rec)] where @rec = {cpu}"
)

#: README's quickstart layout: a tree under a hash table, and a list in a
#: copied second branch — the list, tree, store and FD-eviction sites the
#: shared layout never reaches.
QUICKSTART_LAYOUT = (
    "[ns -> htable pid -> btree {state, cpu} ; state -> htable (ns, pid -> dlist {cpu})]"
)

#: Quickstart with an ordered ``ns`` root: compiled range reads on ``ns``
#: serve cached result rows, which every write of a row must invalidate.
ORDERED_LAYOUT = (
    "[ns -> btree pid -> htable {state, cpu} ; state -> htable (ns, pid -> dlist {cpu})]"
)

COLUMNS = ("ns", "pid", "state", "cpu")
DOMAINS = {"ns": [0, 1, 2], "pid": [0, 1, 2, 3], "state": ["R", "S", "W"], "cpu": [0, 1]}
#: The ordered layout's domains: 16 root keys, so a range read's log of one
#: or two written keys repairs the cached rows in place (past an eighth of
#: the keys the log overflows and every cached row is dropped).
ORDERED_DOMAINS = dict(DOMAINS, ns=list(range(16)))

#: Site prefixes that can actually fire per tier (the sweep arms *every*
#: registered site; these are the ones whose firing we assert coverage of).
TIER_PREFIXES = {
    "reference": ("reference.",),
    "interpreted": ("instance.", "structures."),
    "compiled": ("codegen.",),
}


def scheduler_spec():
    return RelationSpec("ns, pid, state, cpu", fds=["ns, pid -> state, cpu"], name="process")


def make_tier(tier, enforce_fds, layout):
    spec = scheduler_spec()
    if tier == "reference":
        return ReferenceRelation(spec, enforce_fds=enforce_fds)
    if tier == "interpreted":
        return DecomposedRelation(spec, layout, enforce_fds=enforce_fds)
    return compile_relation(spec, layout)(enforce_fds=enforce_fds)


def random_full_tuple(rng, domains=DOMAINS):
    return Tuple({c: rng.choice(domains[c]) for c in COLUMNS})


def random_pattern(rng, max_columns=3, domains=DOMAINS):
    chosen = rng.sample(COLUMNS, k=rng.randint(0, max_columns))
    return Tuple({c: rng.choice(domains[c]) for c in chosen})


@pytest.fixture(autouse=True)
def _clean_injector():
    """Every test starts disarmed with fresh firing stats and ends disarmed."""
    FAULTS.disarm()
    FAULTS.reset_stats()
    yield
    FAULTS.disarm()


def test_sweep_surface_has_at_least_25_sites():
    """The acceptance floor: ≥ 25 registered sites across all layers."""
    sites = fault_sites()
    assert len(sites) >= 25, sites
    for prefix in ("structures.", "instance.", "codegen.", "reference.", "live."):
        assert any(s.startswith(prefix) for s in sites), f"no {prefix}* sites"


def test_inject_context_manager_arms_and_always_disarms():
    with inject("reference.insert") as injector:
        assert injector.armed == ("reference.insert", 1)
    assert FAULTS.armed is None
    with pytest.raises(ReproError, match="unknown fault site"):
        FAULTS.arm("no.such.site")


def _faulted(mutate, relation, alpha_before):
    """Apply *mutate* to *relation* under the currently armed fault.

    If the fault fires, assert the operation rolled back completely (α is
    byte-identical to *alpha_before*), then retry disarmed.  Returns the
    FD error the (possibly retried) operation raised, or ``None``.
    """
    try:
        mutate(relation)
        return None
    except FunctionalDependencyError as error:
        return error
    except FaultInjected:
        assert relation.to_relation() == alpha_before, (
            "a faulted operation left partial effects behind"
        )
        try:
            mutate(relation)  # the one-shot plan disarmed itself: must succeed
            return None
        except FunctionalDependencyError as error:
            return error


@pytest.mark.parametrize("enforce_fds", [True, False], ids=["fd-on", "fd-off"])
@pytest.mark.parametrize(
    "tier, layout",
    [
        # The reference tier has no layout: it runs once.
        pytest.param("reference", None, id="reference"),
        pytest.param("interpreted", SHARED_LAYOUT, id="interpreted"),
        pytest.param("compiled", SHARED_LAYOUT, id="compiled"),
        pytest.param("interpreted", QUICKSTART_LAYOUT, id="interpreted-quickstart"),
        pytest.param("compiled", QUICKSTART_LAYOUT, id="compiled-quickstart"),
        pytest.param("interpreted", ORDERED_LAYOUT, id="interpreted-ordered"),
        pytest.param("compiled", ORDERED_LAYOUT, id="compiled-ordered"),
    ],
)
def test_chaos_differential(tier, layout, enforce_fds):
    """The seeded differential with a fault armed at a new site every step.

    Sites cycle through the *entire* registry (so every site is swept) with
    the target hit index deepening on every full cycle — later hits land at
    interleaving points deeper inside multi-branch walks.  On the ordered
    layout ``ns`` takes 16 values, every write is followed by a range read
    on ``ns`` compared in order (so the log a read repairs from is short),
    half of the updates change only ``cpu`` (in place on the compiled
    tier), and a step arming a ``codegen.update.*`` site draws an update;
    the other layouts do none of this, so their random streams are
    unchanged.
    """
    ranges = layout == ORDERED_LAYOUT
    domains = ORDERED_DOMAINS if ranges else DOMAINS
    rng = random.Random(0xFA117 + (1 if enforce_fds else 0))
    relation = make_tier(tier, enforce_fds, layout)
    mirror = ReferenceRelation(scheduler_spec(), enforce_fds=enforce_fds)
    sites = fault_sites()

    for step in range(CHAOS_OPS):
        site = sites[step % len(sites)]
        on_hit = (step // len(sites)) % 3 + 1
        roll = rng.random()
        if ranges and site.startswith("codegen.update."):
            roll = 0.75  # Aim the armed update site at an update.
        alpha_before = mirror.to_relation()

        FAULTS.arm(site, on_hit)
        try:
            if roll < 0.45:
                tup = random_full_tuple(rng, domains)
                op = lambda r: r.insert(tup)  # noqa: E731
            elif roll < 0.65:
                pattern = random_pattern(rng, domains=domains)
                op = lambda r: r.remove(pattern)  # noqa: E731
            elif roll < 0.85:
                pattern = random_pattern(rng, max_columns=2, domains=domains)
                if ranges and rng.random() < 0.5:  # In place: rewrites cached rows.
                    changes = Tuple(cpu=rng.choice(domains["cpu"]))
                else:
                    changes = random_pattern(rng, max_columns=2, domains=domains)
                op = lambda r: r.update(pattern, changes)  # noqa: E731
            else:
                pattern = random_pattern(rng, domains=domains)
                output = rng.sample(COLUMNS, k=rng.randint(1, 4))
                try:
                    got = relation.query(pattern, output)
                except FaultInjected:
                    got = relation.query(pattern, output)  # reads mutate nothing
                FAULTS.disarm()
                assert set(got) == set(mirror.query(pattern, output))
                continue
            tier_error = _faulted(op, relation, alpha_before)
        finally:
            FAULTS.disarm()

        mirror_error = None
        try:
            op(mirror)
        except FunctionalDependencyError as error:
            mirror_error = error
        assert (tier_error is None) == (mirror_error is None), (
            f"[{tier}] FD enforcement diverged at step {step} (site {site!r}): "
            f"tier={tier_error!r}, mirror={mirror_error!r}"
        )

        assert relation.to_relation() == mirror.to_relation(), (
            f"[{tier}] α diverged from the mirror at step {step} (site {site!r})"
        )
        if ranges:
            lo, hi = (rng.choice(domains["ns"] + [None]) for _ in range(2))
            assert relation.query_range("ns", lo, hi) == mirror.query_range("ns", lo, hi), (
                f"[{tier}] range [{lo!r}, {hi!r}] diverged at step {step} (site {site!r})"
            )
        if step % 100 == 0 or step == CHAOS_OPS - 1:
            check = getattr(relation, "check_well_formed", None)
            if check is not None:
                check()

    # The sweep must have actually exercised this tier's own sites, not
    # just armed them: the seeded mix fires many distinct ones.
    fired = set(FAULTS.fired_sites())
    relevant = {
        s for s in fired if s.startswith(TIER_PREFIXES[tier])
    }
    # The reference tier owns only 3 sites (one per mutator, each guarded
    # by duplicate/FD early-outs), so its floor is lower; the deterministic
    # test below covers each of its sites individually.
    floor = 1 if tier == "reference" else 3
    assert len(relevant) >= floor, (
        f"[{tier}] sweep fired only {sorted(relevant)} of its own sites "
        f"(all fired: {sorted(fired)})"
    )
    if tier == "compiled" and ranges:
        assert "codegen.update.in_place" in fired, sorted(fired)
        assert any(s.startswith("codegen.remove.") for s in fired), sorted(fired)
    if tier == "interpreted" and layout == QUICKSTART_LAYOUT:
        for container in ("dlist", "avl"):
            assert any(s.startswith(f"structures.{container}.") for s in fired), (
                f"the sweep fired no structures.{container}.* site: {sorted(fired)}"
            )


@pytest.mark.parametrize("enforce_fds", [True, False], ids=["fd-on", "fd-off"])
def test_reference_atomic_commit_per_site(enforce_fds):
    """Each reference.* site, deterministically: the oracle's compute-then-
    swap commit means a fault leaves the stored set byte-identical."""
    relation = ReferenceRelation(scheduler_spec(), enforce_fds=enforce_fds)
    relation.insert(t(ns=0, pid=0, state="R", cpu=0))
    relation.insert(t(ns=0, pid=1, state="S", cpu=1))
    before = relation.to_relation()

    with inject("reference.insert"):
        with pytest.raises(FaultInjected):
            relation.insert(t(ns=1, pid=0, state="W", cpu=0))
    assert relation.to_relation() == before
    with inject("reference.remove"):
        with pytest.raises(FaultInjected):
            relation.remove(t(ns=0))
    assert relation.to_relation() == before
    with inject("reference.update"):
        with pytest.raises(FaultInjected):
            relation.update(t(pid=1), t(cpu=0))
    assert relation.to_relation() == before

    # Disarmed retries all land.
    relation.insert(t(ns=1, pid=0, state="W", cpu=0))
    relation.update(t(pid=1), t(cpu=0))
    relation.remove(t(ns=0))
    assert len(relation) == 1


# -- the self-healing live relation ------------------------------------------------


def live_relation(**policy_overrides):
    """A live interpreted relation on a deliberately poor layout, warmed up
    with a lookup-heavy workload so an unfaulted re-tune *will* swap."""
    policy = {"auto": False, "min_ops": 1, "migrate_batch": 4}
    policy.update(policy_overrides)
    spec = scheduler_spec()
    rel = repro.open(
        spec,
        "ns, pid -> dlist {state, cpu}",
        tier="interpreted",
        live=True,
        policy=policy,
    )
    for i in range(48):
        rel.insert(t(ns=i % 3, pid=i % 4, state="R", cpu=i % 2))
    for i in range(48):
        rel.query(t(ns=i % 3, pid=i % 4))
    return rel


@pytest.mark.parametrize("mode", ["sync", "background", "dual-write"])
@pytest.mark.parametrize(
    "site, error_type, stage",
    [
        ("live.retune.tune", RetuneFailed, "tune"),
        ("live.retune.compile", RetuneFailed, "compile"),
        ("live.retune.verify", MigrationError, "verify"),
        ("live.migrate.copy", MigrationError, "copy"),
        ("live.swap", MigrationError, "swap"),
    ],
)
def test_retune_stage_failure_never_corrupts(site, error_type, stage, mode, monkeypatch):
    """A fault at each re-tune/migration stage aborts cleanly in every mode:
    the old backing keeps serving, α is untouched, the failure is recorded.
    Only an explicit synchronous ``retune()`` sees the error; background and
    dual-write attempts run their later stages inside later calls, which
    never fail on the re-tune loop's behalf."""
    rel = live_relation(background=mode == "background")
    before = rel.to_relation()
    with inject(site):
        if mode == "sync":
            with pytest.raises(error_type) as excinfo:
                rel.retune()
            assert excinfo.value.stage == stage
            assert isinstance(excinfo.value.__cause__, FaultInjected)
        elif mode == "background":
            report = rel.retune()
            assert report.pending  # the search runs on the daemon thread
            assert rel.finish_retune() is report  # later stages run here
        else:
            # An automatic re-tune of an instance over the threshold opens a
            # dual-write window; each later operation copies migrate_batch
            # more rows, and the one that drains it verifies and swaps.
            monkeypatch.setattr(live_module, "DUAL_WRITE_THRESHOLD", 1)
            rel.maybe_retune()
            while rel.live_stats()["migration_open"]:
                rel.query(t(ns=0))
    report = rel.retunes[-1]
    if mode == "dual-write":
        assert report.dual_write == (stage in ("copy", "verify", "swap"))
    assert rel.generation == 0
    assert rel.to_relation() == before
    rel.check_well_formed()
    stats = rel.live_stats()
    assert stats["failures"] == 1
    assert stats["consecutive_failures"] == 1
    assert stats["backoff_ops"] > 0
    assert not stats["migration_open"] and not stats["retune_pending"]
    # The report and live_stats() carry the same stage-tagged error.
    assert report.error == stats["last_error"]
    assert report.error.startswith(f"{error_type.__name__}[{stage}]: ")
    if stage in ("compile", "verify", "copy", "swap"):
        assert stats["quarantined"], "failed layout was not quarantined"
    # Still fully serviceable after the failure (the warm-up saturated the
    # key domain, so replace a row rather than growing the relation).
    rel.remove(t(ns=2, pid=3))
    rel.insert(t(ns=2, pid=3, state="W", cpu=1))
    assert len(rel) == len(before.tuples)
    assert rel.query(t(ns=2, pid=3))[0]["state"] == "W"


def test_quarantined_layout_is_never_retried():
    rel = live_relation()
    with inject("live.retune.verify"):
        with pytest.raises(MigrationError):
            rel.retune()
    quarantined = rel.live_stats()["quarantined"]
    assert quarantined
    # The next re-tune avoids the quarantined winner: it either swaps to a
    # different layout or keeps the current one — never the failed one.
    report = rel.retune()
    assert report.error is None
    if report.swapped:
        assert report.new_layout not in quarantined
    rel.check_well_formed()


def test_circuit_breaker_opens_and_resets():
    rel = live_relation()
    for _ in range(3):
        with inject("live.retune.tune"):
            with pytest.raises(RetuneFailed):
                rel.retune()
    stats = rel.live_stats()
    assert stats["circuit_open"]
    assert stats["consecutive_failures"] == 3
    # Explicit re-tunes are refused while open; automatic ones are skipped.
    with pytest.raises(RetuneFailed, match="circuit breaker open") as excinfo:
        rel.retune()
    assert excinfo.value.stage == "circuit"
    assert rel.maybe_retune() is None
    # The relation itself never stops serving.
    rel.update(t(ns=0, pid=0), t(state="S"))
    assert rel.query(t(ns=0, pid=0))[0]["state"] == "S"
    rel.reset_circuit()
    assert not rel.live_stats()["circuit_open"]
    report = rel.retune()
    assert report.error is None


def test_exponential_backoff_defers_automatic_retunes():
    rel = live_relation(min_ops=4)
    with inject("live.retune.tune"):
        with pytest.raises(RetuneFailed):
            rel.retune()
    backoff = rel.live_stats()["backoff_ops"]
    assert backoff == 8  # min_ops * 2 ** 1
    # Fewer than `backoff` ops since the failure: the drift check is deferred.
    for i in range(backoff - 1):
        rel.query(t(ns=i % 3))
    assert rel.maybe_retune() is None
    rel.query(t(ns=0))
    report = rel.maybe_retune()
    assert report is not None and report.error is None


def test_dual_write_interrupted_mid_window_lands_in_one_backing():
    """Satellite: a dual-write migration interrupted mid-window aborts with
    every write applied to exactly one consistent backing (the old one)."""
    rng = random.Random(20110607)
    # migrate_batch=1 keeps the window open across all the steps below.
    rel = live_relation(migrate_batch=1)
    mirror = ReferenceRelation(scheduler_spec())
    for tup in rel.to_relation().tuples:
        mirror.insert(tup)

    report = rel.retune(dual_write=True)
    assert rel.live_stats()["migration_open"]
    assert report.dual_write

    # Interleave user writes with the copy pump; one of them faults on the
    # dual-write mirror into the target.
    fault_at = 2
    for step in range(12):
        ns, pid = rng.choice(DOMAINS["ns"]), rng.choice(DOMAINS["pid"])
        state, cpu = rng.choice(DOMAINS["state"]), rng.choice(DOMAINS["cpu"])
        op_roll = rng.random()
        if step == fault_at:
            FAULTS.arm("live.migrate.dual_write")
        try:
            if op_roll < 0.6:
                tup = t(ns=ns, pid=pid, state=state, cpu=cpu)
                rel.remove(t(ns=ns, pid=pid))
                mirror.remove(t(ns=ns, pid=pid))
                rel.insert(tup)
                mirror.insert(tup)
            else:
                rel.remove(t(ns=ns, pid=pid))
                mirror.remove(t(ns=ns, pid=pid))
        finally:
            FAULTS.disarm()
        # After every step — faulted or not — the facade agrees with the
        # mirror: writes never land in a half-migrated limbo.
        assert rel.to_relation() == mirror.to_relation(), f"diverged at step {step}"

    stats = rel.live_stats()
    assert not stats["migration_open"], "window should have aborted"
    assert rel.generation == 0, "aborted migration must not swap"
    assert stats["failures"] == 1
    assert stats["quarantined"]
    assert "dual-write" in stats["last_error"]
    rel.check_well_formed()

    # After reset, a clean re-tune still works and preserves the contents.
    rel.reset_circuit(clear_quarantine=True)
    final = rel.to_relation()
    report = rel.retune(dual_write=True)
    rel.finish_migration()
    assert rel.generation == 1
    assert rel.to_relation() == final


def test_dual_write_copy_pump_fault_aborts_without_failing_the_user_op():
    rel = live_relation()
    rel.retune(dual_write=True)
    before = rel.to_relation()
    with inject("live.migrate.copy"):
        rel.query(t(ns=0))  # pumps the window; the user's query must not raise
    stats = rel.live_stats()
    assert not stats["migration_open"]
    assert rel.generation == 0
    assert rel.to_relation() == before
    assert "copy" in stats["last_error"]


def test_background_retune_happy_path():
    rel = live_relation(background=True)
    before = rel.to_relation()
    report = rel.retune()
    assert report.pending
    assert rel.live_stats()["retune_pending"]
    finished = rel.finish_retune()
    assert finished is report and not report.pending
    assert report.error is None and report.swapped
    assert rel.generation == 1
    assert rel.to_relation() == before
    rel.check_well_formed()


def test_background_retune_watchdog_abandons_stragglers(monkeypatch):
    real_autotune = live_module.autotune

    def slow_autotune(*args, **kwargs):
        time.sleep(0.2)
        return real_autotune(*args, **kwargs)

    monkeypatch.setattr(live_module, "autotune", slow_autotune)
    rel = live_relation(background=True, retune_timeout=0.01)
    before = rel.to_relation()
    report = rel.retune()
    time.sleep(0.05)
    finished = rel.finish_retune()
    assert finished is report
    assert report.error is not None and "watchdog" in report.error
    assert rel.generation == 0
    assert rel.to_relation() == before
    stats = rel.live_stats()
    assert stats["failures"] == 1 and not stats["retune_pending"]


def test_background_tune_fault_is_collected_on_the_caller_thread():
    rel = live_relation(background=True)
    before = rel.to_relation()
    with inject("live.retune.tune"):
        report = rel.retune()
        finished = rel.finish_retune()
    assert finished is report
    assert report.error is not None and "tune" in report.error
    assert rel.generation == 0
    assert rel.to_relation() == before


def test_open_relation_structured_errors_name_valid_choices():
    spec = scheduler_spec()
    with pytest.raises(LiveRelationError, match="valid tiers: auto, reference"):
        repro.open(spec, tier="compliled")
    with pytest.raises(LiveRelationError, match="valid structures: "):
        repro.open(spec, "ns, pid -> zipmap {state, cpu}")
    with pytest.raises(LiveRelationError, match="Decomposition or a layout string"):
        repro.open(spec, layout=42)


def test_faults_are_exported_at_the_top_level():
    assert repro.FAULTS is FAULTS
    assert repro.fault_sites() == fault_sites()
    with repro.inject("reference.insert"):
        assert FAULTS.active


def test_register_site_enforces_the_dotted_namespace():
    from repro.faults import FaultInjector

    inj = FaultInjector()
    assert inj.register_site("custom.layer.op") == "custom.layer.op"
    assert inj.register_site("custom.layer.op") == "custom.layer.op"  # idempotent
    assert inj.sites() == ["custom.layer.op"]
    for bad in ("", "nodots", "Upper.case", "has space.op", "trailing.", ".leading"):
        with pytest.raises(ReproError, match="site name|non-empty"):
            inj.register_site(bad)
    assert inj.sites() == ["custom.layer.op"]


def test_assert_all_sites_known_accepts_registered_and_names_unknown():
    from repro.faults import assert_all_sites_known

    sites = fault_sites()
    assert_all_sites_known(sites)  # the full registry round-trips
    assert_all_sites_known([])
    assert_all_sites_known(iter(sites[:3]))  # any iterable
    with pytest.raises(ReproError, match="'codegen.insert.bogus'") as exc:
        assert_all_sites_known([sites[0], "codegen.insert.bogus", "zzz.unknown"])
    # Every unknown name is listed, known ones are not.
    assert "'zzz.unknown'" in str(exc.value)
    assert "unknown fault site(s): 'codegen.insert.bogus'" in str(exc.value)
