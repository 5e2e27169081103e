"""Batch mutation paths: streaming fully-indexed removes and in-place
residual-only updates (PR 8).

The execution-core refactor added three fused fast paths that skip the
generic materialise/remove/re-insert machinery:

* interpreted ``update`` with residual-only changes rewrites victims in
  place through :meth:`DecomposedInstance.update_residuals`
  (site ``instance.update.residual``);
* compiled ``update`` with ``_RS``-covered changes dispatches to the
  emitted ``_update_in_place`` (site ``codegen.update.in_place``);
* compiled ``remove`` with a fully-indexed pattern takes the fused
  single-victim ``_rm_<mask>`` chain (site ``codegen.remove.batch``).

Each path must be *provably taken* (the registered fault site fires when
armed — a negative probe shows the slow path does not reach it), must be
**strongly exception safe** (a fault mid-batch rolls every victim back),
must pay the cheaper asymptotics the scorer now prices, and must stay
α-equivalent with the reference oracle under a seeded 1000-op
differential weighted toward the batch operations, FD-on and FD-off,
with fault probes interleaved every 50 steps so the sweep exercises the
sites *in the middle of* a long mutation history, not just on a fresh
relation.
"""

import random

import pytest

from repro import RelationSpec, Tuple, t
from repro.codegen import compile_relation
from repro.core import ReferenceRelation
from repro.core.errors import FaultInjected, FunctionalDependencyError
from repro.decomposition import DecomposedRelation
from repro.faults import FAULTS, fault_sites, inject
from repro.structures import COUNTER

BATCH_OPS = 1000

#: The shared-subnode scheduler layout: ``cpu`` is residual-only (lives in
#: the shared ``@rec`` leaf, outside every edge key) and the pattern
#: ``{ns, pid, state}`` plans as a pure lookup chain — so both batch paths
#: exist and both have a non-batch sibling to contrast against.
LAYOUT = (
    "[ns, pid -> htable (state -> htable @rec)"
    " ; state -> htable (ns, pid -> ilist @rec)] where @rec = {cpu}"
)

COLUMNS = ("ns", "pid", "state", "cpu")
DOMAINS = {"ns": [0, 1, 2], "pid": [0, 1, 2, 3], "state": ["R", "S", "W"], "cpu": [0, 1]}

BATCH_SITES = (
    "codegen.remove.batch",
    "codegen.update.in_place",
    "instance.update.residual",
)


def scheduler_spec():
    return RelationSpec("ns, pid, state, cpu", fds=["ns, pid -> state, cpu"], name="process")


def make_tier(tier, enforce_fds=True):
    spec = scheduler_spec()
    if tier == "interpreted":
        return DecomposedRelation(spec, LAYOUT, enforce_fds=enforce_fds)
    return compile_relation(spec, LAYOUT)(enforce_fds=enforce_fds)


@pytest.fixture(autouse=True)
def _clean_injector():
    FAULTS.disarm()
    FAULTS.reset_stats()
    yield
    FAULTS.disarm()


def test_batch_sites_are_registered_for_the_chaos_sweep():
    """The three batch-path sites are in the global registry, so the
    ``test_faults`` chaos differential arms them automatically — the new
    fast paths joined the sweep surface the moment they were written."""
    sites = fault_sites()
    for site in BATCH_SITES:
        assert site in sites, f"{site} missing from the sweep surface"


# -- the paths are provably taken (and the slow siblings provably are not) --------


class TestPathDispatch:
    """Positive probe: arming the site and performing the batch operation
    fires the fault.  Negative probe: the same operation shaped so it must
    take the generic path never reaches the site."""

    def seeded(self, tier):
        rel = make_tier(tier)
        rel.insert(t(ns=0, pid=1, state="R", cpu=0))
        rel.insert(t(ns=1, pid=2, state="S", cpu=1))
        return rel

    def test_compiled_fully_indexed_remove_takes_the_fused_chain(self):
        rel = self.seeded("compiled")
        before = rel.to_relation()
        with inject("codegen.remove.batch"):
            with pytest.raises(FaultInjected):
                rel.remove(t(ns=0, pid=1, state="R"))
        assert rel.to_relation() == before, "faulted batch remove left effects"
        rel.remove(t(ns=0, pid=1, state="R"))  # disarmed retry lands
        assert len(rel) == 1

    def test_compiled_partial_pattern_remove_avoids_the_fused_chain(self):
        rel = self.seeded("compiled")
        # {ns, pid} + the leaf residual {cpu} does not pin `state`: the
        # plan is not a full-coverage lookup chain, so the generic
        # victim-materialising remove runs and the site stays silent.
        with inject("codegen.remove.batch"):
            rel.remove(t(ns=0, pid=1))
        assert len(rel) == 1
        assert FAULTS.fired_sites() == []

    def test_compiled_residual_update_takes_the_in_place_path(self):
        rel = self.seeded("compiled")
        before = rel.to_relation()
        with inject("codegen.update.in_place"):
            with pytest.raises(FaultInjected):
                rel.update(t(ns=0, pid=1), t(cpu=1))
        assert rel.to_relation() == before, "faulted in-place update left effects"
        rel.update(t(ns=0, pid=1), t(cpu=1))
        assert rel.query(t(ns=0, pid=1))[0]["cpu"] == 1

    def test_compiled_key_moving_update_avoids_the_in_place_path(self):
        rel = self.seeded("compiled")
        # `state` keys a container edge: the change must go through the
        # remove/re-insert pipeline, never the residual rewrite.
        with inject("codegen.update.in_place"):
            rel.update(t(ns=0, pid=1), t(state="W"))
        assert rel.query(t(ns=0, pid=1))[0]["state"] == "W"
        assert FAULTS.fired_sites() == []

    def test_interpreted_residual_update_takes_the_residual_path(self):
        rel = self.seeded("interpreted")
        before = rel.to_relation()
        with inject("instance.update.residual"):
            with pytest.raises(FaultInjected):
                rel.update(t(ns=0, pid=1), t(cpu=1))
        assert rel.to_relation() == before
        rel.check_well_formed()
        rel.update(t(ns=0, pid=1), t(cpu=1))
        assert rel.query(t(ns=0, pid=1))[0]["cpu"] == 1

    def test_interpreted_key_moving_update_avoids_the_residual_path(self):
        rel = self.seeded("interpreted")
        with inject("instance.update.residual"):
            rel.update(t(ns=0, pid=1), t(state="W"))
        assert rel.query(t(ns=0, pid=1))[0]["state"] == "W"
        assert FAULTS.fired_sites() == []


# -- mid-batch rollback -------------------------------------------------------------


@pytest.mark.parametrize("tier, site", [
    ("interpreted", "instance.update.residual"),
    ("compiled", "codegen.update.in_place"),
])
def test_multi_victim_residual_update_rolls_back_completely(tier, site):
    """A fault on the *third* victim of a batch residual update must undo
    the two victims already rewritten — the batch is atomic, not per-row."""
    rel = make_tier(tier)
    for pid in range(6):
        rel.insert(t(ns=0, pid=pid, state="R", cpu=0))
    before = rel.to_relation()
    FAULTS.arm(site, on_hit=3)
    try:
        with pytest.raises(FaultInjected):
            rel.update(t(state="R"), t(cpu=1))
    finally:
        FAULTS.disarm()
    assert rel.to_relation() == before, (
        "a fault mid-batch left earlier victims rewritten"
    )
    check = getattr(rel, "check_well_formed", None)
    if check is not None:
        check()
    rel.update(t(state="R"), t(cpu=1))  # the disarmed retry rewrites all six
    assert all(row["cpu"] == 1 for row in rel.query(t(state="R")))


# -- the cheaper asymptotics the scorer prices --------------------------------------


class TestBatchAsymptotics:
    def populate(self, tier, n=200):
        rel = make_tier(tier)
        rng = random.Random(3)
        for i in range(n):
            rel.insert(t(ns=i % 8, pid=i, state=rng.choice("RSW"), cpu=i % 4))
        return rel

    @pytest.mark.parametrize("tier", ["interpreted", "compiled"])
    def test_residual_update_is_cheaper_than_a_key_move(self, tier):
        rel = self.populate(tier)
        with COUNTER:
            rel.update(t(ns=3, pid=3), t(cpu=1))
            residual = COUNTER.accesses
        with COUNTER:
            rel.update(t(ns=3, pid=3), t(state="W"))
            key_move = COUNTER.accesses
        # Same victim, same probes to find it: the in-place rewrite skips
        # the whole unlink/re-link churn across both branches.
        assert residual < key_move / 2, (residual, key_move)

    @pytest.mark.parametrize("tier", ["interpreted", "compiled"])
    def test_fully_indexed_remove_is_a_lookup_not_a_scan(self, tier):
        rel = self.populate(tier)
        row = rel.query(t(pid=10))[0]
        with COUNTER:
            rel.remove(t(ns=row["ns"], pid=row["pid"], state=row["state"]))
            indexed = COUNTER.accesses
        with COUNTER:
            rel.remove(t(cpu=3))  # unindexed: filters a full branch scan
            scanned = COUNTER.accesses
        assert indexed <= 10, indexed
        assert scanned >= 200, scanned


# -- the seeded differential --------------------------------------------------------


def random_full_tuple(rng):
    return Tuple({c: rng.choice(DOMAINS[c]) for c in COLUMNS})


def random_pattern(rng, max_columns=3):
    chosen = rng.sample(COLUMNS, k=rng.randint(0, max_columns))
    return Tuple({c: rng.choice(DOMAINS[c]) for c in chosen})


def _agree(op, relation, mirror, context):
    """Apply *op* to both sides; FD verdicts and α must agree."""
    tier_error = mirror_error = None
    try:
        op(relation)
    except FunctionalDependencyError as error:
        tier_error = error
    try:
        op(mirror)
    except FunctionalDependencyError as error:
        mirror_error = error
    assert (tier_error is None) == (mirror_error is None), (
        f"FD enforcement diverged {context}: tier={tier_error!r}, "
        f"mirror={mirror_error!r}"
    )
    assert relation.to_relation() == mirror.to_relation(), f"α diverged {context}"


def _fault_probe(relation, mirror, site, victim_row, context):
    """Arm *site* and run the batch op it guards against a row known to be
    stored: the fault MUST fire (the path is taken mid-history), the
    faulted op must roll back, and the disarmed retry must land."""
    before = mirror.to_relation()
    if site == "codegen.remove.batch":
        pattern = Tuple({c: victim_row[c] for c in ("ns", "pid", "state")})
        op = lambda r: r.remove(pattern)  # noqa: E731
    else:
        pattern = Tuple({c: victim_row[c] for c in ("ns", "pid")})
        changes = Tuple(cpu=1 - victim_row["cpu"])
        op = lambda r: r.update(pattern, changes)  # noqa: E731
    FAULTS.arm(site)
    try:
        with pytest.raises(FaultInjected):
            op(relation)
    finally:
        FAULTS.disarm()
    assert relation.to_relation() == before, (
        f"faulted batch op left partial effects {context}"
    )
    _agree(op, relation, mirror, context)


@pytest.mark.parametrize("enforce_fds", [True, False], ids=["fd-on", "fd-off"])
@pytest.mark.parametrize("tier", ["interpreted", "compiled"])
def test_batch_differential(tier, enforce_fds):
    """The seeded 1000-op differential, weighted toward the batch paths.

    Roughly half the mutations are residual-only updates or fully-indexed
    removes — the operations the new fast paths serve — interleaved with
    ordinary inserts, key-moving updates and scan removes so the batch
    paths run against a relation the generic paths keep churning.  Every
    50 steps a fault probe arms the tier's batch site against a stored row
    and asserts it fires: proof the fast path is the one serving these
    shapes throughout the run, not just on a fresh relation.
    """
    rng = random.Random(0xBA7C4 + (1 if enforce_fds else 0))
    relation = make_tier(tier, enforce_fds)
    mirror = ReferenceRelation(scheduler_spec(), enforce_fds=enforce_fds)
    probe_sites = (
        ("instance.update.residual",)
        if tier == "interpreted"
        else ("codegen.update.in_place", "codegen.remove.batch")
    )
    probes = 0

    for step in range(BATCH_OPS):
        context = f"[{tier}] at step {step}"
        if step % 50 == 25:
            stored = sorted(mirror.to_relation().tuples, key=Tuple.sort_key)
            if stored:
                site = probe_sites[probes % len(probe_sites)]
                _fault_probe(
                    relation, mirror, site, stored[probes % len(stored)], context
                )
                probes += 1
                continue
        roll = rng.random()
        if roll < 0.30:
            tup = random_full_tuple(rng)
            op = lambda r: r.insert(tup)  # noqa: E731
        elif roll < 0.50:
            # Residual-only update: the batch in-place path, through
            # patterns of every selectivity (empty pattern = all rows).
            pattern = random_pattern(rng)
            changes = Tuple(cpu=rng.choice(DOMAINS["cpu"]))
            op = lambda r: r.update(pattern, changes)  # noqa: E731
        elif roll < 0.65:
            # Fully-indexed remove: the fused single-victim path (against
            # a stored row half the time so it actually removes).
            stored = sorted(mirror.to_relation().tuples, key=Tuple.sort_key)
            if stored and rng.random() < 0.5:
                row = stored[rng.randrange(len(stored))]
                pattern = Tuple({c: row[c] for c in ("ns", "pid", "state")})
            else:
                pattern = Tuple(
                    {c: rng.choice(DOMAINS[c]) for c in ("ns", "pid", "state")}
                )
            op = lambda r: r.remove(pattern)  # noqa: E731
        elif roll < 0.75:
            # Key-moving update: the generic remove/re-insert pipeline.
            pattern = random_pattern(rng, max_columns=2)
            changes = Tuple(state=rng.choice(DOMAINS["state"]))
            op = lambda r: r.update(pattern, changes)  # noqa: E731
        elif roll < 0.85:
            pattern = random_pattern(rng)
            op = lambda r: r.remove(pattern)  # noqa: E731
        else:
            pattern = random_pattern(rng)
            output = rng.sample(COLUMNS, k=rng.randint(1, 4))
            assert set(relation.query(pattern, output)) == set(
                mirror.query(pattern, output)
            ), context
            continue
        _agree(op, relation, mirror, context)
        if step % 100 == 0 or step == BATCH_OPS - 1:
            check = getattr(relation, "check_well_formed", None)
            if check is not None:
                check()

    assert probes >= 10, "too few fault probes ran"
    fired = set(FAULTS.fired_sites())
    assert fired >= set(probe_sites), (
        f"[{tier}] batch sites never all fired: {sorted(fired)}"
    )
