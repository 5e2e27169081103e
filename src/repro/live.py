"""``repro.live`` — a self-tuning relation behind one stable handle.

The paper's synthesis loop (Section 5) is offline: record a trace, pick a
layout, compile, done.  This module closes the loop *online*:

* :class:`SamplingTraceRecorder` — an always-on, bounded-overhead workload
  sampler: a decayed reservoir of concrete operations (the re-tune trace's
  tail) plus a sliding-window operation-mix histogram (the drift signal).
  Steady-state cost is O(1) per operation — one counter bump, one deque
  append, one RNG draw and an amortized drift check — and O(capacity +
  window) memory, so profiling can stay on in production;
* :class:`RetunePolicy` — when to re-tune (a minimum operation count
  between tunings plus a total-variation drift threshold on the observed
  operation mix) and how an attempt is paced;
* :class:`LiveRelation` — a :class:`~repro.core.interface.RelationInterface`
  facade that owns the current backing implementation (reference,
  interpreted or compiled), samples every operation, re-runs the autotuner
  when the mix drifts, and **migrates between layouts via α**: both the old
  and the new layout provably represent the same relation, so migration is
  enumerate-the-old + reinsert-into-the-new, checked for α-equivalence,
  then an atomic swap of the backing object — every reference through the
  facade sees the new layout;
* :func:`open_relation` (re-exported as ``repro.open``) — the one factory
  behind every tier: ``repro.open(spec, layout, tier=..., tune=...,
  live=...)`` replaces reaching for ``ReferenceRelation``,
  ``DecomposedRelation``, ``compile_relation`` or ``synthesize`` directly.

Every re-tune is one *attempt* that a single driver runs through fixed
stages — tune → pick (skipping quarantined layouts) → guard → compile →
copy → verify → swap — with one failure handler.  *Background* mode runs
only the tune stage on a daemon thread; *dual-write* mode paces the copy
stage at ``migrate_batch`` rows per later operation.  The failure policy
is fixed: a failed stage keeps the old backing serving, quarantines the
layout, backs off ``min_ops·2^k`` operations after the *k*-th consecutive
failure, and opens the circuit breaker at three.

The re-tune trace is synthesized from what the facade knows: inserts
reconstructing the **current contents** (the data distribution) followed by
the reservoir's sampled operations in arrival order (the operation mix) —
exactly the two inputs the autotuner's scorer consumes.  The current layout
is force-included in the search, so a re-tune whose winner keeps the
current shape swaps nothing.
"""

from __future__ import annotations

import math
import random
import threading
import time
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple as PyTuple, Union

from .autotuner.enumerator import canonical_shape
from .autotuner.scorer import ScoredCandidate
from .autotuner.trace import Trace
from .autotuner.tuner import TuningResult, autotune
from .codegen import compile_relation
from .core.errors import (
    LiveRelationError,
    MigrationError,
    ReproError,
    RetuneFailed,
)
from .core.interface import RelationInterface, coerce_tuple
from .core.reference import ReferenceRelation
from .core.relation import Relation
from .core.spec import RelationSpec
from .core.tuples import Tuple
from .decomposition.model import Decomposition
from .decomposition.parser import parse_decomposition
from .decomposition.relation import DecomposedRelation
from .faults import FAULTS, register_site
from .structures.registry import structure_names

__all__ = [
    "LiveRelation",
    "RetunePolicy",
    "RetuneReport",
    "SamplingTraceRecorder",
    "default_layout",
    "open_relation",
]

# Fault-injection sites of the re-tune / migration pipeline (see
# :mod:`repro.faults`): each names one stage at which the self-healing loop
# must fail *cleanly* — abort the attempt, keep the old backing serving,
# quarantine the failed layout.
for _site in (
    "live.retune.tune",
    "live.retune.compile",
    "live.retune.verify",
    "live.migrate.copy",
    "live.migrate.dual_write",
    "live.swap",
):
    register_site(_site)
del _site

#: The operation kinds a sampler key distinguishes (insert keys carry no
#: pattern — every insert binds the full column set).
Operation = PyTuple

#: The migration guard's payback requirement: a swap must recoup its
#: migration cost within this many ``min_ops`` re-tune windows (or within
#: the ops actually observed since the last tune, whichever is longer).
#: Deliberately generous — the reservoir sample still contains pre-drift
#: operations, so the replayed access gap *understates* the winner's
#: steady-state advantage; the guard exists to stop marginal winners from
#: forcing a full-relation migration on big instances, not to second-guess
#: a clear drift.
_GUARD_PAYBACK_WINDOWS = 16

#: Instances at least this large migrate through a dual-write window
#: instead of one synchronous copy; ``retune(dual_write=...)`` overrides it.
DUAL_WRITE_THRESHOLD = 100_000

#: Consecutive failed attempts that open the circuit breaker.
_CIRCUIT_FAILURES = 3

#: How the failure handler reports a failed stage: error type, and what
#: failed (formatted with the winner's layout).
_STAGE_ERRORS = {
    "tune": (RetuneFailed, "autotune search"),
    "compile": (RetuneFailed, "compiling winner {!r}"),
    "copy": (MigrationError, "copying rows into {!r}"),
    "dual-write": (MigrationError, "dual-write into migration target {!r}"),
    "verify": (MigrationError, "α-verification of {!r}"),
    "swap": (MigrationError, "swapping in {!r}"),
}


def _op_key(op: Operation) -> PyTuple:
    """The mix-histogram key of one operation: kind + bound pattern columns
    (a range read's one column)."""
    kind = op[0]
    if kind == "insert":
        return ("insert",)
    if kind == "range":
        return ("range", op[1])
    return (kind, op[1].columns if isinstance(op[1], Tuple) else frozenset())


class SamplingTraceRecorder:
    """Bounded-overhead sampler of a live relation's operation stream.

    Two structures, both O(1) per observed operation:

    * a **decayed reservoir** of ``capacity`` concrete operations.  Classic
      reservoir sampling keeps a uniform sample of *all* history; here the
      inclusion draw is floored at ``horizon`` — operation *i* enters with
      probability ``capacity / min(i, horizon)`` — so recent operations
      always retain at least a ``capacity / horizon`` chance and the sample
      decays toward the recent workload.  :meth:`sampled_operations`
      returns the survivors in arrival order, forming the tail of the
      re-tune trace;
    * a **sliding window** (``window`` most recent operations) of mix-key
      counts — ``(kind, pattern columns)`` — compared against the mix at
      the last re-tune (:meth:`rebase`) by total-variation distance
      (:meth:`drift`), the re-tune policy's drift signal.
      :meth:`drift_at_least` answers the policy's question — has the drift
      reached a threshold? — recomputing the distance only when it can
      have, so while the drift stays clear of the threshold the check
      costs O(1) amortized per operation.

    The RNG is seeded, so a seeded workload produces a deterministic sample
    (and deterministic re-tune decisions — the property the differential
    tests and the CI gate rely on).
    """

    __slots__ = (
        "capacity",
        "horizon",
        "window",
        "_rng",
        "_seen",
        "_reservoir",
        "_recent",
        "_recent_counts",
        "_baseline_mix",
        "_randbelow",
        "_quiet_until",
        "_quiet_threshold",
    )

    def __init__(
        self,
        capacity: int = 256,
        horizon: int = 4096,
        window: int = 512,
        seed: int = 0,
    ):
        if capacity < 1 or window < 1 or horizon < capacity:
            raise LiveRelationError(
                f"sampler needs capacity >= 1, window >= 1 and horizon >= capacity; "
                f"got capacity={capacity}, window={window}, horizon={horizon}"
            )
        self.capacity = capacity
        self.horizon = horizon
        self.window = window
        self._rng = random.Random(seed)
        self._seen = 0
        #: ``(arrival index, operation)`` pairs; order restored on demand.
        self._reservoir: List[PyTuple[int, Operation]] = []
        self._recent: Deque[PyTuple] = deque(maxlen=window)
        self._recent_counts: Dict[PyTuple, int] = {}
        self._baseline_mix: Optional[Dict[PyTuple, float]] = None
        #: ``randrange(n)`` draws exactly this for ``n >= 1``, minus its
        #: argument checks.
        self._randbelow = self._rng._randbelow
        #: Through observed operation ``_quiet_until`` the drift is known to
        #: stay below ``_quiet_threshold`` (see :meth:`drift_at_least`).
        self._quiet_until = -1
        self._quiet_threshold: Optional[float] = None

    # -- observation (the O(1) hot path) ----------------------------------------

    def observe(self, op: Operation) -> None:
        """Record one operation: update the mix window, maybe sample it."""
        self._seen += 1
        key = _op_key(op)
        recent = self._recent
        counts = self._recent_counts
        if len(recent) == self.window:
            evicted = recent[0]
            remaining = counts[evicted] - 1
            if remaining:
                counts[evicted] = remaining
            else:
                del counts[evicted]
        recent.append(key)
        counts[key] = counts.get(key, 0) + 1

        reservoir = self._reservoir
        if len(reservoir) < self.capacity:
            reservoir.append((self._seen, op))
        else:
            slot = self._randbelow(min(self._seen, self.horizon))
            if slot < self.capacity:
                reservoir[slot] = (self._seen, op)

    # -- re-tune inputs ----------------------------------------------------------

    @property
    def seen(self) -> int:
        """Total operations observed."""
        return self._seen

    def sampled_operations(self) -> List[Operation]:
        """The reservoir's operations in arrival order (the trace tail)."""
        return [op for _, op in sorted(self._reservoir)]

    def recent_mix(self) -> Dict[PyTuple, float]:
        """The sliding window's operation mix, normalised to frequencies."""
        total = len(self._recent)
        if not total:
            return {}
        return {key: count / total for key, count in self._recent_counts.items()}

    def drift(self) -> float:
        """Total-variation distance between the recent mix and the baseline.

        ``inf`` before the first :meth:`rebase` — a live relation that has
        never been tuned treats any sufficiently long prefix as drifted.
        """
        if self._baseline_mix is None:
            return math.inf
        recent = self.recent_mix()
        keys = set(recent) | set(self._baseline_mix)
        return 0.5 * sum(
            abs(recent.get(k, 0.0) - self._baseline_mix.get(k, 0.0)) for k in keys
        )

    def drift_at_least(self, threshold: float) -> Optional[float]:
        """:meth:`drift` if it has reached *threshold*, else ``None``.

        One observed operation moves the window mix, and so the drift, by
        at most ``1/n`` for a window of ``n`` operations, and ``n`` never
        shrinks.  So a drift ``d`` found below *threshold* stays below it
        for the next ``⌊(threshold − d)·n⌋ − 1`` operations, which skip the
        recomputation; a :meth:`rebase` or another threshold ends the skip.
        The ``− 1`` keeps a margin of ``1/n``, far above float rounding, so
        the answer is always that of ``drift() >= threshold``, and a drift
        returned is ``drift()``'s own value.
        """
        if self._seen <= self._quiet_until and threshold == self._quiet_threshold:
            return None
        drift = self.drift()
        if drift >= threshold:
            return drift
        # (threshold − d)·n <= n unless threshold > 1, which a total-variation
        # distance never reaches; the cap also keeps an infinite one finite.
        slack = min(self.window, (threshold - drift) * len(self._recent))
        self._quiet_until = self._seen + int(slack) - 1
        self._quiet_threshold = threshold
        return None

    def rebase(self) -> None:
        """Adopt the current window mix as the drift baseline (post-tune)."""
        self._baseline_mix = self.recent_mix()
        self._quiet_until = -1

    def stats(self) -> Dict[str, object]:
        return {
            "seen": self._seen,
            "sampled": len(self._reservoir),
            "capacity": self.capacity,
            "horizon": self.horizon,
            "window": self.window,
            "drift": None if self._baseline_mix is None else round(self.drift(), 4),
        }

    def __repr__(self) -> str:
        return (
            f"SamplingTraceRecorder(seen={self._seen}, "
            f"sampled={len(self._reservoir)}/{self.capacity})"
        )


class RetunePolicy:
    """When a :class:`LiveRelation` re-tunes itself, and how an attempt is paced.

    Attributes:
        auto: run :meth:`LiveRelation.maybe_retune` after every operation.
            ``False`` makes the facade purely explicit (``retune()`` only) —
            the deterministic-test configuration.
        min_ops: minimum operations since the last tune before the drift
            check fires (also the warm-up length of the very first tune,
            whose drift is ``inf`` by construction, and the base of the
            failure backoff).
        drift_threshold: total-variation distance on the operation mix at or
            above which a re-tune triggers.
        migrate_batch: rows copied per subsequent operation while a
            dual-write window is open.
        background: run the tune stage (the autotuner search) on a daemon
            thread instead of blocking the triggering operation; the later
            stages run on the caller's thread once the search completes
            (the swap itself never happens off-thread).
        retune_timeout: watchdog limit, in seconds, on a background tune.
            A search still running past this deadline is abandoned — its
            eventual result is discarded — and counted as a failure.

    The failure policy (quarantine, ``min_ops·2^k`` backoff, a circuit
    breaker at three consecutive failures) is fixed, and instances of at
    least :data:`DUAL_WRITE_THRESHOLD` rows take a dual-write window.
    """

    __slots__ = (
        "auto",
        "min_ops",
        "drift_threshold",
        "migrate_batch",
        "background",
        "retune_timeout",
    )

    def __init__(
        self,
        auto: bool = True,
        min_ops: int = 512,
        drift_threshold: float = 0.3,
        migrate_batch: int = 64,
        background: bool = False,
        retune_timeout: float = 30.0,
    ):
        if min_ops < 1 or migrate_batch < 1:
            raise LiveRelationError("min_ops and migrate_batch must be >= 1")
        if not 0.0 < drift_threshold:
            raise LiveRelationError("drift_threshold must be positive")
        if not retune_timeout > 0.0:
            raise LiveRelationError("retune_timeout must be positive")
        self.auto = auto
        self.min_ops = min_ops
        self.drift_threshold = drift_threshold
        self.migrate_batch = migrate_batch
        self.background = background
        self.retune_timeout = retune_timeout

    @classmethod
    def coerce(cls, value: Union["RetunePolicy", Mapping, None]) -> "RetunePolicy":
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            unknown = sorted(str(field) for field in value if field not in cls.__slots__)
            if unknown:
                raise LiveRelationError(
                    f"unknown tune policy field(s) {', '.join(unknown)}; "
                    f"valid fields: {', '.join(cls.__slots__)}"
                )
            return cls(**value)
        raise LiveRelationError(
            f"tune policy must be a RetunePolicy or a mapping of its fields; got {value!r}"
        )

    def __repr__(self) -> str:
        return (
            f"RetunePolicy(auto={self.auto}, min_ops={self.min_ops}, "
            f"drift_threshold={self.drift_threshold})"
        )


class RetuneReport:
    """What one :meth:`LiveRelation.retune` decided and did."""

    __slots__ = (
        "op_index",
        "reason",
        "drift",
        "old_layout",
        "new_layout",
        "swapped",
        "migrated",
        "dual_write",
        "generation",
        "tuning",
        "error",
        "pending",
        "guard",
    )

    def __init__(
        self,
        op_index: int,
        reason: str,
        drift: Optional[float],
        old_layout: Optional[str],
    ):
        self.op_index = op_index
        self.reason = reason
        self.drift = drift
        self.old_layout = old_layout
        self.new_layout: Optional[str] = None
        self.swapped = False
        self.migrated = 0
        self.dual_write = False
        self.generation: Optional[int] = None
        #: The search's result, its candidates cut to the replayed set
        #: (:meth:`TuningResult.replayed_only`): the full list would keep
        #: every scored layout alive as long as the report.
        self.tuning: Optional[TuningResult] = None
        #: Failure description when the attempt died (``None`` on success).
        self.error: Optional[str] = None
        #: ``True`` while a background tune for this report is in flight.
        self.pending = False
        #: Migration cost/benefit decision (``None`` when no swap was under
        #: consideration): a dict with the estimated ``migration_cost``,
        #: ``projected_savings``, ``horizon`` and whether the swap was
        #: ``skipped``.
        self.guard: Optional[Dict[str, object]] = None

    def describe(self) -> str:
        if self.error is not None:
            return f"retune @op {self.op_index} ({self.reason}): failed — {self.error}"
        if self.pending:
            return f"retune @op {self.op_index} ({self.reason}): tuning in background"
        outcome = (
            f"swapped to {self.new_layout!r} ({self.migrated} row(s) migrated"
            + (", dual-write window)" if self.dual_write else ")")
            if self.swapped
            else "kept the current layout"
        )
        return f"retune @op {self.op_index} ({self.reason}): {outcome}"

    def __repr__(self) -> str:
        return f"RetuneReport(op={self.op_index}, swapped={self.swapped})"


class _Attempt:
    """One re-tune attempt: its report and what its stages produced so far.

    ``stage`` is where the driver stopped: ``"tune"`` while a background
    search runs (it writes ``tuning`` or ``error``), ``"copy"`` while a
    dual-write window is open (``target`` is the new backing, ``pending``
    the rows still to copy).
    """

    stage = "tune"
    thread: Optional[threading.Thread] = None
    started = 0.0
    tuning: Optional[TuningResult] = None
    error: Optional[BaseException] = None
    target: Optional[RelationInterface] = None
    pending: Deque[Tuple]

    def __init__(self, report: RetuneReport, dual_write: Optional[bool]):
        self.report = report
        #: ``retune(dual_write=...)``; ``None`` lets the instance size decide.
        self.dual_write = dual_write


class LiveRelation(RelationInterface):
    """A relation that outlives — and re-chooses — its own representation.

    The facade owns a *backing* :class:`RelationInterface` (any tier),
    forwards the five relational operations to it, and samples each one
    through a :class:`SamplingTraceRecorder`.  When the sampled operation
    mix drifts past the :class:`RetunePolicy`'s threshold (or on an
    explicit :meth:`retune`), the autotuner is re-run on a trace
    synthesized from the current contents plus the sampled tail; if the
    winner's shape differs from the current layout, the instance is
    **migrated via α** — enumerated from the old backing and reinserted
    into a freshly compiled class for the new layout, checked for
    α-equivalence — and the backing is swapped atomically.  Holders of the
    facade never observe an intermediate state: reads are served by the old
    backing until the swap, and during a dual-write window every mutation
    is applied to both backings.  A failed attempt leaves the old backing
    serving (see the module docstring for the failure policy).

    The inspection dunders (``len``/``iter``/``in``) forward to the backing
    without being sampled, so inspection does not perturb the workload the
    autotuner sees.
    """

    def __init__(
        self,
        backing: RelationInterface,
        policy: Union[RetunePolicy, Mapping, None] = None,
        sampler: Optional[SamplingTraceRecorder] = None,
        name: str = "live",
    ):
        spec = getattr(backing, "spec", None)
        if spec is None:
            raise LiveRelationError(
                f"cannot wrap {type(backing).__name__}: the backing must expose "
                f"its RelationSpec as `.spec`"
            )
        self.spec: RelationSpec = spec
        self.name = name
        self.enforce_fds: bool = getattr(backing, "enforce_fds", True)
        self.policy = RetunePolicy.coerce(policy)
        self.sampler = sampler if sampler is not None else SamplingTraceRecorder()
        self.generation = 0
        self.retunes: List[RetuneReport] = []
        self._backing = backing
        self._ops_since_tune = 0
        #: The attempt in flight — a background tune or an open dual-write
        #: window — if any.
        self._attempt: Optional[_Attempt] = None
        # -- the failure record (see "Failure semantics" in README): the
        # circuit breaker and the backoff derive from the streak, and the
        # total is counted from the reports --
        self._consecutive_failures = 0
        self._last_error: Optional[str] = None
        #: canonical shape -> layout description of every layout whose
        #: compile / migrate / verify failed; never picked as a winner again.
        self._quarantined: Dict[PyTuple, str] = {}

    # -- backing introspection ---------------------------------------------------

    @property
    def backing(self) -> RelationInterface:
        """The current backing implementation (changes across swaps)."""
        return self._backing

    def backing_decomposition(self) -> Optional[Decomposition]:
        """The backing's decomposition, if it has one (reference has none)."""
        decomposition = getattr(self._backing, "decomposition", None)
        if decomposition is None:
            decomposition = getattr(type(self._backing), "DECOMPOSITION", None)
        return decomposition

    def backing_layout(self) -> Optional[str]:
        decomposition = self.backing_decomposition()
        return decomposition.describe() if decomposition is not None else None

    def live_stats(self) -> Dict[str, object]:
        """Operational counters: sampling overhead is bounded by these.

        Per observed operation the facade pays one histogram update, one
        RNG draw (plus one reservoir slot write with probability
        ``capacity / min(seen, horizon)``) and an amortized drift check
        (:meth:`SamplingTraceRecorder.drift_at_least`); memory is bounded by
        ``capacity`` sampled operations plus a ``window``-length mix
        window.  No container access is charged — the sampled numbers the
        benchmark gates compare are untouched by sampling.
        """
        stage = self._attempt.stage if self._attempt is not None else None
        return {
            "generation": self.generation,
            "retunes": len(self.retunes),
            "swaps": sum(1 for r in self.retunes if r.swapped),
            "ops_since_tune": self._ops_since_tune,
            "migration_open": stage == "copy",
            "backing": type(self._backing).__name__,
            "layout": self.backing_layout(),
            "sampler": self.sampler.stats(),
            "failures": sum(1 for r in self.retunes if r.error is not None),
            "consecutive_failures": self._consecutive_failures,
            "circuit_open": self.circuit_open,
            "quarantined": sorted(self._quarantined.values()),
            "backoff_ops": self._backoff_ops(),
            "last_error": self._last_error,
            "retune_pending": stage == "tune",
            "guard_skips": sum(
                1 for r in self.retunes if r.guard is not None and r.guard["skipped"]
            ),
            "last_guard": next(
                (r.guard for r in reversed(self.retunes) if r.guard is not None),
                None,
            ),
        }

    @property
    def circuit_open(self) -> bool:
        """``True`` once three consecutive re-tunes failed.

        While open, no re-tune runs — automatic or explicit — until
        :meth:`reset_circuit`; the relation keeps serving on its current
        backing indefinitely (degraded layout beats a crash loop).
        """
        return self._consecutive_failures >= _CIRCUIT_FAILURES

    def _backoff_ops(self) -> int:
        """Exponential backoff: the *k*-th consecutive failure pushes the
        next automatic attempt ``min_ops * 2**k`` operations out."""
        streak = self._consecutive_failures
        return int(self.policy.min_ops * 2**streak) if streak else 0

    def reset_circuit(self, clear_quarantine: bool = False) -> None:
        """Re-enable re-tuning after the circuit breaker opened.

        Clears the consecutive-failure count (and with it the backoff) and
        the recorded last error; ``clear_quarantine=True`` also forgets the
        quarantined layouts (e.g. after fixing whatever made them fail).
        """
        self._consecutive_failures = 0
        self._last_error = None
        if clear_quarantine:
            self._quarantined.clear()

    # -- the five operations (forward, then sample) ------------------------------

    def insert(self, tup: Union[Tuple, Mapping]) -> None:
        tup = coerce_tuple(tup)
        self._backing.insert(tup)
        self._observe(("insert", tup))

    def remove(self, pattern: Union[Tuple, Mapping, None] = None) -> None:
        pattern = coerce_tuple(pattern)
        self._backing.remove(pattern)
        self._observe(("remove", pattern))

    def update(self, pattern: Union[Tuple, Mapping], changes: Union[Tuple, Mapping]) -> None:
        pattern = coerce_tuple(pattern)
        changes = coerce_tuple(changes)
        window = self._attempt
        if window is not None and window.stage != "copy":
            window = None  # a background tune has no target to mirror into
        if window is not None:
            # Capture the victims *before* mutating: a pending (not yet
            # copied) victim would otherwise be skipped at copy time (the
            # old backing no longer holds its pre-update form) while its
            # post-update form was never enqueued.  Re-enqueueing the
            # merged rows closes that window; copy-time revalidation makes
            # the extra enqueue idempotent.
            victims = self._backing.query(pattern, None)
        self._backing.update(pattern, changes)
        if window is not None:
            window.pending.extend(victim.merge(changes) for victim in victims)
        self._observe(("update", pattern, changes))

    def query(
        self,
        pattern: Union[Tuple, Mapping, None] = None,
        output: Union[str, Iterable[str], None] = None,
    ) -> List[Tuple]:
        pattern = coerce_tuple(pattern)
        if output is not None and not isinstance(output, str):
            output = tuple(output)
        results = self._backing.query(pattern, output)
        self._observe(("query", pattern, output))
        return results

    def query_range(self, column: str, lo=None, hi=None) -> List[Tuple]:
        results = self._backing.query_range(column, lo, hi)
        self._observe(("range", column, lo, hi))
        return results

    def _observe(self, op: Operation) -> None:
        """Mirror one completed mutation into an open dual-write window,
        sample the operation, then advance the control loop.

        The steady state pays the sample and a few attribute tests: with no
        attempt in flight, :meth:`maybe_retune` runs only once the circuit
        is closed, the ``min_ops``/backoff floor is reached and the drift
        can have reached the threshold (outside the sampler's skip, see
        :meth:`SamplingTraceRecorder.drift_at_least`).

        Never raises on behalf of the control loop: the caller's operation
        already succeeded on the primary backing, so a failed stage of an
        attempt in flight is recorded rather than surfaced through an
        unrelated ``insert``.
        """
        if self._attempt is not None and op[0] not in ("query", "range"):
            self._advance(self._attempt, write=op)
        ops = self._ops_since_tune = self._ops_since_tune + 1
        sampler = self.sampler
        sampler.observe(op)
        if self._attempt is not None:
            self._advance(self._attempt)
            return
        policy = self.policy
        streak = self._consecutive_failures
        if (
            policy.auto
            and streak < _CIRCUIT_FAILURES
            and ops >= policy.min_ops
            and (not streak or ops >= self._backoff_ops())
            and (
                sampler._seen > sampler._quiet_until
                or sampler._quiet_threshold != policy.drift_threshold
            )
        ):
            self.maybe_retune()

    # -- the re-tune loop --------------------------------------------------------

    def maybe_retune(self) -> Optional[RetuneReport]:
        """Re-tune if the policy says so; the cheap steady-state check.

        Returns the report when a re-tune ran (whether or not it swapped),
        ``None`` otherwise.  Never fires while a dual-write window or a
        background tune is open, while the circuit breaker is open, or
        before the post-failure backoff has elapsed.  A re-tune failure on
        this (automatic) path is recorded in the report and ``live_stats()``
        but not raised — the operation that triggered the check already
        succeeded, and the old backing keeps serving.
        """
        if self._attempt is not None or self.circuit_open:
            return None
        ops = self._ops_since_tune
        if ops < self.policy.min_ops or ops < self._backoff_ops():
            return None
        drift = self.sampler.drift_at_least(self.policy.drift_threshold)
        if drift is None:
            return None
        reason = (
            "warm-up tune (no baseline mix yet)"
            if math.isinf(drift)
            else f"mix drift {drift:.2f} >= threshold {self.policy.drift_threshold:.2f}"
        )
        try:
            return self.retune(reason=reason, drift=None if math.isinf(drift) else drift)
        except LiveRelationError:
            # Recorded by the failure handler (backoff / quarantine /
            # circuit breaker); self-heal instead of failing the caller.
            return self.retunes[-1] if self.retunes else None

    def _retune_trace(self) -> Trace:
        """Synthesize the tuning workload: current contents + sampled tail.

        Always built in ``enforce_fds=False`` (eviction) mode: the sampled
        tail is not a contiguous history — an old sampled insert can
        FD-conflict with the reconstructed current contents — so an FD-on
        replay could spuriously raise mid-scoring.  Eviction replay never
        raises and preserves the operation mix, which is what the scorer
        measures; the swapped-in backing still runs in the live relation's
        own FD mode.
        """
        contents = sorted(self._backing.to_relation().tuples, key=Tuple.sort_key)
        operations: List[Operation] = [("insert", tup) for tup in contents]
        operations.extend(self.sampler.sampled_operations())
        return Trace(
            self.spec,
            operations,
            name=f"{self.name}-gen{self.generation}",
            enforce_fds=False,
        )

    def retune(
        self,
        reason: str = "explicit",
        drift: Optional[float] = None,
        dual_write: Optional[bool] = None,
    ) -> RetuneReport:
        """Re-run the autotuner now; hot-swap the backing if a better layout wins.

        The current layout is force-included in the search, so "no better
        layout" resolves to a no-swap report rather than a migration to an
        equivalent shape.  ``dual_write`` forces (or suppresses) the
        incremental migration window; by default instances of at least
        :data:`DUAL_WRITE_THRESHOLD` rows take it.

        Deterministic for seeded workloads: the sampler's RNG is seeded and
        the autotuner's replay is exact.  In background mode too, since the
        operation counter charges only the search's thread: the caller's
        operations during the search do not reach the candidates' counts
        (``tests/test_live.py`` checks a background search against a
        synchronous one).

        Failure semantics: any stage can fail (including by an injected
        fault) and the relation survives — the old backing is untouched and
        keeps serving, the failed layout is quarantined, the failure is
        recorded for backoff / circuit-breaker bookkeeping, and the error
        (:class:`RetuneFailed` or :class:`MigrationError`) propagates to
        *this explicit caller* for the stages this call runs.  Automatic
        re-tunes (:meth:`maybe_retune`) swallow it, and so does every stage
        that runs later, inside another operation.

        With ``policy.background=True`` the tune stage runs on a daemon
        thread and this returns immediately with a ``pending`` report; the
        later stages run on the thread of a later operation (or
        :meth:`finish_retune`) once the search completes.
        """
        if self._attempt is not None:
            what, finish = (
                ("a dual-write migration window is open", "finish_migration")
                if self._attempt.stage == "copy"
                else ("a background tune is in flight", "finish_retune")
            )
            raise LiveRelationError(f"cannot re-tune while {what} (call {finish}() first)")
        if self.circuit_open:
            raise RetuneFailed(
                f"circuit breaker open after {self._consecutive_failures} "
                f"consecutive re-tune failures; last error: "
                f"{self._last_error}; call reset_circuit() to re-enable",
                stage="circuit",
            )
        report = RetuneReport(
            self.sampler.seen, reason, drift, self.backing_layout()
        )
        self.retunes.append(report)
        attempt = _Attempt(report, dual_write)
        # The trace is snapshotted here, on the caller's thread, so a
        # background search sees a consistent state; only the pure search
        # runs concurrently.
        trace = self._retune_trace()
        current = self.backing_decomposition()
        include = [current] if current is not None else []

        def search() -> None:  # the tune stage's work, here or on a daemon thread
            try:
                if FAULTS.active:
                    FAULTS.check("live.retune.tune")
                # Eviction-mode replay, matching the synthesized trace (see
                # _retune_trace); the new backing itself runs in self.enforce_fds.
                attempt.tuning = autotune(self.spec, trace, include=include, enforce_fds=False)
            except BaseException as exc:  # collected on the caller's thread
                attempt.error = exc

        if not self.policy.background:
            search()
            return self._advance(attempt, reraise=True)
        attempt.thread = threading.Thread(
            target=search, name=f"{self.name}-retune-gen{self.generation}", daemon=True
        )
        attempt.started = time.monotonic()
        report.pending = True
        self._attempt = attempt
        attempt.thread.start()
        return report

    def finish_retune(self, timeout: Optional[float] = None) -> Optional[RetuneReport]:
        """Wait for an in-flight background tune and apply its result.

        Joins the search thread for up to *timeout* seconds (default: the
        policy's ``retune_timeout``), then collects whatever state the tune
        reached — including the watchdog's abandon when it is overdue.
        Returns the report, or ``None`` when no background tune is open.
        """
        attempt = self._attempt
        if attempt is None or attempt.stage != "tune":
            return None
        attempt.thread.join(timeout if timeout is not None else self.policy.retune_timeout)
        report = self._advance(attempt)
        return None if report.pending else report

    def finish_migration(self) -> None:
        """Drain any open dual-write window synchronously.

        A failing row ends the attempt, with the failure recorded in
        ``live_stats()``; the old backing keeps serving.
        """
        attempt = self._attempt
        if attempt is not None and attempt.stage == "copy":
            self._advance(attempt, drain=True)

    def _advance(self, attempt: _Attempt, write=None, drain=False, reraise=False) -> RetuneReport:
        """The re-tune driver: run *attempt*'s stages from where it stopped.

        tune → pick → guard → compile → copy → verify → swap.  The attempt
        stays in flight while a background search runs (each later
        operation checks on it) or while a dual-write copy has rows left
        (each later operation copies ``migrate_batch`` more; *drain* copies
        the rest now).  *write* instead mirrors one user mutation — an
        ``(kind, *args)`` operation — into the open window's target (a
        no-op outside the copy stage).

        Every stage failure lands in the one handler at the bottom: the
        attempt ends, the old backing keeps serving, and the stage-tagged
        error is recorded on the report — and raised only with *reraise*
        (the stages an explicit :meth:`retune` call runs itself).
        """
        report = attempt.report
        stage = attempt.stage
        snapshot: Optional[Relation] = None
        try:
            if write is not None:
                # The old backing already applied the mutation, so a failing
                # mirror ends the attempt without raising: the caller's
                # operation landed in exactly one consistent backing — the
                # old one, which keeps serving.  A mirrored remove drops rows
                # already copied; still-pending rows are revalidated against
                # the old backing at copy time and skipped.
                if stage == "copy":
                    stage = "dual-write"
                    if FAULTS.active:
                        FAULTS.check("live.migrate.dual_write")
                    getattr(attempt.target, write[0])(*write[1:])
                return report
            if stage == "tune":
                if attempt.tuning is None and attempt.error is None:
                    if time.monotonic() - attempt.started <= self.policy.retune_timeout:
                        return report  # the background search is still running
                    # Watchdog: abandon the straggler.  The daemon thread
                    # keeps running but the attempt is unlinked, so its
                    # eventual result (or error) is discarded.
                    raise RetuneFailed(
                        f"background tune exceeded retune_timeout="
                        f"{self.policy.retune_timeout}s; abandoned by the watchdog",
                        stage="tune",
                    )
                if attempt.error is not None:
                    if attempt.thread is None:
                        raise attempt.error  # a synchronous search's own error
                    raise RetuneFailed(
                        f"background autotune search failed: {attempt.error}", stage="tune"
                    ) from attempt.error
                report.pending = False
                if self._pick(attempt):
                    stage = "compile"
                    if FAULTS.active:
                        FAULTS.check("live.retune.compile")
                    attempt.target = attempt.tuning.compile_winner()(enforce_fds=self.enforce_fds)
                    stage = attempt.stage = "copy"
                    report.dual_write = bool(
                        len(self._backing) >= DUAL_WRITE_THRESHOLD
                        if attempt.dual_write is None
                        else attempt.dual_write
                    )
                    snapshot = self._backing.to_relation()
                    attempt.pending = deque(sorted(snapshot.tuples, key=Tuple.sort_key))
            if stage == "copy":
                pending, target = attempt.pending, attempt.target
                # A dual-write window revalidates each row against the old
                # backing: a row removed or updated since the window opened
                # is skipped (its current form reached the target through
                # dual-writing or re-enqueueing).  A synchronous copy runs
                # in one call, so its snapshot cannot go stale.
                recheck = self._backing.contains if report.dual_write else None
                rows = len(pending)
                if recheck is not None and not drain:
                    rows = min(self.policy.migrate_batch, rows)
                for _ in range(rows):
                    if FAULTS.active:
                        FAULTS.check("live.migrate.copy")
                    row = pending.popleft()
                    if recheck is None or recheck(row):
                        target.insert(row)
                        report.migrated += 1
                if pending:
                    self._attempt = attempt  # the window stays open
                    return report
                stage = "verify"
                if FAULTS.active:
                    FAULTS.check("live.retune.verify")
                check = getattr(target, "check_well_formed", None)
                if check is not None:
                    check()
                # The contents this call copied from; a window that spanned
                # operations re-reads the old backing, which every mutation
                # since reached as well.
                expected = snapshot if snapshot is not None else self._backing.to_relation()
                migrated = target.to_relation()
                if migrated != expected:
                    raise MigrationError(
                        f"α-migration to {report.new_layout!r} diverged: the new backing "
                        f"represents {len(migrated.tuples ^ expected.tuples)} differing "
                        f"tuple(s) — refusing to swap",
                        stage="verify",
                    )
                stage = "swap"
                if FAULTS.active:
                    FAULTS.check("live.swap")
                # A single attribute write — atomic under the GIL — with
                # nothing left to raise after it.
                self._backing = target
                self.generation += 1
                report.swapped = True
                report.generation = self.generation
        except ReproError as exc:
            failure = self._fail(attempt, stage, exc)
            if reraise:
                raise failure from failure.__cause__
            return report
        # Kept the current layout or swapped: the attempt succeeded.
        self._attempt = None
        self._consecutive_failures = 0
        return report

    def _pick(self, attempt: _Attempt) -> bool:
        """The pick and guard stages: whether to migrate to a new winner.

        Pick: the best replayed candidate whose shape is not quarantined —
        the current layout always qualifies, as it is serving right now.

        Guard: a cost/benefit check before a hot swap, recorded on
        ``report.guard`` either way.  Savings are estimated from the exact
        replay the autotuner already paid for: the access gap between the
        current layout and the winner over the re-tune trace, scaled
        per-operation and projected over the ops observed since the last
        tune (the best available guess at the next window).  Migration cost
        is proxied as one counted access per live row per distinct edge of
        the winning layout — what the copy stage must pay.  When the current
        layout has no exact count the guard abstains and the swap proceeds.

        ``False`` keeps the current layout: not a failure, since the search
        itself succeeded.  After a ``True`` pick, ``tuning.winner`` is it.
        """
        report, tuning = attempt.report, attempt.tuning
        # The tune consumed this window: future drift is measured against it.
        self.sampler.rebase()
        horizon, self._ops_since_tune = self._ops_since_tune, 0
        report.new_layout = report.old_layout
        current = self.backing_decomposition()
        current_shape = canonical_shape(current) if current is not None else None
        winner: Optional[ScoredCandidate] = None
        cur_accesses: Optional[int] = None
        for candidate in tuning.replayed:
            shape = canonical_shape(candidate.decomposition)
            if shape == current_shape:
                cur_accesses = candidate.accesses
            if winner is None and (shape == current_shape or shape not in self._quarantined):
                winner = candidate
        if winner is not None:
            # compile_winner() compiles `.winner`: promote the pick, which
            # differs when quarantine displaced the access-count winner.
            tuning.winner = winner
        report.tuning = tuning.replayed_only()
        if winner is None:
            return False  # everything the search surfaced has failed before
        if canonical_shape(winner.decomposition) == current_shape:
            return False
        if cur_accesses is not None and winner.accesses is not None:
            # The re-tune trace opens with one rebuild insert per live row
            # (see _retune_trace) — state reconstruction, not workload.
            # Scale the access gap over the sampled serving ops only, or the
            # guard under-prices winners on well-populated relations.
            serving_ops = max(1, len(tuning.trace) - len(self._backing))
            savings_per_op = (cur_accesses - winner.accesses) / serving_ops
            # A swap keeps earning until the *next* re-tune, not just for
            # one window — require payback within a few windows, so marginal
            # winners stay put but a genuinely better layout is never
            # starved by a short last window.
            payback = max(horizon, self.policy.min_ops * _GUARD_PAYBACK_WINDOWS, 1)
            projected = savings_per_op * payback
            edge_count = sum(len(node.edges) for node in winner.decomposition.nodes())
            migration_cost = float(len(self._backing) * max(1, edge_count))
            skipped = projected < migration_cost
            report.guard = {
                "horizon": payback,
                "savings_per_op": round(savings_per_op, 3),
                "projected_savings": round(projected, 1),
                "migration_cost": migration_cost,
                "skipped": skipped,
            }
            if skipped:
                return False
        report.new_layout = winner.decomposition.describe()
        return True

    def _fail(self, attempt: _Attempt, stage: str, exc: ReproError) -> LiveRelationError:
        """The one failure handler: tag, record, quarantine, back off.

        Ends *attempt* — its target, if any, is dropped; the old backing was
        never touched — and returns the stage-tagged error.
        """
        report = attempt.report
        if isinstance(exc, (RetuneFailed, MigrationError)):
            failure = exc  # raised by the driver itself, already tagged
        else:
            kind, what = _STAGE_ERRORS[stage]
            failure = kind(f"{what.format(report.new_layout)} failed: {exc}", stage=stage)
            failure.__cause__ = exc
        self._attempt = None
        report.pending = False
        self._consecutive_failures += 1
        self._last_error = report.error = f"{type(failure).__name__}[{failure.stage}]: {failure}"
        if stage != "tune":
            # Every later stage works on the picked winner: never pick it again.
            shape = canonical_shape(attempt.tuning.winner.decomposition)
            self._quarantined[shape] = report.new_layout
        self._ops_since_tune = 0
        return failure

    # -- inspection (forwarded, never sampled) -----------------------------------

    def to_relation(self) -> Relation:
        return self._backing.to_relation()

    def checkpoint(self) -> Relation:
        return self.to_relation()

    def check_well_formed(self) -> None:
        check = getattr(self._backing, "check_well_formed", None)
        if check is not None:
            check()

    def __len__(self) -> int:
        return len(self._backing)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._backing)

    def __contains__(self, pattern: object) -> bool:
        return pattern in self._backing

    def __repr__(self) -> str:
        return (
            f"LiveRelation({type(self._backing).__name__}, gen={self.generation}, "
            f"size={len(self)})"
        )


# -- the unified factory ---------------------------------------------------------

#: The tiers :func:`open_relation` accepts.
TIERS = ("auto", "reference", "interpreted", "compiled")


def default_layout(spec: RelationSpec) -> str:
    """The layout used when the caller supplies neither one nor a trace:
    one hash path keyed by the smallest minimal key, residual columns in
    the unit leaf — adequate for every specification by construction."""
    key = min(spec.minimal_keys(), key=lambda k: (len(k), tuple(sorted(k))))
    rest = sorted(spec.columns - key)
    return f"{', '.join(sorted(key))} -> htable {{{', '.join(rest)}}}"


def open_relation(
    spec: RelationSpec,
    layout: Union[Decomposition, str, None] = None,
    *,
    tier: str = "auto",
    tune: Optional[Trace] = None,
    live: bool = False,
    enforce_fds: bool = True,
    policy: Union[RetunePolicy, Mapping, None] = None,
    sampler: Optional[SamplingTraceRecorder] = None,
    class_name: Optional[str] = None,
    sizes=None,
) -> RelationInterface:
    """Open a relation: the one documented entry point for every tier.

    Exported as ``repro.open``.  Layout resolution:

    * ``layout`` given, ``tune=None`` — use that layout;
    * ``tune`` given (a :class:`~repro.autotuner.trace.Trace`) — run the §5
      autotuner and use its winner; a ``layout`` passed alongside is
      force-included in the search as a baseline candidate;
    * neither — :func:`default_layout` (a hash path over the smallest
      minimal key).

    ``tier`` selects the implementation: ``"reference"`` (the
    specification-level oracle; any layout is ignored), ``"interpreted"``
    (:class:`~repro.decomposition.relation.DecomposedRelation`),
    ``"compiled"`` (:func:`repro.codegen.compile_relation`), or ``"auto"``
    (currently the compiled tier — the fast one).  ``sizes`` are optional
    per-edge container-size estimates forwarded to the compiler's plan
    table (ignored by the other tiers; rejected together with ``tune``,
    whose winner carries its own trace-derived estimates).

    ``live=True`` wraps the backing in a :class:`LiveRelation` — an
    always-on sampled, self-re-tuning facade governed by ``policy`` (a
    :class:`RetunePolicy` or a mapping of its fields) and ``sampler``.
    """
    if not isinstance(tier, str) or tier not in TIERS:
        raise LiveRelationError(
            f"unknown tier {tier!r}; valid tiers: {', '.join(TIERS)}"
        )
    if tune is not None and sizes is not None:
        raise LiveRelationError(
            "sizes cannot be combined with tune: the autotuned winner is "
            "compiled against its own trace-derived size estimates"
        )
    if layout is not None and not isinstance(layout, (str, Decomposition)):
        raise LiveRelationError(
            f"layout must be a Decomposition or a layout string like "
            f"'ns, pid -> htable {{state, cpu}}'; got {type(layout).__name__}"
        )

    decomposition: Optional[Decomposition] = None
    tuning: Optional[TuningResult] = None
    if isinstance(layout, str):
        try:
            layout = parse_decomposition(layout)
        except ReproError as exc:
            # Re-raise with the valid structure vocabulary attached: a typo'd
            # container name is the common mistake at this entry point.
            raise LiveRelationError(
                f"invalid layout {layout!r}: {exc} "
                f"(valid structures: {', '.join(structure_names())})"
            ) from exc
    if tune is not None:
        include = [layout] if layout is not None else []
        tuning = autotune(spec, tune, include=include, enforce_fds=enforce_fds)
        decomposition = tuning.winner_decomposition
    elif layout is not None:
        decomposition = layout

    backing: RelationInterface
    if tier == "reference":
        backing = ReferenceRelation(spec, enforce_fds=enforce_fds)
    else:
        if decomposition is None:
            decomposition = parse_decomposition(default_layout(spec))
        if tier == "interpreted":
            backing = DecomposedRelation(spec, decomposition, enforce_fds=enforce_fds)
        else:  # "compiled" and "auto"
            if tuning is not None:
                cls = tuning.compile_winner(class_name)
            else:
                cls = compile_relation(spec, decomposition, class_name, sizes=sizes)
            backing = cls(enforce_fds=enforce_fds)

    if not live:
        return backing
    return LiveRelation(backing, policy=policy, sampler=sampler)
