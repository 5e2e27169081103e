"""The autotuner driver: enumerate → prune → replay → pick (Section 5).

:func:`autotune` closes the paper's synthesis loop: given a relational
specification and a recorded operation trace, it enumerates the adequate
candidate decompositions (:mod:`~repro.autotuner.enumerator`), prunes them
with the static cost estimate, replays the trace exactly on the survivors
(:mod:`~repro.autotuner.scorer`), and returns the Pareto front plus the
access-count winner.  The static phase plans each structure-free shape
once, in a memo that lives for one :func:`autotune` call, and prices each
candidate's containers against it; adequacy is checked once per shape
too, since it reads no structure name.  :func:`synthesize` goes one step
further and hands back a compiled relation class
(:func:`repro.codegen.compile_relation`) for the winning layout —
specification + workload in, generated code out.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

from ..core.errors import AutotunerError
from ..core.spec import RelationSpec
from ..codegen import compile_relation
from ..decomposition.adequacy import check_adequacy
from ..decomposition.model import Decomposition
from ..decomposition.parser import parse_decomposition
from .enumerator import canonical_shape, enumerate_decompositions, shape_skeleton
from .scorer import (
    ScoredCandidate,
    estimate_edge_sizes,
    exact_accesses,
    memory_proxy,
    pareto_front,
    static_cost,
)
from .trace import Trace

__all__ = ["TuningResult", "autotune", "synthesize"]

#: How many statically-ranked candidates advance to exact trace replay.
DEFAULT_EXACT_TOP = 16

#: Within the exact-replay beam, at most this many candidates sharing one
#: structure-free skeleton: static cost ties between container flavours of
#: the same shape must not crowd out genuinely different shapes.  Flavours
#: inside a tied block are ordered by the scaled-size tie-break (see
#: :data:`TIEBREAK_SIZE_SCALE`), so the two slots go to the flavours that
#: scale best, not to the lexicographically first.
MAX_PER_SKELETON = 2

#: When two candidates' static costs tie at the trace-estimated container
#: sizes (common for small traces, where every per-key container rounds to
#: a handful of entries and the cost models floor at one access), the tie
#: is broken by re-costing with every estimated size multiplied by this
#: factor — preferring the flavour whose asymptotics survive growth (a
#: hash or intrusive edge over a linear scan), which is also the flavour
#: the exact replay phase tends to crown.
TIEBREAK_SIZE_SCALE = 8.0


class TuningResult:
    """Everything the autotuner learned about one (spec, trace) pair.

    Attributes:
        spec / trace: the tuning inputs.
        candidates: every candidate considered (enumerated plus any
            ``include`` layouts) with its static score, ascending.  The
            replayed subset is chosen from the top of this ranking by a
            shape-diverse beam, so it is not necessarily a prefix.  A
            :meth:`replayed_only` copy keeps just the replayed ones.
        enumerated: how many candidates the search scored (the length of
            the full ``candidates`` list).
        replayed: the exactly-replayed candidates, ascending by accesses.
        pareto: the Pareto front over (accesses, memory proxy).
        winner: the replayed candidate with the fewest accesses (ties break
            towards the smaller memory proxy, then the canonical shape).
        enforce_fds: the FD mode the candidates were scored under — also
            the constructor default of classes from :meth:`compile_winner`.
    """

    __slots__ = (
        "spec",
        "trace",
        "candidates",
        "enumerated",
        "replayed",
        "pareto",
        "winner",
        "enforce_fds",
    )

    def __init__(
        self,
        spec: RelationSpec,
        trace: Trace,
        candidates: List[ScoredCandidate],
        replayed: List[ScoredCandidate],
        pareto: List[ScoredCandidate],
        winner: ScoredCandidate,
        enforce_fds: bool = True,
    ):
        self.spec = spec
        self.trace = trace
        self.candidates = candidates
        self.enumerated = len(candidates)
        self.replayed = replayed
        self.pareto = pareto
        self.winner = winner
        self.enforce_fds = enforce_fds

    @property
    def winner_decomposition(self) -> Decomposition:
        return self.winner.decomposition

    @property
    def winner_layout(self) -> str:
        return self.winner.decomposition.describe()

    def compile_winner(self, class_name: Optional[str] = None) -> type:
        """Compile the winning layout into a relation class.

        The generated constructor defaults to the FD mode the tuning ran
        under, so a class synthesized from an FD-off trace replays its own
        workload without raising.  The compile-time plan table is ranked
        against the trace's estimated per-edge container sizes, so plans
        that only pay off at the workload's data distribution — notably
        cross-branch joins on split-pattern queries — are compiled in.  It
        is the class the exact replay scored the winner on
        (:func:`~repro.autotuner.scorer.exact_accesses`), so without a
        *class_name* the call is a class-cache hit while the bounded cache
        still holds it.
        """
        return compile_relation(
            self.spec,
            self.winner.decomposition,
            class_name,
            enforce_fds_default=self.enforce_fds,
            sizes=estimate_edge_sizes(self.winner.decomposition, self.trace.profile()),
        )

    def replayed_only(self) -> "TuningResult":
        """A copy whose ``candidates`` are cut to the replayed ones, in
        ranking order, so the rest of the search can be freed; the spec,
        trace, winner, replayed set, Pareto front and FD mode are shared."""
        replayed = {id(c) for c in self.replayed}
        kept = TuningResult(
            self.spec,
            self.trace,
            [c for c in self.candidates if id(c) in replayed],
            self.replayed,
            self.pareto,
            self.winner,
            self.enforce_fds,
        )
        kept.enumerated = self.enumerated
        return kept

    def describe(self) -> str:
        """A human-readable summary table (used by ``python -m repro.autotuner``)."""
        lines = [
            f"spec {self.spec.name!r}: {self.enumerated} candidates enumerated, "
            f"{len(self.replayed)} replayed exactly on {len(self.trace)} ops",
            f"{'accesses':>12}  {'memory':>6}  layout",
        ]
        for candidate in self.replayed:
            marker = " *" if candidate is self.winner else (
                " p" if candidate in self.pareto else "  "
            )
            lines.append(
                f"{candidate.accesses:>12,d}{marker} {candidate.memory:>6d}  {candidate.layout}"
            )
        lines.append(f"winner: {self.winner_layout}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"TuningResult(winner={self.winner_layout!r}, "
            f"accesses={self.winner.accesses}, "
            f"candidates={len(self.candidates)})"
        )


def _coerce_include(
    spec: RelationSpec, include: Iterable[Union[Decomposition, str]]
) -> List[Decomposition]:
    """Parse the ``include`` layouts and check each is adequate for *spec*,
    so an inadequate one fails before the search rather than at its replay."""
    coerced = []
    for entry in include:
        if isinstance(entry, str):
            entry = parse_decomposition(entry, name="included")
        if not isinstance(entry, Decomposition):
            raise AutotunerError(
                f"include entries must be decompositions or layout strings; got {entry!r}"
            )
        check_adequacy(entry, spec)
        coerced.append(entry)
    return coerced


def autotune(
    spec: RelationSpec,
    trace: Trace,
    structures: Optional[Sequence[str]] = None,
    max_depth: int = 2,
    exact_top: int = DEFAULT_EXACT_TOP,
    max_candidates: Optional[int] = None,
    include: Iterable[Union[Decomposition, str]] = (),
    enforce_fds: Optional[bool] = None,
) -> TuningResult:
    """Pick the best decomposition for *spec* under the workload *trace*.

    Args:
        spec: the relational specification ``(C, ∆)``.
        trace: the recorded workload (:class:`~repro.autotuner.trace.Trace`).
        structures: candidate container names per edge (default: the
            registry's :func:`default_structure_names`).
        max_depth: maximum map levels per path for enumerated candidates.
        exact_top: how many statically-ranked candidates advance to exact
            replay (the winner is chosen among these).
        max_candidates: optional hard cap on enumeration.
        include: extra layouts (strings or :class:`Decomposition`) that skip
            static pruning and are always replayed — e.g. the hand-written
            layout being compared against.  They must be adequate for *spec*.
        enforce_fds: replay mode for exact scoring; defaults to the mode the
            trace was recorded under (``trace.enforce_fds``), so traces
            recorded from an ``enforce_fds=False`` relation — which may
            contain FD-conflicting inserts — replay without raising.

    The static phase calls :func:`static_cost` once per candidate and once
    more per tie-broken candidate, with a shape memo that lives for this
    call only: each structure-free shape is planned once and each of its
    container assignments is priced against that plan listing.

    Raises:
        AutotunerError: when the trace targets a different specification or
            nothing can be enumerated.
        AdequacyError: when an ``include`` layout is not adequate for
            *spec* (raised before enumeration).
    """
    if trace.spec.columns != spec.columns:
        raise AutotunerError(
            f"trace is over columns {sorted(trace.spec.columns)} but the "
            f"specification has {sorted(spec.columns)}"
        )
    if enforce_fds is None:
        enforce_fds = trace.enforce_fds
    extras = _coerce_include(spec, include)
    profile = trace.profile()
    enumerated = enumerate_decompositions(
        spec,
        patterns=profile.pattern_columns(),
        structures=structures,
        max_depth=max_depth,
        max_candidates=max_candidates,
    )

    memo: dict = {}  # Shape skeleton -> ShapeCosts, for this (spec, profile).

    def score(decomposition: Decomposition) -> ScoredCandidate:
        return ScoredCandidate(
            decomposition,
            static_cost(decomposition, profile, spec=spec, memo=memo),
            memory_proxy(decomposition),
        )

    def rank(candidate: ScoredCandidate) -> tuple:
        return (
            candidate.static,
            candidate.static_scaled,
            candidate.memory,
            canonical_shape(candidate.decomposition),
        )

    def apply_tiebreaks(pool: List[ScoredCandidate]) -> None:
        """Compute the scaled tie-break score, lazily: only candidates whose
        primary static cost ties with another's can be reordered by it, so
        singletons keep the default (``static_scaled == static``) and skip
        the second full static evaluation."""
        groups: dict = {}
        for candidate in pool:
            groups.setdefault(candidate.static, []).append(candidate)
        for group in groups.values():
            if len(group) < 2:
                continue
            for candidate in group:
                candidate.static_scaled = static_cost(
                    candidate.decomposition,
                    profile,
                    size_scale=TIEBREAK_SIZE_SCALE,
                    spec=spec,
                    memo=memo,
                )

    # Every included layout outside the enumerated set is scored and ranked
    # with the rest, so tie-breaks are computed and the ranking sorted once.
    candidates = [score(d) for d in enumerated]
    by_shape = {canonical_shape(c.decomposition): c for c in candidates}
    enumerated_ids = {id(c) for c in candidates}
    included = []
    for extra in extras:
        shape = canonical_shape(extra)
        if shape not in by_shape:
            by_shape[shape] = score(extra)
            candidates.append(by_shape[shape])
        included.append((shape, by_shape[shape]))
    apply_tiebreaks(candidates)
    candidates.sort(key=rank)

    # Static pruning: the top of the enumerated ranking advances —
    # diversified so at most MAX_PER_SKELETON same-shape container flavours
    # occupy beam slots — plus every included layout (deduplicated).
    exact_top = max(1, exact_top)
    advancing: List[ScoredCandidate] = []
    skeleton_counts: dict = {}
    for candidate in candidates:
        if len(advancing) >= exact_top:
            break
        if id(candidate) not in enumerated_ids:
            continue
        skeleton = shape_skeleton(candidate.decomposition)
        if skeleton_counts.get(skeleton, 0) >= MAX_PER_SKELETON:
            continue
        skeleton_counts[skeleton] = skeleton_counts.get(skeleton, 0) + 1
        advancing.append(candidate)
    known_shapes = {canonical_shape(c.decomposition) for c in advancing}
    for shape, candidate in included:
        if shape not in known_shapes:
            known_shapes.add(shape)
            advancing.append(candidate)

    for candidate in advancing:
        candidate.accesses = exact_accesses(
            trace, candidate.decomposition, enforce_fds, spec=spec, profile=profile
        )

    replayed = sorted(
        advancing, key=lambda c: (c.accesses, c.memory, canonical_shape(c.decomposition))
    )
    winner = replayed[0]
    return TuningResult(
        spec, trace, candidates, replayed, pareto_front(replayed), winner, enforce_fds
    )


def synthesize(
    spec: RelationSpec,
    trace: Trace,
    class_name: Optional[str] = None,
    **options,
) -> type:
    """Synthesize a compiled relation class for *spec* tuned to *trace*.

    The paper's §5 loop end-to-end: enumerate adequate decompositions,
    score them against the recorded workload, compile the winner.  The
    returned class implements :class:`~repro.core.interface.RelationInterface`
    and carries the chosen layout as ``cls.DECOMPOSITION`` and the full
    :class:`TuningResult` as ``cls.TUNING``.  Generated classes are cached
    by shape (see :func:`repro.codegen.compile_relation`): two tunings
    whose winners share a canonical shape and size classes receive the
    *same* class object, whose ``TUNING`` reflects the most recent call.

    Keyword options are forwarded to :func:`autotune`.
    """
    result = autotune(spec, trace, **options)
    cls = result.compile_winner(class_name)
    cls.TUNING = result  # type: ignore[attr-defined]
    return cls
