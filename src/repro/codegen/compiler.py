"""Compile a ``(RelationSpec, Decomposition)`` pair into a specialised class.

This is the reproduction's counterpart of RELC's C++ code generator: where
:class:`~repro.decomposition.relation.DecomposedRelation` *interprets* a
decomposition — re-walking ``node.edges``, projecting :class:`Tuple` keys and
re-ranking query plans at run time — the compiler emits a Python class whose
methods are straight-line code specialised to one decomposition:

* **insert/remove** are unrolled over the decomposition DAG: each edge
  becomes a few lines of direct ``dict``/list access on pre-bound key
  values, with empty sub-instances pruned inline;
* **queries** are generated per pattern column set from the query plans of
  :func:`repro.decomposition.plan.plan_query` and selected through a
  dispatch table built at compile time — no planning, no plan cache and no
  plan interpretation on the hot path;
* rows are plain value tuples in sorted column order; :class:`Tuple`
  objects are only materialised at the public ``query``/``to_relation``
  boundary via the trusted :meth:`Tuple.from_sorted_items` fast path.

Containers are lowered according to each structure's ``CODEGEN_STRATEGY``:
hash-like structures become Python dicts charged one access per probe,
tree-like structures become dicts charged ``log2(n)`` accesses (the cost
model of a balanced tree), list-like structures become real entry lists
with linear search, and intrusive structures (``ilist``) into a shared
child become dicts with list-honest charging — key *searches* cost ``n``
accesses, but linking a known-new entry and unlinking a held entry cost 1
(into an unshared child an ``ilist`` lowers as a list) — so compiled layouts
keep honest asymptotics and :class:`~repro.structures.base.OperationCounter`
numbers remain comparable across the interpreted and compiled tiers.

**Shared sub-nodes** (Section 3) lower to genuinely shared objects: each
shared node gets a per-class registry dict mapping its bound-column binding
to one cell (``[residual]`` for unit leaves, the container literal for map
nodes) that every parent container references.  Inserts create the cell
once and link it into each branch; removals decide the hit once against
the registry and then unlink the same object from every parent with an
unrolled, constant-time delete per intrusive branch — no per-branch victim
scans and no per-branch copies.  The registry mirrors the interpreted
tier's shared-node registry and is likewise not charged to the counter
(it models the record pointer generated C++ would already hold).

Every container mutation is emitted by one primitive, ``_touch`` (fault
site, charge, journal entry and mutation together), inside one rollback
scope, ``_rollback``.  The generated module holds only the layout-specific
code: it imports the layout-independent half from
:mod:`repro.codegen.runtime`, reconstructs its specification literally,
and can be written to disk and inspected (``compile_relation`` attaches it
as ``__repro_source__``).
"""

from __future__ import annotations

import linecache
import re
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from itertools import count as _count_from
from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Optional
from typing import Collection, Sequence, Union

from ..core.errors import DecompositionError
from ..core.spec import RelationSpec
from ..decomposition.adequacy import check_adequacy
from ..decomposition.model import (
    Decomposition,
    DecompNode,
    MapEdge,
    Path,
    format_decomposition,
)
from ..decomposition.parser import parse_decomposition
from ..decomposition.plan import (
    JoinPlan,
    LookupStep,
    PlanStep,
    QueryPlan,
    ScanStep,
    plan_query,
    residual_update_columns,
)
from ..faults import register_site
from ..structures.registry import canonical_structure_name, size_class
from .emitter import Emitter
from .runtime import J_APPENDED, J_CELL, J_COUNT, J_FRESH, J_ROOT, J_SET

__all__ = [
    "MAX_ENUMERATED_COLUMNS",
    "clear_codegen_cache",
    "codegen_cache_stats",
    "compile_relation",
    "generate_source",
    "generate_source_and_meta",
]

#: Injection sites emitted into every generated class's mutators.  They sit
#: *inside* the unrolled walks — after some links/registry entries have been
#: applied — so arming one exercises the emitted rollback blocks, not the
#: trivial nothing-done-yet prefix.  Registered here (at compiler import)
#: so the chaos suite's sweep covers the compiled tier even before the
#: first class is generated.
for _site in (
    "codegen.insert.fd_evict",
    "codegen.insert.store",
    "codegen.insert.link_shared",
    "codegen.insert.registry",
    "codegen.remove.unlink",
    "codegen.remove.registry_pop",
    "codegen.remove.batch",
    "codegen.update.reinsert",
    "codegen.update.in_place",
):
    register_site(_site)

#: Specialised query methods are generated for *every* subset of the
#: specification columns up to this width (2**6 = 64 methods).  Wider
#: schemas get methods for the essential subsets (empty pattern, full
#: pattern, FD left-hand sides, per-path key prefixes) plus a scanning
#: fallback, keeping generated-code size linear in the schema.
MAX_ENUMERATED_COLUMNS = 6

_generated_modules = _count_from()


def _default_class_name(decomposition_name: str) -> str:
    sanitized = re.sub(r"\W+", "_", decomposition_name).strip("_") or "relation"
    return "Compiled_" + sanitized


def _frozenset_literal(cols: FrozenSet[str]) -> str:
    if not cols:
        return "frozenset()"
    return "frozenset((" + ", ".join(repr(c) for c in sorted(cols)) + ",))"


class _Pattern(NamedTuple):
    """One bound-pattern column set: its mask, its plan, whether it is
    batch-removable (see ``_is_batch_removable``) and the names of the
    methods emitted for it — the one record ``_PLANS``, ``_VPLANS``, ``_RM``
    and ``__repro_meta__`` are all written from."""

    cols: FrozenSet[str]
    mask: int
    plan: Union[QueryPlan, JoinPlan]
    batch: bool

    q = property(lambda self: f"_q_{self.mask}")  # dict adapter (_PLANS)
    qv = property(lambda self: f"_qv_{self.mask}")  # positional core (_VPLANS)
    rm = property(lambda self: f"_rm_{self.mask}")  # fused remover (_RM)


class _RelationCompiler:
    """Single-use compiler from one (spec, decomposition) pair to source."""

    def __init__(
        self,
        spec: RelationSpec,
        decomposition: Decomposition,
        class_name: str,
        enforce_fds_default: bool = True,
        sizes: Optional[Mapping[MapEdge, float]] = None,
    ):
        check_adequacy(decomposition, spec)
        self.spec = spec
        self.decomposition = decomposition
        self.class_name = class_name
        self.enforce_fds_default = enforce_fds_default
        #: Optional per-edge container-size estimates (e.g. the autotuner's
        #: trace-derived :func:`~repro.autotuner.scorer.estimate_edge_sizes`).
        #: The compile-time plan table is chosen against them, so a class
        #: compiled for a workload whose split-pattern queries profit from a
        #: cross-branch join gets the join plan — without them plans are
        #: ranked at the symbolic uniform size, which cannot see skew.
        self.sizes = sizes
        self.cols = tuple(sorted(spec.columns))
        self.col_index = {c: i for i, c in enumerate(self.cols)}
        self.paths: List[Path] = decomposition.paths()
        #: Shared sub-nodes (≥ 2 parent edges) in pre-order; each gets a
        #: registry attribute ``self._s<j>`` on the generated class mapping
        #: the node's bound-column binding to its unique cell object.
        self.shared_nodes: List[DecompNode] = decomposition.shared_nodes()
        self.shared_index = {id(node): j for j, node in enumerate(self.shared_nodes)}
        self.shared_bound_cols = {
            id(node): tuple(sorted(decomposition.shared_bound(node)))
            for node in self.shared_nodes
        }
        self.em = Emitter()
        self._symbols = 0
        #: What a chain miss emits outside any loop (see _query_frame).
        self._chain_return = "return"

    # -- small expression helpers ----------------------------------------------

    def _gensym(self, prefix: str) -> str:
        self._symbols += 1
        return f"{prefix}{self._symbols}"

    def _vexpr(self, col: str) -> str:
        """The local variable holding *col*'s value in row-bound methods."""
        return f"v{self.col_index[col]}"

    def _row_unpack(self) -> str:
        names = ", ".join(self._vexpr(c) for c in self.cols)
        return names if len(self.cols) > 1 else names + ","

    @staticmethod
    def _tuple_literal(parts: Sequence[str]) -> str:
        """A tuple display that stays a tuple for a single element."""
        if len(parts) == 1:
            return f"({parts[0]},)"
        return "(" + ", ".join(parts) + ")"

    @staticmethod
    def _values_expr(cols: Collection[str], val: Callable[[str], str], empty: str = "True") -> str:
        """A container key or unit residual: the bare value of one column, a
        tuple over several (in column order), *empty* for none."""
        if not cols:
            return empty
        if len(cols) == 1:
            return val(next(iter(cols)))
        return "(" + ", ".join(val(c) for c in sorted(cols)) + ")"

    def _key_expr(self, edge: MapEdge, val: Callable[[str], str]) -> str:
        return self._values_expr(edge.key, val)

    def _residual_expr(self, leaf: DecompNode, val: Callable[[str], str]) -> str:
        return self._values_expr(leaf.unit_columns, val)

    def _container_expr(self, node: DecompNode, inst_expr: str, edge_index: int) -> str:
        if len(node.edges) == 1:
            return inst_expr
        return f"{inst_expr}[{edge_index}]"

    def _node_literal(self, node: DecompNode) -> str:
        parts = ["_L()" if self._strategy(e) == "list" else "{}" for e in node.edges]
        if len(parts) == 1:
            return parts[0]
        return "[" + ", ".join(parts) + "]"

    def _emptiness_expr(self, node: DecompNode, inst_expr: str) -> str:
        if len(node.edges) == 1:
            return f"not {inst_expr}"
        alive = " or ".join(f"{inst_expr}[{i}]" for i in range(len(node.edges)))
        return f"not ({alive})"

    def _is_shared(self, node: DecompNode) -> bool:
        return id(node) in self.shared_index

    def _strategy(self, edge: MapEdge) -> str:
        """How *edge*'s container is lowered: its structure's
        ``CODEGEN_STRATEGY``, except that an intrusive list into an unshared
        child holds no record to unlink by reference and lowers as a plain
        list (the interpreted ``ilist`` is a ``dlist`` there too)."""
        strategy = getattr(edge.structure_class(), "CODEGEN_STRATEGY", "hash")
        if strategy == "intrusive" and not self._is_shared(edge.child):
            return "list"
        return strategy

    def _bk_expr(self, node: DecompNode, val: Callable[[str], str]) -> str:
        """The registry key of a shared node: a tuple over its sorted bound
        columns (always a tuple, even for one column, so well-formedness
        checks can index into it positionally)."""
        return self._tuple_literal([val(c) for c in self.shared_bound_cols[id(node)]])

    def _cell_literal(self, node: DecompNode) -> str:
        """The freshly-created cell of a shared node: a one-slot list for a
        unit leaf (so the residual has object identity every parent can
        point at), the container literal for a map node."""
        if node.is_unit:
            return "[None]"
        return self._node_literal(node)

    # -- emission primitives -----------------------------------------------------

    def _emit_charge(
        self, edge: MapEdge, cexpr: str, op: str = "lookup", paid: bool = False
    ) -> None:
        """Charge one modelled *op* (``lookup``, ``scan`` or a :meth:`_touch`
        op) on *edge*'s container.  *paid*: a probe of this container just
        paid for it — hash, tree and list links and unlinks ride on that
        charge, but an intrusive unlink still pays its O(1) pointer splice
        (its probe was a key *search*)."""
        strategy = self._strategy(edge)
        if paid and not (op == "unlink" and strategy == "intrusive"):
            return
        if op == "scan":
            cost = f"len({cexpr})"
        elif strategy == "list":
            # List probes and stores walk the entries inside the helpers,
            # which charge per visited entry (an unpaid unlink walks with
            # the probe helper first, see _touch); a link appends.
            cost = "1" if op == "link" else ""
        elif strategy == "tree":
            cost = f"max(1, len({cexpr}).bit_length())"
        elif strategy == "intrusive" and op in ("lookup", "store"):
            # An unordered intrusive list cannot probe by key: a key search
            # walks the links, so it is charged like a scan.
            cost = f"max(1, len({cexpr}))"
        else:
            cost = "1"
        if cost:
            self.em.line(f"if en: _C.accesses += {cost}")

    def _touch(
        self,
        op: str,
        c: str = "",
        k: str = "",
        v: str = "",
        edge: Optional[MapEdge] = None,
        site: str = "",
        paid: bool = False,
    ) -> None:
        """Emit one mutation of container *c* with all of its disciplines, in
        order: the ``_fa``-guarded fault check for *site*, the charge of *op*
        when *c* is *edge*'s container (the shared-node registries, shared
        cells and unit root are uncounted), the undo-journal entry, and the
        mutation: ``store`` (``c[k] = v``, displacing any old value),
        ``link`` (a known-new entry), ``unlink`` (a known-present entry),
        ``pop`` (registry binding *k* whose cell is *v*), ``root``
        (``self._root = v``) or ``cell`` (``c[0] = v``)."""
        if site:
            self.em.fault_check(site)
        if edge is not None:
            self._emit_charge(edge, c, op, paid)
        if edge is not None and self._strategy(edge) == "list":
            # The runtime helpers walk, journal and index list entries; a
            # link appends a known-new entry and indexes it here.  An unlink
            # no probe paid for first walks to the entry, charging the walk.
            lines = {
                "store": [f"_l_put_j({c}, {k}, {v}, _j)"],
                "link": [f"{c}.append([{k}, {v}])", f"{c}.idx[{k}] = {c}[-1]"],
                "unlink": [f"_l_del_j({c}, {k}, _j)"],
            }[op]
            if op == "link":
                lines.append(f"_j.append(({J_APPENDED}, {c}))")
            elif op == "unlink" and not paid:
                lines.insert(0, f"_l_get({c}, {k})")
        else:
            # A store's uncounted .get captures the displaced residual (if
            # any) for the rollback block.
            lines = {
                "store": [
                    f"_j.append(({J_SET}, {c}, {k}, {c}.get({k}, _MISS)))",
                    f"{c}[{k}] = {v}",
                ],
                "link": [f"{c}[{k}] = {v}", f"_j.append(({J_FRESH}, {c}, {k}))"],
                "unlink": [f"_j.append(({J_SET}, {c}, {k}, {c}[{k}]))", f"del {c}[{k}]"],
                "pop": [f"_j.append(({J_SET}, {c}, {k}, {v}))", f"{c}.pop({k}, None)"],
                "root": [f"_j.append(({J_ROOT}, self, self._root))", f"self._root = {v}"],
                "cell": [f"_j.append(({J_CELL}, {c}, {c}[0]))", f"{c}[0] = {v}"],
            }[op]
        self.em.lines(*lines)

    @contextmanager
    def _rollback(self, enlist: bool = False) -> Iterator[None]:
        """Emit a mutator's rollback scope around the ``with`` body: the undo
        journal ``_j`` (with *enlist*, the caller's when one is passed in;
        ``_own`` records which), ``try:``, and an ``except BaseException:``
        handler that replays an owned journal with ``_undo`` and re-raises."""
        em = self.em
        if enlist:
            em.line("_own = _j is None")
            em.line("if _own:")
            with em.indent():
                em.line("_j = []")
        else:
            em.line("_j = []")
        em.line("try:")
        with em.indent():
            yield
        em.line("except BaseException:")
        with em.indent():
            if enlist:
                em.line("if _own:")
                with em.indent():
                    em.line("_undo(_j)")
            else:
                em.line("_undo(_j)")
            em.line("raise")

    @contextmanager
    def _method(self, signature: str, doc: str = "", fresh: bool = False) -> Iterator[None]:
        """Emit ``def <signature>:`` and its docstring, indent the ``with``
        body into it, and close with a blank line; *fresh* restarts the
        gensym counter."""
        if fresh:
            self._symbols = 0
        self.em.line(f"def {signature}:")
        with self.em.indent():
            if doc:
                self.em.docstring(doc)
            yield
        self.em.line()

    @contextmanager
    def _query_frame(self) -> Iterator[None]:
        """Emit the row-list builder frame of every query method; a chain miss
        outside any loop returns the list built so far.  A list, not a
        generator: the callers always consume every row, so eager
        construction charges the same accesses while skipping the per-row
        resume cost of the generator protocol."""
        em = self.em
        em.line("en = _C.enabled and _C.owner == _gi()")
        em.line("out = []")
        em.line("ap = out.append")
        self._chain_return = "return out"
        yield
        em.line("return out")
        self._chain_return = "return"

    def _emit_get(
        self, edge: MapEdge, target: str, cexpr: str, kexpr: str, charge: bool = True
    ) -> None:
        # _MISS (not None) is the missing-entry sentinel throughout: None is
        # a legal stored value, so a unit residual of None must stay
        # distinguishable from an absent entry.
        if charge:
            self._emit_charge(edge, cexpr)
        if self._strategy(edge) == "list":
            self.em.line(f"{target} = _l_get({cexpr}, {kexpr})")
        else:
            self.em.line(f"{target} = {cexpr}.get({kexpr}, _MISS)")

    def _residual_condition(self, leaf: DecompNode, uvar: str, val: Callable[[str], str]) -> str:
        if self._is_shared(leaf):
            # *uvar* holds the shared cell (or _MISS): unwrap one level.
            if not leaf.unit_columns:
                return f"{uvar} is not _MISS"
            return (
                f"{uvar} is not _MISS and {uvar}[0] == {self._residual_expr(leaf, val)}"
            )
        if not leaf.unit_columns:
            return f"{uvar} is True"
        return f"{uvar} == {self._residual_expr(leaf, val)}"

    # -- pattern subsets / dispatch ---------------------------------------------

    def _mask(self, subset: FrozenSet[str]) -> int:
        return sum(1 << self.col_index[c] for c in subset)

    def _pattern_subsets(self) -> List[FrozenSet[str]]:
        if len(self.cols) <= MAX_ENUMERATED_COLUMNS:
            return [
                frozenset(c for i, c in enumerate(self.cols) if mask >> i & 1)
                for mask in range(2 ** len(self.cols))
            ]
        subsets = {frozenset(), frozenset(self.cols)}
        for fd in self.spec.fds:
            subsets.add(frozenset(fd.lhs))
        for path in self.paths:
            bound: set = set()
            for e in path.edges:
                bound |= e.key
                subsets.add(frozenset(bound))
        return sorted(subsets, key=self._mask)

    # -- plan-shaped row generators ---------------------------------------------

    def _emit_chain(
        self,
        path: Path,
        steps: Sequence[PlanStep],
        known: Dict[str, str],
        in_loop: bool,
        start: "Optional[tuple]" = None,
    ) -> "tuple[Dict[str, str], int]":
        """Emit the walk of one chain; returns ``(exprs, opened_loops)``.

        *known* maps columns already bound in the emitted scope (pattern
        variables, or — for a join's probe side — the build side's row
        variables) to their expressions.  Lookup steps probe with known
        expressions; scan steps open a loop, comparing scanned key columns
        against known expressions and binding the rest; leaf residuals are
        likewise compared when known (the explicit residual filter, and a
        join's common-column agreement) and bound when not.  The caller
        emits the leaf payload (a ``yield`` or a hash-table insert) and
        then pops *opened_loops* indent levels.  *in_loop* tells the walker
        whether a miss must ``continue`` an enclosing loop instead of
        returning from the generator.  *start* — a ``(node, expr)`` pair —
        begins the walk mid-path at *node* held in *expr* instead of at the
        root (the range scan holds each root child from its ordered
        iteration, so its per-group sub-walks start one level down).
        """
        em = self.em
        exprs: Dict[str, str] = dict(known)
        opened_loops = 0
        if start is not None:
            node, current = start
        else:
            node = self.decomposition.root
            current = "self._root"

        def fail() -> str:
            if opened_loops or in_loop:
                return "continue"
            return self._chain_return

        if start is None and not path.edges:
            uvar = self._gensym("u")
            em.line(f"{uvar} = self._root")
            em.line(f"if {uvar} is _MISS:")
            with em.indent():
                em.line(fail())
            current = uvar

        for step in steps:
            e = step.edge
            cvar = self._gensym("c")
            em.line(f"{cvar} = {self._container_expr(node, current, step.edge_index)}")
            if isinstance(step, LookupStep):
                kexpr = self._key_expr(e, lambda c: exprs[c])
                nvar = self._gensym("n")
                self._emit_get(e, nvar, cvar, kexpr)
                em.line(f"if {nvar} is _MISS:")
                with em.indent():
                    em.line(fail())
            else:
                self._emit_charge(e, cvar, "scan")
                kvar = self._gensym("k")
                nvar = self._gensym("n")
                if self._strategy(e) == "list":
                    entry = self._gensym("t")
                    em.line(f"for {entry} in {cvar}:")
                    em.push()
                    em.line(f"{kvar} = {entry}[0]")
                    em.line(f"{nvar} = {entry}[1]")
                else:
                    em.line(f"for {kvar}, {nvar} in {cvar}.items():")
                    em.push()
                opened_loops += 1
                key_cols = sorted(e.key)
                for j, kc in enumerate(key_cols):
                    scanned = kvar if len(key_cols) == 1 else f"{kvar}[{j}]"
                    if kc in exprs:
                        em.line(f"if {scanned} != {exprs[kc]}:")
                        with em.indent():
                            em.line("continue")
                    else:
                        exprs[kc] = scanned
            node = e.child
            current = nvar

        unit_cols = sorted(path.leaf.unit_columns)
        # A shared unit leaf stores its residual boxed in a one-slot cell.
        base = f"{current}[0]" if self._is_shared(path.leaf) else current
        for j, uc in enumerate(unit_cols):
            leaf_expr = base if len(unit_cols) == 1 else f"{base}[{j}]"
            if uc in exprs:
                em.line(f"if {leaf_expr} != {exprs[uc]}:")
                with em.indent():
                    em.line(fail())
            else:
                exprs[uc] = leaf_expr
        return exprs, opened_loops

    def _pattern_vars(self, pattern_cols: FrozenSet[str]) -> Dict[str, str]:
        """Positional parameter names for a pattern's columns, in sorted
        column order — the same order :attr:`Tuple._items` stores values,
        so the public boundary can splat a pattern straight into the
        specialised generator without building a dict."""
        return {col: f"p{self.col_index[col]}" for col in sorted(pattern_cols)}

    def _emit_row(self, exprs: Dict[str, str]) -> None:
        self.em.line("ap(" + self._tuple_literal([exprs[c] for c in self.cols]) + ")")

    def _emit_join_rows(self, plan: JoinPlan, pattern_cols: FrozenSet[str]) -> None:
        """Emit a join query method's body: build side first, then the probe
        side.

        ``style == "probe"``: the probe chain is emitted *inside* the build
        side's loops with the build row's columns bound, so probe lookups
        compile to direct container probes keyed by build-side values.
        ``style == "hash"``: both chains are emitted independently; the
        build rows are collected into a temporary dict keyed on the join
        columns and the probe rows matched against it — one counted access
        per temporary insert and per probe, matching the interpreted tier.
        """
        em = self.em
        pvars = self._pattern_vars(pattern_cols)
        if plan.style == "probe":
            build_exprs, build_loops = self._emit_chain(
                plan.build.path, plan.build.steps, pvars, in_loop=False
            )
            exprs, probe_loops = self._emit_chain(
                plan.probe.path, plan.probe.steps, build_exprs, in_loop=build_loops > 0
            )
            self._emit_row(exprs)
            em.pop(build_loops + probe_loops)
            return
        on_cols = sorted(plan.on)
        build_cols = sorted(plan.build.produced)
        em.line("_tbl = {}")
        build_exprs, build_loops = self._emit_chain(
            plan.build.path, plan.build.steps, pvars, in_loop=False
        )
        em.line("if en: _C.accesses += 1")
        key = self._tuple_literal([build_exprs[c] for c in on_cols])
        row = self._tuple_literal([build_exprs[c] for c in build_cols])
        em.line(f"_tbl.setdefault({key}, []).append({row})")
        em.pop(build_loops)
        probe_exprs, probe_loops = self._emit_chain(
            plan.probe.path, plan.probe.steps, pvars, in_loop=False
        )
        em.line("if en: _C.accesses += 1")
        pkey = self._tuple_literal([probe_exprs[c] for c in on_cols])
        em.line(f"for _m in _tbl.get({pkey}, ()):")
        em.push()
        build_side = {c: f"_m[{i}]" for i, c in enumerate(build_cols)}
        self._emit_row({**build_side, **probe_exprs})
        em.pop(1 + probe_loops)

    def _emit_query_method(self, pattern: _Pattern) -> None:
        em = self.em
        params = [f"p{self.col_index[c]}" for c in sorted(pattern.cols)]
        cols = "{" + ", ".join(sorted(pattern.cols)) + "}"
        # The positional core: pattern values arrive as parameters (in
        # sorted column order — Tuple._items order), bound once at call
        # time instead of through per-call dict loads.
        with self._method(
            f"{pattern.qv}({', '.join(['self'] + params)})",
            f"Pattern over {cols}; plan: {pattern.plan.describe()}.",
            fresh=True,
        ):
            with self._query_frame():
                if isinstance(pattern.plan, JoinPlan):
                    self._emit_join_rows(pattern.plan, pattern.cols)
                else:
                    exprs, opened_loops = self._emit_chain(
                        pattern.plan.path,
                        pattern.plan.steps,
                        self._pattern_vars(pattern.cols),
                        in_loop=False,
                    )
                    self._emit_row(exprs)
                    em.pop(opened_loops)
        # The dict-pattern adapter: _query_rows and update reach the
        # positional core through _PLANS with a plain mapping.
        with self._method(f"{pattern.q}(self, p)"):
            args = ", ".join(f"p[{c!r}]" for c in sorted(pattern.cols))
            em.line(f"return self.{pattern.qv}({args})")

    def _emit_rows_path(self, index: int) -> None:
        em = self.em
        path = self.paths[index]
        steps = [ScanStep(e, i) for e, i in zip(path.edges, path.edge_indices)]
        out_cols = sorted(path.covered)
        with self._method(
            f"_rows_path_{index}(self)",
            f"Scan every row via path {index}: {path.describe()}."
            + (
                ""
                if frozenset(out_cols) == frozenset(self.cols)
                else f"  Key-projection branch: rows cover ({', '.join(out_cols)})."
            ),
            fresh=True,
        ):
            em.line("en = _C.enabled and _C.owner == _gi()")
            exprs, opened_loops = self._emit_chain(path, steps, {}, in_loop=False)
            em.line("yield " + self._tuple_literal([exprs[c] for c in out_cols]))
            em.pop(opened_loops)

    # -- straight-line walks for the mutators ------------------------------------

    def _emit_presence_check(self) -> None:
        """Nested lookups along the primary path, returning ``False`` when
        the exact row is already stored."""
        em = self.em
        path = self.paths[0]
        node = self.decomposition.root
        current = "self._root"
        for depth, (e, idx) in enumerate(zip(path.edges, path.edge_indices)):
            if depth:
                em.line(f"if {current} is not _MISS:")
                em.push()
            cexpr = self._container_expr(node, current, idx)
            nvar = self._gensym("n")
            self._emit_get(e, nvar, cexpr, self._key_expr(e, self._vexpr))
            node = e.child
            current = nvar
        em.line(f"if {self._residual_condition(path.leaf, current, self._vexpr)}:")
        with em.indent():
            em.line("return False")
        em.pop(max(0, len(path.edges) - 1))

    def _emit_fd_eviction(self) -> None:
        """Collect every stored row FD-conflicting with the new row into
        ``_conf`` and remove it — the last-writer-wins semantics of
        ``enforce_fds=False``.  Driven by the specification's FDs (via the
        compiled per-pattern query methods) rather than by unit-binding
        collisions, which are layout-dependent: a fully-bound layout has
        empty units yet must still agree with the other tiers."""
        em = self.em
        em.line("_conf = None")

        def collect(fd) -> None:
            em.line("if _conf is None:")
            with em.indent():
                em.line("_conf = set()")
            em.line("_conf.add(_m)")

        self._emit_fd_conflicts(collect)
        em.line("if _conf:")
        with em.indent():
            em.line("for _r in _conf:")
            with em.indent():
                em.fault_check("codegen.insert.fd_evict")
                em.line("self._remove_row(_r, _j)")

    def _emit_fd_conflicts(self, on_conflict: Callable[..., None]) -> None:
        """Per FD, loop ``_m`` over the stored rows sharing the bound row's
        left-hand side and run *on_conflict(fd)* where the right-hand
        sides differ."""
        for fd in self.spec.fds:
            self.em.line(f"for _m in {self._fd_query_call(fd.lhs, self._vexpr)}:")
            with self.em.indent():
                differs = " or ".join(
                    f"_m[{self.col_index[c]}] != {self._vexpr(c)}" for c in sorted(fd.rhs)
                )
                self.em.line(f"if {differs}:")
                with self.em.indent():
                    on_conflict(fd)

    def _emit_range_log(self) -> None:
        """On a layout serving range reads, log the range-column value of
        the row bound in ``v<i>``, before the writer's first change to that
        row, for the next range read's repair (``sync_range_snapshot``):
        the row's root key may be linked or unlinked, and its cached result
        rows change either way.  A set: a key written many times is
        re-checked once.  Logging stops once the log holds more than an
        eighth of the snapshot's keys, which tells the read to diff the
        whole key set and drop every cached row instead.  A rollback of the
        write leaves the key logged; the repair re-checks it against the
        live container and rebuilds its rows unchanged."""
        if self.range_edge is None:
            return
        em = self.em
        em.line("_rl = self._rlog")
        em.line("if len(_rl) <= len(self._rkeys) >> 3:")
        with em.indent():
            em.line(f"_rl.add({self._vexpr(next(iter(self.range_edge.key)))})")

    def _emit_store_walk(self, node: DecompNode, inst_expr: str, shared_emitted: set) -> None:
        em = self.em
        if node.is_unit:  # Unit root: the instance is the residual itself.
            residual = self._residual_expr(node, self._vexpr)
            self._touch("root", v=residual, site="codegen.insert.store")
            return
        for idx, e in enumerate(node.edges):
            cvar = self._gensym("c")
            em.line(f"{cvar} = {self._container_expr(node, inst_expr, idx)}")
            kexpr = self._key_expr(e, self._vexpr)
            if self._is_shared(e.child):
                self._emit_shared_store(e, cvar, kexpr, shared_emitted)
            elif e.child.is_unit:
                residual = self._residual_expr(e.child, self._vexpr)
                self._touch("store", cvar, kexpr, residual, e, site="codegen.insert.store")
            else:
                nvar = self._gensym("n")
                self._emit_get(e, nvar, cvar, kexpr)
                em.line(f"if {nvar} is _MISS:")
                with em.indent():
                    em.line(f"{nvar} = {self._node_literal(e.child)}")
                    self._touch("link", cvar, kexpr, nvar, e, paid=True)
                self._emit_store_walk(e.child, nvar, shared_emitted)

    def _emit_shared_store(self, e: MapEdge, cvar: str, kexpr: str, shared_emitted: set) -> None:
        """Get-or-create the shared child's cell (once per insert) and link
        it into this parent container only when freshly created — a registry
        hit from an earlier insert is already linked into every parent, so
        no duplicate search is ever emitted (the intrusive O(1) link)."""
        em = self.em
        j = self.shared_index[id(e.child)]
        cell = f"_sc{j}"
        descend = False
        if j not in shared_emitted:
            shared_emitted.add(j)
            em.line(f"_b{j} = {self._bk_expr(e.child, self._vexpr)}")
            em.line(f"{cell} = self._s{j}.get(_b{j})")
            em.line(f"_sn{j} = {cell} is None")
            em.line(f"if _sn{j}:")
            with em.indent():
                em.line(f"{cell} = {self._cell_literal(e.child)}")
                self._touch("link", f"self._s{j}", f"_b{j}", cell, site="codegen.insert.registry")
            if e.child.is_unit:
                self._touch("cell", cell, v=self._residual_expr(e.child, self._vexpr))
            descend = not e.child.is_unit
        em.line(f"if _sn{j}:")
        with em.indent():
            self._touch("link", cvar, kexpr, cell, e, site="codegen.insert.link_shared")
        if descend:
            self._emit_store_walk(e.child, cell, shared_emitted)

    def _emit_remove_walk(self, node: DecompNode, inst_expr: str, shared_emitted: set) -> None:
        em = self.em
        if node.is_unit:  # Unit root.
            cond = self._residual_condition(node, "self._root", self._vexpr)
            em.line(f"if {cond}:")
            with em.indent():
                self._touch("root", v="_MISS", site="codegen.remove.unlink")
                em.line("removed = True")
            return
        for idx, e in enumerate(node.edges):
            cvar = self._gensym("c")
            em.line(f"{cvar} = {self._container_expr(node, inst_expr, idx)}")
            kexpr = self._key_expr(e, self._vexpr)
            opened = 0
            if self._is_shared(e.child):
                # The hit was decided once against the registry (_sh flags,
                # see _emit_remove_row); each parent just unlinks — O(1) on
                # intrusive branches, no per-branch victim scan.  No probe
                # precedes, so the unlink pays like a key-based removal.
                j = self.shared_index[id(e.child)]
                cond, paid = f"_sh{j}", False
                if not e.child.is_unit:
                    if j not in shared_emitted:
                        shared_emitted.add(j)
                        em.line(f"if _sh{j}:")
                        with em.indent():
                            self._emit_remove_walk(e.child, f"_sc{j}", shared_emitted)
                            em.line(f"_se{j} = {self._emptiness_expr(e.child, f'_sc{j}')}")
                    cond = f"_sh{j} and _se{j}"
            elif e.child.is_unit:
                uvar = self._gensym("u")
                self._emit_get(e, uvar, cvar, kexpr)
                cond, paid = self._residual_condition(e.child, uvar, self._vexpr), True
            else:
                nvar = self._gensym("n")
                self._emit_get(e, nvar, cvar, kexpr)
                em.line(f"if {nvar} is not _MISS:")
                em.push()
                opened = 1
                self._emit_remove_walk(e.child, nvar, shared_emitted)
                cond, paid = self._emptiness_expr(e.child, nvar), True
            em.line(f"if {cond}:")
            with em.indent():
                self._touch("unlink", cvar, kexpr, edge=e, site="codegen.remove.unlink", paid=paid)
                if e.child.is_unit:
                    em.line("removed = True")
            em.pop(opened)

    # -- top-level generation ----------------------------------------------------

    def generate(self) -> str:
        em = self.em
        self.resid_safe = residual_update_columns(self.decomposition, self.spec)
        self.patterns: List[_Pattern] = []
        for subset in self._pattern_subsets():
            plan = plan_query(self.decomposition, subset, sizes=self.sizes, spec=self.spec)
            self.patterns.append(
                _Pattern(subset, self._mask(subset), plan, self._is_batch_removable(subset, plan))
            )
        choice = self._range_path()
        self.range_edge = choice[1] if choice is not None else None
        self._emit_module_header()
        self._emit_class_header()
        with em.indent():
            self._emit_init()
            self._emit_full_values()
            self._emit_insert()
            self._emit_insert_row()
            self._emit_remove()
            self._emit_remove_row()
            self._emit_update()
            if self.resid_safe:
                self._emit_update_in_place()
            self._emit_query_range()
            for pattern in self.patterns:
                self._emit_query_method(pattern)
            for pattern in self.patterns:
                if pattern.batch:
                    self._emit_batch_remove(pattern)
            for index in range(len(self.paths)):
                self._emit_rows_path(index)
            self._emit_check_well_formed()
        self._emit_dispatch()
        #: Per-class metadata consumed by the static verifier
        #: (``repro.analysis.emitted``): the dispatch masks the compiler
        #: actually planned for, which fault sites it emitted, and the plan
        #: behind every specialised query method.  Attached to the compiled
        #: class as ``__repro_meta__``.
        self.meta = {
            "class_name": self.class_name,
            "columns": list(self.cols),
            "masks": [p.mask for p in self.patterns],
            "batch_masks": [p.mask for p in self.patterns if p.batch],
            "fault_sites": sorted(em.fault_sites),
            "queries": {
                p.mask: {
                    "method": p.q,
                    "vmethod": p.qv,
                    "pattern": sorted(p.cols),
                    "plan": p.plan.describe(),
                }
                for p in self.patterns
            },
        }
        return em.source()

    def _emit_module_header(self) -> None:
        em = self.em
        em.docstring(
            f"Generated by repro.codegen for decomposition "
            f"{self.decomposition.name!r}: {self.decomposition.describe()}\n"
            f"Do not edit; regenerate with repro.codegen.generate_source()."
        )
        em.line()
        if self.range_edge is not None:
            em.lines(
                "from bisect import bisect_left as _bl, bisect_right as _br",
                "from itertools import chain as _chain",
                "",
                "from repro.codegen.runtime import INTERN_BOUND, _hit, intern_rows",
                "from repro.codegen.runtime import sync_range_snapshot",
                "from repro.core.values import ensure_value as _EV",
            )
        fd_literals = ", ".join(
            f"FunctionalDependency({sorted(fd.lhs)!r}, {sorted(fd.rhs)!r})"
            for fd in self.spec.fds
        )
        em.lines(
            "from repro.codegen.runtime import _L, _MISS, _gi, _l_del_j, _l_get, _l_put_j, _undo",
            "from repro.codegen.runtime import CompiledRelation, bind_query_boundary",
            "from repro.core.errors import FunctionalDependencyError, WellFormednessError",
            "from repro.core.fd import FunctionalDependency",
            "from repro.core.spec import RelationSpec",
            "from repro.core.tuples import Tuple",
            "from repro.structures.base import COUNTER as _C",
            "from repro.core.values import value_sort_key as _VSK, values_sort_key as _row_key",
            "from repro.faults import FAULTS as _F",
            "",
            f"_COLS = ({', '.join(repr(c) for c in self.cols)},)",
            "_COLSET = frozenset(_COLS)",
            "_RS = frozenset(("
            + "".join(f"{c!r}, " for c in sorted(self.resid_safe))
            + "))",
            f"_SPEC = RelationSpec({list(self.cols)!r}, fds=[{fd_literals}], "
            f"name={self.spec.name!r})",
            "",
            "",
        )

    def _emit_class_header(self) -> None:
        em = self.em
        em.line(f"class {self.class_name}(CompiledRelation):")
        lines = [
            f"Compiled representation of {self.spec.name!r} stored as "
            f"{self.decomposition.describe()}.",
            "",
            "Rows are value tuples over the sorted columns "
            + "(" + ", ".join(self.cols) + ").",
            "Pattern dispatch (built at compile time):",
        ]
        for pattern in self.patterns:
            cols = "{" + ", ".join(sorted(pattern.cols)) + "}"
            lines.append(f"  {cols}: {pattern.plan.describe()}")
        with em.indent():
            em.docstring("\n".join(lines))
            em.line()

    def _emit_init(self) -> None:
        em = self.em
        root = self.decomposition.root
        literal = "_MISS" if root.is_unit else self._node_literal(root)
        with self._method(f"__init__(self, enforce_fds={self.enforce_fds_default!r})"):
            em.line("self.spec = _SPEC")
            em.line("self.enforce_fds = enforce_fds")
            em.line(f"self._root = {literal}")
            em.line("self._count = 0")
            em.line("self._proj_cache = {}")
            em.line("self._t_cache = {}")
            if self.range_edge is not None:
                # The ordered-root range cache: a sorted (sort_key, key)
                # snapshot, each key's interned result rows (None until
                # built), and the set of root keys whose rows were written
                # since the last range read, from which that read repairs
                # both (see sync_range_snapshot).
                em.line("self._rord = []")
                em.line("self._rkeys = []")
                em.line("self._rrows = []")
                em.line("self._rlog = set()")
            for j, node in enumerate(self.shared_nodes):
                bound = ", ".join(self.shared_bound_cols[id(node)])
                em.line(f"self._s{j} = {{}}  # shared node registry ({{{bound}}} binding -> cell)")

    def _emit_full_values(self) -> None:
        em = self.em
        with self._method("_full_values(self, tup)"):
            em.line("if type(tup) is Tuple:")
            with em.indent():
                # Tuple items are stored sorted by column, matching _COLS:
                # a positional column check replaces the dict round-trip.
                em.line("items = tup._items")
                shape = " and ".join(
                    [f"len(items) == {len(self.cols)}"]
                    + [f"items[{i}][0] == {c!r}" for i, c in enumerate(self.cols)]
                )
                em.line(f"if {shape}:")
                with em.indent():
                    em.line(
                        "return "
                        + self._tuple_literal(
                            [f"items[{i}][1]" for i in range(len(self.cols))]
                        )
                    )
                em.line("d = dict(items)")
            em.line("elif tup is None:")
            with em.indent():
                em.line("d = {}")
            em.line("else:")
            with em.indent():
                em.line("d = Tuple(tup).as_dict()")
            em.line(f"if len(d) != {len(self.cols)} or not _COLSET.issuperset(d):")
            with em.indent():
                em.line("_SPEC.check_full_tuple(Tuple(d))")
            em.line("return " + self._tuple_literal([f"d[{c!r}]" for c in self.cols]))

    def _fd_query_call(self, lhs: FrozenSet[str], val: Callable[[str], str]) -> str:
        mask = self._mask(lhs)
        payload = ", ".join(val(c) for c in sorted(lhs))
        return f"self._qv_{mask}({payload})"

    def _emit_insert(self) -> None:
        em = self.em
        with self._method("insert(self, tup)"):
            em.line("row = self._full_values(tup)")
            if self.spec.fds:
                em.line("if self.enforce_fds:")
                with em.indent():
                    em.line(f"{self._row_unpack()} = row")
                    self._emit_fd_conflicts(
                        lambda fd: em.line(
                            "raise FunctionalDependencyError("
                            f'"inserting %r would violate %s" % (tup, {repr(fd)!r}))'
                        )
                    )
            em.line("self._insert_row(row)")

    def _emit_insert_row(self) -> None:
        em = self.em
        with self._method(
            "_insert_row(self, row, _j=None)",
            "Insert a full row; returns whether it was new.  When FDs "
            "are not enforced, rows FD-conflicting with the new row are "
            "first removed from every branch (last-writer-wins, per the "
            "RelationInterface contract).  Strongly exception safe: "
            "every link, registry entry and eviction is journalled into "
            "_j and undone in reverse if any step fails; pass a caller's "
            "journal to enlist in an enclosing operation's rollback.",
            fresh=True,
        ):
            em.line("en = _C.enabled and _C.owner == _gi()")
            em.line("_fa = _F.active")
            em.line(f"{self._row_unpack()} = row")
            self._emit_presence_check()
            self._emit_range_log()
            with self._rollback(enlist=True):
                if self.spec.fds:
                    em.line("if not self.enforce_fds:")
                    with em.indent():
                        self._emit_fd_eviction()
                self._emit_store_walk(self.decomposition.root, "self._root", set())
            em.line("self._count += 1")
            em.line("if not _own:")
            with em.indent():
                em.line(f"_j.append(({J_COUNT}, self, -1))")
            em.line("return True")

    def _emit_remove(self) -> None:
        em = self.em
        with self._method("remove(self, pattern=None)"):
            em.line("p = self._pattern_dict(pattern, 'removal pattern')")
            if any(p.batch for p in self.patterns):
                em.line("h = _RM.get(frozenset(p))")
                em.line("if h is not None:")
                with em.indent():
                    em.line("h(self, p)")
                    em.line("return")
            # One journal across the victims: a failure mid-removal relinks
            # the rows already removed, so the operation is all-or-nothing.
            with self._rollback():
                em.line("for r in list(self._query_rows(p)):")
                with em.indent():
                    em.line("self._remove_row(r, _j)")

    def _is_batch_removable(self, subset: FrozenSet[str], plan) -> bool:
        """A pattern takes the fused remove path when its plan is a pure
        lookup chain (no scans, no join) whose bound pattern columns plus
        the target leaf's residual pin every column — at most one victim,
        reached by the same probes the query generator would pay."""
        if isinstance(plan, JoinPlan):
            return False
        if not all(isinstance(s, LookupStep) for s in plan.steps):
            return False
        covered = frozenset(subset) | frozenset(plan.path.leaf.unit_columns)
        return covered >= frozenset(self.cols)

    def _emit_batch_remove(self, pattern: _Pattern) -> None:
        """The fused single-victim removal: walk the lookup chain once
        (identical probes to the query generator) and remove in place —
        no victim list, no generator frames, bit-identical access counts."""
        em = self.em
        cols = "{" + ", ".join(sorted(pattern.cols)) + "}"
        with self._method(
            f"{pattern.rm}(self, p)",
            f"Fused remove for pattern {cols}: the lookup chain pins at most "
            "one victim, removed without materialising it through the query "
            "path first.",
            fresh=True,
        ):
            em.line("en = _C.enabled and _C.owner == _gi()")
            em.line("_fa = _F.active")
            pvars = self._pattern_vars(pattern.cols)
            for col, var in pvars.items():
                em.line(f"{var} = p[{col!r}]")
            exprs, opened_loops = self._emit_chain(
                pattern.plan.path, pattern.plan.steps, pvars, in_loop=False
            )
            assert not opened_loops
            em.fault_check("codegen.remove.batch")
            with self._rollback():
                row = self._tuple_literal([exprs[c] for c in self.cols])
                em.line(f"self._remove_row({row}, _j)")

    def _emit_remove_row(self) -> None:
        em = self.em
        with self._method(
            "_remove_row(self, row, _j=None)",
            "Remove a full row from every branch, pruning empty "
            "sub-instances.  Shared nodes are resolved once against "
            "their registry; every parent then unlinks the same object "
            "(O(1) per intrusive branch).  Strongly exception safe via "
            "the same journal discipline as _insert_row.",
            fresh=True,
        ):
            em.line("en = _C.enabled and _C.owner == _gi()")
            em.line("_fa = _F.active")
            em.line(f"{self._row_unpack()} = row")
            em.line("removed = False")
            for j, node in enumerate(self.shared_nodes):
                em.line(f"_b{j} = {self._bk_expr(node, self._vexpr)}")
                em.line(f"_sc{j} = self._s{j}.get(_b{j})")
                if node.is_unit and node.unit_columns:
                    em.line(
                        f"_sh{j} = _sc{j} is not None and _sc{j}[0] == "
                        f"{self._residual_expr(node, self._vexpr)}"
                    )
                else:
                    em.line(f"_sh{j} = _sc{j} is not None")
                if not node.is_unit:
                    em.line(f"_se{j} = False")
            self._emit_range_log()
            with self._rollback(enlist=True):
                self._emit_remove_walk(self.decomposition.root, "self._root", set())
                for j, node in enumerate(self.shared_nodes):
                    guard = f"_sh{j}" if node.is_unit else f"_sh{j} and _se{j}"
                    em.line(f"if {guard}:")
                    with em.indent():
                        self._touch(
                            "pop", f"self._s{j}", f"_b{j}", f"_sc{j}",
                            site="codegen.remove.registry_pop",
                        )
            em.line("if removed:")
            with em.indent():
                em.line("self._count -= 1")
                em.line("if not _own:")
                with em.indent():
                    em.line(f"_j.append(({J_COUNT}, self, 1))")
            em.line("return removed")

    def _emit_update(self) -> None:
        em = self.em
        with self._method("update(self, pattern, changes)"):
            em.line("p = self._pattern_dict(pattern, 'update pattern')")
            em.line("ch = self._pattern_dict(changes, 'update changes')")
            em.line("if not ch:")
            with em.indent():
                em.line("return")
            if self.resid_safe:
                em.line("if _RS.issuperset(ch):")
                with em.indent():
                    em.line("return self._update_in_place(p, ch)")
            em.line("_fa = _F.active")
            em.line("victims = list(self._query_rows(p))")
            em.line("if not victims:")
            with em.indent():
                em.line("return")
            merged = self._tuple_literal(
                [f"ch.get({c!r}, r[{i}])" for i, c in enumerate(self.cols)]
            )
            em.line(f"merged = [{merged} for r in victims]")
            if self.spec.fds:
                em.line("if self.enforce_fds:")
                with em.indent():
                    em.line("vic = set(victims)")
                    for fd in self.spec.fds:
                        self._emit_update_fd_check(fd)
            em.line("if not self.enforce_fds:")
            with em.indent():
                # Canonical re-insertion order so colliding merges resolve
                # to the same winner in every tier (RelationInterface).
                em.line("merged.sort(key=_row_key)")
            # One journal across the whole remove-then-reinsert sequence: a
            # failure anywhere restores every victim and unwinds every
            # reinserted row — the update happens entirely or not at all.
            with self._rollback():
                em.line("for r in victims:")
                with em.indent():
                    em.line("self._remove_row(r, _j)")
                em.line("for m in merged:")
                with em.indent():
                    em.fault_check("codegen.update.reinsert")
                    em.line("self._insert_row(m, _j)")

    def _emit_update_fd_check(self, fd) -> None:
        """The reachable-group FD check: merged rows must agree within each
        left-hand-side group, both among themselves and with the untouched
        rows already stored under that group."""
        em = self.em
        lhs = sorted(fd.lhs)
        rhs = sorted(fd.rhs)
        gvar = self._gensym("g")

        def row_proj(var: str, columns: List[str]) -> str:
            return self._values_expr(columns, lambda c: f"{var}[{self.col_index[c]}]", "None")

        em.line(f"{gvar} = {{}}")
        em.line("for m in merged:")
        with em.indent():
            em.line(f"lk = {row_proj('m', lhs)}")
            em.line(f"rv = {row_proj('m', rhs)}")
            em.line(f"prev = {gvar}.get(lk, _MISS)")
            em.line("if prev is _MISS:")
            with em.indent():
                em.line(f"{gvar}[lk] = rv")
            em.line("elif prev != rv:")
            with em.indent():
                em.line(
                    "raise FunctionalDependencyError("
                    '"update with pattern %r would merge tuples into conflicting '
                    f'values for %s" % (pattern, {repr(fd)!r}))'
                )
        em.line(f"for lk, rv in {gvar}.items():")
        with em.indent():
            if len(lhs) == 1:
                lhs_vals = {lhs[0]: "lk"}
            else:
                lhs_vals = {c: f"lk[{j}]" for j, c in enumerate(lhs)}
            em.line(f"for _x in {self._fd_query_call(fd.lhs, lambda c: lhs_vals[c])}:")
            with em.indent():
                em.line("if _x in vic:")
                with em.indent():
                    em.line("continue")
                em.line(f"if {row_proj('_x', rhs)} != rv:")
                with em.indent():
                    em.line(
                        "raise FunctionalDependencyError("
                        '"update with pattern %r and changes %r would violate '
                        f'%s" % (pattern, changes, {repr(fd)!r}))'
                    )

    def _emit_update_in_place(self) -> None:
        em = self.em
        # One walk per distinct leaf holding an updatable column; a shared
        # leaf is rewritten once through its registry cell (every parent
        # container already points at the same object).
        first_path: Dict[int, Path] = {}
        for path in self.paths:
            if frozenset(path.leaf.unit_columns) & self.resid_safe:
                first_path.setdefault(id(path.leaf), path)
        resid_paths = list(first_path.values())
        with self._method(
            "_update_in_place(self, p, ch)",
            "In-place update of residual-only columns.  Every changed "
            "column lives outside all container keys and is FD-inert "
            "(_RS membership), so victims keep their position in every "
            "container and each relevant leaf residual is rewritten "
            "where it lives — no remove, no re-insert, no FD re-check. "
            "Journalled like the other mutators for strong exception "
            "safety.",
            fresh=True,
        ):
            em.line("en = _C.enabled and _C.owner == _gi()")
            em.line("_fa = _F.active")
            em.line("victims = list(self._query_rows(p))")
            em.line("if not victims:")
            with em.indent():
                em.line("return")
            for k, path in enumerate(resid_paths):
                touched = sorted(frozenset(path.leaf.unit_columns) & self.resid_safe)
                cond = " or ".join(f"{c!r} in ch" for c in touched)
                em.line(f"t{k} = {cond}")
            with self._rollback():
                em.line("for r in victims:")
                with em.indent():
                    em.line(f"{self._row_unpack()} = r")
                    self._emit_range_log()
                    for c in sorted(self.resid_safe):
                        i = self.col_index[c]
                        em.line(f"w{i} = ch.get({c!r}, v{i})")
                    em.fault_check("codegen.update.in_place")
                    for k, path in enumerate(resid_paths):
                        em.line(f"if t{k}:")
                        with em.indent():
                            self._emit_resid_write(path)

    def _emit_resid_write(self, path: Path) -> None:
        """Emit the walk rewriting one leaf's residual in place for the
        victim bound in ``v<i>``/``w<i>`` locals.  Shared leaves resolve
        through the registry (the record pointer, uncounted as everywhere
        else); otherwise the walk starts at the deepest shared ancestor's
        cell when there is one, and pays the same per-container probe costs
        a lookup would."""
        em = self.em
        leaf = path.leaf

        def val_new(c: str) -> str:
            if c in self.resid_safe:
                return f"w{self.col_index[c]}"
            return self._vexpr(c)

        residual = self._residual_expr(leaf, val_new)
        if self._is_shared(leaf):
            j = self.shared_index[id(leaf)]
            cvar = self._gensym("u")
            em.line(f"{cvar} = self._s{j}.get({self._bk_expr(leaf, self._vexpr)})")
            em.line(f"if {cvar} is not None:")
            with em.indent():
                self._touch("cell", cvar, v=residual)
            return
        if not path.edges:  # unit root: the instance is the residual.
            self._touch("root", v=residual)
            return
        deepest = -1
        for d in range(len(path.edges) - 1):
            if self._is_shared(path.edges[d].child):
                deepest = d
        opened = 0
        if deepest >= 0:
            shared_node = path.edges[deepest].child
            j = self.shared_index[id(shared_node)]
            svar = self._gensym("n")
            em.line(f"{svar} = self._s{j}.get({self._bk_expr(shared_node, self._vexpr)})")
            em.line(f"if {svar} is not None:")
            em.push()
            opened += 1
            current = svar
            node = shared_node
            start = deepest + 1
        else:
            current = "self._root"
            node = self.decomposition.root
            start = 0
        for d in range(start, len(path.edges)):
            e = path.edges[d]
            idx = path.edge_indices[d]
            cvar = self._gensym("c")
            em.line(f"{cvar} = {self._container_expr(node, current, idx)}")
            kexpr = self._key_expr(e, self._vexpr)
            if d == len(path.edges) - 1:
                self._touch("store", cvar, kexpr, residual, e)
            else:
                nvar = self._gensym("n")
                self._emit_get(e, nvar, cvar, kexpr)
                em.line(f"if {nvar} is not _MISS:")
                em.push()
                opened += 1
                node = e.child
                current = nvar
        em.pop(opened)

    def _range_path(self) -> "Optional[tuple]":
        """The ``(path, root edge)`` serving ordered range scans, if any.

        Qualifies when a full-coverage path starts with an **ordered**
        single-column root edge — the layouts whose modelled structure (a
        balanced tree) genuinely supports a bounded range descent.  Other
        layouts inherit the :class:`RelationInterface` fallback (a filtered
        full scan), keeping the counted asymptotics honest.
        """
        for path in self.paths:
            if not path.edges:  # Unit-root layout: no container to range over.
                continue
            e0 = path.edges[0]
            if (
                len(e0.key) == 1
                and e0.structure_class().ORDERED
                and path.covered == frozenset(self.cols)
            ):
                return path, e0
        return None

    def _emit_query_range(self) -> None:
        choice = self._range_path()
        if choice is None:
            return
        path, e0 = choice
        em = self.em
        col = next(iter(e0.key))
        root = self.decomposition.root
        cexpr = self._container_expr(root, "self._root", path.edge_indices[0])
        nested = not e0.child.is_unit
        with self._method(
            "_range_rows(self, lo, hi)",
            f"Result Tuples with {col!r} in [lo, hi], ascending (group "
            "ties by row sort key).  Charged as the modelled tree's "
            "bounded descent — the boundary probes plus one in-order "
            "successor hop per in-range entry — like every tree-strategy "
            "probe is charged the modelled log2(n), not the dict's O(1).  "
            "Served from a sorted key snapshot (bisected bounds, "
            "physical O(log n + k)) and its parallel list of each root "
            "key's interned rows, both repaired first from the root keys "
            "whose rows writes touched since the last range read; only "
            "the keys in range without rows are walked"
            + (" (all of them when counted: the walk pays the charges)" if nested else "")
            + ".  The charges are identical either way — the cache is a "
            "constant-factor device, not a counted-cost one.",
            fresh=True,
        ):
            em.line("en = _C.enabled and _C.owner == _gi()")
            em.line(f"c0 = {cexpr}")
            em.line("if en:")
            with em.indent():
                em.line("_C.scans += 1")
                em.line("_C.accesses += max(1, len(c0).bit_length())")
            em.line("if self._rlog:")
            with em.indent():
                em.line("sync_range_snapshot(self, c0)")
            em.line("_o = self._rord")
            em.line("_i = _bl(self._rkeys, _VSK(lo)) if lo is not None else 0")
            em.line("_z = _br(self._rkeys, _VSK(hi)) if hi is not None else len(_o)")
            em.line("if _z < _i:")
            with em.indent():
                em.line("_z = _i")
            em.line("if en: _C.accesses += _z - _i")
            # A cached entry is the key's one Tuple under a unit child, else
            # the tuple of its group's Tuples in row order.  A nested group
            # is walked on every counted read: its scans carry the charges.
            em.line("_rr = self._rrows")
            em.line("_s = _rr[_i:_z]")
            build = "en or " if nested else ""
            em.line(f"if {build}not all(map(_hit, _s)):")
            with em.indent():
                if not nested:
                    em.line("tc = self._t_cache")
                    em.line("if len(tc) >= INTERN_BOUND:")
                    with em.indent():
                        em.line("tc.clear()")
                em.line("for _x in range(_i, _z):")
                with em.indent():
                    em.line(f"if {build}_rr[_x] is None:")
                    with em.indent():
                        em.line("k0 = _o[_x][1]")
                        em.line("n0 = c0[k0]")
                        if nested:
                            em.line("grp = []")
                            em.line("ap = grp.append")
                        steps = [
                            ScanStep(e, i)
                            for e, i in zip(path.edges[1:], path.edge_indices[1:])
                        ]
                        exprs, opened = self._emit_chain(
                            path, steps, {col: "k0"}, in_loop=True, start=(e0.child, "n0")
                        )
                        if nested:
                            self._emit_row(exprs)
                            em.pop(opened)
                            em.line("if len(grp) > 1:")
                            with em.indent():
                                em.line("grp.sort(key=_row_key)")
                            em.line("_rr[_x] = tuple(intern_rows(self._t_cache, _COLS, grp))")
                        else:
                            em.line("r = " + self._tuple_literal([exprs[c] for c in self.cols]))
                            em.line("t = tc.get(r)")
                            em.line("if t is None:")
                            with em.indent():
                                em.line("t = tc[r] = Tuple.from_sorted_items(zip(_COLS, r))")
                            em.line("_rr[_x] = t")
                em.line("_s = _rr[_i:_z]")
            em.line("return list(_chain.from_iterable(_s))" if nested else "return _s")
        with self._method(
            "query_range(self, column, lo=None, hi=None)",
            f"Ordered range scan over {col!r} served by the "
            f"{e0.structure!r} root index, returning its cached result "
            "Tuples; other columns take the filtered-scan fallback "
            "(_range_fallback).",
        ):
            em.line(f"if column != {col!r}:")
            with em.indent():
                em.line("return self._range_fallback(column, lo, hi)")
            em.line("return self._range_rows(_EV(lo), _EV(hi))")

    def _emit_check_well_formed(self) -> None:
        em = self.em
        with self._method(
            "check_well_formed(self)",
            "Branch agreement and count consistency (the compiled "
            "counterpart of Figure 5's instance well-formedness).",
        ):
            em.line("rows = set(self._rows_path_0())")
            for index in range(1, len(self.paths)):
                path = self.paths[index]
                ovar = f"other{index}"
                em.line(f"{ovar} = set(self._rows_path_{index}())")
                if path.covered == frozenset(self.cols):
                    expected = "rows"
                else:
                    # A key-projection branch holds the projection of the
                    # primary branch's rows onto its own columns.
                    proj = self._tuple_literal(
                        [f"r[{self.col_index[c]}]" for c in sorted(path.covered)]
                    )
                    expected = f"{{{proj} for r in rows}}"
                em.line(f"if {ovar} != {expected}:")
                with em.indent():
                    em.line(
                        "raise WellFormednessError("
                        f'"branches 0 and {index} disagree on %d row(s)" '
                        f"% len({ovar} ^ {expected}))"
                    )
            em.line("if len(rows) != self._count:")
            with em.indent():
                em.line(
                    "raise WellFormednessError("
                    '"stored rows (%d) disagree with the maintained count (%d)" '
                    "% (len(rows), self._count))"
                )
            self._emit_sharing_checks()

    def _routes_to(self, target: DecompNode) -> List[List[tuple]]:
        """Every route (list of ``(source node, edge, edge index)`` steps)
        from the root to *target*, in deterministic pre-order."""
        routes: List[List[tuple]] = []

        def walk(node: DecompNode, acc: List[tuple]) -> None:
            for idx, e in enumerate(node.edges):
                step = acc + [(node, e, idx)]
                if e.child is target:
                    routes.append(step)
                if not e.child.is_unit:
                    walk(e.child, step)

        walk(self.decomposition.root, [])
        return routes

    def _emit_sharing_checks(self) -> None:
        """The compiled sharing invariant: each shared node's registry must
        hold exactly the bindings the rows imply, and every parent route
        must reach the registry's own cell object (identity, not equality)."""
        em = self.em
        for j, node in enumerate(self.shared_nodes):
            bound_cols = self.shared_bound_cols[id(node)]
            bpos = {c: i for i, c in enumerate(bound_cols)}
            proj = self._tuple_literal([f"r[{self.col_index[c]}]" for c in bound_cols])
            em.line(f"if set(self._s{j}) != {{{proj} for r in rows}}:")
            with em.indent():
                em.line(
                    "raise WellFormednessError("
                    f'"shared node registry {j} disagrees with the stored rows")'
                )
            for route_index, route in enumerate(self._routes_to(node)):
                em.line(f"for _b, _cell in self._s{j}.items():")
                with em.indent():
                    current = "self._root"
                    for source, e, idx in route:
                        cexpr = self._container_expr(source, current, idx)
                        kexpr = self._key_expr(e, lambda c: f"_b[{bpos[c]}]")
                        wvar = self._gensym("w")
                        self._emit_get(e, wvar, cexpr, kexpr, charge=False)
                        em.line(f"if {wvar} is _MISS:")
                        with em.indent():
                            em.line(
                                "raise WellFormednessError("
                                f'"shared node {j} binding %r is missing from '
                                f'parent route {route_index}" % (_b,))'
                            )
                        current = wvar
                    em.line(f"if {current} is not _cell:")
                    with em.indent():
                        em.line(
                            "raise WellFormednessError("
                            f'"sharing invariant violated: parent route '
                            f'{route_index} of shared node {j} holds a different '
                            f'object for binding %r" % (_b,))'
                        )

    def _emit_dispatch(self) -> None:
        """The compile-time dispatch tables, written from :attr:`patterns`,
        and the query boundary bound over them."""
        em = self.em
        cls = self.class_name
        em.line()

        def table(name: str, entries: Sequence[str]) -> None:
            em.line(f"{name} = {{")
            with em.indent():
                em.lines(*entries)
            em.line("}")

        # _PLANS: frozenset pattern -> dict adapter (_query_rows, update).
        table("_PLANS", [f"{_frozenset_literal(p.cols)}: {cls}.{p.q}," for p in self.patterns])
        # The pre-bound positional dispatch: an int bitmask (computed from a
        # pattern's columns in one pass) selects the specialised method,
        # resolved once here at class-creation time.
        table("_VPLANS", [f"{p.mask}: {cls}.{p.qv}," for p in self.patterns])
        # Pattern-shape memo for query(): sorted column tuple -> resolved
        # method (0 = fallback shapes), filled on first sighting.
        em.line("_VCOLS = {}")
        batch = [p for p in self.patterns if p.batch]
        if batch:
            table("_RM", [f"{_frozenset_literal(p.cols)}: {cls}.{p.rm}," for p in batch])
        em.line(f"bind_query_boundary({cls}, _COLS, _SPEC, _PLANS, _VPLANS, _VCOLS)")


def _resolve(
    decomposition: Union[Decomposition, str],
    class_name: Optional[str],
    sizes: Optional[Mapping[MapEdge, float]],
) -> "tuple[Decomposition, str]":
    """The front door of :func:`generate_source_and_meta` and
    :func:`compile_relation`: parse a layout string (rejecting *sizes*
    with one) and default the class name."""
    if isinstance(decomposition, str):
        if sizes is not None:
            raise DecompositionError(
                "sizes are keyed by MapEdge identity and cannot be combined "
                "with a layout string (re-parsing would create fresh edge "
                "objects and every size estimate would silently miss); parse "
                "the layout first and pass the Decomposition whose edges the "
                "sizes were computed for"
            )
        decomposition = parse_decomposition(decomposition)
    return decomposition, class_name or _default_class_name(decomposition.name)


def generate_source(
    spec: RelationSpec,
    decomposition: Union[Decomposition, str],
    class_name: Optional[str] = None,
    enforce_fds_default: bool = True,
    sizes: Optional[Mapping[MapEdge, float]] = None,
) -> str:
    """Generate the source of a compiled relation class's module.

    The decomposition must be adequate for *spec*
    (:class:`~repro.core.errors.AdequacyError` otherwise).  The returned
    module source holds the layout-specific code and imports the rest from
    :mod:`repro.codegen.runtime` and other stable ``repro`` entry points;
    it can be written to a file, imported, diffed, or inspected.
    ``enforce_fds_default`` becomes the generated constructor's default FD
    mode — the autotuner compiles winners tuned on FD-off traces with an
    FD-off default, so the class runs its own workload out of the box.
    *sizes* are optional per-edge container-size estimates the compile-time
    plan table is ranked against (the autotuner passes its trace-derived
    estimates, so workload-profitable join plans are compiled in).  They
    are keyed by :class:`MapEdge` *identity*, so they only make sense for a
    :class:`Decomposition` the caller already holds — combining them with a
    layout string (which would be re-parsed into fresh edge objects, making
    every size lookup miss silently) is rejected.
    """
    return generate_source_and_meta(
        spec, decomposition, class_name, enforce_fds_default, sizes
    )[0]


def generate_source_and_meta(
    spec: RelationSpec,
    decomposition: Union[Decomposition, str],
    class_name: Optional[str] = None,
    enforce_fds_default: bool = True,
    sizes: Optional[Mapping[MapEdge, float]] = None,
) -> "tuple[str, Dict[str, object]]":
    """Like :func:`generate_source`, also returning the compiler's metadata.

    The metadata dict records what the compiler *intended* to emit — the
    dispatch masks it planned, the fault sites it placed, the plan behind
    every specialised query method — and is what
    :mod:`repro.analysis.emitted` cross-checks the emitted source against
    (and what :func:`compile_relation` attaches as ``__repro_meta__``).
    """
    decomposition, class_name = _resolve(decomposition, class_name, sizes)
    compiler = _RelationCompiler(
        spec, decomposition, class_name, enforce_fds_default, sizes
    )
    source = compiler.generate()
    return source, compiler.meta


#: Generated-class cache: ``compile_relation`` is pure in
#: ``(spec, canonical shape, class name, FD default, size classes)``, so
#: repeated compilations — autotuner replays, benchmark reruns, repeated
#: ``synthesize`` calls — reuse the class instead of re-generating and
#: re-``exec``-ing the module.  Structure aliases collapse (``btree`` and
#: ``avl`` layouts share one entry) because the canonical shape does.
#: Least recently used first: past :data:`CLASS_CACHE_BOUND` entries the
#: oldest is dropped, so a process that compiles many layouts (a
#: ``LiveRelation`` re-tuning across shapes and size classes) does not keep
#: every class and its ``linecache`` source alive.
_CLASS_CACHE: "OrderedDict[tuple, type]" = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0}
#: Guards ``_CLASS_CACHE`` / ``_CACHE_STATS``: a ``LiveRelation`` re-tune can
#: compile a new backing class on one thread while another thread calls
#: ``clear_codegen_cache()`` or ``codegen_cache_stats()``.  Generation and
#: ``exec`` of the module happen *outside* the lock (they are slow and touch
#: no shared state); the insert re-checks the key so concurrent same-key
#: compiles still resolve to a single shared class object.
_CACHE_LOCK = threading.RLock()

#: Most generated classes :data:`_CLASS_CACHE` keeps.  An evicted class stays
#: valid for instances (and callers) that still hold it; a later compile of
#: its key simply misses and generates a fresh one.
CLASS_CACHE_BOUND = 128


def _cache_key(
    spec: RelationSpec,
    decomposition: Decomposition,
    class_name: str,
    enforce_fds_default: bool,
    sizes: Optional[Mapping[MapEdge, float]],
) -> tuple:
    fd_key = tuple(
        sorted((tuple(sorted(fd.lhs)), tuple(sorted(fd.rhs))) for fd in spec.fds)
    )
    shape = format_decomposition(decomposition.root, canonical_structure_name)
    if sizes is None:
        size_key: tuple = ()
    else:
        # Per-edge size classes in deterministic pre-order: two compiles
        # whose size estimates bucket identically share a plan table.
        size_key = tuple(
            size_class(sizes.get(e, 0.0))
            for node in decomposition.nodes()
            for e in node.edges
        )
    return (
        tuple(sorted(spec.columns)),
        fd_key,
        spec.name,
        shape,
        class_name,
        enforce_fds_default,
        size_key,
    )


def codegen_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the generated-class cache (test hook)."""
    with _CACHE_LOCK:
        return {
            "hits": _CACHE_STATS["hits"],
            "misses": _CACHE_STATS["misses"],
            "size": len(_CLASS_CACHE),
        }


def clear_codegen_cache() -> None:
    """Drop every cached generated class and reset the hit/miss counters.

    Thread-safe: safe to call while another thread is inside
    :func:`compile_relation` (e.g. a ``LiveRelation`` hot-swap compiling its
    new backing class) — the in-flight compile simply re-registers its class
    in the now-empty cache.
    """
    with _CACHE_LOCK:
        _CLASS_CACHE.clear()
        _CACHE_STATS["hits"] = 0
        _CACHE_STATS["misses"] = 0


def compile_relation(
    spec: RelationSpec,
    decomposition: Union[Decomposition, str],
    class_name: Optional[str] = None,
    enforce_fds_default: bool = True,
    sizes: Optional[Mapping[MapEdge, float]] = None,
) -> type:
    """Compile *decomposition* for *spec* into a relation class.

    The returned class implements
    :class:`~repro.core.interface.RelationInterface` and is interchangeable
    with :class:`~repro.core.reference.ReferenceRelation` and
    :class:`~repro.decomposition.relation.DecomposedRelation`; construct
    instances with ``cls(enforce_fds=True)``.  The generated module source
    is attached as ``cls.__repro_source__``, the compiler's metadata as
    ``cls.__repro_meta__``, the originating objects as ``cls.SPEC`` and
    ``cls.DECOMPOSITION``, and the source is registered with
    :mod:`linecache` (for as long as the class lives) so tracebacks from
    emitted code show real generated lines.

    Classes are cached by ``(spec, canonical_shape(decomposition),
    class name, FD default, size classes)`` — a repeated compilation
    returns the same class object (see :func:`codegen_cache_stats`), with
    ``SPEC`` and ``DECOMPOSITION`` refreshed to the caller's objects
    (shape-equal by construction).  Because the class is shared, metadata
    attributes callers hang on it — including ``TUNING`` from
    :func:`repro.autotuner.synthesize` — always reflect the **most
    recent** compile; the generated behaviour itself is identical for
    every key-equal call.  As with :func:`generate_source`, *sizes* are
    rejected when the decomposition is given as a string.
    """
    decomposition, class_name = _resolve(decomposition, class_name, sizes)
    key = _cache_key(spec, decomposition, class_name, enforce_fds_default, sizes)
    with _CACHE_LOCK:
        cls = _CLASS_CACHE.get(key)
        _CACHE_STATS["misses" if cls is None else "hits"] += 1
    if cls is None:
        # Generate and exec outside the lock: slow, and touches no shared state.
        source, meta = generate_source_and_meta(
            spec, decomposition, class_name, enforce_fds_default, sizes
        )
        module_name = f"repro.codegen.generated_{next(_generated_modules)}"
        filename = f"<{module_name}>"
        meta["module"] = module_name
        meta["filename"] = filename
        namespace: Dict[str, object] = {"__name__": module_name}
        exec(compile(source, filename, "exec"), namespace)
        cls = namespace[class_name]
        cls.__repro_source__ = source  # type: ignore[attr-defined]
        cls.__repro_meta__ = meta  # type: ignore[attr-defined]
        # Register the generated module with linecache so tracebacks (and
        # inspect.getsource) raised inside emitted mutators show the real
        # generated lines instead of blank ``<repro.codegen.generated_N>``
        # frames.  A ``None`` mtime marks the entry immune to
        # ``linecache.checkcache`` eviction (the idiom IPython uses for
        # cells), so the entry is tied to the class instead: it goes when
        # the class is collected — after clear_codegen_cache() or eviction,
        # or at once for the class a racing same-key compile throws away below.
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        weakref.finalize(cls, linecache.cache.pop, filename, None)
    with _CACHE_LOCK:
        # Re-check: a concurrent same-key compile may have won the race;
        # adopt its class so key-equal calls keep returning one object.
        # Hits and misses alike become the most recently used entry.
        cls = _CLASS_CACHE.setdefault(key, cls)
        _CLASS_CACHE.move_to_end(key)
        while len(_CLASS_CACHE) > CLASS_CACHE_BOUND:
            _CLASS_CACHE.popitem(last=False)
        cls.SPEC = spec  # type: ignore[attr-defined]
        cls.DECOMPOSITION = decomposition  # type: ignore[attr-defined]
    return cls  # type: ignore[return-value]
