"""``EA0xx`` — static verification of compiled-relation source.

The code generator emits, per ``(spec, decomposition)`` pair, a module of
unrolled mutators, specialised query methods, and compile-time dispatch
tables.  Four disciplines make that code trustworthy, and all four are
*structural* — visible in the AST without running anything:

* **Journaling** — every container mutation inside a mutator happens under
  a ``try`` whose ``except BaseException`` handler replays the undo journal,
  and the mutation's own statement list carries the matching
  ``_j.append(...)`` entry (strong exception safety, PR 7).
* **Honest asymptotics** — every counted container probe (a two-argument
  ``.get`` or an ``.items()`` scan) is dominated by an
  ``if en: _C.accesses += ...`` charge, so the benchmark counters can't
  silently under-report (the list-strategy helpers charge internally; they
  live in :mod:`repro.codegen.runtime` and are audited there).
* **Fault-site hygiene** — every ``_F.check(site)`` is guarded by the
  injector's ``active`` flag and names a site registered with
  :mod:`repro.faults`, so the chaos sweep actually reaches it.
* **Dispatch completeness** — ``_PLANS``/``_VPLANS`` cover exactly the
  layout's adequate bound-patterns with no dead or mistargeted entries,
  ``_VCOLS`` starts empty, and ``_RM`` only fuses patterns the compiler
  proved batch-removable.

The checks run on ``cls.__repro_source__`` (persisted by
:func:`repro.codegen.compile_relation`) plus the source of the runtime
module it imports its list helpers from, and cross-check the compiler's
own ``__repro_meta__`` record; sampled chaos/differential testing covers the
*semantics*, this pass proves the *structure* on every emitted path of
every layout.

Diagnostic codes (stable; ``error`` unless noted):

=======  ====================================================================
EA001    source does not parse / expected module structure missing
EA010    container mutation outside any try/rollback scope
EA011    container mutation whose statement list carries no journal entry
EA012    rollback handler missing the ``_undo`` replay (or the re-raise)
EA020    counted container probe not dominated by an access charge
EA021    runtime list helper missing (or missing its charge or journal)
EA030    fault check names an unregistered site
EA031    fault check not guarded by the injector's ``active`` flag
EA032    fault check site is not a string literal
EA040    dispatch table missing an adequate bound-pattern
EA041    dead or mistargeted dispatch entry
EA042    ``_VCOLS`` memo not initialised empty
EA043    ``_RM`` entry outside the compiler's batch-removable set
EA044    specialised method unreachable from any dispatch table
EA045    emitted source disagrees with ``__repro_meta__`` (warning)
EA050    attribute written outside the declared attribute set
=======  ====================================================================
"""

from __future__ import annotations

import ast
import inspect
import re
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..faults import FAULTS
from .diagnostics import ERROR, WARNING, Diagnostic, Loc

__all__ = ["verify_class", "verify_source"]

#: Methods holding the journal discipline: every container mutation they
#: perform must be journalled inside a rollback scope.
_MUTATOR_RE = re.compile(r"^(insert|_insert_row|remove|_remove_row|update|_update_in_place|_rm_\d+)$")

#: Methods holding the charge discipline: every counted probe they perform
#: must be dominated by an access charge.  ``check_well_formed`` is
#: deliberately uncounted (inspection, not operation).
_CHARGED_RE = re.compile(
    r"^(insert|_insert_row|remove|_remove_row|update|_update_in_place"
    r"|_rm_\d+|_qv_\d+|_q_\d+|_rows_path_\d+|_range_rows)$"
)

#: ``self`` attributes that are bookkeeping, not journalled container state:
#: counters and the ordered-scan snapshot cache, all rebuilt or reconciled
#: outside the rollback protocol by design.
_BOOKKEEPING_ATTRS = frozenset(
    ("_count", "_mut", "_rord", "_rkeys", "_rset", "_rord_mut", "_t_cache", "_proj_cache")
)

#: Registry attributes (``self._s0``, ``self._s1`` ...): journalled like any
#: container but deliberately uncounted — the registry models the shared
#: record's identity map, not a traversed index structure.
_REGISTRY_ATTR_RE = re.compile(r"^_s\d+$")

#: The list-strategy helpers every emitted module imports from
#: :mod:`repro.codegen.runtime`; the journalling ones mutate.
_LIST_HELPERS = ("_l_get", "_l_put_j", "_l_del_j")
_JOURNALLING_HELPERS = frozenset(("_l_put_j", "_l_del_j"))

#: Container methods that mutate their receiver.
_MUTATING_METHODS = frozenset(
    ("append", "pop", "setdefault", "insert", "clear", "extend", "remove", "update", "popitem")
)

#: Tracking kinds, ordered: a charged container is also journal-tracked.
_JOURNAL = 1  # registry-derived: journalled, never counted
_CHARGED = 2  # index-structure-derived: journalled and counted


def verify_class(cls: type) -> List[Diagnostic]:
    """Verify one compiled relation class (``repro.codegen`` output).

    Reads ``cls.__repro_source__`` and ``cls.__repro_meta__`` and, when
    available, independently recomputes the expected dispatch patterns from
    ``cls.SPEC`` / ``cls.DECOMPOSITION``.
    """
    source = getattr(cls, "__repro_source__", None)
    name = cls.__name__
    if source is None:
        return [
            Diagnostic(
                "EA001",
                ERROR,
                "class has no __repro_source__ (not produced by repro.codegen?)",
                Loc(name),
            )
        ]
    return verify_source(
        source,
        name=name,
        meta=getattr(cls, "__repro_meta__", None),
        spec=getattr(cls, "SPEC", None),
        decomposition=getattr(cls, "DECOMPOSITION", None),
    )


def verify_source(
    source: str,
    name: str = "emitted",
    meta: Optional[Dict[str, object]] = None,
    spec=None,
    decomposition=None,
    registered_sites: Optional[Set[str]] = None,
    runtime_source: Optional[str] = None,
) -> List[Diagnostic]:
    """Verify emitted module *source*; returns the findings (possibly empty).

    *meta* is the compiler's ``__repro_meta__`` record (cross-checked when
    given); *spec*/*decomposition* enable the independent recomputation of
    the adequate bound-pattern set; *registered_sites* overrides the live
    fault registry (tests use this to orphan a site deterministically);
    *runtime_source* overrides the source of :mod:`repro.codegen.runtime`,
    whose list helpers are audited (tests pass a corrupted copy).
    """
    if registered_sites is None:
        registered_sites = set(FAULTS.sites())
    diags: List[Diagnostic] = []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        diags.append(
            Diagnostic("EA001", ERROR, f"source does not parse: {exc}", Loc(name, "", exc.lineno or 0))
        )
        return diags

    model = _ModuleModel(tree, name)
    if model.cls is None:
        diags.append(
            Diagnostic("EA001", ERROR, "no relation class definition found in source", Loc(name))
        )
        return diags

    if runtime_source is None:
        from ..codegen import runtime

        runtime_source = inspect.getsource(runtime)
    _check_helpers(model, ast.parse(runtime_source), diags)
    for method in model.methods.values():
        _MethodChecker(model, method, diags, registered_sites).run()
    _check_attributes(model, diags)
    _check_dispatch(model, diags, meta, spec, decomposition)
    _check_meta(model, diags, meta)
    return diags


# -- module model ---------------------------------------------------------------


class _ModuleModel:
    """Parsed structure of one emitted module: class and dispatch tables."""

    def __init__(self, tree: ast.Module, name: str) -> None:
        self.name = name
        self.cls: Optional[ast.ClassDef] = None
        self.dispatch: Dict[str, ast.expr] = {}
        self.cols: Tuple[str, ...] = ()
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                # The relation class derives the runtime's CompiledRelation.
                bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
                if "CompiledRelation" in bases or self.cls is None:
                    self.cls = node
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if target.id in ("_PLANS", "_VPLANS", "_VCOLS", "_RM"):
                        self.dispatch[target.id] = node.value
                    elif target.id == "_COLS":
                        self.cols = _string_tuple(node.value)
        self.methods: Dict[str, ast.FunctionDef] = {}
        if self.cls is not None:
            for node in self.cls.body:
                if isinstance(node, ast.FunctionDef):
                    self.methods[node.name] = node
        self.col_bit = {c: 1 << i for i, c in enumerate(self.cols)}

    def mask(self, columns) -> Optional[int]:
        total = 0
        for c in columns:
            bit = self.col_bit.get(c)
            if bit is None:
                return None
            total |= bit
        return total


def _string_tuple(node: ast.expr) -> Tuple[str, ...]:
    if isinstance(node, ast.Tuple):
        out = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append(elt.value)
            else:
                return ()
        return tuple(out)
    return ()


# -- expression classification --------------------------------------------------


def _self_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _container_kind(node: ast.expr, env: Dict[str, int]) -> int:
    """How a container-valued expression is tracked (0 if it is not)."""
    if isinstance(node, ast.Name):
        return env.get(node.id, 0)
    attr = _self_attr(node)
    if attr is not None:
        if attr == "_root":
            return _CHARGED
        if _REGISTRY_ATTR_RE.match(attr):
            return _JOURNAL
        return 0
    if isinstance(node, ast.Subscript):
        return _container_kind(node.value, env)
    return 0


def _value_kind(node: ast.expr, env: Dict[str, int]) -> int:
    """How the *result* of evaluating *node* is tracked when bound."""
    direct = _container_kind(node, env)
    if direct:
        return direct
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "get":
            # ``c.get(k, _MISS)`` hands back a sub-container of ``c``;
            # a registry's one-argument ``.get`` hands back a record cell
            # (journalled, never counted) either way.
            return _container_kind(node.func.value, env)
    return 0


def _is_charge_stmt(stmt: ast.stmt) -> bool:
    """``if en: _C.accesses += ...`` (or ``if _C.enabled:`` spelled out)."""
    if not isinstance(stmt, ast.If):
        return False
    test = stmt.test
    named = isinstance(test, ast.Name) and test.id == "en"
    spelled = (
        isinstance(test, ast.Attribute)
        and isinstance(test.value, ast.Name)
        and test.value.id == "_C"
        and test.attr == "enabled"
    )
    if not (named or spelled):
        return False
    for inner in stmt.body:
        if isinstance(inner, ast.AugAssign):
            target = inner.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "_C"
                and target.attr == "accesses"
            ):
                return True
    return False


def _is_fault_guard(stmt: ast.stmt) -> bool:
    """``if _fa:`` / ``if _F.active:`` wrapping a fault check."""
    if not isinstance(stmt, ast.If):
        return False
    test = stmt.test
    if isinstance(test, ast.Name) and test.id == "_fa":
        return True
    return (
        isinstance(test, ast.Attribute)
        and isinstance(test.value, ast.Name)
        and test.value.id == "_F"
        and test.attr == "active"
    )


def _is_journal_append(stmt: ast.stmt) -> bool:
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
        return False
    func = stmt.value.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "append"
        and isinstance(func.value, ast.Name)
        and func.value.id == "_j"
    )


def _calls_name(tree_node: ast.AST, fn_name: str) -> bool:
    for node in ast.walk(tree_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == fn_name
        ):
            return True
    return False


# -- per-method verification ----------------------------------------------------

#: Statement kinds the backward charge scan may step over: straight-line
#: bookkeeping between a charge and the probe it dominates (assignments,
#: journal appends, fault guards, deletes).  Control flow other than the
#: guards stops the scan.
_SKIPPABLE = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete, ast.Expr, ast.Pass)


class _MethodChecker:
    """Runs the journal / charge / fault checks over one method body."""

    def __init__(
        self,
        model: _ModuleModel,
        fn: ast.FunctionDef,
        diags: List[Diagnostic],
        registered_sites: Set[str],
    ) -> None:
        self.model = model
        self.fn = fn
        self.diags = diags
        self.registered_sites = registered_sites
        self.is_mutator = _MUTATOR_RE.match(fn.name) is not None
        self.is_charged = _CHARGED_RE.match(fn.name) is not None
        self.env: Dict[str, int] = {}
        #: Stack of (statement list, index, parent statement) frames for the
        #: backward charge scan; the outermost frame's parent is the method.
        self.frames: List[Tuple[List[ast.stmt], int, ast.stmt]] = []
        self.try_depth = 0  # nesting inside rollback-scoped try bodies

    def report(self, code: str, severity: str, message: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", 0)
        self.diags.append(
            Diagnostic(code, severity, message, Loc(self.model.name, self.fn.name, line))
        )

    def run(self) -> None:
        self._check_fault_calls()
        self._walk(self.fn.body, self.fn, in_rollback=False)

    # -- fault sites ------------------------------------------------------------

    def _check_fault_calls(self) -> None:
        guarded: Set[int] = set()
        for node in ast.walk(self.fn):
            if _is_fault_guard(node):
                for stmt in node.body:
                    for sub in ast.walk(stmt):
                        guarded.add(id(sub))
        for node in ast.walk(self.fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            if not (
                func.attr == "check"
                and isinstance(func.value, ast.Name)
                and func.value.id in ("_F", "FAULTS")
            ):
                continue
            if len(node.args) != 1 or not (
                isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
            ):
                self.report(
                    "EA032", ERROR, "fault check site is not a string literal", node
                )
                continue
            site = node.args[0].value
            if site not in self.registered_sites:
                self.report(
                    "EA030",
                    ERROR,
                    f"fault check names unregistered site {site!r} "
                    "(it would never arm; register it or fix the name)",
                    node,
                )
            if id(node) not in guarded:
                self.report(
                    "EA031",
                    ERROR,
                    f"fault check for {site!r} is not guarded by the injector's "
                    "active flag (costs attribute dispatch on every operation)",
                    node,
                )

    # -- statement walk ---------------------------------------------------------

    def _walk(self, body: List[ast.stmt], parent: ast.stmt, in_rollback: bool) -> None:
        for idx, stmt in enumerate(body):
            self.frames.append((body, idx, parent))
            self._visit(stmt, body, in_rollback)
            self.frames.pop()

    def _visit(self, stmt: ast.stmt, body: List[ast.stmt], in_rollback: bool) -> None:
        if self.is_charged:
            self._check_probes(stmt)
        if self.is_mutator:
            self._check_mutations(stmt, body, in_rollback)
        self._propagate(stmt)
        # Recurse into compound statements, in source order.
        if isinstance(stmt, ast.Try):
            rollback = in_rollback or _try_has_rollback(stmt)
            if self.is_mutator and not _try_has_rollback(stmt):
                # A mutator's try must roll back; flag its handlers.
                for handler in stmt.handlers:
                    self.report(
                        "EA012",
                        ERROR,
                        "exception handler in a mutator neither replays the "
                        "undo journal (_undo) nor re-raises",
                        handler,
                    )
            self._walk(stmt.body, stmt, rollback)
            for handler in stmt.handlers:
                self._walk(handler.body, stmt, in_rollback)
            self._walk(stmt.orelse, stmt, in_rollback)
            self._walk(stmt.finalbody, stmt, in_rollback)
        elif isinstance(stmt, (ast.If,)):
            self._walk(stmt.body, stmt, in_rollback)
            self._walk(stmt.orelse, stmt, in_rollback)
        elif isinstance(stmt, (ast.For, ast.While)):
            self._walk(stmt.body, stmt, in_rollback)
            self._walk(stmt.orelse, stmt, in_rollback)
        elif isinstance(stmt, ast.With):
            self._walk(stmt.body, stmt, in_rollback)

    # -- name tracking ----------------------------------------------------------

    def _propagate(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.For):
            # ``for k, n in c.items():`` binds sub-containers of ``c``;
            # the value name inherits the container's tracking so nested
            # scans and stores stay visible.
            it = stmt.iter
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in ("items", "values")
            ):
                kind = _container_kind(it.func.value, self.env)
                if kind:
                    target = stmt.target
                    bound: Optional[str] = None
                    if it.func.attr == "values" and isinstance(target, ast.Name):
                        bound = target.id
                    elif (
                        it.func.attr == "items"
                        and isinstance(target, ast.Tuple)
                        and len(target.elts) == 2
                        and isinstance(target.elts[1], ast.Name)
                    ):
                        bound = target.elts[1].id
                    if bound is not None and kind > self.env.get(bound, 0):
                        self.env[bound] = kind
            return
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                kind = _value_kind(stmt.value, self.env)
                if kind > self.env.get(target.id, 0):
                    self.env[target.id] = kind
            elif isinstance(target, ast.Subscript):
                # Storing a fresh node into a tracked container adopts the
                # container's tracking for the stored name (mutations on the
                # freshly-linked node must be journalled from here on).
                kind = _container_kind(target.value, self.env)
                if kind and isinstance(stmt.value, ast.Name):
                    if kind > self.env.get(stmt.value.id, 0):
                        self.env[stmt.value.id] = kind

    # -- charge domination ------------------------------------------------------

    def _check_probes(self, stmt: ast.stmt) -> None:
        probes: List[Tuple[ast.AST, str]] = []
        if isinstance(stmt, (ast.For,)):
            probes.extend(self._iter_probes(stmt.iter))
        else:
            for node in self._own_expressions(stmt):
                probes.extend(self._expr_probes(node))
        for node, what in probes:
            if not self._charge_dominates():
                self.report(
                    "EA020",
                    ERROR,
                    f"{what} is not dominated by an access charge "
                    "(if en: _C.accesses += ...)",
                    node,
                )

    def _own_expressions(self, stmt: ast.stmt):
        """Expressions evaluated by *stmt* itself (not by nested bodies)."""
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None:
                yield stmt.value
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for t in targets:
                yield t
        elif isinstance(stmt, ast.Expr):
            yield stmt.value
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            yield stmt.value
        elif isinstance(stmt, (ast.If, ast.While)):
            yield stmt.test

    def _iter_probes(self, iter_expr: ast.expr):
        if (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Attribute)
            and iter_expr.func.attr in ("items", "keys", "values")
        ):
            kind = _container_kind(iter_expr.func.value, self.env)
            if kind == _CHARGED:
                yield iter_expr, f"container scan (.{iter_expr.func.attr}())"

    def _expr_probes(self, expr: ast.expr):
        for node in ast.walk(expr):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr != "get" or len(node.args) != 2:
                continue
            if _container_kind(node.func.value, self.env) == _CHARGED:
                yield node, "container probe (.get with default)"
        # A subscript store on a counted container is charged with its group.
        if isinstance(expr, ast.Subscript) and isinstance(expr.ctx, ast.Store):
            if _container_kind(expr.value, self.env) == _CHARGED:
                yield expr, "container store"

    def _charge_dominates(self) -> bool:
        """Scan backwards from the current statement for its access charge.

        Walks earlier siblings (stepping over straight-line bookkeeping and
        fault guards), hopping out of ``if``/``try`` bodies — but never out
        of a loop body, because a charge outside a loop cannot pay for a
        per-iteration probe.
        """
        for body, idx, parent in reversed(self.frames):
            scan = idx - 1
            while scan >= 0:
                prev = body[scan]
                if _is_charge_stmt(prev):
                    return True
                if _is_fault_guard(prev) or isinstance(prev, _SKIPPABLE):
                    scan -= 1
                    continue
                return False
            if isinstance(parent, (ast.For, ast.While, ast.FunctionDef)):
                return False
        return False

    # -- journal discipline -----------------------------------------------------

    def _check_mutations(self, stmt: ast.stmt, body: List[ast.stmt], in_rollback: bool) -> None:
        event = self._mutation_event(stmt)
        if event is None:
            return
        node, what, self_journalled = event
        if not in_rollback:
            self.report(
                "EA010",
                ERROR,
                f"{what} outside any try/rollback scope (an exception here "
                "leaves the instance torn)",
                node,
            )
        if self_journalled:
            return
        journalled = any(
            _is_journal_append(sibling)
            or (
                isinstance(sibling, ast.Expr)
                and isinstance(sibling.value, ast.Call)
                and isinstance(sibling.value.func, ast.Name)
                and sibling.value.func.id in _JOURNALLING_HELPERS
            )
            for sibling in body
        )
        if not journalled:
            self.report(
                "EA011",
                ERROR,
                f"{what} with no journal entry (_j.append) in its statement "
                "list — rollback cannot restore it",
                node,
            )

    def _mutation_event(self, stmt: ast.stmt) -> Optional[Tuple[ast.AST, str, bool]]:
        """(node, description, self-journalled) when *stmt* mutates tracked state."""
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Subscript) and _container_kind(target.value, self.env):
                return target, "container store", False
            attr = _self_attr(target)
            if attr is not None and attr not in _BOOKKEEPING_ATTRS and attr != "spec":
                if attr == "_root" or _REGISTRY_ATTR_RE.match(attr):
                    return target, f"assignment to self.{attr}", False
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Subscript) and _container_kind(
                stmt.target.value, self.env
            ):
                return stmt.target, "container in-place update", False
            attr = _self_attr(stmt.target)
            if attr is not None and attr not in _BOOKKEEPING_ATTRS:
                if attr == "_root" or _REGISTRY_ATTR_RE.match(attr):
                    return stmt.target, f"in-place update of self.{attr}", False
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript) and _container_kind(
                    target.value, self.env
                ):
                    return target, "container delete", False
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if isinstance(call.func, ast.Attribute):
                base_kind = _container_kind(call.func.value, self.env)
                if base_kind and call.func.attr in _MUTATING_METHODS:
                    return call, f"container .{call.func.attr}() mutation", False
            elif isinstance(call.func, ast.Name) and call.func.id in _JOURNALLING_HELPERS:
                if call.args and _container_kind(call.args[0], self.env):
                    return call, f"list-helper {call.func.id}() mutation", True
        return None


def _try_has_rollback(stmt: ast.Try) -> bool:
    """A handler catching BaseException that replays ``_undo`` and re-raises."""
    for handler in stmt.handlers:
        htype = handler.type
        catches_base = htype is None or (
            isinstance(htype, ast.Name) and htype.id in ("BaseException", "Exception")
        )
        if not catches_base:
            continue
        has_undo = any(_calls_name(s, "_undo") for s in handler.body)
        has_raise = any(isinstance(n, ast.Raise) for s in handler.body for n in ast.walk(s))
        if has_undo and has_raise:
            return True
    return False


# -- helper audit ---------------------------------------------------------------


def _check_helpers(model: _ModuleModel, runtime: ast.Module, diags: List[Diagnostic]) -> None:
    """EA021/EA011 on the runtime's list helpers the emitted code calls."""
    helpers = {node.name: node for node in runtime.body if isinstance(node, ast.FunctionDef)}
    for helper_name in _LIST_HELPERS:
        fn = helpers.get(helper_name)
        charges = fn is not None and any(
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Attribute)
            and isinstance(node.target.value, ast.Name)
            and node.target.value.id == "_C"
            and node.target.attr == "accesses"
            for node in ast.walk(fn)
        )
        if not charges:
            diags.append(
                Diagnostic(
                    "EA021",
                    ERROR,
                    f"list helper {helper_name}() is missing from the runtime or never "
                    "charges _C.accesses — its walks would be invisible to the counters",
                    Loc(model.name, helper_name, getattr(fn, "lineno", 0)),
                )
            )
        if fn is None:
            continue
        if helper_name in _JOURNALLING_HELPERS:
            journals = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "j"
                for node in ast.walk(fn)
            )
            if not journals:
                diags.append(
                    Diagnostic(
                        "EA011",
                        ERROR,
                        f"journal-aware list helper {helper_name}() never appends "
                        "to its journal argument",
                        Loc(model.name, helper_name, fn.lineno),
                    )
                )


# -- attribute discipline -------------------------------------------------------


def _check_attributes(model: _ModuleModel, diags: List[Diagnostic]) -> None:
    cls = model.cls
    assert cls is not None
    declared: Set[str] = set()
    slots_declared = False
    for node in cls.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == "__slots__":
                slots_declared = True
                declared.update(_string_tuple(node.value))
    init = model.methods.get("__init__")
    if init is not None and not slots_declared:
        for node in ast.walk(init):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    attr = _self_attr(t)
                    if attr is not None:
                        declared.add(attr)
    if not declared:
        return
    for method in model.methods.values():
        if method.name == "__init__" and not slots_declared:
            continue
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    attr = _self_attr(t)
                    if attr is not None and attr not in declared:
                        diags.append(
                            Diagnostic(
                                "EA050",
                                ERROR,
                                f"attribute self.{attr} written outside the "
                                "declared attribute set "
                                f"({'__slots__' if slots_declared else '__init__'})",
                                Loc(model.name, method.name, node.lineno),
                            )
                        )


# -- dispatch completeness ------------------------------------------------------


def _expected_masks(model: _ModuleModel, meta, spec, decomposition) -> Optional[Set[int]]:
    """The adequate bound-pattern masks this layout must dispatch over.

    Recomputed independently of the compiler when the spec/decomposition are
    available (mirroring the enumeration contract: the full power set up to
    ``MAX_ENUMERATED_COLUMNS`` columns, essential subsets beyond); falls
    back to the compiler's own ``meta['masks']`` record otherwise.
    """
    cols = model.cols
    if spec is not None and decomposition is not None and cols:
        from ..codegen import MAX_ENUMERATED_COLUMNS

        if len(cols) <= MAX_ENUMERATED_COLUMNS:
            return set(range(2 ** len(cols)))
        subsets = {frozenset(), frozenset(cols)}
        for fd in spec.fds:
            subsets.add(frozenset(fd.lhs))
        for path in decomposition.paths():
            bound: Set[str] = set()
            for e in path.edges:
                bound |= e.key
                subsets.add(frozenset(bound))
        masks = {model.mask(s) for s in subsets}
        return None if None in masks else {m for m in masks if m is not None}
    if meta and isinstance(meta.get("masks"), list):
        return set(meta["masks"])
    if cols:
        # Every benchmark schema enumerates fully; without meta this is the
        # contract for narrow schemas.
        from ..codegen import MAX_ENUMERATED_COLUMNS

        if len(cols) <= MAX_ENUMERATED_COLUMNS:
            return set(range(2 ** len(cols)))
    return None


def _dict_literal(node: ast.expr) -> Optional[List[Tuple[ast.expr, ast.expr]]]:
    if isinstance(node, ast.Dict):
        return [(k, v) for k, v in zip(node.keys, node.values) if k is not None]
    return None


def _frozenset_key(node: ast.expr) -> Optional[FrozenSet[str]]:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "frozenset"
    ):
        if not node.args:
            return frozenset()
        if len(node.args) == 1:
            elems = _string_tuple(node.args[0])
            if elems or (
                isinstance(node.args[0], ast.Tuple) and not node.args[0].elts
            ):
                return frozenset(elems)
    return None


def _method_ref(node: ast.expr, class_name: str) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == class_name
    ):
        return node.attr
    return None


def _check_dispatch(
    model: _ModuleModel,
    diags: List[Diagnostic],
    meta,
    spec,
    decomposition,
) -> None:
    name = model.name
    cls = model.cls
    assert cls is not None
    expected = _expected_masks(model, meta, spec, decomposition)
    referenced: Set[str] = set()

    def err(code: str, message: str, node: Optional[ast.AST] = None, table: str = "") -> None:
        diags.append(
            Diagnostic(
                code, ERROR, message, Loc(name, table, getattr(node, "lineno", 0) or 0)
            )
        )

    # _VPLANS: int mask -> Class._qv_<mask>
    vplans = _dict_literal(model.dispatch.get("_VPLANS", ast.Constant(value=None)))
    if vplans is None:
        err("EA001", "_VPLANS dispatch table missing or not a dict literal", table="_VPLANS")
    else:
        seen_masks: Set[int] = set()
        for key, value in vplans:
            if not (isinstance(key, ast.Constant) and isinstance(key.value, int)):
                err("EA041", "non-integer _VPLANS key", key, "_VPLANS")
                continue
            mask = key.value
            seen_masks.add(mask)
            method = _method_ref(value, cls.name)
            if method is None or method not in model.methods:
                err(
                    "EA041",
                    f"_VPLANS[{mask}] does not reference a defined method",
                    value,
                    "_VPLANS",
                )
                continue
            referenced.add(method)
            if method != f"_qv_{mask}":
                err(
                    "EA041",
                    f"_VPLANS[{mask}] dispatches to {method} (mask mismatch)",
                    value,
                    "_VPLANS",
                )
            if expected is not None and mask not in expected:
                err(
                    "EA041",
                    f"_VPLANS[{mask}] is a dead entry: no adequate bound-pattern "
                    "has that mask",
                    key,
                    "_VPLANS",
                )
        if expected is not None:
            for missing in sorted(expected - seen_masks):
                err(
                    "EA040",
                    f"_VPLANS is missing adequate bound-pattern mask {missing} "
                    f"(columns {sorted(c for c in model.cols if model.col_bit[c] & missing)})",
                    table="_VPLANS",
                )

    # _PLANS: frozenset key -> Class._q_<mask>
    plans = _dict_literal(model.dispatch.get("_PLANS", ast.Constant(value=None)))
    if plans is None:
        err("EA001", "_PLANS dispatch table missing or not a dict literal", table="_PLANS")
    else:
        seen_sets: Set[FrozenSet[str]] = set()
        for key, value in plans:
            cols = _frozenset_key(key)
            if cols is None:
                err("EA041", "non-frozenset _PLANS key", key, "_PLANS")
                continue
            seen_sets.add(cols)
            mask = model.mask(cols)
            method = _method_ref(value, cls.name)
            if method is None or method not in model.methods:
                err(
                    "EA041",
                    f"_PLANS[{sorted(cols)}] does not reference a defined method",
                    value,
                    "_PLANS",
                )
                continue
            referenced.add(method)
            if mask is None or (expected is not None and mask not in expected):
                err(
                    "EA041",
                    f"_PLANS[{sorted(cols)}] is a dead entry: not an adequate "
                    "bound-pattern of this layout",
                    key,
                    "_PLANS",
                )
        if expected is not None and model.cols:
            for mask in sorted(expected):
                cols = frozenset(c for c in model.cols if model.col_bit[c] & mask)
                if cols not in seen_sets:
                    err(
                        "EA040",
                        f"_PLANS is missing adequate bound-pattern {sorted(cols)}",
                        table="_PLANS",
                    )

    # _VCOLS: must start empty (a memo filled at run time).
    vcols = model.dispatch.get("_VCOLS")
    if vcols is None:
        err("EA001", "_VCOLS memo missing", table="_VCOLS")
    elif not (isinstance(vcols, ast.Dict) and not vcols.keys):
        err(
            "EA042",
            "_VCOLS must be initialised empty (it memoises pattern shapes at "
            "run time; seeded entries would bypass dispatch validation)",
            vcols,
            "_VCOLS",
        )

    # _RM: optional; keys must be adequate patterns with matching handlers.
    rm = model.dispatch.get("_RM")
    if rm is not None:
        rm_entries = _dict_literal(rm)
        if rm_entries is None:
            err("EA001", "_RM dispatch table is not a dict literal", table="_RM")
            rm_entries = []
        rm_masks: Set[int] = set()
        for key, value in rm_entries:
            cols = _frozenset_key(key)
            mask = model.mask(cols) if cols is not None else None
            if cols is None or mask is None:
                err("EA043", "invalid _RM key", key, "_RM")
                continue
            rm_masks.add(mask)
            if expected is not None and mask not in expected:
                err(
                    "EA043",
                    f"_RM[{sorted(cols)}] is not an adequate bound-pattern",
                    key,
                    "_RM",
                )
            method = _method_ref(value, cls.name)
            if method is None or method not in model.methods:
                err(
                    "EA043",
                    f"_RM[{sorted(cols)}] does not reference a defined method",
                    value,
                    "_RM",
                )
                continue
            referenced.add(method)
            if method != f"_rm_{mask}":
                err(
                    "EA043",
                    f"_RM[{sorted(cols)}] dispatches to {method} (mask mismatch)",
                    value,
                    "_RM",
                )
        if meta and isinstance(meta.get("batch_masks"), list):
            if rm_masks != set(meta["batch_masks"]):
                diags.append(
                    Diagnostic(
                        "EA045",
                        WARNING,
                        f"_RM masks {sorted(rm_masks)} disagree with "
                        f"__repro_meta__ batch_masks {sorted(meta['batch_masks'])}",
                        Loc(name, "_RM"),
                    )
                )

    # Dead specialised methods: emitted but unreachable from any table.
    for method_name in model.methods:
        if re.match(r"^(_qv_\d+|_q_\d+|_rm_\d+)$", method_name) and method_name not in referenced:
            diags.append(
                Diagnostic(
                    "EA044",
                    ERROR,
                    f"specialised method {method_name} is unreachable from any "
                    "dispatch table (dead emitted code)",
                    Loc(name, method_name, model.methods[method_name].lineno),
                )
            )


# -- meta cross-check -----------------------------------------------------------


def _check_meta(model: _ModuleModel, diags: List[Diagnostic], meta) -> None:
    if not meta:
        return
    cls = model.cls
    assert cls is not None
    if meta.get("class_name") not in (None, cls.name):
        diags.append(
            Diagnostic(
                "EA045",
                WARNING,
                f"emitted class {cls.name} disagrees with __repro_meta__ "
                f"class_name {meta.get('class_name')!r}",
                Loc(model.name, cls.name),
            )
        )
    meta_cols = meta.get("columns")
    if isinstance(meta_cols, list) and model.cols and list(model.cols) != meta_cols:
        diags.append(
            Diagnostic(
                "EA045",
                WARNING,
                f"emitted _COLS {list(model.cols)} disagree with __repro_meta__ "
                f"columns {meta_cols}",
                Loc(model.name, "_COLS"),
            )
        )
    meta_sites = meta.get("fault_sites")
    if isinstance(meta_sites, list):
        emitted_sites: Set[str] = set()
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "check"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("_F", "FAULTS")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                emitted_sites.add(node.args[0].value)
        if emitted_sites != set(meta_sites):
            diags.append(
                Diagnostic(
                    "EA045",
                    WARNING,
                    f"emitted fault sites {sorted(emitted_sites)} disagree with "
                    f"__repro_meta__ fault_sites {sorted(meta_sites)}",
                    Loc(model.name, cls.name),
                )
            )
