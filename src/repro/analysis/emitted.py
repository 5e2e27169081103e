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
* **Fault-site hygiene** — every ``_F.check(site)`` is guarded by
  ``if _fa:`` (the injector's ``active`` flag) and names a site registered
  with :mod:`repro.faults`, so the chaos sweep actually reaches it.
* **Dispatch completeness** — ``_PLANS``/``_VPLANS`` cover exactly the
  layout's adequate bound-patterns with no dead or mistargeted entries,
  ``_VCOLS`` starts empty, and ``_RM`` only fuses patterns the compiler
  proved batch-removable.

Each discipline is one rule, written for the one spelling the compiler
emits (``if en:``, ``if _fa:``, ``_F.check``, ``except BaseException:``):
any other spelling is a finding, not an alternative.

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
EA012    mutator handler that is not ``except BaseException:`` with the
         ``_undo`` replay and the re-raise
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
from typing import Dict, Iterator, List, Optional, Set, Tuple

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

#: Specialised methods: each must be reachable from its dispatch table.
_SPECIALISED_RE = re.compile(r"^(_qv_|_q_|_rm_)\d+$")

#: Registry attributes (``self._s0``, ``self._s1`` ...): journalled like any
#: container but deliberately uncounted — the registry models the shared
#: record's identity map, not a traversed index structure.
_REGISTRY_ATTR_RE = re.compile(r"^_s\d+$")

#: The list-strategy helpers every emitted module imports from
#: :mod:`repro.codegen.runtime`: the probing ones walk and charge, the
#: journalling ones mutate (``_l_del_j`` unlinks an entry a probe paid for).
_LIST_HELPERS = ("_l_get", "_l_put_j", "_l_del_j")
_PROBING_HELPERS = frozenset(("_l_get", "_l_put_j"))
_JOURNALLING_HELPERS = frozenset(("_l_put_j", "_l_del_j"))

#: Container methods that mutate their receiver.
_MUTATING_METHODS = frozenset(
    ("append", "pop", "setdefault", "insert", "clear", "extend", "remove", "update", "popitem")
)

#: Tracking kinds, ordered: a charged container is also journal-tracked.
_JOURNAL = 1  # registry-derived: journalled, never counted
_CHARGED = 2  # index-structure-derived: journalled and counted

#: The dispatch tables, one rule for all three: table name, the prefix its
#: entries' methods carry (followed by the entry's mask), the code for a
#: bad entry, whether every adequate bound-pattern needs an entry, and
#: whether keys are int masks (else ``frozenset((...))`` column sets).
_TABLES = (
    ("_VPLANS", "_qv_", "EA041", True, True),
    ("_PLANS", "_q_", "EA041", True, False),
    ("_RM", "_rm_", "EA043", False, False),
)


def verify_class(cls: type) -> List[Diagnostic]:
    """Verify one compiled relation class (``repro.codegen`` output).

    Reads ``cls.__repro_source__`` and ``cls.__repro_meta__`` and
    independently recomputes the expected dispatch patterns from
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
    given).  The completeness rules — EA040 and the dead-entry halves of
    EA041/EA043 — recompute the adequate bound-patterns from *spec* and
    *decomposition* and need both; without them they are skipped.
    *registered_sites* overrides the live fault registry (tests use this to
    orphan a site deterministically); *runtime_source* overrides the source
    of :mod:`repro.codegen.runtime`, whose list helpers are audited (tests
    pass a corrupted copy).
    """
    if registered_sites is None:
        registered_sites = set(FAULTS.sites())
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        loc = Loc(name, "", exc.lineno or 0)
        return [Diagnostic("EA001", ERROR, f"source does not parse: {exc}", loc)]

    model = _ModuleModel(tree, name)
    if model.cls is None:
        message = "no class deriving CompiledRelation in source"
        return [Diagnostic("EA001", ERROR, message, Loc(name))]

    diags: List[Diagnostic] = []
    if runtime_source is None:
        from ..codegen import runtime

        runtime_source = inspect.getsource(runtime)
    _check_helpers(model, ast.parse(runtime_source), diags)
    for method in model.methods.values():
        _MethodChecker(model, method, diags, registered_sites).run()
    _check_attributes(model, diags)
    rm_masks = _check_dispatch(model, diags, _expected_masks(model, spec, decomposition))
    if meta:
        _check_meta(model, diags, meta, rm_masks)
    return diags


# -- module model ---------------------------------------------------------------


class _ModuleModel:
    """Parsed structure of one emitted module: the relation class (the one
    deriving ``CompiledRelation``) and the module-level assignments."""

    def __init__(self, tree: ast.Module, name: str) -> None:
        self.name = name
        self.cls: Optional[ast.ClassDef] = None
        self.assigns: Dict[str, ast.expr] = {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                if any(isinstance(b, ast.Name) and b.id == "CompiledRelation" for b in node.bases):
                    self.cls = node
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                self.assigns[node.targets[0].id] = node.value
        self.cols: Tuple[str, ...] = _string_tuple(self.assigns.get("_COLS")) or ()
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

    def columns(self, mask: int) -> List[str]:
        return sorted(c for c in self.cols if self.col_bit[c] & mask)


def _string_tuple(node: Optional[ast.expr]) -> Optional[Tuple[str, ...]]:
    """The strings of a tuple literal of string constants (None otherwise)."""
    if not isinstance(node, ast.Tuple):
        return None
    out = []
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        out.append(elt.value)
    return tuple(out)


# -- expression classification --------------------------------------------------


def _self_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_attr(node: ast.AST, owner: str, attr: str) -> bool:
    """*node* is ``<owner>.<attr>``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == owner
    )


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


def _is_accesses_charge(node: ast.AST) -> bool:
    """``_C.accesses += ...``."""
    return isinstance(node, ast.AugAssign) and _is_attr(node.target, "_C", "accesses")


def _is_charge_stmt(stmt: ast.stmt) -> bool:
    """``if en: _C.accesses += ...``."""
    return (
        isinstance(stmt, ast.If)
        and isinstance(stmt.test, ast.Name)
        and stmt.test.id == "en"
        and any(_is_accesses_charge(inner) for inner in stmt.body)
    )


def _is_fault_guard(stmt: ast.AST) -> bool:
    """``if _fa:`` (the injector's ``active`` flag, hoisted at method entry)."""
    return isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Name) and stmt.test.id == "_fa"


def _is_append_to(node: ast.AST, journal: str) -> bool:
    """``<journal>.append(...)``."""
    return isinstance(node, ast.Call) and _is_attr(node.func, journal, "append")


def _is_journal_stmt(stmt: ast.stmt) -> bool:
    """``_j.append(...)`` or a journalling list-helper call."""
    if not isinstance(stmt, ast.Expr):
        return False
    call = stmt.value
    return _is_append_to(call, "_j") or (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id in _JOURNALLING_HELPERS
    )


def _fault_checks(tree: ast.AST) -> Iterator[Tuple[ast.Call, Optional[str]]]:
    """Every ``_F.check(...)`` call under *tree*, with its site when the one
    argument is a string literal (None otherwise)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_attr(node.func, "_F", "check"):
            arg = node.args[0] if len(node.args) == 1 else None
            literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            yield node, arg.value if literal else None


def _is_rollback_handler(handler: ast.ExceptHandler) -> bool:
    """``except BaseException:`` that replays ``_undo`` and re-raises."""
    return (
        isinstance(handler.type, ast.Name)
        and handler.type.id == "BaseException"
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_undo"
            for node in ast.walk(handler)
        )
        and any(isinstance(node, ast.Raise) for node in ast.walk(handler))
    )


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

    def report(self, code: str, message: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", 0)
        self.diags.append(
            Diagnostic(code, ERROR, message, Loc(self.model.name, self.fn.name, line))
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
                    guarded.update(id(sub) for sub in ast.walk(stmt))
        for node, site in _fault_checks(self.fn):
            if site is None:
                self.report("EA032", "fault check site is not a string literal", node)
                continue
            if site not in self.registered_sites:
                self.report(
                    "EA030",
                    f"fault check names unregistered site {site!r} "
                    "(it would never arm; register it or fix the name)",
                    node,
                )
            if id(node) not in guarded:
                self.report(
                    "EA031",
                    f"fault check for {site!r} is not guarded by `if _fa:` "
                    "(costs attribute dispatch on every operation)",
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
            rollback = any(_is_rollback_handler(h) for h in stmt.handlers)
            if self.is_mutator and not rollback:
                # A mutator's try must roll back; flag its handlers.
                for handler in stmt.handlers:
                    self.report(
                        "EA012",
                        "exception handler in a mutator is not `except "
                        "BaseException:` replaying the undo journal (_undo) "
                        "and re-raising",
                        handler,
                    )
            self._walk(stmt.body, stmt, in_rollback or rollback)
            for handler in stmt.handlers:
                self._walk(handler.body, stmt, in_rollback)
            self._walk(stmt.orelse, stmt, in_rollback)
            self._walk(stmt.finalbody, stmt, in_rollback)
        elif isinstance(stmt, (ast.If, ast.For, ast.While)):
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
        if isinstance(stmt, ast.For):
            probes.extend(self._iter_probes(stmt.iter))
        else:
            for node in self._own_expressions(stmt):
                probes.extend(self._expr_probes(node))
        for node, what in probes:
            if not self._charge_dominates():
                self.report(
                    "EA020",
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
            for prev in reversed(body[:idx]):
                if _is_charge_stmt(prev):
                    return True
                if not (_is_fault_guard(prev) or isinstance(prev, _SKIPPABLE)):
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
                f"{what} outside any try/rollback scope (an exception here "
                "leaves the instance torn)",
                node,
            )
        if not self_journalled and not any(_is_journal_stmt(sibling) for sibling in body):
            self.report(
                "EA011",
                f"{what} with no journal entry (_j.append) in its statement "
                "list — rollback cannot restore it",
                node,
            )

    def _mutation_event(self, stmt: ast.stmt) -> Optional[Tuple[ast.AST, str, bool]]:
        """(node, description, self-journalled) when *stmt* mutates tracked state."""
        if isinstance(stmt, ast.AugAssign) or (
            isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
        ):
            store = isinstance(stmt, ast.Assign)
            target = stmt.targets[0] if store else stmt.target
            if isinstance(target, ast.Subscript) and _container_kind(target.value, self.env):
                return target, "container store" if store else "container in-place update", False
            attr = _self_attr(target)
            if attr == "_root" or (attr is not None and _REGISTRY_ATTR_RE.match(attr)):
                what = "assignment to" if store else "in-place update of"
                return target, f"{what} self.{attr}", False
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript) and _container_kind(target.value, self.env):
                    return target, "container delete", False
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if isinstance(call.func, ast.Attribute):
                attr = call.func.attr
                if attr in _MUTATING_METHODS and _container_kind(call.func.value, self.env):
                    return call, f"container .{attr}() mutation", False
            elif isinstance(call.func, ast.Name) and call.func.id in _JOURNALLING_HELPERS:
                if call.args and _container_kind(call.args[0], self.env):
                    return call, f"list-helper {call.func.id}() mutation", True
        return None


# -- helper audit ---------------------------------------------------------------


def _check_helpers(model: _ModuleModel, runtime: ast.Module, diags: List[Diagnostic]) -> None:
    """EA021/EA011 on the runtime's list helpers the emitted code calls."""
    helpers = {node.name: node for node in runtime.body if isinstance(node, ast.FunctionDef)}
    for helper_name in _LIST_HELPERS:
        fn = helpers.get(helper_name)
        if fn is None or (
            helper_name in _PROBING_HELPERS
            and not any(_is_accesses_charge(node) for node in ast.walk(fn))
        ):
            diags.append(
                Diagnostic(
                    "EA021",
                    ERROR,
                    f"list helper {helper_name}() is missing from the runtime or never "
                    "charges _C.accesses — its walks would be invisible to the counters",
                    Loc(model.name, helper_name, getattr(fn, "lineno", 0)),
                )
            )
        if (
            fn is not None
            and helper_name in _JOURNALLING_HELPERS
            and not any(_is_append_to(node, "j") for node in ast.walk(fn))
        ):
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


def _self_writes(fn: ast.FunctionDef) -> Iterator[Tuple[str, ast.stmt]]:
    """(attribute, statement) for every ``self.<attr> =`` / ``+=`` in *fn*."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                attr = _self_attr(target)
                if attr is not None:
                    yield attr, node


def _check_attributes(model: _ModuleModel, diags: List[Diagnostic]) -> None:
    """EA050: the attribute set is the one ``__init__`` declares (no emitted
    class has ``__slots__``)."""
    init = model.methods.get("__init__")
    declared = {attr for attr, _ in _self_writes(init)} if init is not None else set()
    if not declared:
        return
    for method in model.methods.values():
        if method is init:
            continue
        for attr, node in _self_writes(method):
            if attr not in declared:
                diags.append(
                    Diagnostic(
                        "EA050",
                        ERROR,
                        f"attribute self.{attr} written outside the declared "
                        "attribute set (__init__)",
                        Loc(model.name, method.name, node.lineno),
                    )
                )


# -- dispatch completeness ------------------------------------------------------


def _expected_masks(model: _ModuleModel, spec, decomposition) -> Optional[Set[int]]:
    """The adequate bound-pattern masks this layout must dispatch over.

    Recomputed independently of the compiler from *spec* and
    *decomposition*, mirroring the enumeration contract: the full power set
    up to ``MAX_ENUMERATED_COLUMNS`` columns, essential subsets beyond.
    None (completeness unchecked) without both, or without ``_COLS``.
    """
    cols = model.cols
    if spec is None or decomposition is None or not cols:
        return None
    from ..codegen import MAX_ENUMERATED_COLUMNS

    if len(cols) <= MAX_ENUMERATED_COLUMNS:
        return set(range(2 ** len(cols)))
    subsets = {frozenset(), frozenset(cols)}
    subsets.update(frozenset(fd.lhs) for fd in spec.fds)
    for path in decomposition.paths():
        bound: Set[str] = set()
        for e in path.edges:
            bound |= e.key
            subsets.add(frozenset(bound))
    masks = {model.mask(s) for s in subsets}
    return None if None in masks else masks


def _key_mask(node: ast.expr, model: _ModuleModel, int_keys: bool) -> Optional[Tuple[int, str]]:
    """(mask, label) of a dispatch-table key — an int mask literal when
    *int_keys*, else ``frozenset((...))`` over ``_COLS`` columns; None when
    the key is neither."""
    if int_keys:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value, str(node.value)
        return None
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "frozenset"
        and len(node.args) <= 1
    ):
        cols = _string_tuple(node.args[0]) if node.args else ()
        mask = None if cols is None else model.mask(cols)
        if mask is not None:
            return mask, str(sorted(cols))
    return None


def _check_dispatch(
    model: _ModuleModel, diags: List[Diagnostic], expected: Optional[Set[int]]
) -> Optional[Set[int]]:
    """EA040–044 over ``_TABLES`` and ``_VCOLS``; returns ``_RM``'s masks
    (None when the module has no ``_RM``) for the meta cross-check."""
    cls_name = model.cls.name
    referenced: Set[str] = set()
    rm_masks: Optional[Set[int]] = None

    def err(code: str, table: str, message: str, node: Optional[ast.AST] = None) -> None:
        diags.append(
            Diagnostic(code, ERROR, message, Loc(model.name, table, getattr(node, "lineno", 0)))
        )

    for table, prefix, code, complete, int_keys in _TABLES:
        node = model.assigns.get(table)
        if node is None and not complete:
            continue
        if not isinstance(node, ast.Dict):
            err("EA001", table, f"{table} dispatch table missing or not a dict literal")
            continue
        seen: Set[int] = set()
        for key, value in zip(node.keys, node.values):
            if key is None:  # ``**mapping`` unpacking
                continue
            parsed = _key_mask(key, model, int_keys)
            if parsed is None:
                err(code, table, f"malformed {table} key", key)
                continue
            mask, label = parsed
            seen.add(mask)
            entry = f"{table}[{label}]"
            if expected is not None and mask not in expected:
                dead = f"{entry} is a dead entry: no adequate bound-pattern has that mask"
                err(code, table, dead, key)
            method = (
                value.attr
                if isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == cls_name
                else None
            )
            if method not in model.methods:
                err(code, table, f"{entry} does not reference a defined method", value)
                continue
            referenced.add(method)
            if method != f"{prefix}{mask}":
                err(code, table, f"{entry} dispatches to {method} (mask mismatch)", value)
        if complete and expected is not None:
            for mask in sorted(expected - seen):
                err(
                    "EA040",
                    table,
                    f"{table} is missing adequate bound-pattern "
                    f"{model.columns(mask)} (mask {mask})",
                )
        if table == "_RM":
            rm_masks = seen

    vcols = model.assigns.get("_VCOLS")
    if vcols is None:
        err("EA001", "_VCOLS", "_VCOLS memo missing")
    elif not (isinstance(vcols, ast.Dict) and not vcols.keys):
        err(
            "EA042",
            "_VCOLS",
            "_VCOLS must be initialised empty (it memoises pattern shapes at "
            "run time; seeded entries would bypass dispatch validation)",
            vcols,
        )

    for method_name, fn in model.methods.items():
        if _SPECIALISED_RE.match(method_name) and method_name not in referenced:
            diags.append(
                Diagnostic(
                    "EA044",
                    ERROR,
                    f"specialised method {method_name} is unreachable from any "
                    "dispatch table (dead emitted code)",
                    Loc(model.name, method_name, fn.lineno),
                )
            )
    return rm_masks


# -- meta cross-check -----------------------------------------------------------


def _check_meta(
    model: _ModuleModel,
    diags: List[Diagnostic],
    meta: Dict[str, object],
    rm_masks: Optional[Set[int]],
) -> None:
    """EA045: each field of ``__repro_meta__`` the source also states."""
    cls = model.cls
    sites = {site for _, site in _fault_checks(cls) if site is not None}
    rows = (
        # meta field, what the source states (None: nothing to compare), scope
        ("class_name", cls.name, cls.name),
        ("columns", list(model.cols) or None, "_COLS"),
        ("fault_sites", sites, cls.name),
        ("batch_masks", rm_masks, "_RM"),
    )
    for field, emitted, scope in rows:
        recorded = meta.get(field)
        if emitted is None or recorded is None:
            continue
        # Compare as the source side's type: sets ignore the record's order.
        if emitted != type(emitted)(recorded):
            shown = sorted(emitted) if isinstance(emitted, set) else emitted
            diags.append(
                Diagnostic(
                    "EA045",
                    WARNING,
                    f"emitted {field} {shown} disagree with __repro_meta__ {field} {recorded}",
                    Loc(model.name, scope),
                )
            )
