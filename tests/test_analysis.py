"""Static-analysis tests (PR 9): diagnostics, the decomposition linter, and
the emitted-code verifier demonstrated on seeded source corruption.

The negative-path tests are the heart: each takes the real emitted source of
the scheduler layout, performs one surgical corruption (drop a journal
append, orphan a fault site, dead dispatch entry, ...), and asserts the
verifier fires the matching ``EA0xx`` code — proving every check catches the
class of bug it exists for, not just that clean code passes.
"""

import functools
import gc
import inspect
import json
import linecache
import re

import pytest

from repro import RelationSpec
from repro.analysis import (
    ERROR,
    WARNING,
    Diagnostic,
    Loc,
    has_errors,
    lint,
    render_json,
    render_text,
    summarize,
    verify_class,
    verify_source,
)
from repro.autotuner.enumerator import canonical_shape, enumerate_decompositions
from repro.codegen import (
    clear_codegen_cache,
    compile_relation,
    generate_source_and_meta,
    runtime,
)
from repro.decomposition.parser import parse_decomposition

SCHED_LAYOUT = "ns -> htable pid -> htable {state, cpu}"


@functools.lru_cache(maxsize=None)
def _sched_artifacts():
    spec = RelationSpec(
        "ns, pid, state, cpu", fds=["ns, pid -> state, cpu"], name="process"
    )
    source, meta = generate_source_and_meta(spec, SCHED_LAYOUT)
    return spec, parse_decomposition(SCHED_LAYOUT), source, meta


@pytest.fixture(scope="module")
def sched():
    """Spec, parsed layout, emitted source and meta for the running example."""
    return _sched_artifacts()


_MUTATOR_DEF = re.compile(
    r"    def (insert|_insert_row|remove|_remove_row|update|_update_in_place|_rm_\d+)\("
)


def _mutator_sites(is_site, xfail=()):
    """One ``(method, line index)`` param per line of the scheduler layout's
    mutators whose stripped text *is_site* accepts, id'd ``method-ordinal``;
    ids in *xfail* are marked as strict expected failures."""
    params, method, ordinal = [], None, {}
    for i, line in enumerate(_sched_artifacts()[2].splitlines()):
        if line.startswith("    def "):
            match = _MUTATOR_DEF.match(line)
            method = match.group(1) if match else None
        elif method is not None and is_site(line.strip()):
            ordinal[method] = ordinal.get(method, -1) + 1
            pid = f"{method}-{ordinal[method]}"
            marks = [pytest.mark.xfail(strict=True, reason=xfail[pid])] if pid in xfail else []
            params.append(pytest.param(method, i, id=pid, marks=marks))
    return params


def _codes(diags):
    return {d.code for d in diags}


def _verify(sched, source, runtime_source=None):
    spec, decomposition, _, meta = sched
    return verify_source(
        source,
        name="Corrupted",
        meta=meta,
        spec=spec,
        decomposition=decomposition,
        runtime_source=runtime_source,
    )


def _drop_line(source, needle, after=""):
    """Delete the first line containing *needle* (after the *after* marker)."""
    lines = source.splitlines(True)
    start = 0
    if after:
        start = next(i for i, ln in enumerate(lines) if after in ln)
    idx = next(i for i in range(start, len(lines)) if needle in lines[i])
    del lines[idx]
    return "".join(lines)


def _drop_index(source, index):
    lines = source.splitlines(True)
    del lines[index]
    return "".join(lines)


def _insert_before(source, needle, new_line, after=""):
    lines = source.splitlines(True)
    start = 0
    if after:
        start = next(i for i, ln in enumerate(lines) if after in ln)
    idx = next(i for i in range(start, len(lines)) if needle in lines[i])
    lines.insert(idx, new_line)
    return "".join(lines)


# -- diagnostic model -----------------------------------------------------------


class TestDiagnosticModel:
    def test_loc_str(self):
        assert str(Loc("Cls")) == "Cls"
        assert str(Loc("Cls", "_insert_row")) == "Cls._insert_row"
        assert str(Loc("Cls", "_insert_row", 42)) == "Cls._insert_row:42"

    def test_loc_equality(self):
        assert Loc("a", "b", 1) == Loc("a", "b", 1)
        assert Loc("a", "b", 1) != Loc("a", "b", 2)
        assert len({Loc("a", "b", 1), Loc("a", "b", 1)}) == 1

    def test_diagnostic_str_and_severity_validation(self):
        d = Diagnostic("EA011", ERROR, "unjournalled", Loc("Cls", "m", 7))
        assert str(d) == "Cls.m:7: error EA011: unjournalled"
        with pytest.raises(ValueError):
            Diagnostic("EA011", "fatal", "boom", Loc("Cls"))

    def test_sort_errors_before_warnings_within_unit(self):
        warn = Diagnostic("DL004", WARNING, "w", Loc("u"))
        err = Diagnostic("EA050", ERROR, "e", Loc("u"))
        assert sorted([warn, err], key=Diagnostic.sort_key) == [err, warn]

    def test_summarize_and_has_errors(self):
        diags = [
            Diagnostic("EA011", ERROR, "e", Loc("a")),
            Diagnostic("DL002", WARNING, "w", Loc("b")),
        ]
        assert summarize(diags) == "1 error(s), 1 warning(s) in 2 unit(s)"
        assert has_errors(diags)
        assert not has_errors([diags[1]])

    def test_render_text_groups_by_unit(self):
        diags = [
            Diagnostic("DL002", WARNING, "w", Loc("b", "edge")),
            Diagnostic("EA011", ERROR, "e", Loc("a", "m", 3)),
        ]
        text = render_text(diags)
        lines = text.splitlines()
        assert lines[0] == "== a"
        assert "error   EA011  m:3  e" in lines[1]
        assert lines[2] == "== b"
        assert render_text([]) == "no findings\n"

    def test_render_json_payload(self):
        diags = [Diagnostic("EA020", ERROR, "uncharged", Loc("Cls", "q", 9))]
        payload = json.loads(render_json(diags, units=5))
        assert payload["errors"] == 1
        assert payload["warnings"] == 0
        assert payload["units"] == 5
        assert payload["findings"][0]["code"] == "EA020"
        assert payload["findings"][0]["line"] == 9


# -- decomposition linter -------------------------------------------------------


class _FakeProfile:
    def __init__(self, patterns):
        self._patterns = [frozenset(p) for p in patterns]

    def pattern_columns(self):
        return list(self._patterns)


class _FakeTrace:
    """Just enough Trace surface for the trace-informed lints."""

    def __init__(self, operations=(), patterns=()):
        self.operations = list(operations)
        self._profile = _FakeProfile(patterns)

    def profile(self):
        return self._profile


class TestDecompositionLint:
    def test_clean_layout_has_no_findings(self, scheduler_spec):
        assert lint(scheduler_spec, SCHED_LAYOUT) == []

    def test_dl001_unused_where_definition_is_error(self, scheduler_spec):
        diags = lint(
            scheduler_spec,
            "ns, pid -> htable {state, cpu} where @dead = {cpu}",
        )
        assert _codes(diags) == {"DL001"}
        assert has_errors(diags)
        assert "@dead" in diags[0].message

    def test_dl003_single_parent_sharing(self, scheduler_spec):
        diags = lint(
            scheduler_spec,
            "ns, pid -> htable @rec where @rec = {state, cpu}",
        )
        assert _codes(diags) == {"DL003"}
        assert not has_errors(diags)

    def test_dl002_fd_redundant_edge(self, scheduler_spec):
        # state is FD-determined once ns and pid are bound, so the inner
        # state-keyed containers each hold exactly one entry.
        diags = lint(
            scheduler_spec, "ns -> htable pid -> htable state -> htable {cpu}"
        )
        assert _codes(diags) == {"DL002"}
        assert "state" in diags[0].message

    def test_dl004_ordered_structure_never_range_queried(self, scheduler_spec):
        trace = _FakeTrace(operations=[("query", frozenset({"ns"}))])
        diags = lint(
            scheduler_spec, "ns -> htable pid -> btree {state, cpu}", trace=trace
        )
        assert "DL004" in _codes(diags)

    def test_dl004_silent_when_trace_ranges_the_key(self, scheduler_spec):
        trace = _FakeTrace(operations=[("range", "pid", 0, 10)])
        diags = lint(
            scheduler_spec, "pid -> btree ns -> htable {state, cpu}", trace=trace
        )
        assert "DL004" not in _codes(diags)

    def test_dl005_range_column_unserved(self, scheduler_spec):
        trace = _FakeTrace(operations=[("range", "cpu", 0, 10)])
        diags = lint(scheduler_spec, SCHED_LAYOUT, trace=trace)
        assert "DL005" in _codes(diags)

    def test_dl006_unjoined_projection_branch(self):
        # The reverse-neighbour split layout: forward branch plus a
        # key-projection secondary keyed by dst.  A trace that never binds
        # dst leaves the secondary costing every mutation for nothing.
        spec = RelationSpec("src, dst, weight", fds=["src, dst -> weight"])
        layout = (
            "[src -> htable (dst -> htable {weight})"
            " ; dst -> htable (src -> htable {})]"
        )
        trace = _FakeTrace(patterns=[{"src"}])
        diags = lint(spec, layout, trace=trace)
        assert "DL006" in _codes(diags)

    def test_dl006_silent_when_join_plans_walk_the_branch(self):
        # The real graph_reverse workload reaches the secondary as a join
        # side once live size estimates are in play: not dead weight.
        from benchmarks.workloads import build_workloads
        from repro.autotuner.trace import Trace

        workload = build_workloads(quick=True, names=["graph_reverse"])[0]
        trace = Trace.from_workload(workload)
        diags = lint(workload.spec, workload.layout, trace=trace)
        assert "DL006" not in _codes(diags)


# -- emitted-code verifier: positive paths --------------------------------------


class TestVerifierPositive:
    def test_clean_source_verifies_clean(self, sched):
        spec, decomposition, source, meta = sched
        assert (
            verify_source(
                source, meta=meta, spec=spec, decomposition=decomposition
            )
            == []
        )

    def test_verify_class_on_compiled_output(self, scheduler_spec):
        cls = compile_relation(scheduler_spec, SCHED_LAYOUT)
        assert verify_class(cls) == []

    def test_verify_class_without_source_is_ea001(self):
        class NotEmitted:
            pass

        diags = verify_class(NotEmitted)
        assert _codes(diags) == {"EA001"}

    def test_unparsable_source_is_ea001(self):
        assert _codes(verify_source("def broken(:")) == {"EA001"}

    def test_source_without_class_is_ea001(self):
        assert _codes(verify_source("x = 1\n")) == {"EA001"}


# -- emitted-code verifier: seeded corruption -----------------------------------


#: Charges whose removal EA020 misses: each sits first in an ``if`` body
#: below the charge of the enclosing probe, and the backward scan hops out of
#: ``if`` bodies, so that outer charge still dominates the nested probe.
_NESTED_RECHARGES = dict.fromkeys(
    ("_insert_row-1", "_remove_row-1", "_update_in_place-1"),
    "an enclosing charge still dominates the probe: EA020 does not pair "
    "each probe with its own charge",
)


class TestVerifierNegative:
    # J_COUNT entries journal the row count, bookkeeping outside EA011.
    @pytest.mark.parametrize(
        "method, line",
        _mutator_sites(
            lambda s: s.startswith("_j.append(")
            and not s.startswith(f"_j.append(({runtime.J_COUNT}, ")
        ),
    )
    def test_ea011_dropped_journal_append(self, sched, method, line):
        diags = _verify(sched, _drop_index(sched[2], line))
        assert "EA011" in _codes(diags)
        assert has_errors(diags)
        assert any(d.code == "EA011" and d.loc.scope == method for d in diags)

    def test_ea010_mutation_outside_rollback_scope(self, sched):
        source = sched[2]
        bad = _insert_before(
            source,
            "self._count += 1",
            "        self._root[v1] = {}\n",
            after="def _insert_row",
        )
        assert "EA010" in _codes(_verify(sched, bad))

    def test_ea012_handler_without_undo(self, sched):
        source = sched[2]
        bad = source.replace("_undo(_j)", "pass")
        assert "EA012" in _codes(_verify(sched, bad))

    def test_ea021_uncharged_runtime_helper(self, sched):
        # The list helpers live in the shared runtime, not in the emitted
        # module: the audit must still reach them.
        source = inspect.getsource(runtime)
        start = source.index("def _l_get(")
        end = source.index("\ndef ", start)
        helper = "".join(
            line
            for line in source[start:end].splitlines(True)
            if "_C.accesses +=" not in line
        )
        bad = source[:start] + helper + source[end:]
        diags = _verify(sched, sched[2], runtime_source=bad)
        assert any(d.code == "EA021" and "_l_get" in d.message for d in diags)
        assert "EA021" not in _codes(_verify(sched, sched[2]))

    @pytest.mark.parametrize(
        "method, line",
        _mutator_sites(lambda s: s.startswith("if en: _C.accesses"), _NESTED_RECHARGES),
    )
    def test_ea020_uncharged_probe(self, sched, method, line):
        diags = _verify(sched, _drop_index(sched[2], line))
        assert "EA020" in _codes(diags)
        # The finding names the probing method.
        assert any(d.code == "EA020" and d.loc.scope == method for d in diags)

    def test_ea030_unregistered_fault_site(self, sched):
        source = sched[2]
        bad = source.replace(
            "'codegen.insert.store'", "'codegen.insert.never_registered'"
        )
        assert "EA030" in _codes(_verify(sched, bad))

    @pytest.mark.parametrize("method, line", _mutator_sites(lambda s: s == "if _fa:"))
    def test_ea031_fault_check_outside_guard(self, sched, method, line):
        lines = sched[2].splitlines(True)
        check = lines.pop(line + 1)
        assert check.strip().startswith("_F.check(")
        lines[line] = check.replace("    ", "", 1)  # unguard: replace the if
        diags = _verify(sched, "".join(lines))
        assert "EA031" in _codes(diags)
        assert any(d.code == "EA031" and d.loc.scope == method for d in diags)

    @pytest.mark.parametrize(
        "emitted, respelled, code",
        [
            ("except BaseException:", "except Exception:", "EA012"),
            ("if _fa:", "if _F.active:", "EA031"),
            ("if en: _C.accesses", "if _C.enabled: _C.accesses", "EA020"),
        ],
        ids=["except-Exception", "if-F.active", "if-C.enabled"],
    )
    def test_only_the_emitted_spelling_verifies(self, sched, emitted, respelled, code):
        """Each discipline is checked in the one spelling the compiler
        emits; any other is a finding.  ``except Exception`` is a real hole:
        a KeyboardInterrupt mid-mutation would skip the undo replay."""
        bad = sched[2].replace(emitted, respelled, 1)
        assert bad != sched[2]
        assert code in _codes(_verify(sched, bad))

    def test_ea032_non_literal_fault_site(self, sched):
        source = sched[2]
        bad = source.replace(
            "_F.check('codegen.insert.store')",
            "_F.check('codegen.insert.' + 'store')",
        )
        assert "EA032" in _codes(_verify(sched, bad))

    def test_ea040_missing_dispatch_entry(self, sched):
        source = sched[2]
        bad = _drop_line(source, "3: Compiled_", after="_VPLANS = {")
        codes = _codes(_verify(sched, bad))
        assert "EA040" in codes
        # The dropped entry also strands its method as dead code.
        assert "EA044" in codes

    def test_ea041_dead_dispatch_entry(self, sched):
        source = sched[2]
        bad = _insert_before(
            source,
            "0: Compiled_",
            "    999: Compiled_decomposition._qv_0,\n",
            after="_VPLANS = {",
        )
        assert "EA041" in _codes(_verify(sched, bad))

    def test_ea042_prepopulated_memo_cache(self, sched):
        source = sched[2]
        bad = source.replace("_VCOLS = {}", "_VCOLS = {('ns',): None}")
        assert "EA042" in _codes(_verify(sched, bad))

    def test_ea043_rm_entry_outside_batch_removable_set(self, sched):
        # {ns} can match many rows; aliasing it onto the fused
        # single-victim remover of {ns, pid} would remove at most one.
        source = sched[2]
        bad = _insert_before(
            source,
            "frozenset(('ns', 'pid',)): Compiled_",
            "    frozenset(('ns',)): Compiled_decomposition._rm_6,\n",
            after="_RM = {",
        )
        diags = _verify(sched, bad)
        assert any(d.code == "EA043" and "['ns']" in d.message for d in diags)

    def test_ea050_undeclared_attribute_write(self, sched):
        source = sched[2]
        bad = source.replace(
            "            c5[v2] = (v0, v3)",
            "            c5[v2] = (v0, v3)\n            self._evil = row",
        )
        diags = _verify(sched, bad)
        assert any(
            d.code == "EA050" and "_evil" in d.message for d in diags
        )


# -- enumerated layouts ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _workload_specs():
    from benchmarks.workloads import build_workloads

    specs = {}
    for workload in build_workloads(quick=True):
        specs.setdefault(workload.spec.name, workload.spec)
    return specs


@pytest.mark.parametrize("spec_name", sorted(_workload_specs()))
def test_sampled_enumerated_candidates_verify_clean(spec_name):
    """The autotuner compiles enumerated candidates, not only the hand
    layouts the CLI gate covers: verify an even-stride sample of eight per
    workload spec, in both FD modes."""
    spec = _workload_specs()[spec_name]
    candidates = sorted(enumerate_decompositions(spec), key=canonical_shape)
    assert len(candidates) >= 8
    for i in range(8):
        decomposition = candidates[i * len(candidates) // 8]
        for enforce_fds in (True, False):
            cls = compile_relation(spec, decomposition, enforce_fds_default=enforce_fds)
            errors = [d for d in verify_class(cls) if d.severity == ERROR]
            assert errors == [], canonical_shape(decomposition)


# -- CLI gate -------------------------------------------------------------------


class TestCLI:
    def test_cli_strict_passes_on_benchmark_layouts(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        artifact = tmp_path / "analysis.json"
        rc = main(
            [
                "--workloads",
                "scheduler",
                "--all-layouts",
                "--strict",
                "--json",
                str(artifact),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "analysed" in out
        payload = json.loads(artifact.read_text())
        assert payload["errors"] == 0
        assert "findings" in payload and "units" in payload


# -- emitted metadata (the verifier's input surface) ----------------------------


class TestEmittedMetadata:
    def test_compiled_class_carries_source_meta_and_linecache(self, scheduler_spec):
        import linecache

        cls = compile_relation(scheduler_spec, SCHED_LAYOUT)
        assert "def insert(self, tup):" in cls.__repro_source__
        assert not hasattr(cls, "__source__")  # no alias: one canonical name
        meta = cls.__repro_meta__
        assert meta["class_name"] == cls.__name__
        assert set(meta["columns"]) == set(scheduler_spec.columns)
        assert meta["fault_sites"]  # the verifier's round-trip ground truth
        assert sorted(meta["queries"]) == meta["masks"]
        # linecache serves the emitted pseudo-file, so tracebacks out of
        # generated mutators show the real source line.
        first = linecache.getline(meta["filename"], 1)
        assert first == cls.__repro_source__.splitlines(True)[0]

    def test_collected_classes_release_their_linecache_entries(self, scheduler_spec):
        def generated():
            return {f for f in linecache.cache if f.startswith("<repro.codegen.generated_")}

        before = generated()
        for _ in range(50):
            compile_relation(scheduler_spec, SCHED_LAYOUT)
            clear_codegen_cache()
        gc.collect()
        assert len(generated() - before) <= 1

    def test_generated_traceback_points_at_real_source(self, scheduler_spec):
        import traceback

        cls = compile_relation(scheduler_spec, SCHED_LAYOUT)
        rel = cls()
        try:
            rel.insert(("a", 1, "run"))  # arity error inside the mutator
            raised = False
        except Exception:
            raised = True
            tb = traceback.format_exc()
            assert cls.__repro_meta__["module"] in tb
            # The frame shows actual emitted code, not just a filename.
            assert "insert" in tb
        assert raised
