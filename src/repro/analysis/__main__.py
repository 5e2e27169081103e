"""CLI: run the static analyses over the benchmark layouts.

``python -m repro.analysis --all-layouts --strict`` is the CI gate: it
compiles every hand layout of every benchmark workload, verifies the
emitted source (``EA0xx``), lints each layout against its spec and trace
(``DL0xx``), prints the findings, optionally dumps them as JSON, and — in
strict mode — exits non-zero on any error-severity finding.  Warnings never
fail the gate: several benchmark *alternative* layouts exist to be worse,
and the linter saying so is it working.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from ..codegen import compile_relation
from ..faults import FAULTS
from .declint import lint
from .diagnostics import WARNING, Diagnostic, Loc, has_errors, render_json, render_text
from .emitted import verify_class

__all__ = ["main"]


def _check_site_coverage(emitted_sites: set, diags: List[Diagnostic]) -> None:
    """EA033 (warning): registered codegen sites no verified layout emits.

    A site registered at compiler import but emitted by no layout under
    analysis is sweep surface the chaos suite believes exists but never
    reaches from these layouts.
    """
    registered = {s for s in FAULTS.sites() if s.startswith("codegen.")}
    for site in sorted(registered - emitted_sites):
        diags.append(
            Diagnostic(
                "EA033",
                WARNING,
                f"registered site {site!r} is not emitted by any analysed layout",
                Loc("fault-registry", site),
            )
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically verify emitted relation classes and lint "
        "decomposition layouts (EA0xx / DL0xx diagnostics).",
    )
    parser.add_argument(
        "--all-layouts",
        action="store_true",
        help="analyse every hand layout (primary + alternatives) of every workload",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        metavar="NAME",
        help="restrict to these benchmark workloads (default: all)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if any error-severity finding is reported",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the findings as JSON (the CI artifact)",
    )
    args = parser.parse_args(argv)

    # Imported late: benchmarks/ sits next to src/ on the path, and pulling
    # it in costs trace construction we skip for --help.
    from benchmarks.workloads import build_workloads

    from ..autotuner.trace import Trace

    # Quick traces: the trace-informed lints find the same on full-length ones.
    workloads = build_workloads(quick=True, names=args.workloads)

    diags: List[Diagnostic] = []
    emitted_sites: set = set()
    units = 0
    for workload in workloads:
        trace = Trace.from_workload(workload)
        layouts = workload.hand_layouts() if args.all_layouts else {
            "primary": workload.layout
        }
        for layout_name, layout in layouts.items():
            unit = f"{workload.name}/{layout_name}"
            units += 1
            diags.extend(lint(workload.spec, layout, trace=trace, name=unit))
            cls = compile_relation(workload.spec, layout)
            for diag in verify_class(cls):
                # Re-anchor the class-named findings on the workload/layout
                # unit so the report reads by benchmark, not by class name.
                diag.loc.unit = unit
                diags.append(diag)
            meta = getattr(cls, "__repro_meta__", None)
            if meta:
                emitted_sites.update(meta.get("fault_sites", ()))
    _check_site_coverage(emitted_sites, diags)

    sys.stdout.write(f"analysed {units} layout(s)\n")
    sys.stdout.write(render_text(diags))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(render_json(diags, units=units))
    if args.strict and has_errors(diags):
        sys.stdout.write("strict mode: error-severity findings present\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
