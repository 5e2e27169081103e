"""The compiled representation tier (the paper's code generator, in Python).

RELC's headline result is that *synthesized* representations are compiled —
the C++ generator emits specialised member functions for each decomposition.
This package is the reproduction's equivalent on top of the Python stack:

* :func:`generate_source` — emit the source of a relation class
  specialised to one ``(RelationSpec, Decomposition)`` pair: unrolled
  insert/remove paths over plain dicts/lists, and per-pattern query methods
  generated from query plans behind a compile-time dispatch table;
* :func:`compile_relation` — generate, ``exec`` and return the class, ready
  to instantiate and use interchangeably with
  :class:`~repro.core.reference.ReferenceRelation` and
  :class:`~repro.decomposition.relation.DecomposedRelation`.

The three tiers trade generality for speed:

=============  ==================================  =========================
Tier           Implementation                      Cost per operation
=============  ==================================  =========================
reference      set of tuples, defining equations   O(n) scans everywhere
interpreted    ``DecomposedRelation``              plan cache + DAG walking
compiled       ``compile_relation(spec, d)()``     straight-line specialised
=============  ==================================  =========================

``python -m benchmarks`` drives all three through identical traces and
records their median wall-clock and counted accesses in one JSON report.
"""

from .compiler import (
    MAX_ENUMERATED_COLUMNS,
    clear_codegen_cache,
    codegen_cache_stats,
    compile_relation,
    generate_source,
    generate_source_and_meta,
)

__all__ = [
    "MAX_ENUMERATED_COLUMNS",
    "clear_codegen_cache",
    "codegen_cache_stats",
    "compile_relation",
    "generate_source",
    "generate_source_and_meta",
]
