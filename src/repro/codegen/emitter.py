"""A tiny indentation-aware source emitter used by the relation compiler.

The compiler builds Python source line by line while walking the
decomposition DAG; :class:`Emitter` keeps the indentation bookkeeping out of
the generation logic so the emission code reads like the code it produces.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Set

__all__ = ["Emitter"]

INDENT = "    "


class Emitter:
    """Accumulates source lines with managed indentation."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._depth = 0
        #: Every fault site named by a :meth:`fault_check` emitted through
        #: this emitter — the ground truth for the static verifier's
        #: site round-trip check (``repro.analysis``), recorded in the
        #: compiled class's ``__repro_meta__``.
        self.fault_sites: Set[str] = set()

    def line(self, text: str = "") -> None:
        """Append one line at the current indentation (blank lines unindented)."""
        if text:
            self._lines.append(INDENT * self._depth + text)
        else:
            self._lines.append("")

    def lines(self, *texts: str) -> None:
        for text in texts:
            self.line(text)

    @contextmanager
    def indent(self) -> Iterator[None]:
        """Indent one level for the duration of the ``with`` block."""
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1

    def push(self) -> None:
        """Indent one level until a matching :meth:`pop`.

        Used when the emitted structure (e.g. nested scan loops along a
        query plan) outlives any single Python ``with`` block in the
        generator itself.
        """
        self._depth += 1

    def pop(self, levels: int = 1) -> None:
        """Undo *levels* :meth:`push` calls."""
        self._depth -= levels

    def fault_check(self, site: str) -> None:
        """Emit a guarded fault-injection probe for *site*.

        Two lines — ``if _fa: _F.check(<site>)`` — the same inert-by-default
        shape the hand-written tiers use, never a counted access.  ``_fa``
        is the injector's ``active`` flag, hoisted into a local at method
        entry (safe because ``check`` is a no-op for any site other than
        the armed one, and a fault can only arm or disarm between top-level
        operations).
        """
        self.fault_sites.add(site)
        self.line("if _fa:")
        with self.indent():
            self.line(f"_F.check({site!r})")

    def docstring(self, text: str) -> None:
        """Emit *text* as a (multi-line safe) docstring at current depth."""
        safe = text.replace("\\", "\\\\").replace('"""', '\\"\\"\\"')
        if "\n" in safe or safe.endswith('"'):
            self.line('"""' + safe)
            self.line('"""')
        else:
            self.line('"""' + safe + '"""')

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"

