"""Shared fixtures: the paper's process-scheduler specification."""

import os

import pytest

from repro.core import RelationSpec


def pytest_report_header(config):
    # Some counted-access decisions depend on str hashing; the seed in the
    # header makes a red run replayable.
    return f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset (random per run)')}"


@pytest.fixture
def scheduler_spec() -> RelationSpec:
    """The running example of the paper: processes keyed by (ns, pid)."""
    return RelationSpec(
        "ns, pid, state, cpu",
        fds=["ns, pid -> state, cpu"],
        name="process",
    )
