"""Fixtures shared by the merging tests."""

import pytest

from repro.framework import Cayman
from repro.workloads import get_workload

from ..conftest import FIG2_SOURCE

#: Programs whose selection fronts the merge engine is checked over.
FRONT_PROGRAMS = ("fig2", "atax", "3mm", "epic", "wave-lag")


@pytest.fixture(scope="session")
def merge_fronts():
    """Program name → non-empty solutions of its Cayman front (unmerged)."""
    fronts = {}
    for name in FRONT_PROGRAMS:
        source = FIG2_SOURCE if name == "fig2" else get_workload(name).source
        result = Cayman(merging=False).run(source, name=name)
        fronts[name] = [s for s in result.front if not s.is_empty]
    return fronts
