"""One merger over a whole front: its content-keyed pair cache must not
change any merge decision, only how often a pair is matched."""

import pytest

from repro.baselines.novia import NOVIA
from repro.baselines.qscores import QSCORES
from repro.framework import CAYMAN, Cayman
from repro.hls import DEFAULT_TECHLIB
from repro.merging import AcceleratorMerger

from ..conftest import FIG2_SOURCE
from .reference_scan import fingerprint


@pytest.fixture(scope="module")
def front():
    result = Cayman(merging=False).run(FIG2_SOURCE, name="fig2")
    solutions = [s for s in result.front if not s.is_empty]
    assert len(solutions) > 1
    return solutions


@pytest.mark.parametrize(
    "fraction",
    [flow.min_match_fraction for flow in (CAYMAN, NOVIA, QSCORES)],
    ids=["cayman", "novia", "qscores"],
)
def test_shared_merger_matches_fresh_mergers(front, fraction):
    shared = AcceleratorMerger(DEFAULT_TECHLIB, min_match_fraction=fraction)
    shared_results = [shared.merge(solution) for solution in front]

    fresh_results = []
    fresh_evaluated = 0
    for solution in front:
        fresh = AcceleratorMerger(DEFAULT_TECHLIB, min_match_fraction=fraction)
        fresh_results.append(fresh.merge(solution))
        fresh_evaluated += fresh.pairs_evaluated

    assert [fingerprint(m) for m in shared_results] == [
        fingerprint(m) for m in fresh_results
    ]
    assert any(m.merge_steps for m in shared_results)
    assert shared.pairs_evaluated < fresh_evaluated
    assert shared.pair_cache_hits > 0


def test_remerging_a_solution_is_all_cache_hits(front):
    merger = AcceleratorMerger(DEFAULT_TECHLIB)
    first = merger.merge(front[-1])
    evaluated = merger.pairs_evaluated
    again = merger.merge(front[-1])
    assert merger.pairs_evaluated == evaluated
    assert fingerprint(again) == fingerprint(first)
