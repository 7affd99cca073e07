"""Soundness of the pair-saving bound that lets the merger skip matches.

The lazy-greedy merger only matches a pair whose bound could be the
largest saving, so a bound below a pair's exact saving could change a merge
decision.  The bound rests on three facts about the cost model (FU area is
non-negative and non-decreasing in width; mux, glue and config-bit costs
are non-negative; only same-key nodes match), tested here along with the
bound itself on real fronts and on random DFGs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.novia import NOVIA
from repro.baselines.qscores import QSCORES
from repro.framework import CAYMAN
from repro.hls import DEFAULT_TECHLIB
from repro.hls.techlib import _OPS, CONFIG_BIT_AREA_UM2
from repro.merging import (
    AcceleratorMerger,
    MergedUnit,
    match_units,
    merge_pair,
)
from repro.merging.opmatch import match_bound, merged_histogram, op_histogram

from .conftest import FRONT_PROGRAMS
from .reference_scan import ReferenceScanMerger
from .test_merge_properties import random_unit

FRACTIONS = [flow.min_match_fraction for flow in (CAYMAN, NOVIA, QSCORES)]
FRACTION_IDS = ["cayman", "novia", "qscores"]
WIDTHS = range(1, 129)


@pytest.mark.parametrize("resource", sorted(_OPS))
def test_fu_area_non_negative_and_non_decreasing_in_width(resource):
    areas = [DEFAULT_TECHLIB.area(resource, bits) for bits in WIDTHS]
    assert min(areas) >= 0.0
    assert all(narrow <= wide for narrow, wide in zip(areas, areas[1:]))


def test_merge_overheads_non_negative():
    assert CONFIG_BIT_AREA_UM2 >= 0.0
    for bits in WIDTHS:
        assert DEFAULT_TECHLIB.mux_area(bits, 2) >= 0.0
        assert DEFAULT_TECHLIB.area("zext", bits) >= 0.0


def _histogram(unit):
    return len(unit.dfg.nodes), op_histogram(unit.dfg, DEFAULT_TECHLIB)


@pytest.mark.parametrize("fraction", FRACTIONS, ids=FRACTION_IDS)
@pytest.mark.parametrize("program", FRONT_PROGRAMS)
def test_bound_caps_every_pair_the_scan_matches(
    merge_fronts, program, fraction
):
    engine = AcceleratorMerger(DEFAULT_TECHLIB, min_match_fraction=fraction)
    checked = []

    def check(unit_a, unit_b, match, saving):
        hist_a, hist_b = _histogram(unit_a), _histogram(unit_b)
        pairs, bound = match_bound(hist_a[1], hist_b[1])
        assert pairs == len(match.pairs)
        assert bound >= match.net_saving
        # With the filter: a rejected pair's bound is 0 exactly when the
        # scan's saving is.
        assert engine._pair_bound(hist_a, hist_b) >= saving
        checked.append(saving)

    scan = ReferenceScanMerger(
        DEFAULT_TECHLIB, min_match_fraction=fraction, on_pair=check
    )
    for solution in merge_fronts[program]:
        scan.merge(solution)
    assert checked and max(checked) > 0.0


@pytest.mark.parametrize("fraction", FRACTIONS, ids=FRACTION_IDS)
@pytest.mark.parametrize("program", FRONT_PROGRAMS)
def test_engine_bounds_cap_the_savings_it_computes(
    merge_fronts, program, fraction
):
    merger = AcceleratorMerger(DEFAULT_TECHLIB, min_match_fraction=fraction)
    for solution in merge_fronts[program]:
        merger.merge(solution)
    assert merger._savings
    assert merger.pairs_bounded == len(merger._bounds)
    assert merger.pairs_evaluated == len(merger._savings)
    for pair, saving in merger._savings.items():
        assert saving <= merger._bounds[pair]


@pytest.mark.parametrize("program", FRONT_PROGRAMS)
def test_derived_histogram_equals_node_walk(merge_fronts, program):
    def check(unit_a, unit_b, match, saving):
        merged = merge_pair(unit_a, unit_b, DEFAULT_TECHLIB, match)
        derived = merged_histogram(
            _histogram(unit_a)[1], _histogram(unit_b)[1]
        )
        assert derived == _histogram(merged)[1]

    scan = ReferenceScanMerger(DEFAULT_TECHLIB, on_pair=check)
    for solution in merge_fronts[program]:
        scan.merge(solution)


_units = st.one_of(random_unit(), random_unit(narrow=True))


@given(_units, _units)
@settings(max_examples=150, deadline=None)
def test_bound_caps_random_pairs(dfg_a, dfg_b):
    match = match_units(dfg_a, dfg_b, DEFAULT_TECHLIB)
    hist_a = op_histogram(dfg_a, DEFAULT_TECHLIB)
    hist_b = op_histogram(dfg_b, DEFAULT_TECHLIB)
    pairs, bound = match_bound(hist_a, hist_b)
    assert pairs == len(match.pairs)
    assert bound >= match.net_saving
    assert bound >= match.shared_area


@given(_units, _units)
@settings(max_examples=100, deadline=None)
def test_derived_histogram_equals_node_walk_on_random_pairs(dfg_a, dfg_b):
    unit_a = MergedUnit("a", dfg_a, owner=0, member_names=["a"])
    unit_b = MergedUnit("b", dfg_b, owner=1, member_names=["b"])
    merged = merge_pair(unit_a, unit_b, DEFAULT_TECHLIB)
    hist_a = op_histogram(dfg_a, DEFAULT_TECHLIB)
    hist_b = op_histogram(dfg_b, DEFAULT_TECHLIB)
    assert merged_histogram(hist_a, hist_b) == op_histogram(
        merged.dfg, DEFAULT_TECHLIB
    )
