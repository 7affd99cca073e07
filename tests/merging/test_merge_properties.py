"""Property tests for the merging engine over random generated DFG pairs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hls import DEFAULT_TECHLIB, DFG
from repro.ir import Constant, F32, I32, IRBuilder, Module, VOID
from repro.merging import (
    MergedUnit,
    estimate_pair_saving,
    match_units,
    merge_pair,
    unit_fu_area,
)


@st.composite
def random_unit(draw, narrow=False):
    """A random small datapath DFG mixing float and int arithmetic; with
    ``narrow``, every int op gets a drawn proven width of 1-64 bits."""
    module = Module("m")
    func = module.add_function("f", VOID, [F32, F32, I32], ["p", "q", "n"])
    block = func.add_block("entry")
    builder = IRBuilder(block)
    fpool = [func.arguments[0], func.arguments[1], Constant(F32, 2.0)]
    ipool = [func.arguments[2], Constant(I32, 3)]
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            op = draw(st.sampled_from(["fadd", "fsub", "fmul"]))
            lhs = fpool[draw(st.integers(0, len(fpool) - 1))]
            rhs = fpool[draw(st.integers(0, len(fpool) - 1))]
            fpool.append(builder._binop(op, lhs, rhs, ""))
        else:
            op = draw(st.sampled_from(["add", "mul", "and", "xor"]))
            lhs = ipool[draw(st.integers(0, len(ipool) - 1))]
            rhs = ipool[draw(st.integers(0, len(ipool) - 1))]
            ipool.append(builder._binop(op, lhs, rhs, ""))
    builder.ret()
    widths = None
    if narrow:
        widths = {
            inst: draw(st.integers(1, 64))
            for inst in block.instructions if inst.type == I32
        }
    return DFG.from_blocks([block], widths=widths)


@given(random_unit(), random_unit())
@settings(max_examples=60, deadline=None)
def test_match_never_pairs_across_resources(dfg_a, dfg_b):
    match = match_units(dfg_a, dfg_b, DEFAULT_TECHLIB)
    for node_a, node_b in match.pairs:
        assert node_a.resource == node_b.resource
    # Matched sets are injective on both sides.
    lefts = [a for a, _ in match.pairs]
    rights = [b for _, b in match.pairs]
    assert len(lefts) == len(set(map(id, lefts)))
    assert len(rights) == len(set(map(id, rights)))


@given(random_unit(), random_unit())
@settings(max_examples=60, deadline=None)
def test_shared_area_bounded_by_smaller_unit(dfg_a, dfg_b):
    match = match_units(dfg_a, dfg_b, DEFAULT_TECHLIB)
    bound = min(
        unit_fu_area(dfg_a, DEFAULT_TECHLIB), unit_fu_area(dfg_b, DEFAULT_TECHLIB)
    )
    assert match.shared_area <= bound + 1e-9


@given(random_unit(), random_unit())
@settings(max_examples=60, deadline=None)
def test_merge_conserves_area_accounting(dfg_a, dfg_b):
    """merged = a + b - saving holds exactly for one merge step."""
    a = MergedUnit("a", dfg_a, owner=0, member_names=["a"])
    b = MergedUnit("b", dfg_b, owner=1, member_names=["b"])
    saving, match = estimate_pair_saving(a, b, DEFAULT_TECHLIB)
    merged = merge_pair(a, b, DEFAULT_TECHLIB, match)
    total_before = a.total_area(DEFAULT_TECHLIB) + b.total_area(DEFAULT_TECHLIB)
    assert merged.total_area(DEFAULT_TECHLIB) == pytest.approx(
        total_before - saving
    )
    assert len(merged.dfg.nodes) == (
        len(dfg_a.nodes) + len(dfg_b.nodes) - len(match.pairs)
    )


@given(random_unit())
@settings(max_examples=40, deadline=None)
def test_self_merge_is_full_overlap(dfg):
    """Merging a unit with a structural copy of itself shares everything."""
    import copy

    clone = dfg.replicate(1)
    match = match_units(dfg, clone, DEFAULT_TECHLIB)
    assert len(match.pairs) == len(dfg.nodes)
    assert match.shared_area == pytest.approx(unit_fu_area(dfg, DEFAULT_TECHLIB))
