"""The lazy-greedy merger makes exactly the merges of an exhaustive scan.

Every case compares :class:`AcceleratorMerger` against the test-only
:class:`ReferenceScanMerger`, which rescans every pair on every step, on
whole fronts (shared and per-solution mergers, every flow's
``min_match_fraction``, capped step counts) and on a solution where every
pair ties.
"""

from types import SimpleNamespace

import pytest

from repro.baselines.novia import NOVIA
from repro.baselines.qscores import QSCORES
from repro.framework import CAYMAN
from repro.hls import DEFAULT_TECHLIB, DFG
from repro.ir import Constant, F32, I32, IRBuilder, Module, VOID
from repro.merging import AcceleratorMerger

from .conftest import FRONT_PROGRAMS
from .reference_scan import ReferenceScanMerger, fingerprint

FRACTIONS = [flow.min_match_fraction for flow in (CAYMAN, NOVIA, QSCORES)]
FRACTION_IDS = ["cayman", "novia", "qscores"]


def _merge_all(merger_class, solutions, shared, **kwargs):
    merger = merger_class(DEFAULT_TECHLIB, **kwargs)
    results = []
    for solution in solutions:
        if not shared:
            merger = merger_class(DEFAULT_TECHLIB, **kwargs)
        results.append(fingerprint(merger.merge(solution)))
    return results, merger


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "fresh"])
@pytest.mark.parametrize("fraction", FRACTIONS, ids=FRACTION_IDS)
@pytest.mark.parametrize("program", FRONT_PROGRAMS)
def test_lazy_greedy_matches_scan_on_fronts(
    merge_fronts, program, fraction, shared
):
    solutions = merge_fronts[program]
    lazy, merger = _merge_all(
        AcceleratorMerger, solutions, shared, min_match_fraction=fraction
    )
    scan, scanner = _merge_all(
        ReferenceScanMerger, solutions, shared, min_match_fraction=fraction
    )
    assert lazy == scan
    assert any(steps for _, _, steps, *_ in lazy)
    if shared:
        # Both walk the same live pairs: the merger bounds each distinct
        # one once, and matches only some of those the scan matches.
        assert merger.pairs_bounded == scanner.pairs_evaluated
        assert merger.pairs_evaluated <= scanner.pairs_evaluated


@pytest.mark.parametrize("max_steps", [1, 2, 3])
@pytest.mark.parametrize("program", FRONT_PROGRAMS)
def test_lazy_greedy_matches_scan_with_step_cap(
    merge_fronts, program, max_steps
):
    solutions = merge_fronts[program]
    lazy, _ = _merge_all(
        AcceleratorMerger, solutions, True, max_steps=max_steps
    )
    scan, _ = _merge_all(
        ReferenceScanMerger, solutions, True, max_steps=max_steps
    )
    assert lazy == scan
    assert max(steps for _, _, steps, *_ in lazy) <= max_steps


def _identical_unit_solution(kernels=5, units_per_kernel=2):
    """A solution whose units are distinct DFGs of one and the same block,
    so every pair of original units has exactly the same saving."""
    module = Module("ties")
    func = module.add_function("f", VOID, [F32, I32], ["p", "n"])
    block = func.add_block("entry")
    builder = IRBuilder(block)
    x = builder._binop("fmul", func.arguments[0], Constant(F32, 2.0), "")
    builder._binop("fadd", x, func.arguments[0], "")
    y = builder._binop("add", func.arguments[1], Constant(I32, 3), "")
    builder._binop("mul", y, func.arguments[1], "")
    builder.ret()
    accelerators = [
        SimpleNamespace(
            config=SimpleNamespace(kernel_name=f"k{k}"),
            units=[(f"u{u}", DFG.from_blocks([block]))
                   for u in range(units_per_kernel)],
            breakdown=SimpleNamespace(interfaces=100.0),
        )
        for k in range(kernels)
    ]
    return SimpleNamespace(accelerators=accelerators, area=1e6)


@pytest.mark.parametrize("max_steps", [None, 1, 2, 3])
def test_ties_go_to_the_lowest_ranked_pair(max_steps):
    solution = _identical_unit_solution()
    lazy = AcceleratorMerger(DEFAULT_TECHLIB, max_steps=max_steps)
    scan = ReferenceScanMerger(DEFAULT_TECHLIB, max_steps=max_steps)
    merged = lazy.merge(solution)
    assert fingerprint(merged) == fingerprint(scan.merge(solution))
    assert merged.merge_steps > 0
    if max_steps == 1:
        # Units 0 and 1 are the lowest-ranked of all the tied pairs.
        assert merged.units[-1].name == "(k0/u0+k0/u1)"
