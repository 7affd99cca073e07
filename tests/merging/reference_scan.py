"""Exhaustive-scan reference for :class:`AcceleratorMerger` (tests only).

Each step looks up the saving of every pair of live units and merges the
first pair (in list order) of largest positive saving -- the merge rule of
paper §III-E without any bound pruning.  Savings are cached by unit
content exactly as the engine caches them, so a scan over a whole front
stays affordable.  The lazy-greedy engine must reproduce its decisions
exactly.
"""

from typing import Callable, Dict, List, Optional

from repro.merging import (
    AcceleratorMerger,
    MatchResult,
    MergedUnit,
    match_units,
    merge_pair,
)
from repro.merging.merge_driver import _UnionFind

#: Called with both units, their match and the scan's saving (0.0 when the
#: ``min_match_fraction`` filter rejects the pair) for every pair matched.
PairHook = Callable[[MergedUnit, MergedUnit, MatchResult, float], None]


class ReferenceScanMerger(AcceleratorMerger):
    """:class:`AcceleratorMerger` whose pair search rescans every pair."""

    def __init__(self, *args, on_pair: Optional[PairHook] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.on_pair = on_pair

    def _scan_saving(self, unit_a: MergedUnit, unit_b: MergedUnit) -> float:
        match = match_units(unit_a.dfg, unit_b.dfg, self.techlib)
        saving = match.net_saving
        if self.min_match_fraction > 0.0:
            smaller = min(len(unit_a.dfg.nodes), len(unit_b.dfg.nodes))
            if len(match.pairs) / max(1, smaller) < self.min_match_fraction:
                saving = 0.0
        if self.on_pair is not None:
            self.on_pair(unit_a, unit_b, match, saving)
        return saving

    def _merge_impl(self, solution):
        units: List[MergedUnit] = []
        kernel_of_owner: Dict[int, str] = {}
        for owner, accel in enumerate(solution.accelerators):
            kernel_of_owner[owner] = accel.config.kernel_name
            for name, dfg in accel.units:
                label = f"{accel.config.kernel_name}/{name}"
                units.append(MergedUnit(label, dfg, owner, [label]))

        uf = _UnionFind(len(solution.accelerators))
        total_step_saving = 0.0
        steps = 0
        keys = [self._original_key(unit.dfg) for unit in units]
        savings = self._savings
        while (
            self.max_units >= len(units) >= 2
            and (self.max_steps is None or steps < self.max_steps)
        ):
            best = None
            best_saving = 0.0
            for i in range(len(units)):
                for j in range(i + 1, len(units)):
                    pair = (keys[i], keys[j])
                    saving = savings.get(pair)
                    if saving is None:
                        saving = savings[pair] = self._scan_saving(
                            units[i], units[j]
                        )
                        self.pairs_evaluated += 1
                    else:
                        self.pair_cache_hits += 1
                    if saving > best_saving:
                        best, best_saving = (i, j), saving
            if best is None:
                break
            i, j = best
            merged = merge_pair(units[i], units[j], self.techlib)
            owner_a, owner_b = units[i].owner, units[j].owner
            uf.union(uf.find(owner_a), uf.find(owner_b))
            merged.owner = uf.find(owner_a)
            merged_key = self._merged_key(keys[i], keys[j])
            units = [u for k, u in enumerate(units) if k not in (i, j)]
            units.append(merged)
            keys = [key for k, key in enumerate(keys) if k not in (i, j)]
            keys.append(merged_key)
            total_step_saving += best_saving
            steps += 1

        return self._finalize(
            solution, solution.area, total_step_saving, units,
            kernel_of_owner, uf, steps,
        )


def fingerprint(merged):
    """Everything a merge decision sequence fixes in a merged solution."""
    return (
        merged.area_before,
        merged.area_after,
        merged.merge_steps,
        [unit.name for unit in merged.units],
        merged.unit_groups,
        merged.group_roots,
    )
