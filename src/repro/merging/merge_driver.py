"""Heuristic accelerator merging over selection solutions (paper §III-E).

For every Pareto-optimal selection solution Cayman repeatedly

1. finds the pair of datapath units contained in the solution whose merge
   saves the most area,
2. merges that pair into a reconfigurable datapath unit, combining their
   owning accelerators into one reusable accelerator (each member kernel
   keeps its own FSM; a global *Ctrl* unit dispatches configurations), and
3. treats the merged unit/accelerator as a normal one for further rounds,

until no positive saving remains.

Step 1 is lazy (Minoux, "Accelerated greedy algorithms", 1978): every pair
enters a heap with a cheap upper bound of its saving, computed from the two
units' op histograms (``opmatch.match_bound``).  Only a pair whose bound
reaches the top of the heap is matched; its exact saving then goes back
into the heap, and an exact saving on top is the step's maximum.  Heap
entries break ties by the units' creation ranks, which is the order of the
unit list an exhaustive scan would walk, so the merges are exactly those of
a scan that picks the first pair of largest saving.

A merger instance is meant to serve one flow run: it keeps one pair cache
of bounds and exact savings across every solution it merges, because a
front's solutions share most of their accelerators.  The cache is keyed by
unit content, not by unit object: an original unit's key is interned from
its DFG, and a merged unit's key from its two members' keys (``merge_pair``
is deterministic in its members, so that pair of keys fixes the merged
DFG).  The cache holds only floats; a chosen pair whose saving came from
the cache is re-matched.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hls.dfg import DFG
from ..hls.fsm import GlobalControlUnit
from ..hls.techlib import ACCELERATOR_BASE_AREA_UM2, DEFAULT_TECHLIB, TechLibrary
from ..selection.solution import Solution
from ..telemetry import current as current_telemetry
from .dfg_merge import MergedUnit, merge_pair
from .opmatch import (
    MatchResult,
    OpHistogram,
    match_bound,
    match_units,
    merged_histogram,
    op_histogram,
)

#: (node count, op histogram) of one unit.
_Histogram = Tuple[int, OpHistogram]


@dataclass
class ReusableAccelerator:
    """One accelerator of the merged solution and the kernels it serves."""

    kernel_names: List[str]
    unit_names: List[str]

    @property
    def region_count(self) -> int:
        return len(self.kernel_names)

    @property
    def is_reusable(self) -> bool:
        return self.region_count > 1


@dataclass
class MergedSolution:
    """Result of merging one selection solution."""

    solution: Solution
    area_before: float
    area_after: float
    merge_steps: int
    accelerators: List[ReusableAccelerator] = field(default_factory=list)
    #: Final datapath-unit pool after merging (reconfigurable units included).
    units: List["MergedUnit"] = field(default_factory=list)
    #: Union-find root (accelerator group id) per unit, aligned with `units`.
    unit_groups: List[int] = field(default_factory=list)
    #: Group root per entry of `accelerators` (same id space as unit_groups).
    group_roots: List[int] = field(default_factory=list)

    @property
    def saving(self) -> float:
        return self.area_before - self.area_after

    @property
    def saving_pct(self) -> float:
        if self.area_before <= 0:
            return 0.0
        return 100.0 * self.saving / self.area_before

    @property
    def saved_seconds(self) -> float:
        return self.solution.saved_seconds

    def speedup(self, total_seconds: float) -> float:
        return self.solution.speedup(total_seconds)

    @property
    def mean_regions_per_reusable(self) -> float:
        reusable = [a for a in self.accelerators if a.is_reusable]
        if not reusable:
            return 0.0
        return sum(a.region_count for a in reusable) / len(reusable)


class _UnionFind:
    def __init__(self, count: int):
        self.parent = list(range(count))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


class AcceleratorMerger:
    """Lazy-greedy pairwise merging engine with a per-instance pair cache."""

    def __init__(
        self,
        techlib: TechLibrary = DEFAULT_TECHLIB,
        max_steps: Optional[int] = None,
        max_units: int = 400,
        min_match_fraction: float = 0.0,
    ):
        self.techlib = techlib
        self.max_steps = max_steps
        self.max_units = max_units
        #: Restricted hardware sharing (baselines): a pair may merge only if
        #: the match covers at least this fraction of the smaller unit.
        self.min_match_fraction = min_match_fraction
        #: Summed over every solution this merger has merged: pair bounds
        #: computed, exact pair matches computed, and exact savings taken
        #: from the cache instead of a match.
        self.pairs_bounded = 0
        self.pairs_evaluated = 0
        self.pair_cache_hits = 0
        # Content keys: id(DFG) → (key, DFG) for original units (holding
        # the DFG keeps its id() from being reused) and (key_a, key_b) →
        # key for merged units.  Keys share one counter.
        self._dfg_keys: Dict[int, Tuple[int, DFG]] = {}
        self._merged_keys: Dict[Tuple[int, int], int] = {}
        #: Content key → (node count, op histogram) of an original unit.
        #: A merged unit's histogram is derived from its members' and
        #: lives only as long as its solution.
        self._histograms: Dict[int, _Histogram] = {}
        #: (key_i, key_j) → upper bound of the pair's net saving, 0.0 when
        #: the ``min_match_fraction`` filter rejects the pair.
        self._bounds: Dict[Tuple[int, int], float] = {}
        #: (key_i, key_j) → exact net saving of a pair the filter accepts.
        #: Floats only, so no merged DFG outlives its solution.
        self._savings: Dict[Tuple[int, int], float] = {}

    def merge(self, solution: Solution) -> MergedSolution:
        tele = current_telemetry()
        bounded = self.pairs_bounded
        evaluated, hits = self.pairs_evaluated, self.pair_cache_hits
        with tele.span(
            "merging.solution", accelerators=len(solution.accelerators)
        ) as span:
            merged = self._merge_impl(solution)
            if tele.enabled:
                span.set("steps", merged.merge_steps)
                span.set("saving_um2", merged.saving)
                tele.count("merging.solutions")
                tele.count("merging.steps", merged.merge_steps)
                tele.count(
                    "merging.pairs_bounded", self.pairs_bounded - bounded
                )
                tele.count(
                    "merging.pairs_evaluated", self.pairs_evaluated - evaluated
                )
                tele.count(
                    "merging.pair_cache_hits", self.pair_cache_hits - hits
                )
                tele.count("merging.recovered_area_um2", merged.saving)
        return merged

    def _new_key(self) -> int:
        return len(self._dfg_keys) + len(self._merged_keys)

    def _original_key(self, dfg: DFG) -> int:
        entry = self._dfg_keys.get(id(dfg))
        if entry is None:
            entry = self._dfg_keys[id(dfg)] = (self._new_key(), dfg)
        return entry[0]

    def _merged_key(self, key_a: int, key_b: int) -> int:
        key = self._merged_keys.get((key_a, key_b))
        if key is None:
            key = self._merged_keys[(key_a, key_b)] = self._new_key()
        return key

    def _original_histogram(self, key: int, dfg: DFG) -> _Histogram:
        entry = self._histograms.get(key)
        if entry is None:
            entry = self._histograms[key] = (
                len(dfg.nodes), op_histogram(dfg, self.techlib)
            )
        return entry

    def _pair_bound(self, hist_a: _Histogram, hist_b: _Histogram) -> float:
        pairs, bound = match_bound(hist_a[1], hist_b[1])
        if self.min_match_fraction > 0.0:
            smaller = min(hist_a[0], hist_b[0])
            if pairs / max(1, smaller) < self.min_match_fraction:
                return 0.0
        return bound

    def _merge_impl(self, solution: Solution) -> MergedSolution:
        units: List[MergedUnit] = []
        kernel_of_owner: Dict[int, str] = {}
        for owner, accel in enumerate(solution.accelerators):
            kernel_of_owner[owner] = accel.config.kernel_name
            for name, dfg in accel.units:
                units.append(
                    MergedUnit(
                        name=f"{accel.config.kernel_name}/{name}",
                        dfg=dfg,
                        owner=owner,
                        member_names=[f"{accel.config.kernel_name}/{name}"],
                    )
                )

        area_before = solution.area
        uf = _UnionFind(len(solution.accelerators))
        if len(units) > self.max_units or len(units) < 2:
            return self._finalize(solution, area_before, 0.0, units,
                                  kernel_of_owner, uf, 0)

        # A unit's rank is its index in `pool`: original units in list
        # order, then merged units in the order they are made.  A merged
        # unit is appended, and its members' slots are set to None (so a
        # merged DFG is freed once it is merged again).
        pool: List[Optional[MergedUnit]] = list(units)
        keys = [self._original_key(unit.dfg) for unit in units]
        hists = [
            self._original_histogram(key, unit.dfg)
            for key, unit in zip(keys, units)
        ]
        bounds, savings = self._bounds, self._savings
        bounded = evaluated = hits = 0

        def pair_entries(j: int):
            """Bound entries of every live pair (i, j) with i < j."""
            nonlocal bounded
            key_j = keys[j]
            for i in range(j):
                if pool[i] is None:
                    continue
                pair = (keys[i], key_j)
                bound = bounds.get(pair)
                if bound is None:
                    bound = bounds[pair] = self._pair_bound(
                        hists[i], hists[j]
                    )
                    bounded += 1
                if bound > 0.0:
                    yield (-bound, i, j, False)

        # Entries are (-value, rank_i, rank_j, exact): the largest value
        # pops first, ties to the lexicographically first rank pair.
        heap = [
            entry for j in range(1, len(pool)) for entry in pair_entries(j)
        ]
        heapq.heapify(heap)
        total_step_saving = 0.0
        steps = 0
        last_match: Optional[Tuple[int, int, MatchResult]] = None
        while heap and (self.max_steps is None or steps < self.max_steps):
            negative, i, j, exact = heapq.heappop(heap)
            unit_i, unit_j = pool[i], pool[j]
            if unit_i is None or unit_j is None:
                continue
            if not exact:
                pair = (keys[i], keys[j])
                saving = savings.get(pair)
                if saving is None:
                    match = match_units(unit_i.dfg, unit_j.dfg, self.techlib)
                    saving = savings[pair] = match.net_saving
                    last_match = (i, j, match)
                    evaluated += 1
                else:
                    hits += 1
                if saving > 0.0:
                    heapq.heappush(heap, (-saving, i, j, True))
                continue
            if last_match is not None and last_match[:2] == (i, j):
                match = last_match[2]
            else:
                match = match_units(unit_i.dfg, unit_j.dfg, self.techlib)
            merged = merge_pair(unit_i, unit_j, self.techlib, match)
            uf.union(uf.find(unit_i.owner), uf.find(unit_j.owner))
            merged.owner = uf.find(unit_i.owner)
            pool[i] = pool[j] = last_match = None
            pool.append(merged)
            keys.append(self._merged_key(keys[i], keys[j]))
            hists.append((
                len(merged.dfg.nodes),
                merged_histogram(hists[i][1], hists[j][1]),
            ))
            for entry in pair_entries(len(pool) - 1):
                heapq.heappush(heap, entry)
            total_step_saving += -negative
            steps += 1

        self.pairs_bounded += bounded
        self.pairs_evaluated += evaluated
        self.pair_cache_hits += hits
        return self._finalize(
            solution, area_before, total_step_saving,
            [unit for unit in pool if unit is not None],
            kernel_of_owner, uf, steps,
        )

    #: Fraction of redundant interface hardware a reusable accelerator can
    #: actually share between its mutually exclusive member kernels (the
    #: remainder pays for the muxing/glue in front of the shared ports).
    INTERFACE_SHARE_FACTOR = 0.8

    def _finalize(
        self,
        solution: Solution,
        area_before: float,
        step_saving: float,
        units: List[MergedUnit],
        kernel_of_owner: Dict[int, str],
        uf: _UnionFind,
        steps: int,
    ) -> MergedSolution:
        # Group accelerators by union-find root.
        groups: Dict[int, List[int]] = {}
        for owner in range(len(solution.accelerators)):
            groups.setdefault(uf.find(owner), []).append(owner)

        ctrl_overhead = 0.0
        base_saving = 0.0
        accelerators: List[ReusableAccelerator] = []
        group_roots: List[int] = []
        for root, owners in groups.items():
            group_roots.append(root)
            kernels = [kernel_of_owner[o] for o in owners]
            unit_names = [
                u.name for u in units if uf.find(u.owner) == root
            ]
            accelerators.append(ReusableAccelerator(kernels, unit_names))
            if len(owners) > 1:
                # No config-bit area here: each merge step's net saving
                # already billed the reconfiguration registers it adds.
                ctrl_overhead += GlobalControlUnit(
                    config_bits=0, members=len(owners)
                ).area(self.techlib)
                # Combined accelerators share one bus/trigger wrapper.
                base_saving += (len(owners) - 1) * ACCELERATOR_BASE_AREA_UM2
                # Only one member kernel runs at a time, so LSUs, AGUs,
                # FIFOs, and DMA engines can be multiplexed between them:
                # the group keeps the largest member's interface set and
                # shares it (with mux overhead) with the others.
                iface_areas = [
                    solution.accelerators[o].breakdown.interfaces
                    for o in owners
                ]
                redundant = sum(iface_areas) - max(iface_areas)
                base_saving += self.INTERFACE_SHARE_FACTOR * redundant

        area_after = max(
            0.0, area_before - step_saving - base_saving + ctrl_overhead
        )
        return MergedSolution(
            solution=solution,
            area_before=area_before,
            area_after=area_after,
            merge_steps=steps,
            accelerators=accelerators,
            units=list(units),
            unit_groups=[uf.find(u.owner) for u in units],
            group_roots=group_roots,
        )


def merge_solution(
    solution: Solution, techlib: TechLibrary = DEFAULT_TECHLIB
) -> MergedSolution:
    """Merge one solution with the default engine."""
    return AcceleratorMerger(techlib).merge(solution)
