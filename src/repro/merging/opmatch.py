"""Operation matching between two datapath units (paper §III-E).

Merging two basic-block datapaths shares functional units of the same
resource class.  Integer compute ops match across *proven* widths: an
11-bit and a 14-bit adder share one 14-bit unit (the narrower member is
zero-extended onto it by a sliver of glue logic), instead of the historical
binary 32/64 bucketing.  Float ops and memory port logic keep exact width
classes — an f32 adder never absorbs an f64 one.  A matched operation pair
needs operand multiplexers unless its producers are matched to each other
as well — so the matcher greedily prefers pairs whose operands are already
matched, maximizing shared wiring and minimizing mux overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..hls.dfg import DFG, DFGNode
from ..hls.techlib import CONFIG_BIT_AREA_UM2, TechLibrary

#: Integer resource classes whose instances merge at ``max(width_a,
#: width_b)`` with zero-extend glue on the narrower member's operands.
_INT_MERGEABLE = frozenset({
    "add", "sub", "and", "or", "xor", "shl", "shr", "neg", "not",
    "icmp", "select", "mul", "div", "rem", "gep", "phi",
    "sext", "zext", "trunc",
})


@dataclass
class MatchResult:
    """Outcome of matching unit B onto unit A."""

    pairs: List[Tuple[DFGNode, DFGNode]] = field(default_factory=list)
    shared_area: float = 0.0       # functional-unit area saved by sharing
    mux_area: float = 0.0          # multiplexers inserted on shared inputs
    config_bits: int = 0           # reconfiguration bit registers for muxes
    width_glue_area: float = 0.0   # zero-extend glue for width-mixed pairs

    @property
    def net_saving(self) -> float:
        return self.shared_area - self.mux_area - self.width_glue_area - (
            self.config_bits * CONFIG_BIT_AREA_UM2
        )


def _bucket(bits: int) -> int:
    """Binary 32/64 width class: float ops and memory port logic share only
    within one (integer compute ops match across widths instead)."""
    return 64 if bits > 32 else 32


def _op_key(node: DFGNode) -> Tuple[str, int]:
    # Integer compute ops share across widths (the shared unit is sized at
    # the max); float ops and memory port logic share by exact width class.
    if node.resource in _INT_MERGEABLE:
        return (node.resource, 0)
    return (node.resource, _bucket(node.bits))


_OpIndex = Tuple[List[Tuple[str, int]], Dict[Tuple[str, int], List[DFGNode]]]


def _op_index(unit: DFG) -> _OpIndex:
    """Op keys (in node order) and key → nodes buckets of ``unit``, built
    once per DFG and kept on it, so every pair the DFG is part of reuses
    them and they live exactly as long as the DFG."""
    index = unit.match_index
    if index is None:
        keys = [_op_key(node) for node in unit.nodes]
        by_key: Dict[Tuple[str, int], List[DFGNode]] = {}
        for node, key in zip(unit.nodes, keys):
            by_key.setdefault(key, []).append(node)
        index = unit.match_index = (keys, by_key)
    return index


def match_units(
    unit_a: DFG, unit_b: DFG, techlib: TechLibrary
) -> MatchResult:
    """Greedy producer-aware matching of ``unit_b``'s ops onto ``unit_a``."""
    result = MatchResult()
    by_key_a = _op_index(unit_a)[1]
    keys_b = _op_index(unit_b)[0]

    matched_a: Dict[DFGNode, DFGNode] = {}
    matched_b: Dict[DFGNode, DFGNode] = {}

    # Single pass in program order: producers precede consumers, so matched
    # producer pairs steer their consumers toward mux-free matches.
    for node_b, key_b in zip(unit_b.nodes, keys_b):
        candidates = [
            node_a
            for node_a in by_key_a.get(key_b, ())
            if node_a not in matched_a
        ]
        if not candidates:
            continue
        best = None
        best_score = None
        for node_a in candidates:
            # Prefer already-matched producers, then the closest width (a
            # wider partner wastes shared-unit bits, a narrower one buys
            # less) — deterministic because program order breaks ties.
            score = (
                _producer_bonus(node_a, node_b, matched_b),
                -abs(node_a.bits - node_b.bits),
            )
            if best_score is None or score > best_score:
                best, best_score = node_a, score
        matched_a[best] = node_b
        matched_b[node_b] = best
        result.pairs.append((best, node_b))

    for node_a, node_b in result.pairs:
        resource = node_a.resource
        bits_a, bits_b = node_a.bits, node_b.bits
        shared_bits = max(bits_a, bits_b)
        # Sharing keeps one instance at the max width: the saving is the
        # smaller member's area.
        result.shared_area += (
            techlib.area(resource, bits_a)
            + techlib.area(resource, bits_b)
            - techlib.area(resource, shared_bits)
        )
        if bits_a != bits_b:
            result.width_glue_area += techlib.area("zext", shared_bits)
        # One mux per operand position whose producers differ.
        arity = max(len(node_a.preds), len(node_b.preds))
        for slot in range(arity):
            prod_a = node_a.preds[slot] if slot < len(node_a.preds) else None
            prod_b = node_b.preds[slot] if slot < len(node_b.preds) else None
            if prod_b is not None and matched_b.get(prod_b) is prod_a and prod_a is not None:
                continue  # shared wire, no mux
            result.mux_area += techlib.mux_area(shared_bits, 2)
            result.config_bits += 1
    return result


def _producer_bonus(
    node_a: DFGNode, node_b: DFGNode, matched_b: Dict[DFGNode, DFGNode]
) -> int:
    """Operand slots whose producers are already matched to each other."""
    bonus = 0
    for slot in range(min(len(node_a.preds), len(node_b.preds))):
        if matched_b.get(node_b.preds[slot]) is node_a.preds[slot]:
            bonus += 1
    return bonus


#: Op key → (node count, largest functional-unit area) of one DFG.
OpHistogram = Dict[Tuple[str, int], Tuple[int, float]]


def op_histogram(unit: DFG, techlib: TechLibrary) -> OpHistogram:
    """Node count and largest FU area per op key of ``unit``."""
    return {
        key: (
            len(nodes),
            max(techlib.area(node.resource, node.bits) for node in nodes),
        )
        for key, nodes in _op_index(unit)[1].items()
    }


def merged_histogram(
    hist_a: OpHistogram, hist_b: OpHistogram
) -> OpHistogram:
    """Op histogram of ``merge_pair``'s result, from its members' ones.

    The merged unit keeps every A node plus the unmatched B nodes, so
    ``n_a + n_b - min(n_a, n_b) = max(n_a, n_b)`` nodes per key; a matched
    A node is widened to its partner's width, so the largest area per key
    is the larger member's (FU area being non-decreasing in width).
    """
    merged = dict(hist_a)
    for key, (count_b, area_b) in hist_b.items():
        entry = merged.get(key)
        if entry is not None:
            count_a, area_a = entry
            merged[key] = (
                count_a if count_a > count_b else count_b,
                area_a if area_a > area_b else area_b,
            )
        else:
            merged[key] = (count_b, area_b)
    return merged


def match_bound(
    hist_a: OpHistogram, hist_b: OpHistogram
) -> Tuple[int, float]:
    """Pair count of ``match_units`` on two units and a cap on its
    ``net_saving``, from the units' op histograms alone.

    The matcher pairs nodes of one op key only, and pairs every node it
    can, so it makes exactly ``min(n_a, n_b)`` pairs per key.  A pair
    shares one unit at the wider width and so saves the narrower member's
    area, which is at most the smaller of the two keys' largest areas
    while FU area is non-negative and non-decreasing in width.  Mux, glue
    and config-bit costs are non-negative, so the net saving is at most
    the shared area.  The cap is inflated slightly to absorb the rounding
    of the matcher's own float sums; a zero cap stays zero.
    """
    if len(hist_b) < len(hist_a):
        hist_a, hist_b = hist_b, hist_a
    pairs = 0
    shared = 0.0
    for key, (count_a, area_a) in hist_a.items():
        entry = hist_b.get(key)
        if entry is not None:
            count_b, area_b = entry
            count = count_a if count_a < count_b else count_b
            pairs += count
            shared += count * (area_a if area_a < area_b else area_b)
    if shared > 0.0:
        shared = shared * (1.0 + 1e-9) + 1e-9
    return pairs, shared


def unit_fu_area(unit: DFG, techlib: TechLibrary) -> float:
    """Raw functional-unit area of one datapath unit (no sharing)."""
    total = 0.0
    for node in unit.nodes:
        total += techlib.area(node.resource, node.bits)
    return total
