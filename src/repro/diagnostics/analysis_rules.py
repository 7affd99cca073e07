"""Analysis-layer diagnostic rules (codes ``AN0xx``).

Consistency checks over the wPST, the profile, and the memory-access
analyses.  These rules guard the *inputs* of candidate selection: a region
offered with zero profile weight wastes DP work; an access classified as a
stream without an analyzable address recurrence would synthesize a broken
AGU; a loop whose footprints are unanalyzable but that reports no carried
dependence would be pipelined/unrolled unsoundly (paper §III-B/III-C).
"""

from __future__ import annotations

from typing import Iterator

from .core import Diagnostic, Location, Severity
from .registry import rule


@rule(
    "AN001",
    "cold-region-candidate",
    layer="analysis",
    severity=Severity.WARNING,
    description=(
        "wPST region vertex was never executed in the profiling run; it "
        "remains a selection candidate with zero profit."
    ),
    paper_ref="§III-D (heuristic pruning, Algorithm 1 line 2)",
    requires=("profile", "wpst"),
)
def check_cold_regions(ctx) -> Iterator[Diagnostic]:
    for node in ctx.wpst.region_vertices():
        region = node.region
        if region is None:
            continue
        if ctx.profile.region_count(region) == 0:
            yield Diagnostic(
                code="AN001",
                severity=Severity.WARNING,
                location=Location(
                    function=region.function.name,
                    block=region.entry.name,
                    detail=f"region {region.name}",
                ),
                message=(
                    f"region {region.name} was never entered during "
                    "profiling; selection cannot profit from it"
                ),
                suggestion=(
                    "extend the profiling input to cover the region, or "
                    "rely on the prune heuristic to skip it"
                ),
            )


@rule(
    "AN002",
    "stream-misclassification",
    layer="analysis",
    severity=Severity.ERROR,
    description=(
        "Access classified as a stream although its address is not an "
        "affine recurrence nest — a decoupled AGU cannot generate it.  "
        "Loop-invariant symbolic steps are affine (an AGU strides by a "
        "runtime-loaded register); only genuinely non-affine offsets "
        "(data-dependent indices, non-invariant steps) are flagged."
    ),
    paper_ref="§III-C (decoupled interfaces are legal only for streams)",
)
def check_stream_classification(ctx) -> Iterator[Diagnostic]:
    for func in ctx.module.defined_functions():
        for access in ctx.access(func).accesses():
            if access.is_stream and access.affine_addrec_levels() is None:
                inst = access.inst
                yield Diagnostic(
                    code="AN002",
                    severity=Severity.ERROR,
                    location=Location(
                        function=func.name,
                        block=inst.parent.name if inst.parent else None,
                        instruction=inst.ref,
                    ),
                    message=(
                        f"{inst.opcode} is classified as a stream but its "
                        "offset is not an affine address recurrence"
                    ),
                    suggestion=(
                        "the access-pattern analysis is inconsistent; "
                        "treat the access as coupled"
                    ),
                )


@rule(
    "AN003",
    "memdep-footprint-inconsistency",
    layer="analysis",
    severity=Severity.ERROR,
    description=(
        "Loop contains a store whose per-iteration stride is unanalyzable "
        "by SCEV, yet memory-dependence analysis reports no loop-carried "
        "dependence — the no-dependence verdict cannot be trusted."
    ),
    paper_ref="§III-B (unanalyzable footprints must be conservative)",
)
def check_memdep_footprints(ctx) -> Iterator[Diagnostic]:
    for func in ctx.module.defined_functions():
        access_analysis = ctx.access(func)
        memdep = ctx.memdep(func)
        for loop in ctx.loop_info(func).loops:
            unanalyzable = [
                access
                for access in access_analysis.accesses_in(loop.blocks)
                if access.is_store and access.stride_in(loop) is None
            ]
            if not unanalyzable:
                continue
            if memdep.has_loop_carried_dependence(loop):
                continue
            for access in unanalyzable:
                inst = access.inst
                yield Diagnostic(
                    code="AN003",
                    severity=Severity.ERROR,
                    location=Location(
                        function=func.name,
                        block=inst.parent.name if inst.parent else None,
                        instruction=inst.ref,
                        detail=f"loop {loop.name}",
                    ),
                    message=(
                        f"store with unanalyzable stride in loop "
                        f"{loop.name}, yet the loop reports no carried "
                        "dependence"
                    ),
                    suggestion=(
                        "the dependence analysis is inconsistent with the "
                        "SCEV footprints; treat the loop as dependent"
                    ),
                )


@rule(
    "AN004",
    "footprint-bound-looser-than-proven",
    layer="analysis",
    severity=Severity.INFO,
    description=(
        "SCEV footprint estimate for a loop access is more than twice the "
        "interval-proven byte window of the access: scratchpad sizing "
        "would over-allocate at least 2x.  Typical cause: a guard inside "
        "the loop (which branch refinement sees but SCEV ignores) "
        "restricts the accessed range.  (Intervals only give upper "
        "bounds, so only the looser direction is detectable; small slack "
        "from conservative trip bounds is not reported.)"
    ),
    paper_ref="§III-C (scratchpad capacity planning uses footprints)",
)
def check_footprint_bounds(ctx) -> Iterator[Diagnostic]:
    for func in ctx.module.defined_functions():
        analysis = ctx.intervals.for_function(func)
        access_analysis = ctx.access(func)
        for loop in ctx.loop_info(func).loops:
            trip = analysis.static_trip_bound(loop)
            if trip is None:
                continue
            for access in access_analysis.accesses_in(loop.blocks):
                footprint = access.footprint_in(loop, trip)
                if footprint is None:
                    continue
                window = ctx.bounds.windows.get(access.inst)
                if window is None:
                    continue
                off = window.offset
                if off.lo is None or off.hi is None:
                    continue
                window_bytes = off.hi + window.access_size - off.lo
                footprint_bytes = footprint * access.element_size
                if footprint_bytes > 2 * window_bytes:
                    inst = access.inst
                    yield Diagnostic(
                        code="AN004",
                        severity=Severity.INFO,
                        location=Location(
                            function=func.name,
                            block=inst.parent.name if inst.parent else None,
                            instruction=inst.ref,
                            detail=f"loop {loop.name}",
                        ),
                        message=(
                            f"SCEV footprint of {footprint_bytes} B in loop "
                            f"{loop.name} exceeds the interval-proven "
                            f"window of {window_bytes} B"
                        ),
                        suggestion=(
                            "size the scratchpad from the interval-proven "
                            "window instead of the SCEV footprint"
                        ),
                    )


@rule(
    "AN006",
    "pipeline-ii-bound-by-unproven-dependence",
    layer="analysis",
    severity=Severity.INFO,
    description=(
        "An innermost (pipelining-candidate) loop carries a flow "
        "dependence whose distance the affine dependence-vector analysis "
        "could not prove: the recurrence must be scheduled at distance 1, "
        "so the pipeline II is bound by the full recurrence latency.  "
        "Proving the distance (constant subscripts, interprocedurally "
        "resolvable parameters) would divide the recurrence II by it."
    ),
    paper_ref="§III-C (recurrence II = ceil(latency / distance))",
    requires=("profile",),
)
def check_unproven_recurrence_distance(ctx) -> Iterator[Diagnostic]:
    for func in ctx.module.defined_functions():
        memdep = ctx.memdep(func)
        for loop in ctx.loop_info(func).loops:
            if not loop.is_innermost:
                continue
            for dep in memdep.recurrence_deps(loop):
                if dep.distance is not None:
                    continue
                inst = dep.sink.inst
                yield Diagnostic(
                    code="AN006",
                    severity=Severity.INFO,
                    location=Location(
                        function=func.name,
                        block=inst.parent.name if inst.parent else None,
                        instruction=inst.ref,
                        detail=f"loop {loop.name}",
                    ),
                    message=(
                        f"pipeline II of loop {loop.name} is bound by a "
                        "carried flow dependence of unproven distance "
                        "(scheduled at distance 1)"
                    ),
                    suggestion=(
                        "make the subscripts affine in the loop counters "
                        "(or the strides interprocedurally constant) so "
                        "the dependence-vector analysis can prove the "
                        "minimal distance"
                    ),
                )


#: AN005 reports a function when an integer datapath op's type width is at
#: least this factor times its proven width (a narrowing opportunity the
#: estimator exploits automatically; the report makes it visible).
NARROWING_FACTOR = 2


@rule(
    "AN005",
    "datapath-wider-than-proven",
    layer="analysis",
    severity=Severity.INFO,
    description=(
        "Function contains integer datapath operations whose type width "
        "is at least NARROWING_FACTOR (2x) their bitwidth-proven width: "
        "the known-bits ∧ demanded-bits analysis shows most of the "
        "datapath is provably idle.  Reported per function as a "
        "narrowing-opportunity aggregate; the area estimator and FU "
        "merger already bill the proven widths."
    ),
    paper_ref="§III-F (area model; width-aware FU characterization)",
    requires=("profile",),
)
def check_datapath_width(ctx) -> Iterator[Diagnostic]:
    for func in ctx.module.defined_functions():
        analysis = ctx.bitwidth.for_function(func)
        wide = total = 0
        type_bits = proven_bits = 0
        for inst in func.instructions():
            if not inst.type.is_int:
                continue
            if inst.resource in ("control", "alloca", "call"):
                continue
            total += 1
            width = analysis.proven_width(inst)
            type_bits += inst.type.bits
            proven_bits += width
            if inst.type.bits >= NARROWING_FACTOR * width:
                wide += 1
        if wide == 0:
            continue
        yield Diagnostic(
            code="AN005",
            severity=Severity.INFO,
            location=Location(function=func.name),
            message=(
                f"{wide}/{total} integer datapath ops are at least "
                f"{NARROWING_FACTOR}x wider than proven "
                f"({type_bits} type bits vs {proven_bits} proven bits)"
            ),
            suggestion=(
                "no action needed — the estimator narrows automatically; "
                "use `repro bitwidth` for the per-function area delta"
            ),
        )
