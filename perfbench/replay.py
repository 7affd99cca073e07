"""Traced replay of the four-flow evaluation, one layer call at a time.

The replay makes the same calls as ``Cayman.run`` and ``run_comparison``
(``repro.framework``, ``repro.reporting.bench``) but from here, with a span
around each call into a layer, so per-layer times come from the benchmark and
not from instrumentation inside the program.  The full-Cayman flow is
replayed layer by layer; the other three flows are timed whole.  Work
counters are read from one ``repro.telemetry.Telemetry`` installed for all
four flows, as ``run_comparison`` does.
"""

from __future__ import annotations

import collections
import json
import os
import time
from typing import Dict, List, Optional

#: Per-layer metrics of the traced run: name → (unit, better).
PER_LAYER = {
    "frontend.compile_s": ("s", "lower"),
    "ir.static_instructions": ("count", "lower"),
    "interp.profile_s": ("s", "lower"),
    "interp.sim_cycles": ("cycles", "lower"),
    "analysis.wpst_s": ("s", "lower"),
    "dataflow.module_s": ("s", "lower"),
    "analysis.context_s": ("s", "lower"),
    "dependence.vector.pairs_tested": ("count", "lower"),
    "banking.groups": ("count", "lower"),
    "reuse.pairs_proven": ("count", "higher"),
    "dataflow.worklist_iterations": ("count", "lower"),
    "model.candidates_s": ("s", "lower"),
    "model.configs_generated": ("count", "lower"),
    "model.candidates": ("count", "lower"),
    "model.useful_ratio": ("ratio", "higher"),
    "selection.dp_s": ("s", "lower"),
    "selection.evaluated_vertices": ("count", "lower"),
    "selection.front_size": ("count", "higher"),
    "merging.merge_s": ("s", "lower"),
    "merging.pairs_evaluated": ("count", "lower"),
    "merging.steps": ("count", "lower"),
    "merging.useful_ratio": ("ratio", "higher"),
    "baselines.coupled_only_s": ("s", "lower"),
    "baselines.novia_s": ("s", "lower"),
    "baselines.qscores_s": ("s", "lower"),
    "reporting.cache_key_s": ("s", "lower"),
    "reporting.cache_get_s": ("s", "lower"),
    "reporting.cache_put_s": ("s", "lower"),
    "reporting.record_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: Telemetry counter → per-layer metric, summed over all four flows.
COUNTERS = {
    "dependence.vector.pairs_tested": "dependence.vector.pairs_tested",
    "banking.groups": "banking.groups",
    "reuse.pairs_proven": "reuse.pairs_proven",
    "dataflow.worklist_iterations": "dataflow.worklist_iterations",
    "model.configs_generated": "model.configs_generated",
    "model.candidates": "model.candidates",
    "selection.vertices_evaluated": "selection.evaluated_vertices",
    "merging.pairs_evaluated": "merging.pairs_evaluated",
    "merging.steps": "merging.steps",
}

#: Span name → per-layer time metric (summed over every span of that name).
SPAN_METRICS = {
    "frontend.compile": "frontend.compile_s",
    "interp.profile": "interp.profile_s",
    "analysis.wpst": "analysis.wpst_s",
    "dataflow.module": "dataflow.module_s",
    "analysis.context": "analysis.context_s",
    "model.candidates": "model.candidates_s",
    "merging.merge": "merging.merge_s",
    "baselines.coupled_only": "baselines.coupled_only_s",
    "baselines.novia": "baselines.novia_s",
    "baselines.qscores": "baselines.qscores_s",
    "reporting.cache_key": "reporting.cache_key_s",
    "reporting.cache_get": "reporting.cache_get_s",
    "reporting.cache_put": "reporting.cache_put_s",
    "reporting.record": "reporting.record_s",
}


class Spans:
    """In-memory span log: name, start, end, parent index, program."""

    def __init__(self):
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self.program: Optional[str] = None

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span called ``name``: its duration
        minus the part its child spans cover."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        return sum(
            span["end"] - span["start"] - child_time.get(index, 0.0)
            for index, span in enumerate(self.spans)
            if span["name"] == name
        )

    def total_seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


class _Span:
    def __init__(self, log: Spans, name: str):
        self.log = log
        self.name = name

    def __enter__(self):
        log = self.log
        self.index = len(log.spans)
        log.spans.append({
            "name": self.name,
            "start": time.perf_counter(),
            "end": None,
            "parent": log._stack[-1] if log._stack else None,
            "program": log.program,
        })
        log._stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.log.spans[self.index]["end"] = time.perf_counter()
        self.log._stack.pop()


class TimedModel:
    """Hands ``CandidateSelector`` the real model, with a span around every
    ``candidates`` call; everything else is forwarded unchanged."""

    def __init__(self, model, spans: Spans):
        self._model = model
        self._spans = spans

    def candidates(self, node):
        with self._spans.span("model.candidates"):
            return self._model.candidates(node)

    def __getattr__(self, name):
        return getattr(self._model, name)


def replay_program(
    name: str, params, spans: Spans, counters: collections.Counter, cache_dir: str
):
    """Run all four flows on one program with a span per layer call.

    Returns ``(comparison, record, cached)``: the full results, the record
    the engine would have stored, and that record read back from a fresh
    cache in ``cache_dir``.
    """
    spans.program = name
    with spans.span("program"):
        result = _replay(name, params, spans, counters, cache_dir)
    spans.program = None
    return result


def _replay(name, params, spans, counters, cache_dir):
    from repro.analysis.wpst import WPST
    from repro.baselines.novia import Novia
    from repro.baselines.qscores import QsCores
    from repro.framework import Cayman, CaymanResult
    from repro.frontend.lowering import compile_source
    from repro.hls.techlib import CVA6_TILE_AREA_UM2
    from repro.interp.profiler import profile_module
    from repro.merging.merge_driver import AcceleratorMerger
    from repro.model.estimator import AcceleratorModel
    from repro.reporting.bench import (
        BenchCache,
        BenchmarkComparison,
        cache_key,
        record_from_comparison,
    )
    from repro.selection.knapsack import CandidateSelector
    from repro.selection.pruning import PruneHeuristic
    from repro.telemetry import Telemetry, use
    from repro.workloads import get_workload

    workload = get_workload(name)
    flows = {
        flow: Cayman(
            alpha=params.alpha, beta=params.beta,
            prune_threshold=params.prune_threshold,
            coupled_only=(flow == "coupled_only"),
        )
        for flow in ("cayman", "coupled_only")
    }
    flows["novia"] = Novia(alpha=params.alpha, prune_threshold=params.prune_threshold)
    flows["qscores"] = QsCores(alpha=params.alpha, prune_threshold=params.prune_threshold)
    cayman = flows["cayman"]
    results, flow_seconds = {}, {}
    tele = Telemetry()
    with use(tele):
        started = time.perf_counter()
        with spans.span("frontend.compile"):
            module = compile_source(workload.source, name)
        with spans.span("interp.profile"):
            profile = profile_module(module, entry=workload.entry)
        with spans.span("analysis.wpst"):
            wpst = WPST(module, entry_function=workload.entry)
        with spans.span("dataflow.module"):
            model = AcceleratorModel(
                module,
                profile,
                techlib=cayman.techlib,
                beta=cayman.beta,
                unroll_factors=cayman.unroll_factors,
                coupled_only=cayman.coupled_only,
                legality_prefilter=cayman.legality_prefilter,
            )
        with spans.span("analysis.context"):
            for func in module.defined_functions():
                model.context(func)
        selector = CandidateSelector(
            wpst,
            TimedModel(model, spans),
            prune=PruneHeuristic(profile, cayman.prune_threshold),
            alpha=cayman.alpha,
            area_cap=cayman.area_cap_ratio * CVA6_TILE_AREA_UM2,
        )
        with spans.span("selection.run"):
            front = selector.run()
        merger = AcceleratorMerger(cayman.techlib)
        merged = []
        for solution in front:
            if not solution.is_empty:
                with spans.span("merging.merge"):
                    merged.append(merger.merge(solution))
        flow_seconds["cayman"] = time.perf_counter() - started
        results["cayman"] = CaymanResult(
            module=module,
            wpst=wpst,
            profile=profile,
            selector=selector,
            front=front,
            merged=merged,
            runtime_seconds=flow_seconds["cayman"],
        )
        for flow in ("coupled_only", "novia", "qscores"):
            started = time.perf_counter()
            with spans.span(f"baselines.{flow}"):
                results[flow] = flows[flow].run(
                    workload.source, entry=workload.entry, name=name
                )
            flow_seconds[flow] = time.perf_counter() - started

    for counter, metric in COUNTERS.items():
        counters[metric] += tele.counter(counter).value
    counters["selection.front_size"] += sum(
        span.attrs.get("front_size", 0)
        for span in tele.walk_spans()
        if span.name == "selection.dp"
    )
    counters["ir.static_instructions"] += sum(
        len(block.instructions)
        for func in module.defined_functions()
        for block in func.blocks
    )
    counters["interp.sim_cycles"] += profile.total_cycles

    comparison = BenchmarkComparison(
        name=name, suite=workload.suite, flow_seconds=flow_seconds, **results
    )
    with spans.span("reporting.cache_key"):
        key = cache_key(name, params)
    with spans.span("reporting.record"):
        record = record_from_comparison(comparison, params, key)
    cache = BenchCache(cache_dir)
    with spans.span("reporting.cache_put"):
        cache.put(record)
    with spans.span("reporting.cache_get"):
        cached = cache.get(key)
    return comparison, record, cached


def layer_metrics(
    spans: Spans, counters: collections.Counter, eval_s: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass over a workload."""
    metrics = {metric: spans.total_seconds(name) for name, metric in SPAN_METRICS.items()}
    metrics["selection.dp_s"] = spans.self_seconds("selection.run")
    metrics.update(counters)
    metrics["model.useful_ratio"] = (
        metrics["model.candidates"] / max(1, metrics["model.configs_generated"])
    )
    metrics["merging.useful_ratio"] = (
        metrics["merging.steps"] / max(1, metrics["merging.pairs_evaluated"])
    )
    metrics["trace.overhead_pct"] = 100.0 * (spans.total_seconds("program") - eval_s) / eval_s
    return metrics
