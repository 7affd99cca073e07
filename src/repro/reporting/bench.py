"""Parallel, persistently-cached evaluation engine behind ``repro bench``.

The engine runs the workload × flow matrix (full Cayman, coupled-only
Cayman, NOVIA, QsCores) and reduces each workload to a serializable
:class:`WorkloadRecord`: per-budget speedups for every flow, the merged
Pareto series, Table II metrics, ``CandidateSelector.stats()`` counters, and
per-stage wall times.

Records are memoized at two levels:

* in-process, as full :class:`BenchmarkComparison` objects (what ``table2``
  and ``fig6`` consume through :class:`~.runner.ComparisonRunner`);
* on disk, content-keyed — the cache key hashes the workload name, the
  optimized IR of its module, the flow parameters (α, β, prune threshold,
  budgets), and :data:`~repro.model.estimator.ESTIMATOR_VERSION` — so re-runs
  and CI only pay for what actually changed.

Cache misses can be fanned out across a ``concurrent.futures`` process pool
(``repro bench --jobs N``); results are deterministic, so parallel runs are
bit-for-bit identical to serial ones (modulo wall times, which are reported
but never part of the cached identity or determinism comparisons).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines.novia import NOVIA
from ..baselines.qscores import QSCORES
from ..framework import (
    CAYMAN, COUPLED_ONLY, CaymanResult, Flow, prepare, run_flow,
)
from ..model.estimator import ESTIMATOR_VERSION, AcceleratorModel
from ..model.interfaces import InterfaceKind
from ..selection.pruning import PruneHeuristic
from ..telemetry import (
    Telemetry, current as current_telemetry, merge_snapshots,
    use as use_telemetry,
)
from ..workloads import get_workload

#: Bumped whenever the on-disk record layout changes (old entries are
#: silently treated as misses).
CACHE_SCHEMA_VERSION = 1
#: Schema of the ``BENCH_<tag>.json`` report files.
BENCH_SCHEMA_VERSION = 1

#: The four flows of the paper's evaluation, in reporting order.
FLOWS = (CAYMAN, COUPLED_ONLY, NOVIA, QSCORES)
FLOW_NAMES = tuple(flow.name for flow in FLOWS)

#: The paper's small (25%) and large (65%) area budgets.
DEFAULT_BUDGETS = (0.25, 0.65)

#: Default persistent cache location (overridable per-engine and via CLI).
DEFAULT_CACHE_DIR = ".repro-cache"


def _budget_key(budget: float) -> str:
    """Stable string key for a budget ratio (JSON object keys)."""
    return format(budget, ".6g")


@dataclass(frozen=True)
class FlowParams:
    """Everything that parameterizes one evaluation of the flow matrix."""

    alpha: float = 1.1
    beta: float = 4.0
    prune_threshold: float = 0.001
    budgets: Tuple[float, ...] = DEFAULT_BUDGETS

    def as_dict(self) -> Dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "prune_threshold": self.prune_threshold,
            "budgets": list(self.budgets),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "FlowParams":
        return cls(
            alpha=payload["alpha"],
            beta=payload["beta"],
            prune_threshold=payload["prune_threshold"],
            budgets=tuple(payload["budgets"]),
        )


@dataclass
class BenchmarkComparison:
    """All four flows' results for one workload."""

    name: str
    suite: str
    cayman: CaymanResult
    coupled_only: CaymanResult
    novia: CaymanResult
    qscores: CaymanResult
    #: Wall times of the shared preparation (``"prepare"``) and of each
    #: flow run on it.
    flow_seconds: Dict[str, float] = field(default_factory=dict)

    def speedups(self, budget_ratio: float) -> Dict[str, float]:
        return {
            flow: self.result_for(flow).speedup_under_budget(budget_ratio)
            for flow in FLOW_NAMES
        }

    def result_for(self, flow: str) -> CaymanResult:
        return getattr(self, flow)


def _flow_settings(flow: Flow, params: FlowParams) -> Dict:
    """``run_flow`` keyword arguments of one flow under ``params``."""
    settings = {"alpha": params.alpha, "prune_threshold": params.prune_threshold}
    # β is the scratchpad threshold of Cayman's own model; the baselines'
    # models have no scratchpads.
    if flow.model is AcceleratorModel:
        settings["beta"] = params.beta
    return settings


def run_comparison(
    name: str,
    params: FlowParams,
    telemetry: Optional[Telemetry] = None,
) -> BenchmarkComparison:
    """Run all four flows on one workload (the single execution path).

    The workload is compiled, profiled, and given its wPST once; the four
    flows then run on that one prepared program.

    ``telemetry`` (when given) is installed as the ambient sink for the
    whole comparison, so every flow's counters land in one per-workload
    snapshot.  Serial and parallel bench runs both evaluate each workload
    against its own fresh :class:`Telemetry`, which keeps merged counters
    bit-identical regardless of ``--jobs`` (identical additions in
    identical order).
    """
    tele = telemetry if telemetry is not None else current_telemetry()
    workload = get_workload(name)
    flow_seconds: Dict[str, float] = {}
    results: Dict[str, CaymanResult] = {}

    with use_telemetry(tele):
        started = time.perf_counter()
        with tele.span("bench.prepare", workload=name):
            prepared = prepare(workload.source, entry=workload.entry, name=name)
        flow_seconds["prepare"] = time.perf_counter() - started
        for flow in FLOWS:
            started = time.perf_counter()
            with tele.span(f"bench.flow:{flow.name}", workload=name):
                results[flow.name] = run_flow(
                    prepared, flow, **_flow_settings(flow, params)
                )
            flow_seconds[flow.name] = time.perf_counter() - started
    return BenchmarkComparison(
        name=name, suite=workload.suite, flow_seconds=flow_seconds, **results
    )


# Cache keying ------------------------------------------------------------------


#: Auto-generated SSA value names (``%v<N>``, possibly ``.M``-deduplicated by
#: the printer).  Their numbers come from a process-global counter, so they
#: must be canonicalized before the IR text can serve as a content key.
_AUTO_VALUE_NAME = re.compile(r"%v\d+(?:\.\d+)?\b")


def _canonicalize_ir(text: str) -> str:
    """Renumber auto-generated value names by order of first appearance."""
    mapping: Dict[str, str] = {}

    def substitute(match: "re.Match") -> str:
        token = match.group(0)
        if token not in mapping:
            mapping[token] = f"%t{len(mapping)}"
        return mapping[token]

    return _AUTO_VALUE_NAME.sub(substitute, text)


def module_ir_hash(name: str) -> str:
    """SHA-256 of the workload's optimized, name-canonicalized IR text."""
    from ..frontend.lowering import compile_source
    from ..ir.printer import print_module

    workload = get_workload(name)
    module = compile_source(workload.source, name)
    text = _canonicalize_ir(print_module(module))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cache_key(name: str, params: FlowParams, ir_hash: Optional[str] = None) -> str:
    """Content key of one workload evaluation.

    Any change to the workload's optimized IR, the flow parameters, the
    estimator version, or the record schema produces a different key.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "workload": name,
        "ir": ir_hash if ir_hash is not None else module_ir_hash(name),
        "params": params.as_dict(),
        "estimator_version": ESTIMATOR_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# Records ------------------------------------------------------------------------


def budget_metrics(comparison: BenchmarkComparison, budget: float) -> Dict:
    """Table II metrics of one workload under one area budget."""
    best = comparison.cayman.best_under_budget(budget)
    solution = best.solution
    totals = solution.interface_totals()
    cayman_speedup = best.speedup(comparison.cayman.total_seconds)
    novia_speedup = comparison.novia.speedup_under_budget(budget)
    qscores_speedup = comparison.qscores.speedup_under_budget(budget)
    return {
        "over_novia": cayman_speedup / max(novia_speedup, 1e-12),
        "over_qscores": cayman_speedup / max(qscores_speedup, 1e-12),
        "seq_blocks": solution.seq_block_total(),
        "pipelined_regions": solution.pipelined_region_total(),
        "coupled": totals.get("coupled", 0),
        "decoupled": totals.get("decoupled", 0),
        "scratchpad": totals.get("scratchpad", 0),
        "saving_pct": best.saving_pct,
        "cayman_speedup": cayman_speedup,
    }


@dataclass
class WorkloadRecord:
    """Serializable reduction of one workload's four-flow evaluation.

    Everything except ``stage_seconds``/``runtime_seconds`` (wall times) is a
    deterministic function of the cache key's inputs; determinism comparisons
    look only at the deterministic part (see :func:`compare_reports`).
    """

    name: str
    suite: str
    key: str
    estimator_version: str
    #: flow name → {"speedups": {budget: x}, "pareto": [[area, speedup], ...]}
    flows: Dict[str, Dict]
    #: budget key → Table II metrics (see :func:`budget_metrics`).
    table2: Dict[str, Dict]
    #: selector counters for the two Cayman flows.
    selector_stats: Dict[str, Dict[str, int]]
    #: per-stage wall times of the full Cayman flow (``PIPELINE_STAGES``),
    #: plus ``flow_prepare`` and per-flow totals.
    stage_seconds: Dict[str, float]
    runtime_seconds: float

    def speedup(self, flow: str, budget: float) -> float:
        return self.flows[flow]["speedups"][_budget_key(budget)]

    def to_dict(self) -> Dict:
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "name": self.name,
            "suite": self.suite,
            "key": self.key,
            "estimator_version": self.estimator_version,
            "flows": self.flows,
            "table2": self.table2,
            "selector_stats": self.selector_stats,
            "stage_seconds": self.stage_seconds,
            "runtime_seconds": self.runtime_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "WorkloadRecord":
        return cls(
            name=payload["name"],
            suite=payload["suite"],
            key=payload["key"],
            estimator_version=payload["estimator_version"],
            flows=payload["flows"],
            table2=payload["table2"],
            selector_stats=payload["selector_stats"],
            stage_seconds=payload["stage_seconds"],
            runtime_seconds=payload["runtime_seconds"],
        )


def record_from_comparison(
    comparison: BenchmarkComparison, params: FlowParams, key: str
) -> WorkloadRecord:
    flows: Dict[str, Dict] = {}
    for flow in FLOW_NAMES:
        result = comparison.result_for(flow)
        flows[flow] = {
            "speedups": {
                _budget_key(b): result.speedup_under_budget(b)
                for b in params.budgets
            },
            "pareto": [list(point) for point in result.pareto_points()],
        }
    table2 = {
        _budget_key(b): budget_metrics(comparison, b) for b in params.budgets
    }
    stage_seconds = dict(comparison.cayman.stage_seconds)
    for flow, seconds in comparison.flow_seconds.items():
        stage_seconds[f"flow_{flow}"] = seconds
    return WorkloadRecord(
        name=comparison.name,
        suite=comparison.suite,
        key=key,
        estimator_version=ESTIMATOR_VERSION,
        flows=flows,
        table2=table2,
        selector_stats={
            "cayman": comparison.cayman.selector.stats(),
            "coupled_only": comparison.coupled_only.selector.stats(),
        },
        stage_seconds=stage_seconds,
        runtime_seconds=comparison.cayman.runtime_seconds,
    )


# Persistent cache ---------------------------------------------------------------


def _hit_rate(hits: int, misses: int) -> float:
    """``hits / (hits + misses)`` with a zero-total guard."""
    total = hits + misses
    return (hits / total) if total else 0.0


class BenchCache:
    """Content-keyed on-disk store of :class:`WorkloadRecord` JSON blobs."""

    def __init__(self, directory: str = DEFAULT_CACHE_DIR):
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[WorkloadRecord]:
        record = self._load(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def _load(self, key: str) -> Optional[WorkloadRecord]:
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if payload.get("estimator_version") != ESTIMATOR_VERSION:
            return None
        return WorkloadRecord.from_dict(payload)

    def hit_rate(self) -> float:
        return _hit_rate(self.hits, self.misses)

    def stats(self) -> Dict:
        """Disk-level lookup statistics of this cache instance."""
        return {
            "directory": self.directory,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
        }

    def put(self, record: WorkloadRecord) -> None:
        os.makedirs(self.directory, exist_ok=True)
        # Atomic publish so a crashed/parallel writer never leaves a torn
        # JSON file behind.
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f".{record.key[:16]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record.to_dict(), handle, sort_keys=True)
            os.replace(tmp, self._path(record.key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# Process-pool worker (module-level so it pickles) -------------------------------


def _evaluate_workload(
    name: str, params: FlowParams, key: str
) -> Tuple[BenchmarkComparison, WorkloadRecord, Dict]:
    """Evaluate one workload against its own fresh :class:`Telemetry`.

    Every evaluation — serial, pooled, or full-object — goes through here,
    so serial and parallel runs perform identical counter additions in
    identical order.  Returns the comparison, its record, and the
    telemetry snapshot.
    """
    tele = Telemetry()
    comparison = run_comparison(name, params, telemetry=tele)
    record = record_from_comparison(comparison, params, key)
    return comparison, record, tele.snapshot()


def _evaluate_worker(name: str, params_payload: Dict) -> Dict:
    params = FlowParams.from_dict(params_payload)
    _, record, snapshot = _evaluate_workload(
        name, params, cache_key(name, params)
    )
    return {"record": record.to_dict(), "telemetry": snapshot}


# The engine ---------------------------------------------------------------------


class EvaluationEngine:
    """Runs, caches, and parallelizes workload evaluations.

    ``table2``/``fig6`` (through :class:`~.runner.ComparisonRunner`) and
    ``repro bench`` all execute through this engine, so they share one cached
    execution path.
    """

    def __init__(
        self,
        params: Optional[FlowParams] = None,
        cache: Optional[BenchCache] = None,
    ):
        self.params = params or FlowParams()
        self.cache = cache
        self._comparisons: Dict[str, BenchmarkComparison] = {}
        self._records: Dict[str, WorkloadRecord] = {}
        self._keys: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0
        self.hit_names: set = set()
        #: name → deterministic ``Telemetry.snapshot()`` of the workload's
        #: evaluation (absent for cache hits, which never execute the flows).
        self.telemetry_snapshots: Dict[str, Dict] = {}

    # Keys ----------------------------------------------------------------------

    def key_for(self, name: str) -> str:
        if name not in self._keys:
            self._keys[name] = cache_key(name, self.params)
        return self._keys[name]

    # Full-object path (table2/fig6) --------------------------------------------

    def comparison(self, name: str) -> BenchmarkComparison:
        """Full (non-serializable) four-flow results, memoized per process.

        Also derives and persists the workload's record so a later ``bench``
        run over the same cache directory starts warm.
        """
        if name not in self._comparisons:
            self._comparisons[name], _ = self._run(name)
        return self._comparisons[name]

    # Record path (bench) --------------------------------------------------------

    def cached_record(self, name: str) -> Optional[WorkloadRecord]:
        """The workload's record if it is already known, else ``None``."""
        if name in self._records:
            return self._records[name]
        if self.cache is not None:
            record = self.cache.get(self.key_for(name))
            if record is not None:
                self._records[name] = record
                return record
        return None

    def record(self, name: str) -> WorkloadRecord:
        """One workload's record: cache hit or a fresh serial evaluation."""
        cached = self.cached_record(name)
        if cached is not None:
            self.hits += 1
            self.hit_names.add(name)
            return cached
        self.misses += 1
        return self._run(name)[1]

    def evaluate(
        self,
        names: Sequence[str],
        jobs: int = 1,
        progress: Optional[Callable[[str, str], None]] = None,
    ) -> List[WorkloadRecord]:
        """Evaluate many workloads, fanning cache misses across a pool.

        ``progress`` (if given) is called with ``(name, status)`` where
        status is ``"hit"``, ``"run"``, or ``"done"``.  Results come back in
        input order and are identical whether ``jobs`` is 1 or N.
        """
        records: Dict[str, WorkloadRecord] = {}
        missing: List[str] = []
        for name in names:
            cached = self.cached_record(name)
            if cached is not None:
                self.hits += 1
                self.hit_names.add(name)
                records[name] = cached
                if progress:
                    progress(name, "hit")
            else:
                missing.append(name)
                if progress:
                    progress(name, "run")
        if missing:
            self.misses += len(missing)
            if jobs > 1 and len(missing) > 1:
                payload = self.params.as_dict()
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = {
                        name: pool.submit(_evaluate_worker, name, payload)
                        for name in missing
                    }
                    for name in missing:
                        payload_out = futures[name].result()
                        records[name] = WorkloadRecord.from_dict(
                            payload_out["record"]
                        )
                        self._remember(
                            records[name], payload_out["telemetry"]
                        )
                        if progress:
                            progress(name, "done")
            else:
                for name in missing:
                    records[name] = self._run(name)[1]
                    if progress:
                        progress(name, "done")
        return [records[name] for name in names]

    def _run(self, name: str) -> Tuple[BenchmarkComparison, WorkloadRecord]:
        """Evaluate one workload in this process and remember the result."""
        comparison, record, snapshot = _evaluate_workload(
            name, self.params, self.key_for(name)
        )
        self._remember(record, snapshot)
        return comparison, record

    def _remember(self, record: WorkloadRecord, snapshot: Dict) -> None:
        self._records[record.name] = record
        self.telemetry_snapshots[record.name] = snapshot
        if self.cache is not None:
            self.cache.put(record)

    def cache_stats(self) -> Dict:
        stats = {
            "directory": self.cache.directory if self.cache else None,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": _hit_rate(self.hits, self.misses),
        }
        if self.cache is not None:
            stats["disk"] = self.cache.stats()
        return stats

    def telemetry_section(self, names: Sequence[str]) -> Dict:
        """The ``telemetry`` section of a bench report.

        Per-workload snapshots plus their merge, folded in ``names`` order
        so serial and parallel runs produce bit-identical counters (float
        addition is order-sensitive; the order here is fixed by the input
        list, never by completion order).  Cache hits skip evaluation and
        therefore contribute no snapshot.
        """
        ordered = [n for n in names if n in self.telemetry_snapshots]
        return {
            "workloads": {
                name: self.telemetry_snapshots[name] for name in ordered
            },
            "merged": merge_snapshots(
                [self.telemetry_snapshots[name] for name in ordered]
            ),
            "cache": self.cache_stats(),
        }


# Interpreter-throughput probe ---------------------------------------------------


def interp_elision_stats(names: Sequence[str]) -> Dict[str, Dict]:
    """Interpreter throughput: bounds-check elision and engine comparison.

    Runs each workload under the compiled engine twice — all accesses
    checked, then with statically proven accesses elided — and once more
    per engine (reference vs compiled, both elided) so the compile-once
    engine's gain is tracked per PR.  Compiled-engine timings exclude the
    one-time translation cost (``Interpreter.precompile``): the metric is
    steady-state execution throughput.  Wall-clock throughput is
    environment-dependent and never part of determinism comparisons; the
    instruction and elision counts are exact.
    """
    from ..dataflow import BoundsAnalysis
    from ..frontend.lowering import compile_source
    from ..interp.interpreter import Interpreter

    stats: Dict[str, Dict] = {}
    for name in names:
        workload = get_workload(name)
        module = compile_source(workload.source, workload.name)
        bounds = BoundsAnalysis(module)

        def throughput(bounds_arg, engine="compiled"):
            interp = Interpreter(module, bounds=bounds_arg, engine=engine)
            interp.precompile()
            started = time.perf_counter()
            interp.run(workload.entry)
            seconds = max(1e-9, time.perf_counter() - started)
            return interp.instructions / seconds, interp

        # Best of three alternating runs: single-shot timings on a busy
        # host are noisier than the few-percent effect being measured.
        baseline_rate = elided_rate = reference_rate = 0.0
        for _ in range(3):
            rate, _interp = throughput(None)
            baseline_rate = max(baseline_rate, rate)
            rate, elided = throughput(bounds)
            elided_rate = max(elided_rate, rate)
        # The reference engine is an order of magnitude slower; one run is
        # enough for the speedup headline and keeps full-suite probes fast.
        reference_rate, _interp = throughput(bounds, engine="reference")

        proven, total = bounds.module_coverage()
        stats[name] = {
            "instructions": elided.instructions,
            "proven_accesses": proven,
            "total_accesses": total,
            "elided": elided.elided_accesses,
            "checked": elided.checked_accesses,
            "baseline_inst_per_s": baseline_rate,
            "elided_inst_per_s": elided_rate,
            "reference_inst_per_s": reference_rate,
            "compiled_inst_per_s": elided_rate,
            "engine_speedup": (
                elided_rate / reference_rate if reference_rate else 0.0
            ),
        }
    return stats


# Knob ablation over the real estimator -----------------------------------------

#: The :class:`AcceleratorModel` knobs the ``ablation`` section turns off,
#: one at a time.
ABLATION_KNOBS = (
    "narrow_widths", "vector_distances", "prove_banking", "prove_reuse",
)


def _estimate_metrics(estimate) -> Tuple[float, float, int, int]:
    """(cycles, area, summed pipeline II, scratchpad port accesses)."""
    ii = sum(r.ii for r in estimate.reports if r.kind == "pipelined")
    ports = sum(
        1 for a in estimate.config.plan.assignments.values()
        if a.kind is InterfaceKind.SCRATCHPAD and not a.reuse_buffered
    )
    return estimate.cycles, estimate.area, ii, ports


def ablation_stats(
    names: Sequence[str], params: FlowParams
) -> Dict[str, Dict[str, Dict]]:
    """What each estimator knob buys, measured with the estimator itself.

    Per workload the program is prepared once; the default
    :class:`AcceleratorModel` (every knob on) and one model per knob with
    only that knob off then estimate every configuration of every hot
    region — the region vertices the selector explores (candidate regions
    the prune heuristic keeps).  Configurations are matched by (region,
    label); ``*_off`` / ``*_on`` are the totals over the matched ones of
    cycles, area, summed pipeline II, and scratchpad port accesses that
    are not reuse-buffered.  Every field is deterministic, so the whole
    section participates in :func:`compare_reports`.
    """
    stats: Dict[str, Dict[str, Dict]] = {}
    for name in names:
        workload = get_workload(name)
        prepared = prepare(workload.source, entry=workload.entry, name=name)
        prune = PruneHeuristic(prepared.profile, params.prune_threshold)

        def model(**knobs) -> AcceleratorModel:
            return AcceleratorModel(
                prepared.module, prepared.profile, beta=params.beta, **knobs
            )

        default = model()
        hot = [
            node.region for node in prepared.wpst.region_vertices()
            if default.is_candidate_region(node.region)
            and not prune.prune(node)
        ]

        def measure(variant: AcceleratorModel) -> Dict[Tuple[int, str], Tuple]:
            # Keyed by the region's position in ``hot``: region names
            # repeat across functions.
            metrics = {}
            for index, region in enumerate(hot):
                ctx = variant.context(region.function)
                for config in variant.generate_configs(region):
                    estimate = variant.estimate(config, ctx)
                    if estimate is not None:
                        metrics[index, config.label] = _estimate_metrics(
                            estimate
                        )
            return metrics

        on = measure(default)
        stats[name] = {}
        for knob in ABLATION_KNOBS:
            off = measure(model(**{knob: False}))
            keys = [key for key in on if key in off]
            entry = {
                "configs": len(keys),
                "changed": sum(1 for key in keys if on[key] != off[key]),
            }
            for column, (metric, digits) in enumerate(
                (("cycles", 3), ("area", 6), ("ii", 0), ("ports", 0))
            ):
                for side, metrics in (("off", off), ("on", on)):
                    entry[f"{metric}_{side}"] = round(
                        sum(metrics[key][column] for key in keys), digits
                    )
            stats[name][knob] = entry
    return stats


# BENCH_<tag>.json reports -------------------------------------------------------


def build_report(
    records: Sequence[WorkloadRecord],
    engine: EvaluationEngine,
    tag: str,
    wall_seconds: float,
    interp_elision: Optional[Dict[str, Dict]] = None,
    ablation: Optional[Dict[str, Dict]] = None,
    telemetry: Optional[Dict] = None,
) -> Dict:
    """The machine-readable bench payload (see docs/benchmarking.md)."""
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tag": tag,
        "generated_unix": time.time(),
        "params": engine.params.as_dict(),
        "estimator_version": ESTIMATOR_VERSION,
        "cache": engine.cache_stats(),
        "wall_seconds": wall_seconds,
        "workloads": {
            record.name: dict(
                record.to_dict(), cached=(record.name in engine.hit_names)
            )
            for record in records
        },
    }
    if interp_elision is not None:
        payload["interp_elision"] = interp_elision
    if ablation is not None:
        payload["ablation"] = ablation
    if telemetry is None:
        telemetry = engine.telemetry_section([r.name for r in records])
    payload["telemetry"] = telemetry
    return payload


def write_report(payload: Dict, directory: str = ".") -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{payload['tag']}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def compare_reports(left: Dict, right: Dict) -> List[str]:
    """Determinism check: the *deterministic* sections must match bit-for-bit.

    Compares per-workload flow speedups/Pareto series, Table II metrics, and
    selector counters; wall times, cache statistics, and the ``telemetry``
    section (its ``timings`` are wall-clock aggregates, and its coverage
    depends on which workloads were cache hits) are expected to differ
    between runs and are ignored.  Returns human-readable mismatch
    descriptions (empty = identical).
    """
    problems: List[str] = []
    left_workloads = left.get("workloads", {})
    right_workloads = right.get("workloads", {})
    for name in sorted(set(left_workloads) | set(right_workloads)):
        if name not in left_workloads or name not in right_workloads:
            problems.append(f"{name}: present in only one report")
            continue
        a, b = left_workloads[name], right_workloads[name]
        for section in ("key", "flows", "table2", "selector_stats"):
            if a.get(section) != b.get(section):
                problems.append(f"{name}: section {section!r} differs")
    # Per-workload probe sections: ``interp_elision`` on its exact counts
    # (its throughputs are wall clock), ``ablation`` as a whole.  A section
    # is compared only when both reports carry it.
    probes = (
        ("interp_elision", ("instructions", "proven_accesses",
                            "total_accesses", "elided", "checked")),
        ("ablation", None),
    )
    for section, exact in probes:
        left_section = left.get(section)
        right_section = right.get(section)
        if left_section is None or right_section is None:
            continue
        for name in sorted(set(left_section) | set(right_section)):
            a = left_section.get(name)
            b = right_section.get(name)
            if a is None or b is None:
                problems.append(f"{section}/{name}: in only one report")
            elif exact is None:
                if a != b:
                    problems.append(f"{section}/{name}: differs")
            else:
                for key in exact:
                    if a.get(key) != b.get(key):
                        problems.append(
                            f"{section}/{name}: {key} differs "
                            f"({a.get(key)} vs {b.get(key)})"
                        )
    return problems


def default_tag(params: FlowParams) -> str:
    """A short params-derived tag so differing configs never clobber."""
    blob = json.dumps(params.as_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:8]
