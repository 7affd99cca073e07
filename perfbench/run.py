"""Benchmark of the Cayman reproduction's four-flow evaluation.

Each workload is a list of registry programs.  One run evaluates them cold,
serially, through the engine that ``repro bench``, ``table2`` and ``fig6``
share -- ``EvaluationEngine(FlowParams(), cache=BenchCache(<empty dir>))
.evaluate(names, jobs=1)`` -- and again warm from the cache it filled, and
checks every record.  Each timing is the median of its repeats in the run.
``--trace 1`` instead replays the flows one layer call
at a time (``replay.py``) and reports per-layer times and work counters.

    python3 perfbench/run.py --workload merge-heavy --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout, without ``python -O`` (the flow's own
assertions are part of what is checked).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Sequence

import checks
import replay

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

#: Workload → programs.  The shares are of the full-Cayman flow's time.
WORKLOADS = {
    # AcceleratorMerger.merge is ~55% of the Cayman flow: one pass makes
    # ~80k pair-saving evaluations and ~3k merge steps.
    "merge-heavy": (
        "cjpeg-rose7-preset", "epic", "linear-alg-mid-100x100-sp",
    ),
    # Estimation plus DP (CandidateSelector.run) is ~55%, merging ~15%; the
    # proof-stress programs run the dependence, banking and reuse proofs.
    "estimate-heavy": (
        "fft", "md", "spmv", "nw", "symm", "trmm", "trisolv",
        "seidel-1d", "wave-lag", "stride2-collider", "bank-transpose",
        "stencil-reuse-3",
    ),
    # compile_source + profile_module is about half of every flow and all
    # four flows repeat it; merging is ~4%.
    "frontend-heavy": ("parser-125k", "zip-test", "bitwidth-adversary"),
}

#: End-to-end metrics (tracing off): name → unit.
END_TO_END = {
    "eval_s": "s",
    "warm_eval_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cayman_speedup.b025": "x",
    "cayman_speedup.b065": "x",
    "area_saving_pct.b065": "%",
}

#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 5
#: Warm re-evaluations timed after every cold pass.
WARM_REPEATS = 10

_SETUP_PROBE = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro
from repro.reporting.bench import BenchCache, EvaluationEngine, FlowParams
from repro.workloads import workload_names
workload_names()
EvaluationEngine(FlowParams(), cache=BenchCache(sys.argv[2]))
print(time.perf_counter() - started)
"""


class Tally:
    """Operations attempted and failed; a failure is never retried."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, failures: Sequence[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for message in failures:
                print(f"FAILED: {message}", file=sys.stderr)

    def crashed(self, what: str, count: int) -> None:
        """``count`` operations lost to one exception raised by the flow."""
        self.attempted += count
        self.failed += count
        print(f"FAILED: {what} raised:", file=sys.stderr)
        traceback.print_exc()


def measure_setup(cache_dir: str) -> float:
    """Median time of a fresh process to import ``repro``, load the
    workload registry and build the engine."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, SRC, cache_dir],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Evaluation:
    """Cold and warm evaluation passes over one workload's programs."""

    def __init__(self, order: Sequence[str], run_dir: str, tally: Tally,
                 store: checks.DeterminismStore):
        from repro.reporting.bench import FlowParams

        self.order = list(order)
        self.run_dir = run_dir
        self.tally = tally
        self.store = store
        self.params = FlowParams()
        #: name → record dict of the first successful cold pass.
        self.reference: Dict[str, Dict] = {}

    def _engine(self, cache_dir: str):
        from repro.reporting.bench import BenchCache, EvaluationEngine

        return EvaluationEngine(self.params, cache=BenchCache(cache_dir))

    def cold(self):
        """One timed cold pass into a fresh cache; returns ``(seconds,
        cache_dir, records)`` or ``None`` when the flow raised."""
        cache_dir = tempfile.mkdtemp(dir=self.run_dir, prefix="cache-")
        engine = self._engine(cache_dir)
        gc.collect()
        try:
            started = time.perf_counter()
            records = engine.evaluate(self.order, jobs=1)
            seconds = time.perf_counter() - started
        except Exception:
            self.tally.crashed("cold evaluation", len(self.order))
            return None
        print(f"cold pass: {seconds:.3f} s", file=sys.stderr)
        records = {r.name: r.to_dict() for r in records}
        for name in self.order:
            record = records[name]
            failures = checks.record_failures(record)
            part = checks.deterministic_part(record)
            self.reference.setdefault(name, record)
            if part != checks.deterministic_part(self.reference[name]):
                failures.append(f"{name}: record differs from an earlier pass")
            failures += self.store.check(f"record:{name}", checks.digest(part))
            self.tally.add(failures)
        return seconds, cache_dir, records

    def warm(self, cache_dir: str, cold_records: Dict[str, Dict]) -> List[float]:
        """Re-evaluate from the filled cache with fresh engines."""
        times = []
        for _ in range(WARM_REPEATS):
            engine = self._engine(cache_dir)
            gc.collect()
            try:
                started = time.perf_counter()
                records = engine.evaluate(self.order, jobs=1)
                times.append(time.perf_counter() - started)
            except Exception:
                self.tally.crashed("warm evaluation", len(self.order))
                continue
            for record in records:
                failures = checks.warm_failures(
                    cold_records[record.name], record.to_dict()
                )
                if record.name not in engine.hit_names:
                    failures.append(f"{record.name}: warm evaluation missed the cache")
                self.tally.add(failures)
        return times

    def quality(self) -> Dict[str, float]:
        """Accelerator-quality metrics over the programs, in name order."""
        records = [self.reference[name] for name in sorted(self.reference)]
        metrics = {
            "cayman_speedup.b025": checks.geomean(
                [_at(r["flows"]["cayman"]["speedups"], 0.25) for r in records]
            ),
            "cayman_speedup.b065": checks.geomean(
                [_at(r["flows"]["cayman"]["speedups"], 0.65) for r in records]
            ),
            "area_saving_pct.b065": checks.mean(
                [_at(r["table2"], 0.65)["saving_pct"] for r in records]
            ),
        }
        key = "quality:" + ",".join(sorted(self.reference))
        for failure in self.store.check(key, metrics):
            self.tally.add([failure])
        return metrics


def _at(by_budget: Dict, budget: float):
    """The entry of a budget-keyed record section for ``budget``."""
    for key, value in by_budget.items():
        if float(key) == budget:
            return value
    raise KeyError(budget)


def end_to_end(evaluation: Evaluation, seconds: float, setup_s: float) -> Dict[str, float]:
    cold_times, warm_times = [], []
    started = time.perf_counter()
    while not cold_times or time.perf_counter() - started < seconds:
        cold = evaluation.cold()
        if cold is None:
            if time.perf_counter() - started >= seconds:
                break
            continue
        cold_s, cache_dir, records = cold
        cold_times.append(cold_s)
        warm_times += evaluation.warm(cache_dir, records)
        shutil.rmtree(cache_dir, ignore_errors=True)
    metrics = {
        "eval_s": statistics.median(cold_times) if cold_times else 0.0,
        "warm_eval_s": statistics.median(warm_times) if warm_times else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if evaluation.reference:
        metrics.update(evaluation.quality())
    return metrics


def per_layer(evaluation: Evaluation, seconds: float, trace_path: str) -> Dict[str, float]:
    """Untraced cold pass for ``eval_s``, then traced replays until
    ``seconds`` have passed; reports the median of each layer metric."""
    from repro.hls.techlib import CVA6_TILE_AREA_UM2

    cold = evaluation.cold()
    if cold is None:
        return {}
    eval_s, cache_dir, e2e_records = cold
    shutil.rmtree(cache_dir, ignore_errors=True)
    samples: Dict[str, List[float]] = {}
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < seconds:
        spans, counters = replay.Spans(), collections.Counter()
        for name in evaluation.order:
            cache_dir = tempfile.mkdtemp(dir=evaluation.run_dir, prefix="replay-")
            gc.collect()
            try:
                comparison, record, cached = replay.replay_program(
                    name, evaluation.params, spans, counters, cache_dir
                )
            except Exception:
                evaluation.tally.crashed(f"traced replay of {name}", 1)
                continue
            record = record.to_dict()
            failures = checks.record_failures(record)
            failures += checks.comparison_failures(
                comparison, evaluation.params.budgets, CVA6_TILE_AREA_UM2
            )
            failures += checks.warm_failures(record, cached.to_dict())
            if checks.deterministic_part(record) != checks.deterministic_part(
                e2e_records[name]
            ):
                failures.append(
                    f"{name}: traced replay's record differs from the engine's"
                )
            evaluation.tally.add(failures)
        for metric, value in replay.layer_metrics(spans, counters, eval_s).items():
            samples.setdefault(metric, []).append(value)
        if evaluation.tally.failed:
            break
    spans.write(trace_path)
    for name in evaluation.order:
        try:
            evaluation.tally.add(checks.oracle_failures(name))
        except Exception:
            evaluation.tally.crashed(f"reference oracle on {name}", 1)
    return {metric: statistics.median(values) for metric, values in samples.items()}


def run(workload: str, programs: Sequence[str], seed: int, seconds: float,
        trace: bool) -> Dict:
    """Measure one workload; returns the result object that is printed."""
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=WORK_DIR, prefix="run-")
    try:
        setup_s = 0.0 if trace else measure_setup(run_dir)
        order = list(programs)
        random.Random(seed).shuffle(order)
        tally = Tally()
        store = checks.DeterminismStore(WORK_DIR, SRC)
        evaluation = Evaluation(order, run_dir, tally, store)
        # Untimed warm-up: lazy imports and first-call costs land here,
        # not in the first timed pass.
        warm_up = evaluation.cold()
        if warm_up is not None:
            shutil.rmtree(warm_up[1], ignore_errors=True)
        if trace:
            trace_path = os.path.join(
                WORK_DIR, "traces", f"{workload}-seed{seed}-{os.getpid()}.json"
            )
            values = per_layer(evaluation, seconds, trace_path)
            units = {name: unit for name, (unit, _) in replay.PER_LAYER.items()}
        else:
            values = end_to_end(evaluation, seconds, setup_s)
            units = END_TO_END
        store.save()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    missing = [name for name in units if name not in values]
    if missing:
        tally.add([f"metrics not measured: {missing}"])
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }


def emit(result: Dict) -> None:
    """Print each metric by name with its unit, then the JSON result line."""
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'operations failed':32s} {result['failed']:>16d} of {result['attempted']}")
    print(json.dumps(result), flush=True)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O; the flow's assertions are checked",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Keep the measured process (and the set-up probes it starts) on one
    # CPU, the last one it may use: CPU 0 takes the machine's interrupts and
    # housekeeping, and a process that lands there runs measurably slower.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run(args.workload, WORKLOADS[args.workload], args.seed,
                 args.seconds, bool(args.trace))
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
