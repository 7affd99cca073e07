"""Output checks of the benchmark.

Every check returns a list of failure messages (empty when the output is
correct); the runner counts each failing program as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from typing import Dict, List, Sequence

#: Record fields that are a deterministic function of the program and the
#: flow parameters.  ``stage_seconds``/``runtime_seconds`` are wall times.
DETERMINISTIC_FIELDS = ("flows", "table2", "selector_stats")

#: Relative slack for comparing an area ratio against its budget: the record
#: stores ``area / tile`` while the flow compared ``area <= budget * tile``.
_AREA_EPS = 1e-12


def deterministic_part(record: Dict) -> Dict:
    return {name: record[name] for name in DETERMINISTIC_FIELDS}


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def record_failures(record: Dict) -> List[str]:
    """Invariants one serialized :class:`WorkloadRecord` must satisfy.

    * every flow's Pareto series rises strictly in area and in speedup;
    * every speedup (Pareto point or best-under-budget) is at least 1;
    * every best-under-budget speedup is reached by a Pareto point that fits
      the budget (or is exactly 1, the empty solution);
    * merging never grows area (``saving_pct`` is not negative).
    """
    name = record["name"]
    failures = []
    for flow, data in sorted(record["flows"].items()):
        pareto = data["pareto"]
        for (a0, s0), (a1, s1) in zip(pareto, pareto[1:]):
            if not (a1 > a0 and s1 > s0):
                failures.append(
                    f"{name}/{flow}: Pareto series not strictly rising at "
                    f"({a0}, {s0}) -> ({a1}, {s1})"
                )
        for _, speedup in pareto:
            if speedup < 1.0:
                failures.append(f"{name}/{flow}: Pareto speedup {speedup} < 1")
        for budget_key, speedup in sorted(data["speedups"].items()):
            budget = float(budget_key)
            if speedup < 1.0:
                failures.append(
                    f"{name}/{flow}: speedup {speedup} < 1 at budget {budget}"
                )
                continue
            fits = [
                s for a, s in pareto if a <= budget * (1.0 + _AREA_EPS)
            ]
            if speedup != 1.0 and speedup not in fits:
                failures.append(
                    f"{name}/{flow}: best speedup {speedup} at budget "
                    f"{budget} is not a Pareto point within the budget"
                )
    for budget_key, metrics in sorted(record["table2"].items()):
        if metrics["saving_pct"] < 0.0:
            failures.append(
                f"{name}: merging grew area at budget {budget_key} "
                f"(saving {metrics['saving_pct']}%)"
            )
    return failures


def warm_failures(cold: Dict, warm: Dict) -> List[str]:
    """A record read back from the cache must equal the one written."""
    if cold == warm:
        return []
    changed = sorted(k for k in set(cold) | set(warm) if cold.get(k) != warm.get(k))
    return [f"{cold['name']}: warm record differs from cold in {changed}"]


def comparison_failures(comparison, budgets: Sequence[float], tile: float) -> List[str]:
    """Invariants on the full (in-memory) four-flow results of one program:
    every merged solution's ``area_after <= area_before`` and every
    best-under-budget solution fits its budget."""
    failures = []
    for flow in ("cayman", "coupled_only", "novia", "qscores"):
        result = comparison.result_for(flow)
        for merged in result.merged:
            if merged.area_after > merged.area_before:
                failures.append(
                    f"{comparison.name}/{flow}: merged area "
                    f"{merged.area_after} > unmerged {merged.area_before}"
                )
        for budget in budgets:
            best = result.best_under_budget(budget)
            if best.area_after > budget * tile:
                failures.append(
                    f"{comparison.name}/{flow}: best solution area "
                    f"{best.area_after} exceeds budget {budget * tile}"
                )
    return failures


def geomean(values: Sequence[float]) -> float:
    """Order-independent geometric mean (``fsum`` is exactly rounded, so the
    seed's evaluation order cannot change the last bits)."""
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


class DeterminismStore:
    """Deterministic outputs seen by earlier runs of the same source tree.

    The store lives in the benchmark's work directory and is keyed by a hash
    of every source file, so runs over one checkout (any seed, any process)
    must agree exactly, while a different source tree starts afresh.
    """

    def __init__(self, work_dir: str, src_dir: str):
        self.path = os.path.join(work_dir, f"determinism-{tree_hash(src_dir)[:24]}.json")
        try:
            with open(self.path) as handle:
                self.seen = json.load(handle)
        except (OSError, ValueError):
            self.seen = {}

    def check(self, key: str, value) -> List[str]:
        """Record ``value`` under ``key`` or compare it with an earlier run."""
        value = json.loads(json.dumps(value))
        if key not in self.seen:
            self.seen[key] = value
            return []
        if self.seen[key] == value:
            return []
        return [f"{key}: differs from an earlier run ({self.seen[key]} != {value})"]

    def save(self) -> None:
        directory = os.path.dirname(self.path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            json.dump(self.seen, handle, sort_keys=True)
        os.replace(tmp, self.path)


def tree_hash(directory: str) -> str:
    sha = hashlib.sha256()
    for base, dirs, files in os.walk(directory):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(base, filename)
            sha.update(os.path.relpath(path, directory).encode("utf-8"))
            with open(path, "rb") as handle:
                sha.update(handle.read())
    return sha.hexdigest()


def oracle_failures(name: str) -> List[str]:
    """Compiled (profiling) engine against the reference interpreter: equal
    return value and equal bytes in every ``Workload.outputs`` array."""
    from repro.frontend.lowering import compile_source
    from repro.interp.interpreter import Interpreter
    from repro.ir.types import sizeof
    from repro.workloads import get_workload

    workload = get_workload(name)
    module = compile_source(workload.source, name)
    runs = {}
    for engine in ("compiled", "reference"):
        interp = Interpreter(module, profile=(engine == "compiled"), engine=engine)
        result = interp.run(workload.entry)
        arrays = {}
        for output in workload.outputs:
            var = module.get_global(output)
            address = interp.address_of_global(output)
            arrays[output] = bytes(
                interp.memory.data[address:address + sizeof(var.allocated_type)]
            )
        runs[engine] = (result, arrays)
    failures = []
    (got, got_arrays), (want, want_arrays) = runs["compiled"], runs["reference"]
    if got != want:
        failures.append(f"{name}: return value {got} != reference {want}")
    for output in workload.outputs:
        if got_arrays[output] != want_arrays[output]:
            failures.append(f"{name}: output array {output} differs from reference")
    return failures
