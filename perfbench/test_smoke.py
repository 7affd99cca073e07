"""Smoke test of the benchmark: one program per workload, every metric
printed with its unit, and corrupted outputs counted as failed operations.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, run.SRC)

#: The cheapest program of each workload.
SMOKE_PROGRAMS = {
    "merge-heavy": "linear-alg-mid-100x100-sp",
    "estimate-heavy": "stencil-reuse-3",
    "frontend-heavy": "bitwidth-adversary",
}


def printed_result(capsys, result):
    run.emit(result)
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_metrics_printed(lines, payload, expected_units):
    assert payload["correct"] is True
    assert payload["failed"] == 0
    assert payload["attempted"] >= 1
    assert {n: m["unit"] for n, m in payload["metrics"].items()} == expected_units
    for name, unit in expected_units.items():
        assert any(line.split()[0] == name and line.split()[-1] == unit
                   for line in lines), name


@pytest.mark.parametrize("workload", sorted(SMOKE_PROGRAMS))
def test_end_to_end_metrics(capsys, workload):
    result = run.run(workload, [SMOKE_PROGRAMS[workload]], seed=0,
                     seconds=0, trace=False)
    lines, payload = printed_result(capsys, result)
    assert_metrics_printed(lines, payload, run.END_TO_END)
    for name in ("eval_s", "warm_eval_s", "setup_s", "peak_rss_mb"):
        assert payload["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", sorted(SMOKE_PROGRAMS))
def test_per_layer_metrics(capsys, workload):
    result = run.run(workload, [SMOKE_PROGRAMS[workload]], seed=0,
                     seconds=0, trace=True)
    lines, payload = printed_result(capsys, result)
    units = {name: unit for name, (unit, _) in replay.PER_LAYER.items()}
    assert_metrics_printed(lines, payload, units)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        replay.PER_LAYER
    )


@pytest.fixture
def evaluation(tmp_path):
    store = checks.DeterminismStore(str(tmp_path), run.SRC)
    return run.Evaluation(["stencil-reuse-3"], str(tmp_path), run.Tally(), store)


def test_speedup_below_one_is_a_failed_operation(evaluation, monkeypatch):
    from repro.reporting import bench

    original = bench.record_from_comparison

    def corrupted(*args, **kwargs):
        record = original(*args, **kwargs)
        record.flows["cayman"]["speedups"]["0.25"] = 0.5
        return record

    monkeypatch.setattr(bench, "record_from_comparison", corrupted)
    assert evaluation.cold() is not None
    assert (evaluation.tally.attempted, evaluation.tally.failed) == (1, 1)


def test_warm_record_differing_from_cold_is_a_failed_operation(evaluation):
    _, cache_dir, records = evaluation.cold()
    assert evaluation.tally.failed == 0
    (entry,) = [f for f in os.listdir(cache_dir) if f.endswith(".json")]
    path = os.path.join(cache_dir, entry)
    with open(path) as handle:
        stored = json.load(handle)
    stored["table2"]["0.65"]["saving_pct"] += 1.0
    with open(path, "w") as handle:
        json.dump(stored, handle)
    evaluation.warm(cache_dir, records)
    assert evaluation.tally.failed == run.WARM_REPEATS


def test_determinism_store_flags_a_changed_output(tmp_path):
    store = checks.DeterminismStore(str(tmp_path), run.SRC)
    assert store.check("record:x", "aa") == []
    store.save()
    again = checks.DeterminismStore(str(tmp_path), run.SRC)
    assert again.check("record:x", "aa") == []
    assert again.check("record:x", "bb") != []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "merge-heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
