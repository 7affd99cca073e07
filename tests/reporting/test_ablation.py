"""Tests for the ``ablation`` bench section: each estimator knob turned off
in the real :class:`AcceleratorModel`, on the CI smoke workloads.

Each test pins one measured effect of a knob: what it buys, and where
the estimator disagrees with what an earlier hand-built probe claimed.
Those disagreements are real, and these tests record them as they stand.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.reporting.bench import (
    ABLATION_KNOBS,
    EvaluationEngine,
    FlowParams,
    ablation_stats,
    build_report,
    compare_reports,
)

NAMES = [
    "trisolv", "bicg", "atax", "seidel-1d", "conv-dilated",
    "iir-interleaved", "wave-lag", "stride2-collider", "bank-transpose",
    "stencil-reuse-3", "fwd-store-load", "reuse-breaker",
]
METRICS = ("cycles", "area", "ii", "ports")


@pytest.fixture(scope="module")
def section():
    return ablation_stats(NAMES, FlowParams())


def report_with(section=None):
    return build_report(
        [], engine=EvaluationEngine(FlowParams()), tag="t",
        wall_seconds=0.0, ablation=section,
    )


class TestShape:
    def test_every_workload_and_knob_present(self, section):
        assert list(section) == NAMES
        for knobs in section.values():
            assert tuple(knobs) == ABLATION_KNOBS

    def test_counts_are_exact_ints(self, section):
        for knobs in section.values():
            for entry in knobs.values():
                for key in ("configs", "changed", "ii_off", "ii_on",
                            "ports_off", "ports_on"):
                    assert isinstance(entry[key], int), key
                assert 0 <= entry["changed"] <= entry["configs"]
                assert entry["configs"] > 0

    def test_unchanged_knob_leaves_every_total_equal(self, section):
        for knobs in section.values():
            for entry in knobs.values():
                if entry["changed"] == 0:
                    for metric in METRICS:
                        assert entry[f"{metric}_off"] == entry[f"{metric}_on"]


class TestNarrowWidths:
    @pytest.mark.parametrize("name", NAMES)
    def test_area_falls_at_equal_cycles_and_ii(self, section, name):
        entry = section[name]["narrow_widths"]
        assert entry["area_on"] < entry["area_off"]
        assert entry["cycles_on"] == entry["cycles_off"]
        assert entry["ii_on"] == entry["ii_off"]
        assert entry["ports_on"] == entry["ports_off"]

    def test_bicg_saves_about_a_quarter(self, section):
        entry = section["bicg"]["narrow_widths"]
        assert 0.25 < 1 - entry["area_on"] / entry["area_off"] < 0.28

    def test_trisolv_total_area_barely_moves(self, section):
        # Narrowing shrinks trisolv's functional units a lot, but they are
        # a sliver of the total: interfaces and control dominate.
        entry = section["trisolv"]["narrow_widths"]
        assert 0 < 1 - entry["area_on"] / entry["area_off"] < 0.01


class TestVectorDistances:
    @pytest.mark.parametrize("name, drop", [
        ("seidel-1d", 72), ("conv-dilated", 96), ("iir-interleaved", 96),
    ])
    def test_ii_and_cycles_fall(self, section, name, drop):
        entry = section[name]["vector_distances"]
        assert entry["ii_off"] - entry["ii_on"] == drop
        assert entry["cycles_on"] < entry["cycles_off"]

    def test_wave_lag_cycles_rise(self, section):
        # Without vectors the 1-D test drops the lag-6 dependence and
        # unrolls ``upd`` x8 past it; the proven distance forbids that.
        entry = section["wave-lag"]["vector_distances"]
        assert entry["cycles_on"] > entry["cycles_off"]

    def test_wave_lag_summed_ii_falls(self, section):
        # The summed II falls even so (the u8 pipelines are no longer
        # unrolled), which is why wave-lag is gated on cycles, not II.
        entry = section["wave-lag"]["vector_distances"]
        assert entry["ii_off"] - entry["ii_on"] == 27


class TestProveBanking:
    def test_collider_ii_and_cycles_rise(self, section):
        entry = section["stride2-collider"]["prove_banking"]
        assert entry["ii_on"] - entry["ii_off"] == 8
        assert entry["cycles_on"] > entry["cycles_off"]

    @pytest.mark.parametrize("name", ["trisolv", "bank-transpose", "wave-lag"])
    def test_proven_workloads_unchanged(self, section, name):
        entry = section[name]["prove_banking"]
        assert entry["ports_on"] > 0
        assert entry["changed"] == 0

    @pytest.mark.parametrize("name", ["bicg", "atax"])
    def test_broadcast_workloads_regress(self, section, name):
        # The broadcast load proves to one bank, but the port model does
        # not collapse its lane replicas onto that bank's single address.
        entry = section[name]["prove_banking"]
        assert entry["ii_on"] > entry["ii_off"]
        assert entry["cycles_on"] > entry["cycles_off"]


class TestProveReuse:
    def test_wave_lag_ports_ii_and_cycles_fall(self, section):
        entry = section["wave-lag"]["prove_reuse"]
        assert (entry["ports_off"], entry["ports_on"]) == (24, 16)
        assert entry["ii_off"] - entry["ii_on"] == 4
        assert entry["cycles_on"] < entry["cycles_off"]

    def test_reuse_breaker_unchanged(self, section):
        assert section["reuse-breaker"]["prove_reuse"]["changed"] == 0

    @pytest.mark.parametrize("name", ["stencil-reuse-3", "fwd-store-load"])
    def test_reuse_workloads_get_no_scratchpad_at_default_beta(
        self, section, name
    ):
        entry = section[name]["prove_reuse"]
        assert entry["ports_off"] == entry["ports_on"] == 0
        assert entry["changed"] == 0

    def test_trisolv_buffering_only_costs(self, section):
        entry = section["trisolv"]["prove_reuse"]
        assert (entry["ports_off"], entry["ports_on"]) == (40, 24)
        assert entry["ii_on"] == entry["ii_off"]
        assert entry["cycles_on"] - entry["cycles_off"] == 384
        assert entry["area_on"] > entry["area_off"]


class TestDeterminism:
    def test_recomputation_identical(self, section):
        names = ["wave-lag", "trisolv"]
        assert ablation_stats(names, FlowParams()) == {
            name: section[name] for name in names
        }

    def test_identical_under_another_hash_seed(self, section):
        script = (
            "import json\n"
            "from repro.reporting.bench import FlowParams, ablation_stats\n"
            "print(json.dumps(ablation_stats(['wave-lag'], FlowParams())))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONHASHSEED="3", PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert json.loads(out)["wave-lag"] == section["wave-lag"]

    def test_json_round_trips(self, section):
        assert json.loads(json.dumps(section)) == section


class TestReportWiring:
    def test_build_report_carries_section(self, section):
        assert report_with(section)["ablation"] == section

    def test_build_report_omits_when_disabled(self):
        assert "ablation" not in report_with(None)

    def test_compare_reports_flags_perturbed_entry(self, section):
        left = report_with(section)
        right = copy.deepcopy(left)
        assert compare_reports(left, right) == []
        right["ablation"]["stride2-collider"]["prove_banking"]["ii_on"] += 1
        problems = compare_reports(left, right)
        assert any("ablation/stride2-collider" in p for p in problems)

    def test_compare_reports_flags_missing_workload(self, section):
        left = report_with(section)
        right = copy.deepcopy(left)
        del right["ablation"]["trisolv"]
        problems = compare_reports(left, right)
        assert any("ablation/trisolv" in p for p in problems)

    def test_section_in_one_report_only_is_not_compared(self, section):
        assert compare_reports(report_with(section), report_with(None)) == []


def test_cli_writes_ablation_and_count_zero_skips_probe(tmp_path, capsys):
    argv = ["bench", "trisolv", "--no-cache", "--quiet",
            "--output-dir", str(tmp_path), "--tag", "t",
            "--interp-bench-count", "0", "--ablation-count", "1"]
    assert main(argv) == 0
    assert "ablate trisolv prove_reuse: " in capsys.readouterr().out
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(report["ablation"]) == ["trisolv"]
    assert "interp_elision" not in report
