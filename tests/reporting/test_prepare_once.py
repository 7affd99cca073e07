"""The four-flow comparison prepares each program once — one compile, one
profile, one wPST — and runs every flow on it; the three model-based flows
also share one set of model analyses.  Its results must equal four
independent runs from source."""

import collections

import pytest

from repro.baselines import Novia, QsCores
from repro.dataflow import ModuleIntervalAnalysis
from repro.framework import PIPELINE_STAGES, Cayman
from repro.reporting import bench
from repro.reporting.bench import (
    FLOW_NAMES,
    BenchmarkComparison,
    FlowParams,
    record_from_comparison,
    run_comparison,
)
from repro.model import FunctionContext
from repro.telemetry import Telemetry, current
from repro.workloads import Workload, get_workload

from ..conftest import FIG2_SOURCE

FIG2 = Workload(
    name="fig2", suite="paper", description="paper Fig. 2 example",
    source=FIG2_SOURCE,
)

#: Record sections that are a deterministic function of the program.
DETERMINISTIC = ("flows", "table2", "selector_stats")


def _workload(name):
    return FIG2 if name == "fig2" else get_workload(name)


@pytest.fixture(params=["fig2", "atax", "wave-lag", "epic"])
def name(request, monkeypatch):
    monkeypatch.setattr(bench, "get_workload", _workload)
    return request.param


def _deterministic(record):
    return {section: getattr(record, section) for section in DETERMINISTIC}


def test_shared_preparation_matches_independent_runs(name):
    params = FlowParams()
    tele = Telemetry()
    shared = run_comparison(name, params, telemetry=tele)

    workload = _workload(name)

    def run(runner):
        return runner.run(workload.source, entry=workload.entry, name=name)

    independent = BenchmarkComparison(
        name=name,
        suite=workload.suite,
        cayman=run(Cayman()),
        coupled_only=run(Cayman(coupled_only=True)),
        novia=run(Novia()),
        qscores=run(QsCores()),
    )
    record = record_from_comparison(shared, params, key="")
    assert _deterministic(record) == _deterministic(
        record_from_comparison(independent, params, key="")
    )

    # One preparation: a single compile, profile, and wPST for all flows.
    assert tele.snapshot()["counters"]["interp.runs"] == 1
    spans = [span.name for span in tele.walk_spans()]
    for once in ("bench.prepare", "frontend.parse", "stage:compile",
                 "stage:profile", "stage:wpst"):
        assert spans.count(once) == 1, once
    for flow in FLOW_NAMES:
        assert spans.count(f"bench.flow:{flow}") == 1
        assert shared.result_for(flow).wpst is shared.cayman.wpst

    # The preparation is timed once; the full Cayman flow's stage times
    # still cover it.
    assert record.stage_seconds["flow_prepare"] >= 0.0
    for stage in PIPELINE_STAGES[:-1]:
        assert record.stage_seconds[stage] >= 0.0



def test_model_flows_share_one_analysis_set(name, monkeypatch):
    dataflow_built_in = []  # the span each module interval analysis ran in
    contexts = collections.Counter()  # FunctionContexts built per function
    interval_init = ModuleIntervalAnalysis.__init__
    context_init = FunctionContext.__init__

    def counting_interval_init(self, *args, **kwargs):
        dataflow_built_in.append(current().active_span.name)
        interval_init(self, *args, **kwargs)

    def counting_context_init(self, func, *args, **kwargs):
        contexts[func] += 1
        context_init(self, func, *args, **kwargs)

    monkeypatch.setattr(ModuleIntervalAnalysis, "__init__", counting_interval_init)
    monkeypatch.setattr(FunctionContext, "__init__", counting_context_init)
    shared = run_comparison(name, FlowParams(), telemetry=Telemetry())

    models = [
        shared.result_for(flow).selector.model
        for flow in ("cayman", "coupled_only", "qscores")
    ]
    assert all(model.analyses is models[0].analyses for model in models)
    # Module dataflow is built once, in the first flow's analysis stage.
    assert dataflow_built_in.count("stage:analysis") == 1
    # Each function's context is built once and serves all three flows.
    assert contexts and set(contexts.values()) == {1}
    for func in contexts:
        assert len({id(model.context(func)) for model in models}) == 1
