"""The estimator's per-context memo (DFGs, schedules, unit pricing) must
never change an estimate: every configuration estimated on a shared,
warm context equals its estimate on a fresh one, whatever order the
configurations come in."""

import collections
import copy
from dataclasses import replace

import pytest

from repro.framework import prepare
from repro.hls.dfg import DFG
from repro.model import AcceleratorModel, InterfaceKind, InterfacePlan
from repro.reporting.bench import FlowParams, run_comparison
from repro.selection.pruning import PruneHeuristic
from repro.telemetry import Telemetry
from repro.workloads import get_workload

from ..conftest import FIG2_SOURCE

#: A carried dependence at distance 4 inside a nest: unrolling the inner
#: loop by 4 leaves a distance-1 recurrence, unrolling the outer one keeps
#: distance 4 at the same replication.
LAGGED_NEST_SOURCE = """
int A[16][40];
void lag(int n) {
  for (int i = 0; i < 16; i++) {
    for (int j = 0; j < n; j++) { A[i][j + 4] = A[i][j] * 3 + 1; }
  }
}
int main() {
  for (int r = 0; r < 4; r++) { lag(32); }
  return 0;
}
"""

SOURCES = {"fig2": FIG2_SOURCE, "lagged-nest": LAGGED_NEST_SOURCE}

WORKLOADS = (
    "fig2", "atax", "wave-lag", "stride2-collider", "stencil-reuse-3",
    "trisolv", "lagged-nest",
)


def _prepared(name):
    if name in SOURCES:
        return prepare(SOURCES[name], name=name)
    workload = get_workload(name)
    return prepare(workload.source, entry=workload.entry, name=name)


def _unmemoized(ctx):
    """``ctx``'s analyses (the same loops, accesses and proofs the configs
    were built against) with an empty memo."""
    fresh = copy.copy(ctx)
    fresh._dfgs, fresh.sequential_units, fresh.pipelined_units = {}, {}, {}
    return fresh


def _fingerprint(estimate):
    if estimate is None:
        return None
    return (
        estimate.cycles, estimate.area, estimate.breakdown, estimate.reports,
        [(name, len(dfg)) for name, dfg in estimate.units],
    )


def _variants(config):
    """``config`` plus copies that each differ from it in one field a memo
    key must hold: every scratchpad port doubled (same timings), every
    reuse tap dropped (the load is back on its port), no loop pipelined
    (every block sequential), every coupled access on the scan chain
    (another port, same multiplicity), and each inner unroll moved onto
    the parent loop (same replication, other recurrence distances)."""
    variants = [config]

    def with_plan(change):
        plan = InterfacePlan()
        for assignment in config.plan.assignments.values():
            plan.assign(change(assignment))
        return replace(config, plan=plan)

    if any(a.kind is InterfaceKind.SCRATCHPAD
           for a in config.plan.assignments.values()):
        variants.append(with_plan(lambda a: replace(a, partitions=2 * a.partitions)
                                  if a.kind is InterfaceKind.SCRATCHPAD else a))
    if any(a.reuse_buffered for a in config.plan.assignments.values()):
        variants.append(with_plan(lambda a: replace(
            a, reuse_source=None, reuse_distance=None, reuse_depth=0,
        )))
    variants.append(replace(config, loop_plans={
        loop: replace(plan, pipelined=False)
        for loop, plan in config.loop_plans.items()
    }))
    if any(a.kind is InterfaceKind.COUPLED
           for a in config.plan.assignments.values()):
        variants.append(with_plan(lambda a: replace(
            a, kind=InterfaceKind.SCANCHAIN,
        ) if a.kind is InterfaceKind.COUPLED else a))
    plans = {loop: replace(plan) for loop, plan in config.loop_plans.items()}
    moved = False
    for loop, plan in plans.items():
        parent = plans.get(loop.parent)
        if plan.pipelined and plan.unroll > 1 and parent is not None:
            parent.unroll *= plan.unroll
            plan.unroll = 1
            moved = True
    if moved:
        variants.append(replace(config, loop_plans=plans))
    return variants


@pytest.fixture(scope="module", params=WORKLOADS)
def configs(request):
    """[(config, context, fingerprint on a fresh context)] over every
    config of the workload's hot regions and its :func:`_variants`."""
    prepared = _prepared(request.param)
    model = AcceleratorModel(prepared.module, prepared.profile)
    prune = PruneHeuristic(prepared.profile, FlowParams().prune_threshold)
    entries = []
    for node in prepared.wpst.region_vertices():
        region = node.region
        if not model.is_candidate_region(region) or prune.prune(node):
            continue
        ctx = model.context(region.function)
        for generated in model.generate_configs(region):
            for config in _variants(generated):
                fresh = _fingerprint(model.estimate(config, _unmemoized(ctx)))
                entries.append((config, ctx, fresh))
    assert entries
    return model, entries


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_memo_never_changes_an_estimate(configs, order):
    model, entries = configs
    if order == "reversed":
        entries = entries[::-1]
    # One shared context per function, starting from an empty memo.
    shared = {}
    for config, ctx, expected in entries:
        if ctx not in shared:
            shared[ctx] = _unmemoized(ctx)
        estimate = model.estimate(config, shared[ctx])
        assert _fingerprint(estimate) == expected, config.describe()
    # The memo was exercised: more estimates than schedules.
    schedules = sum(
        len(ctx.sequential_units) + len(ctx.pipelined_units)
        for ctx in shared.values()
    )
    assert 0 < schedules < len(entries)


def test_each_block_tuple_built_once_per_context(monkeypatch):
    """On 3mm the three model flows of one comparison share their
    contexts, and each context builds each block tuple's DFG once (the
    estimator used to build 1020 DFGs over 33 distinct tuples)."""
    builds = collections.Counter()
    from_blocks = DFG.from_blocks.__func__

    def counting(cls, blocks, may_alias=None, **kwargs):
        # Estimator builds pass the context's may_alias; NOVIA's do not.
        if may_alias is not None:
            builds[may_alias.__self__, tuple(blocks)] += 1
        return from_blocks(cls, blocks, may_alias=may_alias, **kwargs)

    monkeypatch.setattr(DFG, "from_blocks", classmethod(counting))
    tele = Telemetry()
    run_comparison("3mm", FlowParams(), telemetry=tele)
    counters = tele.snapshot()["counters"]

    assert set(builds.values()) == {1}
    assert counters["model.dfg_builds"] == len(builds) == 33
    assert len({ctx for ctx, _ in builds}) == 4  # one per function
    assert counters["model.dfg_builds"] <= counters["model.configs_generated"]
    assert 0 < counters["model.schedules"] < counters["model.configs_generated"]
