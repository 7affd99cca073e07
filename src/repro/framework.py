"""Cayman end-to-end driver (paper Fig. 1).

Pipeline: mini-C source (or IR module) → wPST construction → profiling and
program analysis → accelerator-model-driven candidate selection (Algorithm
1) → accelerator merging → Pareto-optimal solutions of merged accelerators.

:func:`prepare` compiles, profiles, and builds the wPST once; :func:`run_flow`
runs one :class:`Flow` on the prepared program.  Full Cayman, coupled-only,
NOVIA, and QsCores are four such flows (paper Table I).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Union,
)

from .analysis.wpst import WPST
from .diagnostics import LintResult, run_lint
from .frontend.lowering import compile_source
from .hls.techlib import CVA6_TILE_AREA_UM2, DEFAULT_TECHLIB, TechLibrary
from .interp.profiler import RegionProfile, profile_module
from .ir import Module
from .merging.merge_driver import AcceleratorMerger, MergedSolution
from .model.estimator import AcceleratorModel, ModelAnalyses
from .selection.knapsack import CandidateSelector
from .selection.pruning import PruneHeuristic
from .selection.solution import EMPTY_SOLUTION, Solution
from .telemetry import Span, Telemetry, current as current_telemetry
from .telemetry import use as use_telemetry

#: Pipeline stages of one flow run from source, in execution order: the
#: first three are :func:`prepare`'s, the rest :func:`run_flow`'s.  ``lint``
#: only appears when the flow runs with ``lint=True``.
PIPELINE_STAGES = ("compile", "profile", "wpst", "analysis", "selection",
                   "merging", "lint")


@dataclass(frozen=True)
class Flow:
    """One accelerator-generation flow, as a restriction of Cayman's
    (paper Table I): which model proposes candidates, with which model
    keyword arguments, and how similar two datapaths must be to share
    hardware."""

    name: str
    #: Model class, called as ``model(module, profile, techlib=, **kwargs)``.
    model: Callable[..., Any]
    model_kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: A pair may merge only if the match covers at least this fraction of
    #: the smaller unit (0 = Cayman's flexible sharing).
    min_match_fraction: float = 0.0


#: Full Cayman.
CAYMAN = Flow("cayman", AcceleratorModel)
#: The Fig. 6 ablation: every access on the coupled interface.
COUPLED_ONLY = Flow("coupled_only", AcceleratorModel, {"coupled_only": True})


@dataclass
class PreparedProgram:
    """A compiled, profiled program and its wPST — the flow-independent
    front of the pipeline, shared by every flow run on it."""

    name: str
    entry: str
    module: Module
    profile: RegionProfile
    wpst: WPST
    #: Wall time of each preparation stage (compile, profile, wpst).
    stage_seconds: Dict[str, float]
    #: Wall time of the whole preparation.
    seconds: float
    _analyses: Optional[ModelAnalyses] = field(
        default=None, repr=False, compare=False
    )

    @property
    def analyses(self) -> ModelAnalyses:
        """The model analyses of the module, built on first use and shared
        by every :class:`AcceleratorModel`-based flow run on the program."""
        if self._analyses is None:
            self._analyses = ModelAnalyses(self.module)
        return self._analyses


@dataclass
class CaymanResult:
    """Everything produced by one flow run (Cayman's or a baseline's)."""

    module: Module
    wpst: WPST
    profile: RegionProfile
    selector: CandidateSelector
    front: List[Solution]
    merged: List[MergedSolution]
    runtime_seconds: float = 0.0
    #: Lint findings over the compiled module (populated when the driver
    #: runs with ``lint=True``); ``None`` when linting was skipped.
    diagnostics: Optional["LintResult"] = None
    #: Wall time per pipeline stage (:data:`PIPELINE_STAGES`; lint only when
    #: enabled), derived from the stage spans and feeding the bench
    #: harness's stage instrumentation.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: The telemetry context the flow recorded into (the installed ambient
    #: context, or a run-local one when none was installed).
    telemetry: Optional["Telemetry"] = None

    @property
    def total_seconds(self) -> float:
        return self.profile.total_seconds

    def best_under_budget(self, budget_ratio: float) -> MergedSolution:
        """Best merged solution whose *merged* area fits the budget.

        ``budget_ratio`` is relative to the CVA6 tile area (paper §IV-A).
        """
        budget = budget_ratio * CVA6_TILE_AREA_UM2
        best: Optional[MergedSolution] = None
        for candidate in self.merged:
            if candidate.area_after > budget:
                continue
            if best is None or candidate.saved_seconds > best.saved_seconds:
                best = candidate
        if best is None:
            best = MergedSolution(
                solution=EMPTY_SOLUTION, area_before=0.0, area_after=0.0,
                merge_steps=0,
            )
        return best

    def speedup_under_budget(self, budget_ratio: float) -> float:
        return self.best_under_budget(budget_ratio).speedup(self.total_seconds)

    def pareto_points(self):
        """(area_ratio, speedup) Pareto series of the merged front (Fig. 6).

        Merging rescales areas, so the raw merged set can contain dominated
        points; they are pruned for presentation.
        """
        points = [
            (
                merged.area_after / CVA6_TILE_AREA_UM2,
                merged.speedup(self.total_seconds),
            )
            for merged in self.merged
        ]
        return _prune_dominated(points)


class Cayman:
    """The Cayman framework front door.

    Parameters mirror the paper's knobs: ``alpha`` is the front filter base,
    ``beta`` the scratchpad count/footprint threshold, ``prune_threshold``
    the hotspot cutoff, and ``coupled_only`` the Fig. 6 ablation that
    restricts every access to the coupled interface.
    """

    def __init__(
        self,
        techlib: TechLibrary = DEFAULT_TECHLIB,
        alpha: float = 1.1,
        beta: float = 4.0,
        prune_threshold: float = 0.001,
        unroll_factors: Sequence[int] = (1, 2, 4, 8),
        coupled_only: bool = False,
        merging: bool = True,
        area_cap_ratio: float = 2.0,
        legality_prefilter: bool = True,
        lint: bool = False,
        telemetry: Optional[Telemetry] = None,
    ):
        self.techlib = techlib
        self.alpha = alpha
        self.beta = beta
        self.prune_threshold = prune_threshold
        self.unroll_factors = tuple(unroll_factors)
        self.coupled_only = coupled_only
        self.merging = merging
        self.area_cap_ratio = area_cap_ratio
        self.legality_prefilter = legality_prefilter
        self.lint = lint
        self.telemetry = telemetry

    def run(
        self,
        program: Union[str, Module],
        entry: str = "main",
        args: Optional[List] = None,
        setup: Optional[Callable] = None,
        name: str = "app",
    ) -> CaymanResult:
        """Run the full flow on a mini-C source string or an IR module."""
        with _recording(self.telemetry) as tele, tele.span(
            "cayman.run", workload=name, entry=entry,
            coupled_only=self.coupled_only,
        ) as root:
            result = run_flow(
                prepare(program, entry, args, setup, name),
                COUPLED_ONLY if self.coupled_only else CAYMAN,
                techlib=self.techlib, alpha=self.alpha,
                prune_threshold=self.prune_threshold,
                area_cap_ratio=self.area_cap_ratio,
                merging=self.merging, lint=self.lint, beta=self.beta,
                unroll_factors=self.unroll_factors,
                legality_prefilter=self.legality_prefilter,
            )
            root.set("front_size", len(result.front))
        return result


class FlowRunner:
    """Front door of one fixed :class:`Flow` (the baselines)."""

    flow: Flow

    def __init__(
        self,
        techlib: TechLibrary = DEFAULT_TECHLIB,
        alpha: float = 1.1,
        prune_threshold: float = 0.001,
        area_cap_ratio: float = 2.0,
    ):
        self.techlib = techlib
        self.alpha = alpha
        self.prune_threshold = prune_threshold
        self.area_cap_ratio = area_cap_ratio

    def run(
        self,
        program: Union[str, Module],
        entry: str = "main",
        args: Optional[List] = None,
        setup: Optional[Callable] = None,
        name: str = "app",
    ) -> CaymanResult:
        """Run the flow on a mini-C source string or an IR module."""
        with _recording():
            return run_flow(
                prepare(program, entry, args, setup, name), self.flow,
                techlib=self.techlib, alpha=self.alpha,
                prune_threshold=self.prune_threshold,
                area_cap_ratio=self.area_cap_ratio,
            )


@contextmanager
def _recording(tele: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Install ``tele`` (default: the ambient context) for a run.  Stage
    spans are the source of ``stage_seconds``, so a run always records
    into a real context — a run-local one when none is installed."""
    if tele is None:
        tele = current_telemetry()
    if not tele.enabled:
        tele = Telemetry()
    with use_telemetry(tele):
        yield tele


class _Stages(dict):
    """``stage:<name>`` spans by name; their durations are the stage times."""

    def __call__(self, name: str) -> Span:
        self[name] = current_telemetry().span(f"stage:{name}")
        return self[name]

    def seconds(self) -> Dict[str, float]:
        return {name: span.duration_s for name, span in self.items()}


def prepare(
    program: Union[str, Module],
    entry: str = "main",
    args: Optional[List] = None,
    setup: Optional[Callable] = None,
    name: str = "app",
) -> PreparedProgram:
    """Compile (unless given IR), profile, and build the wPST, once."""
    stages = _Stages()
    with _recording():
        started = time.perf_counter()
        with stages("compile"):
            module = (
                compile_source(program, name)
                if isinstance(program, str) else program
            )
        with stages("profile"):
            profile = profile_module(module, entry=entry, args=args, setup=setup)
        with stages("wpst"):
            wpst = WPST(module, entry_function=entry)
        seconds = time.perf_counter() - started
    return PreparedProgram(
        name=name, entry=entry, module=module, profile=profile, wpst=wpst,
        stage_seconds=stages.seconds(), seconds=seconds,
    )


def run_flow(
    prepared: PreparedProgram,
    flow: Flow,
    techlib: TechLibrary = DEFAULT_TECHLIB,
    alpha: float = 1.1,
    prune_threshold: float = 0.001,
    area_cap_ratio: float = 2.0,
    merging: bool = True,
    lint: bool = False,
    **model_kwargs,
) -> CaymanResult:
    """Run one flow on a prepared program: model → selection → merging
    (→ lint).  ``model_kwargs`` override the flow's own (e.g. Cayman's β).
    An :class:`AcceleratorModel`-based flow gets the program's shared
    :attr:`PreparedProgram.analyses`.

    The result's ``stage_seconds`` and ``runtime_seconds`` include the
    preparation, so they describe the whole flow from source.
    """
    stages = _Stages()
    model_kwargs = {**flow.model_kwargs, **model_kwargs}
    with _recording() as tele:
        started = time.perf_counter()
        with stages("analysis"):
            if isinstance(flow.model, type) and issubclass(
                flow.model, AcceleratorModel
            ):
                model_kwargs["analyses"] = prepared.analyses
            model = flow.model(
                prepared.module, prepared.profile, techlib=techlib,
                **model_kwargs,
            )
        with stages("selection"):
            selector = CandidateSelector(
                prepared.wpst,
                model,
                prune=PruneHeuristic(prepared.profile, prune_threshold),
                alpha=alpha,
                area_cap=area_cap_ratio * CVA6_TILE_AREA_UM2,
            )
            front = selector.run()
        with stages("merging") as merging_span:
            # One merger per run: its pair cache is shared across the front.
            merger = AcceleratorMerger(
                techlib, min_match_fraction=flow.min_match_fraction
            )
            merged: List[MergedSolution] = [
                merger.merge(solution) if merging else MergedSolution(
                    solution=solution, area_before=solution.area,
                    area_after=solution.area, merge_steps=0,
                )
                for solution in front if not solution.is_empty
            ]
            merging_span.set("solutions", len(merged))
        diagnostics: Optional[LintResult] = None
        if lint:
            with stages("lint") as lint_span:
                diagnostics = run_lint(
                    prepared.module, profile=prepared.profile,
                    wpst=prepared.wpst, model=model,
                )
                lint_span.set("findings", len(diagnostics.diagnostics))
        seconds = time.perf_counter() - started

    # The stages are contiguous and cover the whole run; the telemetry
    # tests check that their times sum to (almost) all of the runtime.
    return CaymanResult(
        module=prepared.module,
        wpst=prepared.wpst,
        profile=prepared.profile,
        selector=selector,
        front=front,
        merged=merged,
        runtime_seconds=prepared.seconds + seconds,
        diagnostics=diagnostics,
        stage_seconds={**prepared.stage_seconds, **stages.seconds()},
        telemetry=tele,
    )


def _prune_dominated(points):
    """Keep the Pareto-optimal (area, speedup) points, sorted by area."""
    best = []
    top = float("-inf")
    for area, speedup in sorted(points):
        if speedup > top:
            best.append((area, speedup))
            top = speedup
    return best
