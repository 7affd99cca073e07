"""Table I regeneration: qualitative capability comparison.

The capability flags are derived from the flow definitions so the table
stays truthful to the code: e.g. Cayman's model really does explore
pipelining/unrolling, the QsCores model really is sequential with a
scan-chain interface, and the NOVIA model really rejects memory accesses.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, List

from ..baselines.novia import _EXCLUDED_RESOURCES, NOVIA
from ..baselines.qscores import QSCORES
from ..framework import CAYMAN, Flow
from .formats import render_table


@dataclass
class Capability:
    method: str
    design_entry: str
    candidate_selection: str
    control_flow: str
    data_access: str
    hardware_sharing: str


def _model_setting(flow: Flow, name: str) -> Any:
    """A model knob as the flow runs it: its own kwargs, else the model's
    default."""
    if name in flow.model_kwargs:
        return flow.model_kwargs[name]
    return inspect.signature(flow.model).parameters[name].default


def _control_flow(flow: Flow) -> str:
    """``optimized`` when the flow's model pipelines or unrolls loops."""
    optimized = (
        _model_setting(flow, "pipeline_innermost")
        or max(_model_setting(flow, "unroll_factors")) > 1
    )
    return "optimized" if optimized else "sequential"


def _sharing(flow: Flow) -> str:
    """``restricted`` when the merger demands a minimum datapath match."""
    return "restricted" if flow.min_match_fraction > 0 else "flexible"


def capability_matrix() -> List[Capability]:
    """The Table I rows, with Cayman/NOVIA/QsCores derived from the code."""
    rows = [
        Capability(
            method="HLS",
            design_entry="kernel",
            candidate_selection="manual",
            control_flow="optimized",
            data_access="specified",
            hardware_sharing="/",
        ),
        Capability(
            method="CFU (NOVIA)",
            design_entry="application",
            candidate_selection="auto",
            control_flow="/",
            data_access=(
                "scalar-only" if "load" in _EXCLUDED_RESOURCES else "memory"
            ),
            hardware_sharing=_sharing(NOVIA),
        ),
        Capability(
            method="OCA (QsCores)",
            design_entry="application",
            candidate_selection="auto",
            control_flow=_control_flow(QSCORES),
            data_access=(
                "slow" if QSCORES.model.INTERFACE_MODES == ("scanchain",)
                else "fast"
            ),
            hardware_sharing=_sharing(QSCORES),
        ),
        Capability(
            method="Cayman",
            design_entry="application",
            candidate_selection="auto",
            control_flow=_control_flow(CAYMAN),
            data_access=(
                "specialized" if "full" in CAYMAN.model.INTERFACE_MODES
                else "coupled"
            ),
            hardware_sharing=_sharing(CAYMAN),
        ),
    ]
    return rows


def render_table1() -> str:
    rows = capability_matrix()
    return render_table(
        ["method", "design entry", "candidate selection", "control flow",
         "data access", "hardware sharing"],
        [
            [r.method, r.design_entry, r.candidate_selection, r.control_flow,
             r.data_access, r.hardware_sharing]
            for r in rows
        ],
    )
