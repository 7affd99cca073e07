"""QsCores-style off-core accelerator synthesis baseline [23].

QsCores (quasi-specific cores) automatically extracts hot program regions
into off-core accelerators, but — as characterized in the paper's Table I —

* synthesizes only **sequential** control logic (no loop pipelining or
  unrolling), and
* moves data through a **scan-chain interface** with high latency and low
  bandwidth ([22], [23]),
* shares hardware only among **almost identical** regions.

The baseline reuses Cayman's wPST + DP selection machinery with a model
restricted accordingly, which is generous to QsCores (its published
selection is greedier) and therefore a conservative comparison.
"""

from __future__ import annotations

from ..framework import Flow, FlowRunner
from ..hls.techlib import DEFAULT_TECHLIB
from ..model.estimator import AcceleratorModel


class QsCoresModel(AcceleratorModel):
    """Accelerator model restricted to QsCores' capabilities."""

    INTERFACE_MODES = ("scanchain",)

    def __init__(self, module, profile, techlib=DEFAULT_TECHLIB,
                 unroll_factors=(1,), pipeline_innermost=False, **kwargs):
        super().__init__(module, profile, techlib=techlib,
                         unroll_factors=unroll_factors,
                         pipeline_innermost=pipeline_innermost, **kwargs)


#: QsCores: only regions whose datapaths are ≥90% identical share hardware.
QSCORES = Flow("qscores", QsCoresModel, min_match_fraction=0.9)


class QsCores(FlowRunner):
    """End-to-end QsCores baseline flow."""

    flow = QSCORES
