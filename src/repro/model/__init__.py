"""Cayman's accelerator model: data-access interfaces, configuration
generation, and fast performance/area estimation."""

from .interfaces import (
    InterfaceAssignment,
    InterfaceKind,
    InterfacePlan,
)
from .config import AcceleratorConfig, AcceleratorEstimate, LoopPlan
from .estimator import AcceleratorModel, FunctionContext, ModelAnalyses

__all__ = [
    "InterfaceAssignment", "InterfaceKind", "InterfacePlan",
    "AcceleratorConfig", "AcceleratorEstimate", "LoopPlan",
    "AcceleratorModel", "FunctionContext", "ModelAnalyses",
]
