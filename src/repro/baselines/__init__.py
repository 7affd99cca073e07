"""Reimplemented state-of-the-art baselines: NOVIA [21] and QsCores [23]."""

from .novia import NOVIA, Novia, NoviaModel, compute_subdfg
from .qscores import QSCORES, QsCores, QsCoresModel

__all__ = [
    "NOVIA", "Novia", "NoviaModel", "compute_subdfg",
    "QSCORES", "QsCores", "QsCoresModel",
]
