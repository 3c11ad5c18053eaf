"""Shared simulated-annealing engine (Kirkpatrick et al. [12])."""

from .annealer import (
    CHECKPOINT_VERSION,
    AnnealingResult,
    AnnealingStats,
    FunctionMoveSet,
    IncrementalAnnealer,
    IncrementalEngine,
    MoveSet,
    StateEngine,
    WalkCheckpoint,
    checkpoint_from_payload,
    checkpoint_payload,
)
from .batch import BatchedAnnealer, BatchEngine
from .schedule import (
    CoolingSchedule,
    GeometricSchedule,
    LinearSchedule,
    initial_temperature_from_samples,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "AnnealingResult",
    "AnnealingStats",
    "BatchEngine",
    "BatchedAnnealer",
    "CoolingSchedule",
    "FunctionMoveSet",
    "GeometricSchedule",
    "IncrementalAnnealer",
    "IncrementalEngine",
    "LinearSchedule",
    "MoveSet",
    "StateEngine",
    "WalkCheckpoint",
    "checkpoint_from_payload",
    "checkpoint_payload",
    "initial_temperature_from_samples",
]
