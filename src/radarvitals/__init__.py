"""Simulated FMCW radar vital-sign sensing.

Renders the range profiles of rooms containing still people, clutter and
moving interferers, localizes the people by fusing camera boxes with MVDR
range-angle heatmaps, steers transmit/receive beams at them, and reads
breathing and heart rates out of the slow-time phase via an adaptively
weighted multi-channel variational mode decomposition.
"""

__version__ = "0.1.0"

from .config import (BodyMotion, MovingReflector, PointReflector, RadarConfig,
                     Scene, VitalParams, VitalTarget)
from .pipeline import (RunResult, ScenarioSpec, bench_acceleration,
                       run_scenario, run_suite, write_run_outputs)

__all__ = [
    "BodyMotion", "MovingReflector", "PointReflector", "RadarConfig",
    "Scene", "VitalParams", "VitalTarget",
    "RunResult", "ScenarioSpec", "bench_acceleration", "run_scenario",
    "run_suite", "write_run_outputs", "__version__",
]
