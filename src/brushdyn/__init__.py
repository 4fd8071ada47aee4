"""Brushbot locomotion dynamics.

Predicts how a vibration-driven bristle robot moves in its two operating
regimes: flexible brushes that bend and spring back (closed-form model), and
stiff brushes that make the body rock about a ground pivot (hybrid simulation
with plastic impacts). Includes a regime classifier, frequency/design sweeps
and a CLI.

Usage:
    from brushdyn import BrushParams, MotorParams, regime1

    brush = BrushParams(young_modulus=2e9, second_area_moment=1e-12,
                        length=0.02, inclination=0.6, brush_mass=1e-3)
    motor = MotorParams(eccentric_mass=1e-3, eccentricity=2e-3, speed=300.0)
    print(regime1.predict(brush, motor))

Or from the shell:
    brushdyn predict-r1 --config run.cfg
"""

from . import classify, config, regime1, regime2, sweep
from .classify import Regime, RegimeReport
from .config import ConfigError, RunConfig, load_config
from .params import (
    BrushParams,
    ModelDomainError,
    MotorParams,
    RobotParams,
    ValidationError,
)
from .regime1 import Regime1Prediction, ResonanceError
from .regime2 import NoCompletedCycleError, Regime2Trajectory, SimConfig
from .sweep import SweepResult, SweepSpec

__version__ = "0.1.0"

__all__ = [n for n in dir() if not n.startswith("_")]
