"""Operating-regime classifier.

Decides whether a given brush/motor/robot combination behaves like a
flexible-brush walker (RegimeI), a rigid pivot rocker (RegimeII), or sits in
between (Transitional). The hard boundary is the lift ratio m*omega^2*r/(M*g):
above 1 the ground-contact premise of the flexible model is broken. Below it,
driving far above the brush bandwidth or running nearly vertical brushes both
push the robot toward rigid-body behavior without a sharp threshold, so those
cases are reported as Transitional.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .params import BrushParams, MotorParams, RobotParams
from .regime1 import natural_frequency

# Motor speeds more than this fraction above the brush natural frequency
# count as driving a stiff/fast brush (factor (i)).
BANDWIDTH_MARGIN = 0.5
# Inclinations closer than this to vertical trigger the straight-brush
# rule (factor (iii)).
ALPHA_MARGIN_LIMIT = 0.1


class Regime(enum.Enum):
    REGIME_I = "RegimeI"
    REGIME_II = "RegimeII"
    TRANSITIONAL = "Transitional"


class RegimeReport(NamedTuple):
    """Classification with the quantities that drove it.

    lift_ratio       m*omega^2*r / (M*g)
    stiffness_score  omega / omega_n
    alpha_margin     pi/2 - alpha, rad
    rationale        human-readable criteria lines, factor-tagged
    """

    regime: Regime
    lift_ratio: float
    stiffness_score: float
    alpha_margin: float
    rationale: tuple[str, ...]


def classify(
    brush: BrushParams,
    motor: MotorParams,
    robot: RobotParams,
) -> RegimeReport:
    """Classify the operating regime of a validated parameter set."""
    lift_ratio = motor.force_amplitude / robot.weight
    omega_n = natural_frequency(brush)
    stiffness_score = motor.speed / omega_n
    alpha_margin = math.pi / 2.0 - brush.inclination

    lifts = lift_ratio > 1.0
    fast_drive = stiffness_score > 1.0 + BANDWIDTH_MARGIN
    near_vertical = alpha_margin < ALPHA_MARGIN_LIMIT

    rationale = []
    if lifts:
        rationale.append(
            f"lift ratio {lift_ratio:.6g} > 1: peak centrifugal force exceeds "
            f"the robot weight, ground contact is lost"
        )
    else:
        rationale.append(
            f"lift ratio {lift_ratio:.6g} <= 1: peak centrifugal force stays "
            f"within the robot weight"
        )
    if fast_drive:
        rationale.append(
            f"(i) motor speed {motor.speed:.6g} rad/s exceeds the brush "
            f"bandwidth {omega_n:.6g} rad/s by more than "
            f"{BANDWIDTH_MARGIN:.0%}: stiff-brush behavior"
        )
    rationale.append(
        f"(ii) pivot inertia {robot.pivot_inertia:.6g} kg*m^2 "
        f"(reported only, no gating threshold)"
    )
    if near_vertical:
        rationale.append(
            f"(iii) inclination within {ALPHA_MARGIN_LIMIT:.6g} rad of "
            f"vertical: near-straight brushes favor rigid rotation"
        )

    if lifts:
        regime = Regime.REGIME_II
    elif fast_drive or near_vertical:
        regime = Regime.TRANSITIONAL
    else:
        regime = Regime.REGIME_I

    return RegimeReport(
        regime=regime,
        lift_ratio=lift_ratio,
        stiffness_score=stiffness_score,
        alpha_margin=alpha_margin,
        rationale=tuple(rationale),
    )
