"""Flexible-brush locomotion, closed form.

The brush is a clamped inclined beam loaded at the tip by the rotating-mass
force. Bending during the stick phase plus spring-back during the slip phase
gives a per-revolution step; a lumped spring-inertia model of the brush angle
supplies the natural frequency, the return time and the forced oscillation
amplitude. Everything here is a pure function of validated inputs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .params import BrushParams, ModelDomainError, MotorParams, RobotParams
from .params import ValidationError

# Relative frequency band around the natural frequency inside which the
# undamped forced response is refused (the model diverges there).
RESONANCE_GUARD = 1e-3


class ResonanceError(ValueError):
    """Motor speed is inside the guard band around the brush natural frequency."""


def _power(value: float, exponent: int, name: str) -> float:
    """value**exponent, or an OverflowError that names the value."""
    try:
        return value**exponent
    except OverflowError:
        raise OverflowError(f"{name}**{exponent} overflows at {name} = {value!r}") from None


def beam_deflection(brush: BrushParams, force: float, position: float) -> float:
    """Deflection v of the brush at a point along its axis under tip force.

    v(s) = F*cos(alpha)/(6EI) * s^3 - F*l*cos(alpha)/(2EI) * s^2

    `position` is measured from the body attachment (clamped end), 0 <= s <= l.
    """
    length = brush.length
    if not 0.0 <= position <= length:
        raise ValidationError("position out of [0, l]")
    rigidity = brush.flexural_rigidity
    transverse = force * math.cos(brush.inclination)
    return (
        transverse / (6.0 * rigidity) * position**3
        - transverse * length / (2.0 * rigidity) * position**2
    )


def tip_displacement(brush: BrushParams, force: float) -> float:
    """Magnitude of the tip deflection, |v(l)| = F*l^3*cos(alpha)/(3EI)."""
    return abs(
        force * _power(brush.length, 3, "length") * math.cos(brush.inclination)
        / (3.0 * brush.flexural_rigidity)
    )


def lumped_stiffness(brush: BrushParams) -> float:
    """Equivalent angular stiffness 3EI/(l^2*cos(alpha)), N/rad.

    Grows without bound as the brush approaches vertical (alpha < pi/2);
    raises, naming length, if length**2 overflows or length**2*cos(alpha) is 0.
    """
    arm = _power(brush.length, 2, "length") * math.cos(brush.inclination)
    if arm == 0.0:
        raise ZeroDivisionError(f"length**2*cos(inclination) is 0 at length = {brush.length!r}")
    return 3.0 * brush.flexural_rigidity / arm


def lumped_inertia(brush: BrushParams) -> float:
    """Equivalent inertia coefficient M_b*l^2/2 of the oscillating brush."""
    return brush.brush_mass * brush.length**2 / 2.0


def natural_frequency(brush: BrushParams) -> float:
    """Natural frequency sqrt(k/I) = sqrt(6EI/(M_b*l^4*cos(alpha))), rad/s."""
    k_theta, i_theta = lumped_stiffness(brush), lumped_inertia(brush)
    if i_theta == 0.0 or k_theta / i_theta == 0.0:  # every caller divides by it
        raise ZeroDivisionError(f"k_theta/I_theta = {k_theta!r}/{i_theta!r} is 0 or undefined")
    return math.sqrt(k_theta / i_theta)


def return_time(brush: BrushParams) -> float:
    """Earliest time for a deflected brush to swing back to rest, pi/(2*omega_n).

    Stiffer, shorter, lighter and less inclined brushes return faster.
    """
    return math.pi / (2.0 * natural_frequency(brush))


def optimal_motor_speed(brush: BrushParams) -> float:
    """Displacement-maximizing motor speed omega_n; predict-r1 there is resonant (exit 3)."""
    return natural_frequency(brush)


def stick_phase_angle(brush: BrushParams, motor: MotorParams) -> float:
    """Brush angle swept during the stick phase at peak force, rad.

    Small-angle tip kinematics: theta = |v(l)| / l evaluated at F = m*omega^2*r.
    """
    return tip_displacement(brush, motor.force_amplitude) / brush.length


def step_displacement(brush: BrushParams, motor: MotorParams) -> float:
    """Net horizontal step per motor revolution, l*cos(alpha-theta) - l*cos(alpha).

    Evaluated as 2*l*sin(alpha - theta/2)*sin(theta/2), which does not cancel
    at small theta. Positive for 0 < theta <= alpha. Past alpha the brush has
    crossed the vertical through its tip and the same-side geometry fails:
    ModelDomainError (OverflowError for an inf or nan theta: the force overflowed).
    """
    theta = stick_phase_angle(brush, motor)
    alpha = brush.inclination
    if not math.isfinite(theta):
        raise OverflowError(f"stick-phase angle is {theta!r}")
    if theta > alpha:
        raise ModelDomainError(
            f"stick-phase angle {theta:.6g} rad exceeds brush inclination "
            f"{alpha:.6g} rad"
        )
    return 2.0 * brush.length * math.sin(alpha - theta / 2.0) * math.sin(theta / 2.0)


def ground_speed(brush: BrushParams, motor: MotorParams) -> float:
    """Predicted robot speed, one step per revolution: v_r = omega/(2*pi) * delta."""
    return motor.speed / (2.0 * math.pi) * step_displacement(brush, motor)


def forced_amplitude(brush: BrushParams, motor: MotorParams) -> float:
    """Steady amplitude of the forced brush oscillation, rad.

    theta_hat(omega) = m*omega^2*r*cos(alpha) / (I_theta*(omega_n^2 - omega^2))

    Negative above resonance (out-of-phase response). Raises ResonanceError
    inside the guard band around omega_n where the undamped model diverges.
    """
    omega = motor.speed
    omega_n = natural_frequency(brush)
    if abs(omega - omega_n) / omega_n <= RESONANCE_GUARD:
        raise ResonanceError(
            f"motor speed {omega:.6g} rad/s is within {RESONANCE_GUARD:.0e} "
            f"of the brush resonance {omega_n:.6g} rad/s"
        )
    return (
        motor.force_amplitude * math.cos(brush.inclination)
        / (lumped_inertia(brush) * (_power(omega_n, 2, "omega_n") - _power(omega, 2, "speed")))
    )


class ValidityReport(NamedTuple):
    valid: bool
    margin: float


def regime1_validity(motor: MotorParams, robot: RobotParams) -> ValidityReport:
    """Whether the always-in-contact premise holds: peak force m*omega^2*r <= M*g.

    margin is M*g - m*omega^2*r; the boundary case counts as valid with
    margin 0. Beyond it the robot starts lifting and the rigid-rotation
    regime takes over.
    """
    margin = robot.weight - motor.force_amplitude
    return ValidityReport(margin >= 0.0, margin)


class Regime1Prediction(NamedTuple):
    """Derived flexible-brush quantities for one brush/motor pairing.

    k_theta    N/rad, lumped angular stiffness
    I_theta    kg*m^2, lumped inertia coefficient
    omega_n    rad/s, natural frequency
    t_bar      s, return time pi/(2*omega_n)
    omega_star rad/s, displacement-maximizing motor speed omega_n (inside RESONANCE_GUARD)
    theta_hat  rad, forced oscillation amplitude at the motor speed
    delta      m, step per motor revolution
    v_r        m/s, predicted ground speed
    """

    k_theta: float
    I_theta: float
    omega_n: float
    t_bar: float
    omega_star: float
    theta_hat: float
    delta: float
    v_r: float


def predict(brush: BrushParams, motor: MotorParams) -> Regime1Prediction:
    """Full flexible-brush prediction; raises ResonanceError in the guard band
    and ModelDomainError when the stick-phase angle exceeds the inclination."""
    return Regime1Prediction(
        k_theta=lumped_stiffness(brush),
        I_theta=lumped_inertia(brush),
        omega_n=natural_frequency(brush),
        t_bar=return_time(brush),
        omega_star=optimal_motor_speed(brush),
        theta_hat=forced_amplitude(brush, motor),
        delta=step_displacement(brush, motor),
        v_r=ground_speed(brush, motor),
    )
