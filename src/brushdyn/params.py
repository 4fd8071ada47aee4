"""Validated physical parameter types and the errors shared by the models.

All quantities are strict SI (m, kg, s, N, Pa, rad). Types are immutable
NamedTuple records, safe to share across threads or parallel sweeps, and
checked on every construction: a copy made with `_replace` (or `_make`) is
validated like a new one.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

TWO_PI = 2.0 * math.pi


class ValidationError(ValueError):
    """A physical parameter violates its domain constraint."""


class ModelDomainError(RuntimeError):
    """A model's geometry no longer holds: the stick-phase brush angle beyond
    the inclination (flexible regime) or the body angle beyond pi/2 (rigid)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def validated(cls):
    """Check each instance the NamedTuple cls builds (constructor, _make, _replace):
    no float field may be inf or nan, then cls._check. A NamedTuple body may
    not define __new__."""
    new = cls.__new__

    @functools.wraps(new)  # keeps the field signature for help() and inspect
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        for i, value in enumerate(self):  # cheaper per record than zip with _fields
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{self._fields[i]} must be finite")
        self._check()
        return self

    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


@validated
class BrushParams(NamedTuple):
    """Geometry and material of one brush set.

    young_modulus       Pa
    second_area_moment  m^4, about the bending axis of the bristle cross section
    length              m
    inclination         rad between brush and ground, open interval (0, pi/2)
    brush_mass          kg
    """

    young_modulus: float
    second_area_moment: float
    length: float
    inclination: float
    brush_mass: float

    def _check(self) -> None:
        _require(self.young_modulus > 0.0, "young_modulus must be > 0")
        _require(self.second_area_moment > 0.0, "second_area_moment must be > 0")
        _require(self.length > 0.0, "length must be > 0")
        _require(0.0 < self.inclination < math.pi / 2.0, "alpha out of (0, pi/2)")
        _require(self.brush_mass > 0.0, "brush_mass must be > 0")

    @property
    def flexural_rigidity(self) -> float:
        """Bending rigidity E*I in N*m^2."""
        return self.young_modulus * self.second_area_moment


@validated
class MotorParams(NamedTuple):
    """Eccentric rotating mass actuator.

    eccentric_mass  kg, the unbalanced mass (0 means the motor is off)
    eccentricity    m, offset of the mass from the motor axle
    speed           rad/s, rotation speed of the motor
    """

    eccentric_mass: float
    eccentricity: float
    speed: float

    def _check(self) -> None:
        _require(self.eccentric_mass >= 0.0, "eccentric_mass must be >= 0")
        _require(self.eccentricity >= 0.0, "eccentricity must be >= 0")
        _require(self.speed > 0.0, "speed must be > 0")

    @property
    def force_amplitude(self) -> float:
        """Peak centrifugal force m*omega^2*r in N."""
        return self.eccentric_mass * self.speed * self.speed * self.eccentricity

    @property
    def period(self) -> float:
        """Time of one motor revolution, 2*pi/omega."""
        return TWO_PI / self.speed


@validated
class RobotParams(NamedTuple):
    """Body-level quantities for the rigid-rotation regime.

    body_mass      kg
    pivot_inertia  kg*m^2 about the ground pivot
    forcing_arm    m, moment arm of the centrifugal force about the pivot
    gravity_arm    m, moment arm of the weight about the pivot (0 allowed:
                   center of mass directly above the pivot)
    step_height    m, lever converting the peak body angle into displacement
    gravity        m/s^2, > 0 (the default is standard Earth gravity)
    """

    body_mass: float
    pivot_inertia: float
    forcing_arm: float
    gravity_arm: float
    step_height: float
    gravity: float = 9.81

    def _check(self) -> None:
        _require(self.body_mass > 0.0, "body_mass must be > 0")
        _require(self.gravity > 0.0, "gravity must be > 0")
        _require(self.pivot_inertia > 0.0, "pivot_inertia must be > 0")
        _require(self.forcing_arm > 0.0, "forcing_arm must be > 0")
        _require(self.gravity_arm >= 0.0, "gravity_arm must be >= 0")
        _require(self.step_height > 0.0, "step_height must be > 0")

    @property
    def weight(self) -> float:
        """M*g in N."""
        return self.body_mass * self.gravity
