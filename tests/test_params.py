"""Parameter validation and the rotating-mass force amplitude."""

import dataclasses
import math
from fractions import Fraction

import pytest

from brushdyn import (
    BrushParams,
    MotorParams,
    RobotParams,
    SimConfig,
    ValidationError,
)


class TestBrushValidation:
    def test_interior_point_accepted(self):
        b = BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)
        assert b.flexural_rigidity == 2e9 * 1e-12

    def test_alpha_vertical_rejected(self):
        with pytest.raises(ValidationError, match=r"alpha out of \(0, pi/2\)"):
            BrushParams(2e9, 1e-12, 0.02, math.pi / 2, 1e-3)

    def test_alpha_horizontal_rejected(self):
        with pytest.raises(ValidationError, match=r"alpha out of \(0, pi/2\)"):
            BrushParams(2e9, 1e-12, 0.02, 0.0, 1e-3)

    @pytest.mark.parametrize(
        "field", ["young_modulus", "second_area_moment", "length", "brush_mass"]
    )
    def test_nonpositive_fields_rejected(self, field):
        good = dict(
            young_modulus=2e9,
            second_area_moment=1e-12,
            length=0.02,
            inclination=0.6,
            brush_mass=1e-3,
        )
        for bad in (0.0, -1.0):
            with pytest.raises(ValidationError, match=field):
                BrushParams(**{**good, field: bad})

    def test_immutable(self):
        b = BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.length = 0.05


class TestFiniteValues:
    @pytest.mark.parametrize(
        "cls, good",
        [
            (BrushParams, dict(young_modulus=2e9, second_area_moment=1e-12,
                               length=0.02, inclination=0.6, brush_mass=1e-3)),
            (MotorParams, dict(eccentric_mass=1e-3, eccentricity=2e-3, speed=300.0)),
            (RobotParams, dict(body_mass=0.05, pivot_inertia=2e-5, forcing_arm=0.03,
                               gravity_arm=0.003, step_height=0.04, gravity=9.81)),
            (SimConfig, dict(t_end=0.5, dt=1e-4, theta0=0.0)),
        ],
    )
    def test_inf_and_nan_rejected_in_every_field(self, cls, good):
        cls(**good)
        for field in good:
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValidationError, match=f"{field} must be finite"):
                    cls(**{**good, field: bad})


class TestMotorValidation:
    def test_zero_mass_and_eccentricity_allowed(self):
        m = MotorParams(0.0, 0.0, 100.0)
        assert m.force_amplitude == 0.0

    def test_zero_speed_rejected(self):
        with pytest.raises(ValidationError, match="speed"):
            MotorParams(1e-3, 2e-3, 0.0)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError, match="eccentric_mass"):
            MotorParams(-1e-3, 2e-3, 100.0)

    def test_period(self):
        assert MotorParams(0.0, 0.0, 2 * math.pi).period == pytest.approx(1.0)


class TestRobotValidation:
    def test_gravity_arm_zero_allowed(self):
        r = RobotParams(0.05, 2e-5, 0.03, 0.0, 0.04)
        assert r.gravity == 9.81
        assert r.weight == pytest.approx(0.05 * 9.81)

    def test_gravity_override(self):
        r = RobotParams(0.05, 2e-5, 0.03, 0.003, 0.04, gravity=1.62)
        assert r.weight == pytest.approx(0.05 * 1.62)

    @pytest.mark.parametrize(
        "field",
        ["body_mass", "pivot_inertia", "forcing_arm", "step_height", "gravity"],
    )
    def test_nonpositive_fields_rejected(self, field):
        good = dict(
            body_mass=0.05,
            pivot_inertia=2e-5,
            forcing_arm=0.03,
            gravity_arm=0.003,
            step_height=0.04,
            gravity=9.81,
        )
        with pytest.raises(ValidationError, match=field):
            RobotParams(**{**good, field: 0.0})

    def test_negative_gravity_arm_rejected(self):
        with pytest.raises(ValidationError, match="gravity_arm"):
            RobotParams(0.05, 2e-5, 0.03, -1e-3, 0.04)


class TestForcing:
    def test_zero_mass_gives_zero_force(self):
        assert MotorParams(0.0, 0.5, 123.0).force_amplitude == 0.0

    def test_amplitude_is_m_omega_squared_r(self):
        # 0.001 * 100^2 * 0.002 = 0.02 N, cross-checked in exact rationals
        motor = MotorParams(0.001, 0.002, 100.0)
        exact = Fraction(0.001) * Fraction(100.0) ** 2 * Fraction(0.002)
        assert motor.force_amplitude == pytest.approx(0.02, rel=1e-12)
        assert motor.force_amplitude == pytest.approx(float(exact), rel=1e-15)
