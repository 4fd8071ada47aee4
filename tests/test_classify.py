"""Regime classification rules and their monotonicity."""

import math

import numpy as np
import pytest

from brushdyn import BrushParams, MotorParams, RobotParams, Regime, regime1
from brushdyn.classify import classify


def robot_with_weight(weight, gravity=9.81):
    return RobotParams(
        body_mass=weight / gravity,
        pivot_inertia=2e-5,
        forcing_arm=0.03,
        gravity_arm=0.003,
        step_height=0.04,
        gravity=gravity,
    )


def motor_with_amplitude(amplitude, speed):
    return MotorParams(
        eccentric_mass=1e-3, eccentricity=amplitude / (1e-3 * speed**2), speed=speed
    )


class TestClassification:
    def test_regimes_are_the_three_readme_names(self):
        # classify prints a Regime's value; README names these three
        assert [regime.value for regime in Regime] == ["RegimeI", "RegimeII", "Transitional"]

    def test_double_weight_forcing_is_rigid_regime(self, brush):
        robot = robot_with_weight(1.0)
        motor = motor_with_amplitude(2.0, speed=300.0)
        report = classify(brush, motor, robot)
        assert report.regime is Regime.REGIME_II
        assert report.lift_ratio == pytest.approx(2.0, rel=1e-12)

    def test_motor_off_is_flexible_regime(self, brush):
        report = classify(
            brush, MotorParams(0.0, 0.0, 300.0), robot_with_weight(1.0)
        )
        assert report.regime is Regime.REGIME_I
        assert report.lift_ratio == 0.0

    def test_fast_drive_is_transitional_with_factor_i(self, brush):
        omega_n = regime1.natural_frequency(brush)
        motor = motor_with_amplitude(0.5, speed=5.0 * omega_n)
        report = classify(brush, motor, robot_with_weight(1.0))
        assert report.regime is Regime.TRANSITIONAL
        assert report.lift_ratio == pytest.approx(0.5, rel=1e-12)
        assert any(line.startswith("(i)") for line in report.rationale)

    def test_near_vertical_brush_forces_factor_iii(self):
        upright = BrushParams(2e9, 1e-12, 0.02, math.pi / 2 - 0.05, 1e-3)
        motor = motor_with_amplitude(0.5, speed=300.0)
        report = classify(upright, motor, robot_with_weight(1.0))
        assert report.regime is Regime.TRANSITIONAL
        assert any(line.startswith("(iii)") for line in report.rationale)

    def test_near_vertical_with_lift_stays_rigid(self):
        upright = BrushParams(2e9, 1e-12, 0.02, math.pi / 2 - 0.05, 1e-3)
        motor = motor_with_amplitude(3.0, speed=300.0)
        report = classify(upright, motor, robot_with_weight(1.0))
        assert report.regime is Regime.REGIME_II
        assert any(line.startswith("(iii)") for line in report.rationale)

    def test_report_quantities(self, brush):
        motor = motor_with_amplitude(0.5, speed=300.0)
        report = classify(brush, motor, robot_with_weight(1.0))
        assert report.stiffness_score == pytest.approx(
            300.0 / regime1.natural_frequency(brush), rel=1e-12
        )
        assert report.alpha_margin == pytest.approx(math.pi / 2 - 0.6, rel=1e-12)
        assert report.rationale
        assert any(line.startswith("(ii)") for line in report.rationale)


class TestProperties:
    def test_lift_criterion_scale_invariance(self, brush):
        # multiplying the eccentric mass and the body mass together leaves
        # the classification unchanged
        rng = np.random.default_rng(21)
        for _ in range(20):
            weight = rng.uniform(0.1, 5.0)
            amplitude = rng.uniform(0.01, 10.0)
            speed = rng.uniform(50.0, 2000.0)
            factor = rng.uniform(0.1, 10.0)
            base_robot = robot_with_weight(weight)
            base_motor = motor_with_amplitude(amplitude, speed)
            scaled_robot = robot_with_weight(weight * factor)
            scaled_motor = MotorParams(
                base_motor.eccentric_mass * factor,
                base_motor.eccentricity,
                base_motor.speed,
            )
            a = classify(brush, base_motor, base_robot)
            b = classify(brush, scaled_motor, scaled_robot)
            assert a.regime is b.regime
            assert a.lift_ratio == pytest.approx(b.lift_ratio, rel=1e-9)

    def test_rigid_regime_exactly_when_regime1_is_invalid(self, brush):
        # the lift boundary is regime1_validity's: seeded forces equal to the
        # weight or one ulp either side of it, and a force that is nan
        # (omega^2 overflows to inf, and inf * r = 0 gives nan)
        rng = np.random.default_rng(22)
        cases, sides = [], set()
        for _ in range(300):
            motor = MotorParams(rng.uniform(1e-4, 1e-2), rng.uniform(1e-4, 1e-2),
                                rng.uniform(50.0, 2000.0))
            force = motor.force_amplitude
            ulps = {math.nextafter(force, 0.0): -1, force: 0, math.nextafter(force, math.inf): 1}
            gravity = rng.uniform(1.0, 20.0)
            robots = [RobotParams(mass, 2e-5, 0.03, 0.003, 0.04, 1.0) for mass in ulps]
            robots.append(RobotParams(force / gravity, 2e-5, 0.03, 0.003, 0.04, gravity))
            for robot in robots:
                sides.add(ulps.get(robot.weight))
                cases.append((motor, robot))
        assert {-1, 0, 1} <= sides
        nan_force = MotorParams(1e-3, 0.0, 1e200)
        assert math.isnan(nan_force.force_amplitude)
        cases.append((nan_force, robot_with_weight(1.0)))
        for motor, robot in cases:
            lifts = not regime1.regime1_validity(motor, robot).valid
            report = classify(brush, motor, robot)
            assert (report.regime is Regime.REGIME_II) == lifts, (motor, robot)
