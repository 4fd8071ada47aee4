"""Flexible-brush closed forms: bending, lumped oscillator, speed prediction."""

import math

import numpy as np
import pytest

from brushdyn import BrushParams, MotorParams, RobotParams, regime1
from brushdyn.params import ModelDomainError, ValidationError
from brushdyn.regime1 import ResonanceError

from helpers import bvp_deflection, cos_exact, random_brush, random_motor

# cos(1e-9) rounds to 1.0 in binary64, so this stands in for the alpha -> 0 limit
ALPHA_FLAT = 1e-9


def unit_brush(alpha, brush_mass=1.0, length=1.0, rigidity=1.0):
    # EI = rigidity with E carrying the value and I = 1
    return BrushParams(
        young_modulus=rigidity,
        second_area_moment=1.0,
        length=length,
        inclination=alpha,
        brush_mass=brush_mass,
    )


def motor_with_amplitude(amplitude, speed=10.0):
    # m*omega^2*r = amplitude via r = amplitude / (m*omega^2)
    return MotorParams(
        eccentric_mass=1.0, eccentricity=amplitude / speed**2, speed=speed
    )


class TestBeamDeflection:
    def test_unforced_beam_is_flat(self):
        b = unit_brush(0.6)
        for s in (0.0, 0.3, 1.0):
            assert regime1.beam_deflection(b, 0.0, s) == 0.0

    def test_clamped_end(self):
        b = unit_brush(0.6)
        assert regime1.beam_deflection(b, 5.0, 0.0) == 0.0

    def test_tip_value_against_bvp_solver(self):
        # EI = 1, l = 1, alpha ~ 0, F = 6 -> v(1) = 6/6 - 6/2 = -2
        b = unit_brush(ALPHA_FLAT)
        value = regime1.beam_deflection(b, 6.0, 1.0)
        assert value == pytest.approx(-2.0, rel=1e-12)
        oracle = bvp_deflection(b, 6.0, [1.0])[0]
        assert value == pytest.approx(oracle, rel=1e-8)

    def test_profile_against_bvp_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            b = random_brush(rng)
            force = rng.uniform(0.1, 5.0)
            positions = np.linspace(0.0, b.length, 7)
            oracle = bvp_deflection(b, force, positions)
            scale = abs(oracle).max()
            for s, expected in zip(positions, oracle):
                assert regime1.beam_deflection(b, force, s) == pytest.approx(
                    expected, abs=1e-8 * scale
                )

    def test_position_domain(self):
        b = unit_brush(0.6)
        with pytest.raises(ValidationError, match="position"):
            regime1.beam_deflection(b, 1.0, -1e-9)
        with pytest.raises(ValidationError, match="position"):
            regime1.beam_deflection(b, 1.0, b.length + 1e-9)

    def test_boundary_conditions_random(self):
        # v(0) = 0, v'(0) = 0 (one-sided difference, the domain starts at 0),
        # v''(l) = 0 and EI v'''(l) = F cos(alpha) via the analytic derivatives
        # of the cubic recovered from two point samples
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = random_brush(rng)
            force = rng.uniform(0.01, 10.0)
            length = b.length
            tip = abs(regime1.beam_deflection(b, force, length))
            scale = tip / length
            assert regime1.beam_deflection(b, force, 0.0) == 0.0

            h = 1e-6 * length
            v1 = regime1.beam_deflection(b, force, h)
            v2 = regime1.beam_deflection(b, force, 2 * h)
            slope0 = (4.0 * v1 - v2) / (2.0 * h)
            assert abs(slope0) <= 1e-6 * scale

            # v = A s^3 + B s^2: solve for A, B from samples at l/2 and l
            vh = regime1.beam_deflection(b, force, length / 2)
            vl = regime1.beam_deflection(b, force, length)
            A = (2.0 * vl - 8.0 * vh) / length**3
            B = (vl - A * length**3) / length**2
            curvature_tip = 6.0 * A * length + 2.0 * B
            shear_tip = b.flexural_rigidity * 6.0 * A
            load = force * math.cos(b.inclination)
            assert abs(curvature_tip) <= 1e-9 * abs(6.0 * A * length)
            assert shear_tip == pytest.approx(load, rel=1e-9)


class TestTipDisplacement:
    def test_zero_force(self):
        assert regime1.tip_displacement(unit_brush(0.6), 0.0) == 0.0

    def test_matches_beam_deflection_at_tip(self):
        b = unit_brush(ALPHA_FLAT)
        assert regime1.tip_displacement(b, 3.0) == pytest.approx(1.0, rel=1e-12)
        assert regime1.tip_displacement(b, 3.0) == pytest.approx(
            abs(regime1.beam_deflection(b, 3.0, 1.0)), rel=1e-12
        )

    def test_inclination_projects_load(self):
        b = unit_brush(math.pi / 3)
        assert regime1.tip_displacement(b, 3.0) == pytest.approx(0.5, rel=1e-12)
        assert regime1.tip_displacement(b, 3.0) == pytest.approx(
            abs(regime1.beam_deflection(b, 3.0, 1.0)), rel=1e-12
        )


class TestLumpedModel:
    def test_stiffness_flat_limit(self):
        assert regime1.lumped_stiffness(unit_brush(ALPHA_FLAT)) == pytest.approx(
            3.0, rel=1e-12
        )

    def test_stiffness_at_60_degrees(self):
        assert regime1.lumped_stiffness(unit_brush(math.pi / 3)) == pytest.approx(
            6.0, rel=1e-12
        )

    def test_stiffness_length_scaling(self):
        short = regime1.lumped_stiffness(unit_brush(0.6, length=1.0))
        long = regime1.lumped_stiffness(unit_brush(0.6, length=2.0))
        assert long == pytest.approx(short / 4.0, rel=1e-12)

    def test_stiffness_ties_tip_displacement_to_force(self):
        # k_theta * (|v(l)|/l) recovers the applied force
        rng = np.random.default_rng(5)
        for _ in range(100):
            b = random_brush(rng)
            force = rng.uniform(0.01, 10.0)
            recovered = regime1.lumped_stiffness(b) * (
                regime1.tip_displacement(b, force) / b.length
            )
            assert recovered == pytest.approx(force, rel=1e-12)

    def test_inertia(self):
        assert regime1.lumped_inertia(unit_brush(0.6, brush_mass=2.0)) == 1.0
        assert regime1.lumped_inertia(unit_brush(0.6, brush_mass=6.0)) == 3.0

    def test_stiffness_monotone_in_alpha(self):
        alphas = np.linspace(0.05, math.pi / 2 - 0.05, 25)
        values = [regime1.lumped_stiffness(unit_brush(a)) for a in alphas]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestNaturalFrequency:
    def test_flat_unit_case(self):
        b = unit_brush(ALPHA_FLAT, brush_mass=6.0)
        assert regime1.natural_frequency(b) == pytest.approx(1.0, rel=1e-12)

    def test_60_degree_case(self):
        b = unit_brush(math.pi / 3, brush_mass=6.0)
        assert regime1.natural_frequency(b) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    def test_rigidity_scaling(self):
        base = regime1.natural_frequency(unit_brush(0.6, rigidity=1.0))
        stiff = regime1.natural_frequency(unit_brush(0.6, rigidity=4.0))
        assert stiff == pytest.approx(2.0 * base, rel=1e-12)

    def test_frequency_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            b = random_brush(rng)
            lhs = regime1.natural_frequency(b) ** 2 * regime1.lumped_inertia(b)
            assert lhs == pytest.approx(regime1.lumped_stiffness(b), rel=1e-12)


class TestReturnTime:
    def test_quarter_oscillation_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            b = random_brush(rng)
            product = regime1.return_time(b) * regime1.natural_frequency(b)
            assert product == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_60_degree_value(self):
        b = unit_brush(math.pi / 3, brush_mass=6.0)
        assert regime1.return_time(b) == pytest.approx(
            math.pi / (2.0 * math.sqrt(2.0)), rel=1e-12
        )

    def test_monotonicity(self):
        masses = np.linspace(1e-4, 1e-2, 21)
        t_mass = [regime1.return_time(unit_brush(0.6, brush_mass=m)) for m in masses]
        assert all(b > a for a, b in zip(t_mass, t_mass[1:]))

        lengths = np.linspace(0.01, 0.09, 21)
        t_len = [regime1.return_time(unit_brush(0.6, length=l)) for l in lengths]
        assert all(b > a for a, b in zip(t_len, t_len[1:]))

        rigidities = np.linspace(1e-4, 1e-2, 21)
        t_ei = [regime1.return_time(unit_brush(0.6, rigidity=r)) for r in rigidities]
        assert all(b < a for a, b in zip(t_ei, t_ei[1:]))


class TestOptimalMotorSpeed:
    def test_equals_natural_frequency_bitwise(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            b = random_brush(rng)
            assert regime1.optimal_motor_speed(b) == regime1.natural_frequency(b)

    def test_values(self):
        assert regime1.optimal_motor_speed(
            unit_brush(ALPHA_FLAT, brush_mass=6.0)
        ) == pytest.approx(1.0, rel=1e-12)
        assert regime1.optimal_motor_speed(
            unit_brush(math.pi / 3, brush_mass=6.0)
        ) == pytest.approx(math.sqrt(2.0), rel=1e-12)


class TestStickPhaseAngle:
    def test_motor_off(self):
        assert regime1.stick_phase_angle(unit_brush(0.6), MotorParams(0, 0, 10)) == 0.0

    def test_flat_case(self):
        angle = regime1.stick_phase_angle(unit_brush(ALPHA_FLAT), motor_with_amplitude(3.0))
        assert angle == pytest.approx(1.0, rel=1e-12)

    def test_60_degree_case(self):
        angle = regime1.stick_phase_angle(unit_brush(math.pi / 3), motor_with_amplitude(3.0))
        assert angle == pytest.approx(0.5, rel=1e-12)

    def test_is_tip_displacement_over_length(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            b = random_brush(rng)
            m = random_motor(rng)
            expected = regime1.tip_displacement(b, m.force_amplitude) / b.length
            assert regime1.stick_phase_angle(b, m) == expected


class TestStepDisplacement:
    def test_motor_off(self):
        assert regime1.step_displacement(unit_brush(0.6), MotorParams(0, 0, 10)) == 0.0

    def test_swing_to_vertical_projection(self):
        # theta = alpha: delta = l*(1 - cos(alpha))
        alpha = 0.5
        b = unit_brush(alpha)
        amplitude = 3.0 * alpha / math.cos(alpha)
        delta = regime1.step_displacement(b, motor_with_amplitude(amplitude))
        assert delta == pytest.approx(1.0 - math.cos(alpha), rel=1e-12)

    def test_quarter_pi_value_exact_arithmetic(self):
        # l = 1, alpha = pi/4, theta = 0.1; expected from a rational cosine series
        alpha = math.pi / 4
        b = unit_brush(alpha)
        amplitude = 3.0 * 0.1 / math.cos(alpha)
        motor = motor_with_amplitude(amplitude)
        theta = regime1.stick_phase_angle(b, motor)
        expected = float(cos_exact(alpha - theta) - cos_exact(alpha))
        delta = regime1.step_displacement(b, motor)
        assert delta == pytest.approx(expected, rel=1e-12)
        assert delta == pytest.approx(0.0671, abs=5e-5)

    def test_positive_up_to_alpha(self):
        alpha = 0.7
        b = unit_brush(alpha)
        for theta in np.linspace(1e-4, alpha, 25):
            amplitude = 3.0 * theta / math.cos(alpha)
            assert regime1.step_displacement(b, motor_with_amplitude(amplitude)) > 0.0

    def test_overswing_is_a_model_domain_error(self):
        alpha = 0.3
        b = unit_brush(alpha)
        amplitude = 3.0 * (2 * alpha) / math.cos(alpha)
        with pytest.raises(ModelDomainError, match="exceeds brush inclination"):
            regime1.step_displacement(b, motor_with_amplitude(amplitude))

    @pytest.mark.parametrize("eccentricity, angle", [(1.0, "inf"), (0.0, "nan")])
    def test_overflowed_angle_is_an_overflow_not_an_overswing(self, eccentricity, angle):
        # m*omega^2 overflows to inf; times a zero eccentricity that is nan
        motor = MotorParams(1e308, eccentricity, 300.0)
        with pytest.raises(OverflowError, match=f"^stick-phase angle is {angle}$"):
            regime1.step_displacement(unit_brush(0.6), motor)

    def test_domain_ends_just_past_alpha(self):
        alpha = 0.5
        b = unit_brush(alpha)
        amplitude = 3.0 * alpha / math.cos(alpha)
        assert regime1.stick_phase_angle(b, motor_with_amplitude(amplitude)) <= alpha
        regime1.step_displacement(b, motor_with_amplitude(amplitude))
        with pytest.raises(ModelDomainError):
            regime1.step_displacement(b, motor_with_amplitude(amplitude * (1 + 1e-9)))


class TestGroundSpeed:
    def test_motor_off(self):
        assert regime1.ground_speed(unit_brush(0.6), MotorParams(0, 0, 10)) == 0.0

    def test_one_revolution_per_second(self):
        b = unit_brush(0.5)
        motor = motor_with_amplitude(0.3, speed=2 * math.pi)
        assert regime1.ground_speed(b, motor) == regime1.step_displacement(b, motor)

    def test_two_revolutions_per_second(self):
        alpha = math.pi / 4
        b = unit_brush(alpha)
        amplitude = 3.0 * 0.1 / math.cos(alpha)
        motor = motor_with_amplitude(amplitude, speed=4 * math.pi)
        expected = 2.0 * float(cos_exact(alpha - 0.1) - cos_exact(alpha))
        assert regime1.ground_speed(b, motor) == pytest.approx(expected, rel=1e-10)


class TestForcedAmplitude:
    def test_motor_off(self):
        b = unit_brush(0.6)
        motor = MotorParams(0.0, 0.0, 10.0 * regime1.natural_frequency(b))
        assert regime1.forced_amplitude(b, motor) == 0.0

    def test_resonance_refused(self):
        b = unit_brush(0.6)
        omega_n = regime1.natural_frequency(b)
        with pytest.raises(ResonanceError):
            regime1.forced_amplitude(b, MotorParams(1e-3, 1e-3, omega_n))
        with pytest.raises(ResonanceError):
            regime1.forced_amplitude(
                b, MotorParams(1e-3, 1e-3, omega_n * (1.0 + 5e-4))
            )

    def test_sqrt_two_resonance_ratio(self):
        # omega = sqrt(2)*omega_n: theta_hat = -2*m*r*cos(alpha)/I_theta
        rng = np.random.default_rng(13)
        for _ in range(20):
            b = random_brush(rng)
            omega = math.sqrt(2.0) * regime1.natural_frequency(b)
            motor = random_motor(rng, speed=omega)
            expected = (
                -2.0
                * motor.eccentric_mass
                * motor.eccentricity
                * math.cos(b.inclination)
                / regime1.lumped_inertia(b)
            )
            assert regime1.forced_amplitude(b, motor) == pytest.approx(
                expected, rel=1e-12
            )

    def test_negative_above_resonance(self):
        b = unit_brush(0.6)
        omega_n = regime1.natural_frequency(b)
        assert regime1.forced_amplitude(b, MotorParams(1e-3, 1e-3, 2 * omega_n)) < 0.0
        assert regime1.forced_amplitude(b, MotorParams(1e-3, 1e-3, 0.5 * omega_n)) > 0.0

    def test_oscillator_residual(self):
        # theta(t) = theta_hat*sin(omega*t) must satisfy the forced oscillator
        # equation to rounding over ten forcing periods
        rng = np.random.default_rng(14)
        for _ in range(25):
            b = random_brush(rng)
            omega_n = regime1.natural_frequency(b)
            ratio = rng.choice([rng.uniform(0.1, 0.95), rng.uniform(1.05, 10.0)])
            motor = random_motor(rng, speed=ratio * omega_n)
            theta_hat = regime1.forced_amplitude(b, motor)
            inertia = regime1.lumped_inertia(b)
            stiffness = regime1.lumped_stiffness(b)
            drive = motor.force_amplitude * math.cos(b.inclination)
            omega = motor.speed
            bound = 1e-8 * drive
            for t in np.linspace(0.0, 10.0 * motor.period, 201):
                s = math.sin(omega * t)
                residual = (
                    inertia * (-(omega**2) * theta_hat * s)
                    + stiffness * theta_hat * s
                    - drive * s
                )
                assert abs(residual) <= bound

    def test_amplitude_peaks_next_to_resonance(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            b = random_brush(rng)
            motor = random_motor(rng)
            omega_n = regime1.natural_frequency(b)
            grid = np.geomspace(0.1 * omega_n, 10.0 * omega_n, 120)
            values = {}
            for w in grid:
                if abs(w - omega_n) / omega_n <= regime1.RESONANCE_GUARD:
                    continue
                values[w] = abs(
                    regime1.forced_amplitude(b, MotorParams(
                        motor.eccentric_mass, motor.eccentricity, w))
                )
            best = max(values, key=values.get)
            below = max((w for w in values if w < omega_n), default=None)
            above = min((w for w in values if w > omega_n), default=None)
            assert best in (below, above)


class TestRegime1Validity:
    def test_motor_off(self):
        robot = RobotParams(0.05, 2e-5, 0.03, 0.003, 0.04)
        valid, margin = regime1.regime1_validity(MotorParams(0, 0, 10), robot)
        assert valid
        assert margin == robot.weight

    def test_boundary_counts_as_valid(self):
        # exact float equality: m*omega^2*r = 0.5*4*1 = 2, M*g = 0.25*8 = 2
        robot = RobotParams(0.25, 2e-5, 0.03, 0.003, 0.04, gravity=8.0)
        motor = MotorParams(0.5, 1.0, 2.0)
        valid, margin = regime1.regime1_validity(motor, robot)
        assert valid
        assert margin == 0.0

    def test_fast_motor_invalid(self):
        robot = RobotParams(0.1, 2e-5, 0.03, 0.003, 0.04)
        motor = MotorParams(0.001, 0.002, 1000.0)
        valid, margin = regime1.regime1_validity(motor, robot)
        assert not valid
        assert margin == pytest.approx(0.1 * 9.81 - 2.0, rel=1e-12)


class TestPredict:
    def test_fields_match_operations(self, brush):
        motor = MotorParams(1e-3, 2e-3, 300.0)
        p = regime1.predict(brush, motor)
        assert p.k_theta == regime1.lumped_stiffness(brush)
        assert p.I_theta == regime1.lumped_inertia(brush)
        assert p.omega_n == regime1.natural_frequency(brush)
        assert p.t_bar == regime1.return_time(brush)
        assert p.theta_hat == regime1.forced_amplitude(brush, motor)
        assert p.delta == regime1.step_displacement(brush, motor)
        assert p.v_r == regime1.ground_speed(brush, motor)

    def test_resonance_propagates(self, brush):
        omega_n = regime1.natural_frequency(brush)
        with pytest.raises(ResonanceError):
            regime1.predict(brush, MotorParams(1e-3, 2e-3, omega_n))

    def test_overswing_propagates(self):
        # E = 2e5 Pa: the stick-phase angle far exceeds the inclination
        soft = BrushParams(2e5, 1e-12, 0.02, 0.6, 1e-3)
        with pytest.raises(ModelDomainError):
            regime1.predict(soft, MotorParams(1e-3, 2e-3, 300.0))
