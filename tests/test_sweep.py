"""Parameter sweeps and per-point error isolation."""

import math
import re

import numpy as np
import pytest

from brushdyn import BrushParams, MotorParams, RobotParams, SimConfig, regime1, regime2, sweep
from brushdyn.params import ValidationError
from brushdyn.sweep import (
    STATUS_INVALID,
    STATUS_MODEL_DOMAIN,
    STATUS_NO_CYCLES,
    STATUS_OK,
    STATUS_RESONANCE,
    FAILURES,
    OBJECTIVES,
    PARAMETERS,
    SweepSpec,
    failure,
    run_sweep,
)

from helpers import reference_motor, reference_robot


@pytest.fixture
def brush():
    return BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)


@pytest.fixture
def motor():
    return MotorParams(1e-3, 2e-3, 300.0)


class TestSweepSpec:
    def test_unknown_parameter(self):
        with pytest.raises(ValidationError, match="parameter"):
            SweepSpec("frequency", "k_theta", (1.0, 2.0))

    def test_unknown_objective(self):
        with pytest.raises(ValidationError, match="objective"):
            SweepSpec("omega", "speed", (1.0, 2.0))

    def test_grid_must_increase(self):
        with pytest.raises(ValidationError, match="increasing"):
            SweepSpec("omega", "k_theta", (2.0, 1.0))
        with pytest.raises(ValidationError, match="increasing"):
            SweepSpec("omega", "k_theta", (1.0, 1.0))

    def test_grid_domain_checked(self):
        with pytest.raises(ValidationError, match="domain"):
            SweepSpec("alpha", "k_theta", (0.3, math.pi / 2))
        with pytest.raises(ValidationError, match="domain"):
            SweepSpec("omega", "k_theta", (0.0, 1.0))
        for parameter in PARAMETERS:
            for bad in (math.inf, math.nan):
                with pytest.raises(ValidationError, match=f"grid value {bad!r} out of"):
                    SweepSpec(parameter, "k_theta", (0.5, bad))

    def test_single_point_grid_allowed(self):
        spec = SweepSpec("omega", "k_theta", (100.0,))
        assert spec.grid == (100.0,)

    def test_from_range_linear(self):
        spec = SweepSpec.from_range("omega", "k_theta", 100.0, 200.0, 5)
        assert spec.grid == (100.0, 125.0, 150.0, 175.0, 200.0)

    def test_from_range_log(self):
        spec = SweepSpec.from_range("omega", "k_theta", 1.0, 100.0, 3, spacing="log")
        assert spec.grid[0] == 1.0
        assert spec.grid[1] == pytest.approx(10.0, rel=1e-12)
        assert spec.grid[2] == 100.0

    def test_from_range_needs_two_points(self):
        with pytest.raises(ValidationError, match="2 points"):
            SweepSpec.from_range("omega", "k_theta", 1.0, 2.0, 1)

    def test_log_needs_positive_start(self):
        with pytest.raises(ValidationError, match="start"):
            SweepSpec.from_range("alpha", "k_theta", -1.0, 1.0, 5, spacing="log")

    @pytest.mark.parametrize(
        "parameter, start, stop, named",
        [
            ("omega", 100.0, math.inf, "inf"),  # infinite step, nan first point
            ("omega", -math.inf, 100.0, "-inf"),
            ("omega", -1e308, 1e308, "-1e+308"),  # the span overflows
            ("alpha", 0.1, 3.0, "2.275"),  # the first grid value past pi/2
        ],
    )
    def test_out_of_domain_range_names_a_grid_value(self, parameter, start, stop, named):
        message = f"grid value {named} out of domain for parameter '{parameter}'"
        with pytest.raises(ValidationError, match=re.escape(message)):
            SweepSpec.from_range(parameter, "k_theta", start, stop, 5)


class TestOmegaRecord:
    """An omega point's motor is built unchecked (tuple.__new__), so the
    grid domain must refuse every speed that MotorParams refuses."""

    def test_record_equals_the_validated_motor(self, brush, motor):
        _, apply = PARAMETERS["omega"]
        for value in (5e-324, 1e-300, 0.5, 1, 300.0, 1e300, 1.7976931348623157e308):
            SweepSpec("omega", "v_r_regime2", (value,))  # on the grid
            got_brush, got = apply(value, brush, motor)
            assert got_brush is brush and type(got) is MotorParams
            assert got == MotorParams(motor.eccentric_mass, motor.eccentricity, value)
            assert got.speed is value

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_speeds_motor_params_refuses_are_off_the_grid(self, motor, value):
        with pytest.raises(ValidationError, match="out of domain"):
            SweepSpec("omega", "v_r_regime2", (value,))
        with pytest.raises(ValidationError):
            motor._replace(speed=value)


class TestRunSweep:
    def test_amplitude_peaks_next_to_resonance(self, brush, motor):
        omega_n = regime1.natural_frequency(brush)
        grid = tuple(f * omega_n for f in (0.5, 0.9, 1.1, 2.0))
        spec = SweepSpec("omega", "forced_amplitude_abs", grid)
        result = run_sweep(spec, brush, motor)
        assert all(row.status == STATUS_OK for row in result.rows)
        assert result.argmax == grid[2]

    def test_single_point_argmax(self, brush, motor):
        spec = SweepSpec("omega", "forced_amplitude_abs", (100.0,))
        result = run_sweep(spec, brush, motor)
        assert result.argmax == 100.0

    def test_alpha_stiffness_strictly_increasing(self, brush, motor):
        spec = SweepSpec.from_range("alpha", "k_theta", 0.1, 1.4, 10)
        result = run_sweep(spec, brush, motor)
        values = [row.objective for row in result.rows]
        assert all(b > a for a, b in zip(values, values[1:]))
        for row in result.rows:
            direct = regime1.lumped_stiffness(
                BrushParams(2e9, 1e-12, 0.02, row.value, 1e-3)
            )
            assert row.objective == direct
        assert result.argmax == result.rows[-1].value

    def test_resonant_point_is_flagged_not_fatal(self, brush, motor):
        omega_n = regime1.natural_frequency(brush)
        spec = SweepSpec(
            "omega", "forced_amplitude_abs", (0.5 * omega_n, omega_n, 2.0 * omega_n)
        )
        result = run_sweep(spec, brush, motor)
        statuses = [row.status for row in result.rows]
        assert statuses == [STATUS_OK, STATUS_RESONANCE, STATUS_OK]
        assert result.rows[1].objective is None
        assert result.argmax in (result.rows[0].value, result.rows[2].value)

    def test_regime2_objective_flags_quiet_points(self, brush):
        # at 100 rad/s the forcing moment never beats gravity: no cycles
        robot = reference_robot()
        motor = reference_motor()
        sim = SimConfig(t_end=0.5, dt=1e-4, record_stride=1000)
        spec = SweepSpec("omega", "v_r_regime2", (100.0, 300.0))
        result = run_sweep(spec, brush, motor, robot, sim)
        assert result.rows[0].status == STATUS_NO_CYCLES
        assert result.rows[1].status == STATUS_OK
        assert result.rows[1].objective > 0.0
        assert result.argmax == 300.0

    def test_regime2_objective_flags_guard_violations(self, brush):
        # at 10 rad/s the window is shorter than five forcing periods
        robot = reference_robot()
        motor = reference_motor()
        sim = SimConfig(t_end=0.5, dt=1e-4, record_stride=1000)
        spec = SweepSpec("omega", "v_r_regime2", (10.0, 300.0))
        result = run_sweep(spec, brush, motor, robot, sim)
        assert result.rows[0].status == STATUS_INVALID
        assert result.rows[1].status == STATUS_OK

    def test_regime2_objective_is_the_steady_hop_of_simulate(self, brush):
        # v_r_regime2 is the speed simulate implies: h*sin(peak) per hop from
        # rest, over the time between the last two lift-offs from rest in its
        # events, on robots that hop once every n = 1 to 50 forcing periods
        rng = np.random.default_rng(31)
        objective = OBJECTIVES["v_r_regime2"]
        robot, motor = reference_robot(), reference_motor()
        # the reference window, and the same with its last flight airborne
        cases = [(robot, motor, SimConfig(0.5, 1e-4)), (robot, motor, SimConfig(0.47, 1e-4))]
        for index in range(60):
            drawn = RobotParams(
                body_mass=0.05 * rng.uniform(0.5, 2.0),
                pivot_inertia=2e-5 * rng.uniform(0.5, 2.0),
                forcing_arm=0.03 * rng.uniform(0.5, 2.0),
                gravity_arm=0.003 * rng.uniform(0.5, 2.0),
                step_height=rng.uniform(0.01, 0.08),
            )
            # the speed that puts rho = c_g/c_f at a draw; a hop takes about
            # 0.33/rho periods below rho = 0.3, one above
            rho = 10 ** rng.uniform(math.log10(0.0062), math.log10(0.6))
            moments = drawn.weight * drawn.gravity_arm / (1e-3 * 2e-3 * drawn.forcing_arm)
            drawn_motor = MotorParams(1e-3, 2e-3, math.sqrt(moments / rho))
            period = drawn_motor.period
            theta0 = rng.uniform(0.001, 0.05) if index % 3 == 0 else 0.0
            window = SimConfig((1.2 / rho + 6.0) * period, period / 200.0, theta0, 50)
            cases.append((drawn, drawn_motor, window))
        hops = set()
        for drawn, drawn_motor, window in cases:
            traj = regime2.simulate(drawn, drawn_motor, window)
            rest = traj.events[window.theta0 > 0.0:]
            gap = rest[-1].lift_off_time - rest[-2].lift_off_time
            expected = drawn.step_height * math.sin(traj.cycle_peaks[-1]) / gap
            got = objective(brush, drawn_motor, drawn, window)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0), window
            hops.add(round(gap / drawn_motor.period))
        assert min(hops) == 1 and max(hops) >= 50

    def test_regime2_objective_needs_a_landed_hop_from_rest(self, brush):
        # TestWindow's tilted flight lands alone; over 5.5 periods the flight
        # from rest after it is airborne at the window end: no steady hop,
        # though simulate counts the tilted flight as a cycle
        objective = OBJECTIVES["v_r_regime2"]
        robot, motor = reference_robot(), reference_motor()
        period = motor.period
        for periods in (5.0, 5.5):
            window = SimConfig(periods * period, period / 400.0, 0.2)
            traj = regime2.simulate(robot, motor, window)
            assert len(traj.events) == 1 and (traj.samples[-1].theta > 0.0) == (periods > 5.0)
            with pytest.raises(regime2.NoCompletedCycleError):
                objective(brush, motor, robot, window)
            result = run_sweep(SweepSpec("omega", "v_r_regime2", (motor.speed,)),
                               brush, motor, robot, window)
            assert result.rows == ((motor.speed, None, STATUS_NO_CYCLES),)
        lift = math.sqrt(robot.weight * robot.gravity_arm / (1e-3 * 2e-3 * robot.forcing_arm))
        with pytest.raises(regime2.NoCompletedCycleError):  # below lift-off
            objective(brush, MotorParams(1e-3, 2e-3, 0.9 * lift), robot, SimConfig(0.5, 1e-4))
        runaway, violent = RobotParams(0.05, 1e-6, 0.05, 0.0, 0.04), MotorParams(0.01, 0.01, 300.0)
        with pytest.raises(regime2.ModelDomainError):  # tips over, as in simulate
            regime2.simulate(runaway, violent, SimConfig(0.5, 1e-4))
        with pytest.raises(regime2.ModelDomainError):
            objective(brush, violent, runaway, SimConfig(0.5, 1e-4))

    def test_regime2_objective_needs_robot_and_sim(self, brush, motor):
        spec = SweepSpec("omega", "v_r_regime2", (100.0, 300.0))
        with pytest.raises(ValidationError, match="v_r_regime2"):
            run_sweep(spec, brush, motor)

    def test_ei_and_mass_and_length_parameters(self, brush, motor):
        for parameter, attribute in (("l", "length"), ("M_b", "brush_mass")):
            spec = SweepSpec(parameter, "k_theta", (0.01, 0.02))
            result = run_sweep(spec, brush, motor)
            for row in result.rows:
                modified = {
                    "young_modulus": 2e9,
                    "second_area_moment": 1e-12,
                    "length": 0.02,
                    "inclination": 0.6,
                    "brush_mass": 1e-3,
                    attribute: row.value,
                }
                assert row.objective == regime1.lumped_stiffness(
                    BrushParams(**modified)
                )
        spec = SweepSpec("EI", "k_theta", (1e-3, 4e-3))
        result = run_sweep(spec, brush, motor)
        for row in result.rows:
            expected = 3.0 * row.value / (0.02**2 * math.cos(0.6))
            assert row.objective == pytest.approx(expected, rel=1e-12)

    def test_sweep_argmax_densifies_toward_guard_boundary(self, brush, motor):
        omega_n = regime1.natural_frequency(brush)
        edge = omega_n * (1.0 - 2e-3)
        coarse = run_sweep(
            SweepSpec.from_range(
                "omega", "forced_amplitude_abs", 0.1 * omega_n, edge, 10
            ),
            brush,
            motor,
        )
        dense = run_sweep(
            SweepSpec.from_range(
                "omega", "forced_amplitude_abs", 0.1 * omega_n, edge, 100
            ),
            brush,
            motor,
        )
        assert abs(dense.argmax - edge) <= abs(coarse.argmax - edge)
        assert dense.argmax == pytest.approx(edge, rel=1e-12)

    def test_overswinging_points_are_model_domain_rows(self, brush):
        # the stick-phase angle passes the 0.6 rad inclination at ~2335 rad/s
        motor = MotorParams(1e-3, 2e-3, 300.0)
        spec = SweepSpec("omega", "v_r_regime1", (1500.0, 3500.0))
        result = run_sweep(spec, brush, motor)
        assert [row.status for row in result.rows] == [STATUS_OK, STATUS_MODEL_DOMAIN]
        assert result.argmax == 1500.0

    def test_overflowed_stick_phase_angle_is_an_invalid_row(self, brush, motor):
        spec = SweepSpec("omega", "v_r_regime1", (300.0, 1e300))
        result = run_sweep(spec, brush, motor)
        assert [row.status for row in result.rows] == [STATUS_OK, STATUS_INVALID]
        assert result.argmax == 300.0

    def test_points_leaving_the_float_range_are_invalid_rows(self, brush, motor):
        # l = 1e-200: l**2 underflows to a zero divisor; l = 1e-160: k_theta
        # is inf; l = 1e-100: k_theta is large but finite
        spec = SweepSpec("l", "k_theta", (1e-200, 1e-160, 1e-100, 0.02))
        result = run_sweep(spec, brush, motor)
        statuses = [row.status for row in result.rows]
        assert statuses == [STATUS_INVALID, STATUS_INVALID, STATUS_OK, STATUS_OK]
        assert [row.objective for row in result.rows[:2]] == [None, None]
        assert math.isfinite(result.rows[2].objective)
        assert result.argmax == 1e-100

    def test_deterministic(self, brush, motor):
        spec = SweepSpec.from_range("omega", "v_r_regime1", 50.0, 500.0, 20)
        assert run_sweep(spec, brush, motor) == run_sweep(spec, brush, motor)


class TestFailures:
    def test_statuses_are_the_status_constants(self):
        # bench/run.py reports one per-layer count per STATUS_* constant
        constants = {getattr(sweep, name) for name in dir(sweep)
                     if name.startswith("STATUS_")}
        statuses = {status for status, _, _ in FAILURES.values()}
        assert statuses | {STATUS_OK} == constants

    def test_an_error_takes_its_most_specific_entry(self):
        for cls, entry in FAILURES.items():
            assert failure(cls("message")) == entry
        # a zero divisor raises ZeroDivisionError, which has no entry of its own
        assert failure(ZeroDivisionError("message")) == FAILURES[ArithmeticError]
