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
    FAILURE_TYPES,
    FAILURES,
    OBJECTIVES,
    PARAMETERS,
    SweepSpec,
    failure,
    run_sweep,
)

from helpers import random_brush, random_motor, rows


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
        spec = SweepSpec("omega", "v_r_regime1", (100.0,))
        assert spec.grid == (100.0,)

    def test_from_range_linear(self):
        spec = SweepSpec.from_range("omega", "v_r_regime1", 100.0, 200.0, 5)
        assert spec.grid == (100.0, 125.0, 150.0, 175.0, 200.0)

    def test_from_range_log(self):
        spec = SweepSpec.from_range("omega", "v_r_regime1", 1.0, 100.0, 3, spacing="log")
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


# Sweep parameter -> its value on a (brush, motor) pair
VALUES = {
    "omega": lambda b, m: m.speed,
    "alpha": lambda b, m: b.inclination,
    "l": lambda b, m: b.length,
    "EI": lambda b, m: b.flexural_rigidity,
    "M_b": lambda b, m: b.brush_mass,
}


class TestConstantPairs:
    """A sweep is refused when its parameter cannot move its objective. This
    is worked out by evaluation, not read from OBJECTIVES: on seeded records,
    each objective at the record's parameter value and 0.1 % above it. Seven
    pairs read bit-equal values: (omega | M_b, k_theta), (M_b, v_r_regime1)
    and (alpha | l | EI | M_b, v_r_regime2)."""

    @pytest.mark.parametrize("objective", list(OBJECTIVES))
    @pytest.mark.parametrize("parameter", list(PARAMETERS))
    def test_a_pair_is_refused_exactly_when_its_objective_cannot_move(self, parameter,
                                                                       objective,
                                                                       reference_robot):
        rng = np.random.default_rng(1330)
        (evaluate, _), (_, apply) = OBJECTIVES[objective], PARAMETERS[parameter]
        robot, pairs = reference_robot, []
        for _ in range(20):
            brush, motor = random_brush(rng), random_motor(rng)
            value = VALUES[parameter](brush, motor)
            grid, pair = (value, value * 1.001), []
            for point in grid:
                try:
                    pair.append(evaluate(*apply(point, brush, motor), robot))
                except FAILURE_TYPES:
                    pair.append(None)
            pairs.append(pair)
        assert any(None not in pair for pair in pairs)  # some record has a value to move
        if any(a != b for a, b in pairs):
            SweepSpec(parameter, objective, grid)
        else:
            message = f"sweep parameter '{parameter}' does not enter objective '{objective}'"
            with pytest.raises(ValidationError, match=f"^{message}$"):
                SweepSpec(parameter, objective, grid)


class TestOmegaRecord:
    """An omega point's motor is built unchecked (tuple.__new__), so the
    grid domain must refuse every speed that MotorParams refuses."""

    def test_record_equals_the_validated_motor(self, brush, reference_motor):
        _, apply = PARAMETERS["omega"]
        for value in (5e-324, 1e-300, 0.5, 1, 300.0, 1e300, 1.7976931348623157e308):
            SweepSpec("omega", "v_r_regime2", (value,))  # on the grid
            got_brush, got = apply(value, brush, reference_motor)
            assert got_brush is brush and type(got) is MotorParams
            expected = MotorParams(reference_motor.eccentric_mass, reference_motor.eccentricity, value)
            assert got == expected
            assert got.speed is value

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_speeds_motor_params_refuses_are_off_the_grid(self, reference_motor, value):
        with pytest.raises(ValidationError, match="out of domain"):
            SweepSpec("omega", "v_r_regime2", (value,))
        with pytest.raises(ValidationError):
            reference_motor._replace(speed=value)


class TestRunSweep:
    def test_single_point_argmax(self, brush, reference_motor):
        spec = SweepSpec("omega", "forced_amplitude_abs", (100.0,))
        result = run_sweep(spec, brush, reference_motor)
        assert result.argmax == 100.0

    def test_argmax_is_the_first_of_equal_best_rows(self, brush, reference_motor, monkeypatch):
        # an objective that the brush mass enters, but that reads 1.0 at every point
        monkeypatch.setitem(OBJECTIVES, "flat", (lambda b, m, _: 1.0, ("M_b",)))
        spec = SweepSpec("M_b", "flat", (1e-3, 2e-3, 3e-3))
        result = run_sweep(spec, brush, reference_motor)
        assert len({row.objective for row in result.rows}) == 1
        assert all(row.status == STATUS_OK for row in result.rows)
        assert result.argmax == 1e-3

    def test_alpha_stiffness_strictly_increasing(self, brush, reference_motor):
        spec = SweepSpec.from_range("alpha", "k_theta", 0.1, 1.4, 10)
        result = run_sweep(spec, brush, reference_motor)
        values = [row.objective for row in result.rows]
        assert all(b > a for a, b in zip(values, values[1:]))
        for row in result.rows:
            direct = regime1.lumped_stiffness(
                BrushParams(2e9, 1e-12, 0.02, row.value, 1e-3)
            )
            assert row.objective == direct
        assert result.argmax == result.rows[-1].value

    def test_resonant_point_is_flagged_not_fatal(self, brush, reference_motor):
        omega_n = regime1.natural_frequency(brush)
        spec = SweepSpec(
            "omega", "forced_amplitude_abs", (0.5 * omega_n, omega_n, 2.0 * omega_n)
        )
        result = run_sweep(spec, brush, reference_motor)
        statuses = [row.status for row in result.rows]
        assert statuses == [STATUS_OK, STATUS_RESONANCE, STATUS_OK]
        assert result.rows[1].objective is None
        assert result.argmax in (result.rows[0].value, result.rows[2].value)

    def test_regime2_objective_flags_quiet_points(self, brush, reference_motor, reference_robot):
        # at 100 rad/s the forcing moment never beats gravity: no cycles
        spec = SweepSpec("omega", "v_r_regime2", (100.0, 300.0))
        result = run_sweep(spec, brush, reference_motor, reference_robot)
        assert result.rows[0].status == STATUS_NO_CYCLES
        assert result.rows[1].status == STATUS_OK
        assert result.rows[1].objective > 0.0
        assert result.argmax == 300.0

    def test_regime2_objective_passes_the_window_guards_by(self, brush, reference_motor,
                                                           reference_robot):
        # the window is shorter than five forcing periods at 10 rad/s, and
        # its dt is above T/200 at 4000 rad/s; neither row reads invalid
        sim = SimConfig(t_end=0.5, dt=1e-4, record_stride=1000)
        spec = SweepSpec("omega", "v_r_regime2", (10.0, 300.0, 4000.0))
        result = run_sweep(spec, brush, reference_motor, reference_robot, sim)
        statuses = [row.status for row in result.rows]
        assert statuses == [STATUS_NO_CYCLES, STATUS_OK, STATUS_OK]  # 10 rad/s cannot lift

    @pytest.mark.parametrize("sim", [
        SimConfig(0.5, 1e-4),
        SimConfig(1e-3, 1e-6, 0.3, 7),
        SimConfig(1e300, 1e-4),
        SimConfig(1e-300, 1e-300),
    ], ids=["reference", "tilted-short", "huge", "tiny"])
    def test_regime2_rows_are_the_same_under_any_window_and_none(self, brush, sim, reference_motor,
                                                                 reference_robot):
        # rows below lift-off, hops of 1 to ~340 periods, and tip-overs up to 5e4 rad/s
        spec = SweepSpec.from_range("omega", "v_r_regime2", 100.0, 5e4, 30, "log")
        robot, motor = reference_robot, reference_motor
        result = run_sweep(spec, brush, motor, robot, sim)
        assert result == run_sweep(spec, brush, motor, robot)
        statuses = {row.status for row in result.rows}
        assert statuses == {STATUS_NO_CYCLES, STATUS_OK, STATUS_MODEL_DOMAIN}

    def test_regime2_objective_is_the_steady_hop_of_stream(self, brush, reference_motor,
                                                           reference_robot):
        # v_r_regime2 is the speed stream implies: h*sin(peak) per hop from
        # rest, over the time between the last two lift-offs from rest in its
        # events, on robots that hop once every n = 1 to 50 forcing periods
        rng = np.random.default_rng(31)
        objective, _ = OBJECTIVES["v_r_regime2"]
        robot, motor = reference_robot, reference_motor
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
            rest = regime2.stream(drawn, drawn_motor, window).cycles[window.theta0 > 0.0:]
            gap = rest[-1].lift_off - rest[-2].lift_off
            expected = drawn.step_height * math.sin(rest[-1].peak) / gap
            got = objective(brush, drawn_motor, drawn)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0), window
            hops.add(round(gap / drawn_motor.period))
        assert min(hops) == 1 and max(hops) >= 50

    def test_regime2_objective_needs_no_hop_from_rest_in_the_window(self, brush, reference_motor,
                                                                    reference_robot):
        # TestWindow's tilted flight lands alone; over 5.5 periods the flight
        # from rest after it is airborne at the window end. Neither window
        # holds a hop from rest, and the sweep row is the steady hop
        objective, _ = OBJECTIVES["v_r_regime2"]
        robot, motor = reference_robot, reference_motor
        period = motor.period
        steady = objective(brush, motor, robot)
        for periods in (5.0, 5.5):
            window = SimConfig(periods * period, period / 400.0, 0.2)
            traj = regime2.stream(robot, motor, window)
            *_, last = rows(traj.samples)
            assert len(traj.cycles) == 1 and (last.theta > 0.0) == (periods > 5.0)
            result = run_sweep(SweepSpec("omega", "v_r_regime2", (motor.speed,)),
                               brush, motor, robot, window)
            assert result.rows == ((motor.speed, steady, STATUS_OK),)
        lift = math.sqrt(robot.weight * robot.gravity_arm / (1e-3 * 2e-3 * robot.forcing_arm))
        with pytest.raises(regime2.NoCompletedCycleError):  # below lift-off
            objective(brush, MotorParams(1e-3, 2e-3, 0.9 * lift), robot)
        with pytest.raises(regime2.NoCompletedCycleError):  # motor off, no gravity moment
            objective(brush, MotorParams(0.0, 2e-3, 300.0), robot._replace(gravity_arm=0.0))
        runaway, violent = RobotParams(0.05, 1e-6, 0.05, 0.0, 0.04), MotorParams(0.01, 0.01, 300.0)
        with pytest.raises(regime2.ModelDomainError):  # tips over, as in stream
            regime2.stream(runaway, violent, SimConfig(0.5, 1e-4))
        with pytest.raises(regime2.ModelDomainError):
            objective(brush, violent, runaway)

    def test_regime2_point_airborne_at_the_horizon_is_no_cycles(self, brush, reference_robot):
        # rho = c_g/c_f ~ 8e-7 at 1e5 rad/s: the flight from rest lifts off,
        # and would land ~4e5 periods later, past the 5e4-period horizon
        robot = reference_robot._replace(gravity_arm=1e-9)
        motor = MotorParams(1e-9, 2e-3, 1e5)
        assert regime2._flight(robot, motor, 0.0).lifts
        with pytest.raises(regime2.NoCompletedCycleError, match="within 50000 periods"):
            regime2.steady_speed(robot, motor)
        result = run_sweep(SweepSpec("omega", "v_r_regime2", (1e5,)), brush, motor, robot)
        assert result.rows == ((1e5, None, STATUS_NO_CYCLES),)

    def test_regime2_objective_needs_robot(self, brush, reference_motor):
        spec = SweepSpec("omega", "v_r_regime2", (100.0, 300.0))
        with pytest.raises(ValidationError, match="v_r_regime2"):
            run_sweep(spec, brush, reference_motor)

    def test_ei_and_mass_and_length_parameters(self, brush, reference_motor):
        direct = {"k_theta": regime1.lumped_stiffness,
                  "forced_amplitude_abs": lambda b: abs(regime1.forced_amplitude(b, reference_motor))}
        for parameter, attribute, objective in (("l", "length", "k_theta"),
                                                ("M_b", "brush_mass", "forced_amplitude_abs")):
            spec = SweepSpec(parameter, objective, (0.01, 0.02))
            result = run_sweep(spec, brush, reference_motor)
            for row in result.rows:
                modified = {
                    "young_modulus": 2e9,
                    "second_area_moment": 1e-12,
                    "length": 0.02,
                    "inclination": 0.6,
                    "brush_mass": 1e-3,
                    attribute: row.value,
                }
                assert row.objective == direct[objective](BrushParams(**modified))
        spec = SweepSpec("EI", "k_theta", (1e-3, 4e-3))
        result = run_sweep(spec, brush, reference_motor)
        for row in result.rows:
            expected = 3.0 * row.value / (0.02**2 * math.cos(0.6))
            assert row.objective == pytest.approx(expected, rel=1e-12)

    def test_sweep_argmax_densifies_toward_guard_boundary(self, brush, reference_motor):
        omega_n = regime1.natural_frequency(brush)
        edge = omega_n * (1.0 - 2e-3)
        coarse = run_sweep(
            SweepSpec.from_range(
                "omega", "forced_amplitude_abs", 0.1 * omega_n, edge, 10
            ),
            brush,
            reference_motor,
        )
        dense = run_sweep(
            SweepSpec.from_range(
                "omega", "forced_amplitude_abs", 0.1 * omega_n, edge, 100
            ),
            brush,
            reference_motor,
        )
        assert abs(dense.argmax - edge) <= abs(coarse.argmax - edge)
        assert dense.argmax == pytest.approx(edge, rel=1e-12)

    def test_overswinging_points_are_model_domain_rows(self, brush, reference_motor):
        # the stick-phase angle passes the 0.6 rad inclination at ~2335 rad/s
        spec = SweepSpec("omega", "v_r_regime1", (1500.0, 3500.0))
        result = run_sweep(spec, brush, reference_motor)
        assert [row.status for row in result.rows] == [STATUS_OK, STATUS_MODEL_DOMAIN]
        assert result.argmax == 1500.0

    def test_overflowed_stick_phase_angle_is_an_invalid_row(self, brush, reference_motor):
        spec = SweepSpec("omega", "v_r_regime1", (300.0, 1e300))
        result = run_sweep(spec, brush, reference_motor)
        assert [row.status for row in result.rows] == [STATUS_OK, STATUS_INVALID]
        assert result.argmax == 300.0

    def test_points_leaving_the_float_range_are_invalid_rows(self, brush, reference_motor):
        # l = 1e-200: l**2 underflows to a zero divisor; l = 1e-160: k_theta
        # is inf; l = 1e-100: k_theta is large but finite
        spec = SweepSpec("l", "k_theta", (1e-200, 1e-160, 1e-100, 0.02))
        result = run_sweep(spec, brush, reference_motor)
        statuses = [row.status for row in result.rows]
        assert statuses == [STATUS_INVALID, STATUS_INVALID, STATUS_OK, STATUS_OK]
        assert [row.objective for row in result.rows[:2]] == [None, None]
        assert math.isfinite(result.rows[2].objective)
        assert result.argmax == 1e-100


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
