"""Hybrid pivot-rotation simulator: events, resets, displacement accounting."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from brushdyn import MotorParams, RobotParams, SimConfig, regime2
from brushdyn.params import ValidationError
from brushdyn.regime2 import (
    ModelDomainError,
    NoCompletedCycleError,
    Regime2Trajectory,
    Sample,
)

from helpers import (
    REFERENCE_PEAK,
    bisect,
    flight_events,
    reference_motor,
    reference_robot,
    rk4_hybrid,
)


def quiet_motor(speed=300.0):
    return MotorParams(eccentric_mass=0.0, eccentricity=0.0, speed=speed)


class TestSimConfig:
    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValidationError, match="t_end"):
            SimConfig(t_end=0.0, dt=1e-4)
        with pytest.raises(ValidationError, match="dt"):
            SimConfig(t_end=1.0, dt=0.0)

    def test_rejects_bad_initial_angle(self):
        with pytest.raises(ValidationError, match="theta0"):
            SimConfig(t_end=1.0, dt=1e-4, theta0=-0.1)
        with pytest.raises(ValidationError, match="theta0"):
            SimConfig(t_end=1.0, dt=1e-4, theta0=math.pi / 2)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValidationError, match="record_stride"):
            SimConfig(t_end=1.0, dt=1e-4, record_stride=0)

    def test_rejects_grid_count_overflowing_the_float_range(self):
        for t_end, dt in ((1e300, 1e-10), (1.0, 5e-324)):
            with pytest.raises(ValidationError, match=r"t_end / dt must be finite"):
                SimConfig(t_end=t_end, dt=dt)
        SimConfig(t_end=1e300, dt=1e-8)  # 1e308 grid steps is still finite

    def test_step_guard_against_motor_period(self, reference_robot):
        motor = reference_motor()
        with pytest.raises(ValidationError, match="dt"):
            regime2.simulate(
                reference_robot, motor, SimConfig(t_end=0.5, dt=motor.period / 100)
            )

    def test_window_guard_against_motor_period(self, reference_robot):
        motor = reference_motor()
        with pytest.raises(ValidationError, match="t_end"):
            regime2.simulate(
                reference_robot, motor, SimConfig(t_end=4.0 * motor.period, dt=1e-4)
            )


class TestNetMoment:
    def test_no_forcing_no_gravity_arm(self):
        robot = RobotParams(0.05, 2e-5, 0.03, 0.0, 0.04)
        assert regime2.net_moment(robot, quiet_motor(), 0.37) == 0.0

    def test_start_is_pure_gravity(self, reference_robot, reference_motor):
        expected = -reference_robot.weight * reference_robot.gravity_arm
        assert regime2.net_moment(reference_robot, reference_motor, 0.0) == expected

    def test_quarter_period_mix(self):
        robot = RobotParams(0.05, 2e-5, 0.03, 0.005, 0.04)
        motor = MotorParams(0.001, 0.002, 100.0)
        t = motor.period / 4.0
        assert regime2.net_moment(robot, motor, t) == pytest.approx(
            0.02 * 0.03 - 0.05 * 9.81 * 0.005, rel=1e-9
        )


class TestLiftOffCondition:
    def test_weak_motor_never_lifts(self):
        # m*omega^2*r*w stays below M*g*w_G
        robot = RobotParams(0.05, 2e-5, 0.03, 0.003, 0.04)
        motor = MotorParams(1e-4, 1e-4, 100.0)
        assert motor.force_amplitude * robot.forcing_arm < robot.weight * robot.gravity_arm
        for t in np.linspace(0.0, motor.period, 101):
            assert regime2.net_moment(robot, motor, t) <= 0.0

    def test_no_gravity_arm_follows_forcing_sign(self):
        robot = RobotParams(0.05, 2e-5, 0.03, 0.0, 0.04)
        motor = MotorParams(1e-3, 2e-3, 300.0)
        assert regime2.net_moment(robot, motor, motor.period / 4) > 0.0
        assert regime2.net_moment(robot, motor, 3 * motor.period / 4) <= 0.0

    def test_first_lift_off_matches_moment_root(
        self, reference_robot, reference_motor, reference_trajectory
    ):
        # independent bisection on the net moment over the first quarter period
        lo, hi = 0.0, reference_motor.period / 4.0
        assert regime2.net_moment(reference_robot, reference_motor, lo) <= 0.0
        assert regime2.net_moment(reference_robot, reference_motor, hi) > 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if regime2.net_moment(reference_robot, reference_motor, mid) > 0.0:
                hi = mid
            else:
                lo = mid
        first = reference_trajectory.events[0].lift_off_time
        assert first == pytest.approx(hi, abs=1e-12)
        ratio = (reference_robot.weight * reference_robot.gravity_arm) / (
            reference_motor.force_amplitude * reference_robot.forcing_arm
        )
        assert first == pytest.approx(
            math.asin(ratio) / reference_motor.speed, abs=1e-12
        )


class TestSimulateTrivial:
    def test_motor_off_stays_at_rest(self, reference_robot):
        traj = regime2.simulate(reference_robot, quiet_motor(), SimConfig(0.5, 1e-4))
        assert not traj.events
        assert not traj.cycle_peaks
        assert all(s.theta == 0.0 for s in traj.samples)
        assert all(s.theta_dot == 0.0 for s in traj.samples)
        assert all(s.x == 0.0 for s in traj.samples)

    def test_gravity_fall_from_initial_angle(self, reference_robot):
        theta0 = 0.3
        cfg = SimConfig(t_end=0.5, dt=1e-4, theta0=theta0)
        traj = regime2.simulate(reference_robot, quiet_motor(), cfg)

        decel = (
            reference_robot.weight
            * reference_robot.gravity_arm
            / reference_robot.pivot_inertia
        )
        fall_time = math.sqrt(2.0 * theta0 / decel)
        assert len(traj.events) == 1
        assert traj.events[0].lift_off_time == 0.0
        assert traj.events[0].touchdown_time == pytest.approx(fall_time, abs=1e-9)
        assert traj.cycle_peaks == (theta0,)
        assert traj.samples[-1].x == pytest.approx(
            reference_robot.step_height * math.sin(theta0), rel=1e-12
        )

        # parabolic flight against the samples, constant angular deceleration
        for s in traj.samples:
            if 0.0 < s.t < traj.events[0].touchdown_time:
                assert s.theta == pytest.approx(
                    theta0 - 0.5 * decel * s.t**2, abs=1e-8
                )
                assert s.theta_ddot == -decel

        # at rest forever after the single touchdown
        after = [s for s in traj.samples if s.t > traj.events[0].touchdown_time]
        assert after
        assert all(s.theta == 0.0 and s.x == traj.samples[-1].x for s in after)


class TestSimulateReference:
    def test_constraint_never_violated(self, reference_trajectory):
        assert all(s.theta >= -1e-12 for s in reference_trajectory.samples)

    def test_impact_resets_are_exact(self, reference_trajectory):
        by_time = {s.t: s for s in reference_trajectory.samples}
        assert reference_trajectory.events
        for event in reference_trajectory.events:
            s = by_time[event.touchdown_time]
            assert s.theta == 0.0
            assert s.theta_dot == 0.0
            assert s.theta_ddot == 0.0

    def test_displacement_staircase(self, reference_trajectory, reference_robot):
        xs = [s.x for s in reference_trajectory.samples]
        assert all(b >= a for a, b in zip(xs, xs[1:]))
        # x jumps by h*sin(peak) exactly at each touchdown and nowhere else
        expected = 0.0
        events = iter(
            zip(reference_trajectory.events, reference_trajectory.cycle_peaks)
        )
        event, peak = next(events)
        for s in reference_trajectory.samples:
            if event is not None and s.t >= event.touchdown_time:
                expected += reference_robot.step_height * math.sin(peak)
                event, peak = next(events, (None, None))
            assert s.x == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_cycles_lock_to_forcing_phase(self, reference_trajectory, reference_motor):
        phases = [
            e.lift_off_time % reference_motor.period
            for e in reference_trajectory.events
        ]
        assert max(phases) - min(phases) <= 1e-10

    def test_steady_peaks_after_cycle_three(self, reference_trajectory):
        peaks = reference_trajectory.cycle_peaks
        assert len(peaks) >= 6
        for a, b in zip(peaks[3:], peaks[4:]):
            assert abs(b - a) / a <= 0.01

    def test_peak_angle_matches_fine_reference(self, reference_trajectory):
        assert regime2.peak_angle(reference_trajectory) == pytest.approx(
            REFERENCE_PEAK, abs=1e-4
        )

    def test_airborne_segments_match_rk4_oracle(
        self, reference_trajectory, reference_robot, reference_motor
    ):
        # RK4 at a tenth of the library's grid step: library grid point k is
        # oracle step 10*k
        _, _, oracle = rk4_hybrid(reference_robot, reference_motor, 0.5, 1e-5)
        checked = 0
        for event in reference_trajectory.events:
            for s in reference_trajectory.samples:
                if event.lift_off_time < s.t < event.touchdown_time:
                    t, theta, theta_dot = oracle[10 * round(s.t / 1e-4)]
                    assert t == pytest.approx(s.t, abs=1e-15)
                    assert s.theta == pytest.approx(theta, abs=1e-8)
                    assert s.theta_dot == pytest.approx(theta_dot, abs=1e-7)
                    checked += 1
        assert checked > 100


class TestSamplingGrid:
    def test_events_and_peaks_do_not_depend_on_dt(
        self, reference_robot, reference_motor
    ):
        runs = [
            regime2.simulate(
                reference_robot,
                reference_motor,
                SimConfig(t_end=0.25, dt=dt, record_stride=1000),
            )
            for dt in (1e-4, 5e-5, 2.5e-5)
        ]
        coarse = runs[0]
        assert len(coarse.events) >= 5
        for run in runs[1:]:
            assert len(run.events) == len(coarse.events)
            for a, b in zip(run.events, coarse.events):
                assert a.lift_off_time == pytest.approx(b.lift_off_time, abs=1e-12)
                assert a.touchdown_time == pytest.approx(b.touchdown_time, abs=1e-12)
            for a, b in zip(run.cycle_peaks, coarse.cycle_peaks):
                assert a == pytest.approx(b, abs=1e-12)

    def test_peak_scales_as_forcing_over_omega_squared(self, reference_robot):
        # theta'' = c_f*(sin(omega*t) - rho): at fixed rho the flight is
        # (c_f/omega^2) times one dimensionless flight, whatever the speed
        weight_moment = reference_robot.weight * reference_robot.gravity_arm
        rho = 0.3
        scaled = []
        for speed in (150.0, 300.0, 700.0, 2000.0):
            eccentric_mass = weight_moment / (
                rho * speed**2 * 2e-3 * reference_robot.forcing_arm
            )
            motor = MotorParams(eccentric_mass, 2e-3, speed)
            c_force = (
                motor.force_amplitude
                * reference_robot.forcing_arm
                / reference_robot.pivot_inertia
            )
            cfg = SimConfig(t_end=6.0 * motor.period, dt=motor.period / 200.0)
            traj = regime2.simulate(reference_robot, motor, cfg)
            scaled.append(regime2.peak_angle(traj) * speed**2 / c_force)
        for value in scaled[1:]:
            assert value == pytest.approx(scaled[0], rel=1e-9)


class TestWindow:
    def test_flight_airborne_at_window_end_is_not_a_cycle(self, reference_robot):
        # a 0.5 rad fall lasts sqrt(2*0.5/c_g) ~ 0.117 s
        motor = quiet_motor()
        short = SimConfig(t_end=0.11, dt=1e-4, theta0=0.5)
        traj = regime2.simulate(reference_robot, motor, short)
        assert not traj.events and not traj.cycle_peaks
        assert all(s.theta > 0.0 and s.x == 0.0 for s in traj.samples)
        long = SimConfig(t_end=0.12, dt=1e-4, theta0=0.5)
        assert len(regime2.simulate(reference_robot, motor, long).events) == 1

    def test_domain_error_only_inside_the_window(self):
        # no gravity moment and c_f = 2000 rad/s^2 at 300 rad/s: theta ratchets
        # up as ~(c_f/omega)*t and passes pi/2 between 0.232 s and 0.239 s
        robot = RobotParams(0.05, 2e-5, 0.03, 0.0, 0.04)
        eccentricity = 2000.0 * robot.pivot_inertia / (1e-3 * 300.0**2 * 0.03)
        motor = MotorParams(1e-3, eccentricity, 300.0)
        traj = regime2.simulate(robot, motor, SimConfig(t_end=0.2, dt=1e-4))
        assert not traj.cycle_peaks
        assert max(s.theta for s in traj.samples) < math.pi / 2
        with pytest.raises(ModelDomainError, match="exceeds pi/2"):
            regime2.simulate(robot, motor, SimConfig(t_end=0.3, dt=1e-4))

    def test_lift_off_after_initial_fall_locks_to_forcing_phase(
        self, reference_robot, reference_motor
    ):
        cfg = SimConfig(t_end=0.5, dt=1e-4, theta0=0.05)
        traj = regime2.simulate(reference_robot, reference_motor, cfg)
        first, *rest = traj.events
        assert first.lift_off_time == 0.0
        assert rest and rest[0].lift_off_time >= first.touchdown_time
        rise = math.asin(
            reference_robot.weight
            * reference_robot.gravity_arm
            / (reference_motor.force_amplitude * reference_robot.forcing_arm)
        )
        for event in rest:
            phase = event.lift_off_time * reference_motor.speed % (2.0 * math.pi)
            assert phase == pytest.approx(rise, abs=1e-9)


def random_flights(rng):
    """A lifting robot and motor near the reference, some runs starting
    tilted, sampled at a random fraction of T/200."""
    robot = RobotParams(
        body_mass=0.05 * rng.uniform(0.5, 2.0),
        pivot_inertia=2e-5 * rng.uniform(0.5, 2.0),
        forcing_arm=0.03 * rng.uniform(0.5, 2.0),
        gravity_arm=0.003 * rng.uniform(0.5, 2.0),
        step_height=0.04,
    )
    # the speed that puts rho = c_g/c_f = M*g*w_G/(m*r*omega^2*w) at a draw
    rho = rng.uniform(0.1, 0.9)
    moment_ratio = robot.weight * robot.gravity_arm / (1e-3 * 2e-3 * robot.forcing_arm)
    motor = MotorParams(1e-3, 2e-3, math.sqrt(moment_ratio / rho))
    theta0 = rng.uniform(0.0, 0.05) if rng.random() < 0.3 else 0.0
    return robot, motor, motor.period / 200.0 / rng.uniform(1.0, 7.0), theta0


class TestPeakBound:
    @staticmethod
    def assert_flights_below_peaks(traj):
        assert traj.events
        for event, peak in zip(traj.events, traj.cycle_peaks):
            for s in traj.samples:
                if event.lift_off_time < s.t < event.touchdown_time:
                    assert s.theta <= peak, (event, s)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_reference_samples_stay_below_cycle_peaks(
        self, reference_robot, reference_motor, stride
    ):
        cfg = SimConfig(t_end=0.5, dt=1e-4, record_stride=stride)
        traj = regime2.simulate(reference_robot, reference_motor, cfg)
        self.assert_flights_below_peaks(traj)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_random_samples_stay_below_cycle_peaks(self, stride):
        rng = np.random.default_rng(404)
        for _ in range(40):
            robot, motor, dt, theta0 = random_flights(rng)
            cfg = SimConfig(8.0 * motor.period, dt, theta0, stride)
            self.assert_flights_below_peaks(regime2.simulate(robot, motor, cfg))

    def test_grid_points_beside_a_peak_stay_below_it(
        self, reference_robot, reference_motor
    ):
        # Within ~1e-10 s of a peak, theta on the grid rounds to either side
        # of the root-found peak. Grid point 300 is put within 2e-11 s of the
        # first peak, whose time comes from brentq on theta_dot (a different
        # route from the library's bisection).
        c_force = (
            reference_motor.force_amplitude
            * reference_robot.forcing_arm
            / reference_robot.pivot_inertia
        )
        c_grav = (
            reference_robot.weight
            * reference_robot.gravity_arm
            / reference_robot.pivot_inertia
        )
        omega = reference_motor.speed
        rise = math.asin(c_grav / c_force)

        def rate(s):  # theta_dot s after a lift-off from rest
            swing = math.cos(rise) - math.cos(rise + omega * s)
            return c_force / omega * swing - c_grav * s

        first = regime2.simulate(
            reference_robot, reference_motor, SimConfig(0.5, 1e-4)
        ).events[0]
        s_peak = brentq(
            rate,
            (math.pi - 2.0 * rise) / omega,  # theta_dot is largest here
            first.touchdown_time - first.lift_off_time,
            xtol=1e-15,
        )
        t_peak = first.lift_off_time + s_peak
        for j in range(-200, 201):
            cfg = SimConfig(0.5, (t_peak + j * 1e-13) / 300, record_stride=300)
            traj = regime2.simulate(reference_robot, reference_motor, cfg)
            self.assert_flights_below_peaks(traj)


class TestRootFinder:
    # f, its derivative, lo, hi; every f here is monotone in the floats, so
    # one adjacent pair of floats carries the sign change
    CASES = {
        "flat root": (lambda x: (x - 0.3) ** 3, lambda x: 3.0 * (x - 0.3) ** 2, 0.0, 1.0),
        "root ulps below hi": (
            lambda x: x - (1.0 - 3.0 * math.ulp(1.0)), lambda x: 1.0, 0.0, 1.0
        ),
        "root ulps above lo": (
            lambda x: 0.5 + 3.0 * math.ulp(0.5) - x, lambda x: -1.0, 0.5, 2.0
        ),
        "slope zero at lo": (lambda x: 2.0 - x * x, lambda x: -2.0 * x, 0.0, 2.0),
        "slope zero at hi": (lambda x: x * x - 4.0 * x + 2.0, lambda x: 2.0 * x - 4.0, 0.0, 2.0),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_returns_the_sign_change_within_twice_the_bisection_cost(self, case):
        f, slope, lo, hi = self.CASES[case]
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        root = regime2._root(counted, slope, lo, hi)
        newton_calls = len(calls)
        calls.clear()
        assert root == bisect(counted, lo, hi)
        below = math.nextafter(root, -math.inf)
        assert lo <= below < root <= hi
        assert (f(root) > 0.0) == (f(hi) > 0.0) != (f(below) > 0.0)
        assert newton_calls <= 2 * len(calls)


def event_case(rng, family, stride):
    """A robot and motor near the reference and a window of 6 periods:
    'tilted' starts at theta0 > 0 with rho = c_g/c_f in 0.1-0.9, 'near_one'
    has rho in 0.9-0.99 (short, flat flights), 'no_arm' has gravity_arm 0."""
    robot = dict(
        body_mass=0.05 * rng.uniform(0.5, 2.0),
        pivot_inertia=2e-5 * rng.uniform(0.5, 2.0),
        forcing_arm=0.03 * rng.uniform(0.5, 2.0),
        gravity_arm=0.0,
        step_height=0.04,
    )
    speed = rng.uniform(150.0, 600.0)
    theta0 = rng.uniform(0.001, 0.05) if family == "tilted" or rng.random() < 0.5 else 0.0
    if family != "no_arm":
        rho = rng.uniform(0.1, 0.9) if family == "tilted" else rng.uniform(0.9, 0.99)
        forcing = 1e-3 * 2e-3 * speed**2 * robot["forcing_arm"]
        robot["gravity_arm"] = rho * forcing / (robot["body_mass"] * 9.81)
    motor = MotorParams(1e-3, 2e-3, speed)
    dt = motor.period / 200.0 / rng.uniform(1.0, 3.0)
    return RobotParams(**robot), motor, SimConfig(6.0 * motor.period, dt, theta0, stride)


class TestEventLocation:
    """Touchdowns and peaks of simulate against bisection on the closed form
    in another arrangement (helpers.flight_events), not the library's Newton."""

    FAMILIES = ("tilted", "near_one", "no_arm")

    @pytest.mark.parametrize("stride", [1, 7])
    def test_events_match_bisection_oracle(self, stride):
        rng = np.random.default_rng(606 + stride)
        events = 0
        for index in range(120):
            family = self.FAMILIES[index % 3]
            robot, motor, cfg = event_case(rng, family, stride)
            traj = regime2.simulate(robot, motor, cfg)
            if family == "no_arm":
                assert not traj.events  # theta_dot >= 0: nothing comes down
                continue
            omega = motor.speed
            c_force = motor.force_amplitude * robot.forcing_arm / robot.pivot_inertia
            c_grav = robot.weight * robot.gravity_arm / robot.pivot_inertia
            oracle = {}
            for event, peak in zip(traj.events, traj.cycle_peaks):
                start = (0.0, cfg.theta0) if event.lift_off_time == 0.0 else (
                    math.asin(c_grav / c_force), 0.0
                )
                if start not in oracle:
                    flight = regime2._Flight(c_force, c_grav, omega, *start)
                    duration, _ = flight.land(0.0, cfg.t_end)
                    assert flight.theta(duration) <= 0.0
                    oracle[start] = flight_events(c_force, c_grav, omega, *start, cfg.t_end)
                touchdown, oracle_peak = oracle[start]
                assert event.touchdown_time == pytest.approx(
                    event.lift_off_time + touchdown, rel=1e-12, abs=0.0
                ), (index, event)
                assert peak == pytest.approx(oracle_peak, rel=1e-12, abs=0.0), (index, event)
                events += 1
        assert events > 300


class TestModelDomain:
    def test_runaway_rotation_aborts(self):
        # no gravity moment, violent forcing: the angle ratchets upward
        robot = RobotParams(0.05, 1e-6, 0.05, 0.0, 0.04)
        motor = MotorParams(0.01, 0.01, 300.0)
        with pytest.raises(ModelDomainError):
            regime2.simulate(robot, motor, SimConfig(t_end=0.5, dt=1e-4))


class TestPeakAngle:
    def test_requires_a_completed_cycle(self, reference_robot):
        traj = regime2.simulate(reference_robot, quiet_motor(), SimConfig(0.5, 1e-4))
        with pytest.raises(NoCompletedCycleError):
            regime2.peak_angle(traj)

    def test_uses_steady_portion(self):
        traj = Regime2Trajectory(
            samples=(Sample(0.0, 0.0, 0.0, 0.0, 0.0),),
            cycle_peaks=(0.9, 0.05, 0.01, 0.02, 0.03),
            events=(),
        )
        # first half (transient) ignored: max over the last three peaks
        assert regime2.peak_angle(traj) == 0.03


class TestStepDisplacement:
    def test_zero_angle(self, reference_robot):
        assert regime2.step_displacement(reference_robot, 0.0) == 0.0

    def test_thirty_degrees(self, reference_robot):
        assert regime2.step_displacement(reference_robot, math.pi / 6) == pytest.approx(
            0.02, rel=1e-12
        )

    def test_small_angle_regime(self):
        robot = RobotParams(0.05, 2e-5, 0.03, 0.003, step_height=1.0)
        assert regime2.step_displacement(robot, 1e-3) == pytest.approx(1e-3, abs=1e-9)

    def test_domain(self, reference_robot):
        with pytest.raises(ValidationError, match="theta_hat"):
            regime2.step_displacement(reference_robot, -1e-6)
        with pytest.raises(ValidationError, match="theta_hat"):
            regime2.step_displacement(reference_robot, math.pi / 2)


def speed_without_small_angle(robot, motor, theta):
    """Oracle: one step h*sin(theta) per motor revolution."""
    return robot.step_height * math.sin(theta) * motor.speed / (2.0 * math.pi)


class TestGroundSpeed:
    def test_zero_angle(self, reference_robot, reference_motor):
        assert regime2.ground_speed(reference_robot, reference_motor, 0.0) == 0.0
        assert regime2.step_displacement(reference_robot, 0.0) == 0.0

    def test_one_cycle_per_second(self):
        robot = RobotParams(0.05, 2e-5, 0.03, 0.003, step_height=1.0)
        motor = MotorParams(1e-3, 2e-3, 2.0 * math.pi)
        assert regime2.ground_speed(robot, motor, 0.01) == pytest.approx(
            0.01, rel=1e-15
        )

    def test_small_angle_gap_is_taylor_remainder(self, reference_robot, reference_motor):
        theta = 0.1
        small = regime2.ground_speed(reference_robot, reference_motor, theta)
        exact = speed_without_small_angle(reference_robot, reference_motor, theta)
        gap = small / exact - 1.0
        assert gap == pytest.approx(theta**2 / 6.0, abs=1e-5)

    def test_domain(self, reference_robot, reference_motor):
        with pytest.raises(ValidationError, match="theta_hat"):
            regime2.ground_speed(reference_robot, reference_motor, math.pi / 2)


class TestRecording:
    def test_stride_thins_grid_but_keeps_touchdowns(
        self, reference_robot, reference_motor
    ):
        dense = regime2.simulate(
            reference_robot, reference_motor, SimConfig(0.5, 1e-4, record_stride=1)
        )
        thin = regime2.simulate(
            reference_robot, reference_motor, SimConfig(0.5, 1e-4, record_stride=50)
        )
        assert thin.cycle_peaks == dense.cycle_peaks
        assert thin.events == dense.events
        assert len(thin.samples) < len(dense.samples)
        thin_times = {s.t for s in thin.samples}
        for event in thin.events:
            assert event.touchdown_time in thin_times

    def test_touchdown_on_a_grid_point_is_sampled_once(self, reference_robot):
        # a free fall from 0.05 rad on a grid whose point n lands exactly on
        # the touchdown time: the touchdown sample stands for that point
        motor = quiet_motor()
        fall = SimConfig(t_end=0.5, dt=1e-4, theta0=0.05)
        (event,) = regime2.simulate(reference_robot, motor, fall).events
        touchdown = event.touchdown_time
        n = next(n for n in range(400, 1000) if n * (touchdown / n) == touchdown)
        cfg = SimConfig(t_end=0.5, dt=touchdown / n, theta0=0.05)
        times = [s.t for s in regime2.simulate(reference_robot, motor, cfg).samples]
        assert times.count(touchdown) == 1
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_samples_strictly_increasing(self, reference_trajectory):
        times = [s.t for s in reference_trajectory.samples]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_determinism(self, reference_robot, reference_motor, reference_sim):
        a = regime2.simulate(reference_robot, reference_motor, reference_sim)
        b = regime2.simulate(reference_robot, reference_motor, reference_sim)
        assert a == b
