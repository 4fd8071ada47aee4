"""Hybrid pivot-rotation simulator: events, resets, displacement accounting."""

import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from brushdyn import MotorParams, RobotParams, SimConfig, regime2
from brushdyn.params import TWO_PI, ValidationError
from brushdyn.regime2 import ModelDomainError, NoCompletedCycleError

from helpers import (
    REFERENCE_PEAK,
    bisect,
    count_flights,
    flight_events,
    from_rest_phases,
    landing,
    net_moment,
    reference_motor,
    reference_robot,
    rows,
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


class TestLiftOffCondition:
    def test_weak_motor_never_lifts(self):
        # m*omega^2*r*w stays below M*g*w_G
        robot = RobotParams(0.05, 2e-5, 0.03, 0.003, 0.04)
        motor = MotorParams(1e-4, 1e-4, 100.0)
        assert motor.force_amplitude * robot.forcing_arm < robot.weight * robot.gravity_arm
        for t in np.linspace(0.0, motor.period, 101):
            assert net_moment(robot, motor, t) <= 0.0

    def test_no_gravity_arm_follows_forcing_sign(self):
        robot = RobotParams(0.05, 2e-5, 0.03, 0.0, 0.04)
        motor = MotorParams(1e-3, 2e-3, 300.0)
        assert net_moment(robot, motor, motor.period / 4) > 0.0
        assert net_moment(robot, motor, 3 * motor.period / 4) <= 0.0

    def test_first_lift_off_matches_moment_root(
        self, reference_robot, reference_motor, reference_trajectory
    ):
        # independent bisection on the net moment over the first quarter period
        lo, hi = 0.0, reference_motor.period / 4.0
        assert net_moment(reference_robot, reference_motor, lo) <= 0.0
        assert net_moment(reference_robot, reference_motor, hi) > 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if net_moment(reference_robot, reference_motor, mid) > 0.0:
                hi = mid
            else:
                lo = mid
        first = reference_trajectory.cycles[0].lift_off
        assert first == pytest.approx(hi, abs=1e-12)
        ratio = (reference_robot.weight * reference_robot.gravity_arm) / (
            reference_motor.force_amplitude * reference_robot.forcing_arm
        )
        assert first == pytest.approx(
            math.asin(ratio) / reference_motor.speed, abs=1e-12
        )


class TestSimulateTrivial:
    def test_motor_off_stays_at_rest(self, reference_robot):
        traj = regime2.stream(reference_robot, quiet_motor(), SimConfig(0.5, 1e-4))
        samples = list(rows(traj.samples))
        assert not traj.cycles
        assert all(s.theta == 0.0 for s in samples)
        assert all(s.theta_dot == 0.0 for s in samples)
        assert all(s.x == 0.0 for s in samples)

    def test_gravity_fall_from_initial_angle(self, reference_robot):
        theta0 = 0.3
        cfg = SimConfig(t_end=0.5, dt=1e-4, theta0=theta0)
        traj = regime2.stream(reference_robot, quiet_motor(), cfg)
        samples = list(rows(traj.samples))

        decel = (
            reference_robot.weight
            * reference_robot.gravity_arm
            / reference_robot.pivot_inertia
        )
        fall_time = math.sqrt(2.0 * theta0 / decel)
        ((lift_off, touchdown, peak),) = traj.cycles
        assert lift_off == 0.0
        assert touchdown == pytest.approx(fall_time, abs=1e-9)
        assert peak == theta0
        assert samples[-1].x == pytest.approx(
            reference_robot.step_height * math.sin(theta0), rel=1e-12
        )

        # parabolic flight against the samples, constant angular deceleration
        for s in samples:
            if 0.0 < s.t < touchdown:
                assert s.theta == pytest.approx(
                    theta0 - 0.5 * decel * s.t**2, abs=1e-8
                )
                assert s.theta_ddot == -decel

        # at rest forever after the single touchdown
        after = [s for s in samples if s.t > touchdown]
        assert after
        assert all(s.theta == 0.0 and s.x == samples[-1].x for s in after)


class TestSimulateReference:
    def test_cycles_lock_to_forcing_phase(self, reference_trajectory, reference_motor):
        phases = [
            c.lift_off % reference_motor.period
            for c in reference_trajectory.cycles
        ]
        assert max(phases) - min(phases) <= 1e-10

    def test_peak_angle_matches_fine_reference(self, reference_trajectory):
        assert reference_trajectory.cycles[-1].peak == pytest.approx(
            REFERENCE_PEAK, abs=1e-4
        )


class TestSamplingGrid:
    def test_events_and_peaks_do_not_depend_on_dt(
        self, reference_robot, reference_motor
    ):
        runs = [
            regime2.stream(
                reference_robot,
                reference_motor,
                SimConfig(t_end=0.25, dt=dt, record_stride=1000),
            )
            for dt in (1e-4, 5e-5, 2.5e-5)
        ]
        coarse = runs[0]
        assert len(coarse.cycles) >= 5
        for run in runs[1:]:
            assert len(run.cycles) == len(coarse.cycles)
            assert run.cycles == coarse.cycles

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
            peak = regime2.stream(reference_robot, motor, cfg).cycles[-1].peak
            scaled.append(peak * speed**2 / c_force)
        for value in scaled[1:]:
            assert value == pytest.approx(scaled[0], rel=1e-9)


class TestWindow:
    def test_flight_airborne_at_window_end_is_not_a_cycle(self, reference_robot):
        # a 0.5 rad fall lasts sqrt(2*0.5/c_g) ~ 0.117 s
        motor = quiet_motor()
        short = SimConfig(t_end=0.11, dt=1e-4, theta0=0.5)
        traj = regime2.stream(reference_robot, motor, short)
        assert not traj.cycles
        assert all(s.theta > 0.0 and s.x == 0.0 for s in rows(traj.samples))
        long = SimConfig(t_end=0.12, dt=1e-4, theta0=0.5)
        assert len(regime2.stream(reference_robot, motor, long).cycles) == 1

    def test_tilted_flight_landing_in_the_last_period_is_the_only_cycle(
        self, reference_robot, reference_motor
    ):
        # a 0.2 rad first flight lands at ~4.13 T of a 5 T window: the next
        # rising zero of the net moment lies past the window, so nothing lifts
        # off from rest and the body stays at rest to the end
        period = reference_motor.period
        cfg = SimConfig(t_end=5.0 * period, dt=period / 400.0, theta0=0.2)
        traj = regime2.stream(reference_robot, reference_motor, cfg)
        ((lift_off, touchdown, peak),) = traj.cycles
        assert peak == 0.20815568964720926
        # no window enters the steady hop: the reference window's, 2 periods
        reference = regime2.stream(reference_robot, reference_motor, SimConfig(0.5, 1e-4))
        step = regime2.step_displacement(reference_robot, reference.cycles[-1].peak)
        assert regime2.steady_speed(reference_robot, reference_motor) == step / (2 * period)
        assert lift_off == 0.0 and 4.0 * period < touchdown < 4.2 * period
        after = [s for s in rows(traj.samples) if s.t >= touchdown]
        assert len(after) > 300
        assert all(s[1:4] == (0.0, 0.0, 0.0) and s.x == after[0].x for s in after)
        assert after[0].x > 0.0

    def test_domain_error_only_inside_the_window(self):
        # no gravity moment and c_f = 2000 rad/s^2 at 300 rad/s: theta ratchets
        # up as ~(c_f/omega)*t and passes pi/2 between 0.232 s and 0.239 s
        robot = RobotParams(0.05, 2e-5, 0.03, 0.0, 0.04)
        eccentricity = 2000.0 * robot.pivot_inertia / (1e-3 * 300.0**2 * 0.03)
        motor = MotorParams(1e-3, eccentricity, 300.0)
        traj = regime2.stream(robot, motor, SimConfig(t_end=0.2, dt=1e-4))
        assert not traj.cycles
        assert max(s.theta for s in rows(traj.samples)) < math.pi / 2
        with pytest.raises(ModelDomainError, match="exceeds pi/2"):
            regime2.stream(robot, motor, SimConfig(t_end=0.3, dt=1e-4))

    def test_lift_off_after_initial_fall_locks_to_forcing_phase(
        self, reference_robot, reference_motor
    ):
        cfg = SimConfig(t_end=0.5, dt=1e-4, theta0=0.05)
        traj = regime2.stream(reference_robot, reference_motor, cfg)
        first, *rest = traj.cycles
        assert first.lift_off == 0.0
        assert rest and rest[0].lift_off >= first.touchdown
        rise = math.asin(
            reference_robot.weight
            * reference_robot.gravity_arm
            / (reference_motor.force_amplitude * reference_robot.forcing_arm)
        )
        for cycle in rest:
            phase = cycle.lift_off * reference_motor.speed % (2.0 * math.pi)
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


class TestSteadyFlight:
    def test_flights_from_rest_share_one_peak(self):
        # every flight from rest is one flight shifted by whole periods; only
        # a first flight from theta0 > 0 differs
        rng = np.random.default_rng(405)
        for _ in range(40):
            robot, motor, dt, theta0 = random_flights(rng)
            cfg = SimConfig(12.0 * motor.period, dt, theta0)
            peaks = [c.peak for c in regime2.stream(robot, motor, cfg).cycles]
            from_rest = peaks[1:] if theta0 > 0.0 else peaks
            assert len(from_rest) >= 2
            assert len(set(from_rest)) == 1, (theta0, peaks)


class TestPeakBound:
    @staticmethod
    def assert_flights_below_peaks(traj):
        assert traj.cycles
        samples = list(rows(traj.samples))
        for cycle in traj.cycles:
            for s in samples:
                if cycle.lift_off < s.t < cycle.touchdown:
                    assert s.theta <= cycle.peak, (cycle, s)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_reference_samples_stay_below_cycle_peaks(
        self, reference_robot, reference_motor, stride
    ):
        cfg = SimConfig(t_end=0.5, dt=1e-4, record_stride=stride)
        traj = regime2.stream(reference_robot, reference_motor, cfg)
        self.assert_flights_below_peaks(traj)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_random_samples_stay_below_cycle_peaks(self, stride):
        rng = np.random.default_rng(404)
        for _ in range(40):
            robot, motor, dt, theta0 = random_flights(rng)
            cfg = SimConfig(8.0 * motor.period, dt, theta0, stride)
            self.assert_flights_below_peaks(regime2.stream(robot, motor, cfg))

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

        first = regime2.stream(
            reference_robot, reference_motor, SimConfig(0.5, 1e-4)
        ).cycles[0]
        s_peak = brentq(
            rate,
            (math.pi - 2.0 * rise) / omega,  # theta_dot is largest here
            first.touchdown - first.lift_off,
            xtol=1e-15,
        )
        t_peak = first.lift_off + s_peak
        for j in range(-200, 201):
            cfg = SimConfig(0.5, (t_peak + j * 1e-13) / 300, record_stride=300)
            traj = regime2.stream(reference_robot, reference_motor, cfg)
            self.assert_flights_below_peaks(traj)

    def test_grid_points_just_after_a_lift_off_stay_on_the_ground(
        self, reference_robot, reference_motor
    ):
        # Within ~1e-11 s of a lift-off, theta ~ c*s^3 is below rounding and
        # the closed form reads a few 1e-20 of either sign; a negative one is
        # clamped to 0.0. Grid point 1000 is put 1e-12 to 1e-11 s after the
        # second lift-off.
        t_lift = regime2.stream(
            reference_robot, reference_motor, SimConfig(0.5, 1e-4)
        ).cycles[1].lift_off
        angles = []
        for j in range(1, 11):
            dt = (t_lift + j * 1e-12) / 1000
            traj = regime2.stream(reference_robot, reference_motor, SimConfig(0.2, dt))
            (sample,) = [s for s in rows(traj.samples) if s.t == 1000 * dt]
            angles.append(sample.theta)
        assert min(angles) >= 0.0, angles
        assert 0.0 in angles, angles


def state(flight, u):
    """(theta, theta') of a regime2._Flight at the phase u since lift-off: the
    closed form that its root and land evaluate inline, from the same terms."""
    swing, drop, psi0, theta0, sin0, rate0 = flight.terms
    phase = psi0 + u
    return (theta0 + (rate0 - 0.5 * drop * u) * u - swing * (math.sin(phase) - sin0),
            rate0 - swing * math.cos(phase) - drop * u)


class Phases(float):
    """A psi0 that logs each u added to it: _Flight evaluates the closed form
    at a phase u since lift-off through the forcing phase psi0 + u, and adds
    psi0 to nothing else."""

    def __add__(self, u):
        self.log.append(u)
        return float(self) + u


class Ceiling(list):
    """A Phases log that fails the test past ``limit`` evaluations, so a
    root finder that stalls fails in seconds instead of hanging."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def append(self, s):
        assert len(self) < self.limit, f"over {self.limit} evaluations"
        super().append(s)


def recorded(c_force, c_grav, omega, theta0):
    """A flight that logs the phases at which it evaluates, the log, and the
    same flight with a plain psi0."""
    plain = regime2._Flight(c_force, c_grav, omega, theta0)
    flight = regime2._Flight(c_force, c_grav, omega, theta0)
    psi0 = Phases(flight.terms[2])
    psi0.log = []
    flight.terms = flight.terms[:2] + (psi0,) + flight.terms[3:]
    return flight, psi0.log, plain


def logged_roots(flight, log):
    """The list to which flight now adds, for each root it asks of the
    kernel, the arguments (lo, hi, angle, above, peak), the phases evaluated
    and the result."""
    calls = []

    def root(*args):
        start = len(log)
        result = type(flight).root(flight, *args)
        calls.append((args, log[start:], result))
        return result

    flight.root = root
    return calls


def land_roots(flight, log, limit):
    """landing(flight, 0, limit) and the roots that land and then the
    touchdown ask of the kernel (logged_roots)."""
    calls = logged_roots(flight, log)
    return landing(flight, 0, limit), calls


def coefficients(robot, motor):
    c_force = motor.force_amplitude * robot.forcing_arm / robot.pivot_inertia
    return c_force, robot.weight * robot.gravity_arm / robot.pivot_inertia


def at_rho(robot, motor, rho):
    """robot with the gravity arm that puts c_g/c_f at rho."""
    c_force, _ = coefficients(robot, motor)
    return robot._replace(gravity_arm=rho * c_force * robot.pivot_inertia / robot.weight)


class TestRootFinder:
    """_Flight.root, on the brackets _Flight.land gives it and on brackets
    cut to a few ulps beside a root, against bisection (helpers.bisect) on
    the same closed form."""

    @staticmethod
    def check(case, lo, hi, peak, exact=True):
        """exact: f is monotone in the floats near its root, so root and
        bisection find the same sign change; near the lift-off threshold
        rounding noise in f gives several, and each is a valid answer."""
        flight, log, plain = recorded(*case)

        def f(u):  # theta' for a peak, else theta
            return state(plain, u)[peak]

        del log[:]
        r, angle = flight.root(lo, hi, state(plain, hi)[0], f(lo) > 0.0, peak)
        evaluated = list(log)
        assert evaluated and all(lo < u < hi for u in evaluated)  # f only inside
        calls = []
        plain_root = bisect(lambda u: calls.append(u) or f(u), lo, hi)
        assert r == plain_root or not exact
        below = math.nextafter(r, -math.inf)
        assert lo <= below < r <= hi
        assert (f(r) > 0.0) == (f(hi) > 0.0) != (f(below) > 0.0)
        assert angle == state(plain, r)[0]
        assert 1 + len(evaluated) <= 2 * len(calls)  # both count f(lo)
        return r

    @pytest.mark.parametrize("family", ["from rest", "tilted", "near threshold", "two rises"])
    def test_land_brackets_match_bisection(self, reference_robot, reference_motor, family):
        c_force, c_grav = coefficients(reference_robot, reference_motor)
        case = {
            "from rest": (c_force, c_grav, 300.0, 0.0),  # seeded starts
            "tilted": (c_force, c_grav, 300.0, 0.05),  # midpoint starts
            "near threshold": (c_force, (1.0 - 1e-3) * c_force, 300.0, 0.0),
            "two rises": (c_force, 0.18 * c_force, 300.0, 0.0),  # trough and 2nd peak
        }[family]
        flight, log, _ = recorded(*case)
        _, calls = land_roots(flight, log, 0.5)
        assert calls
        for (lo, hi, _, _, peak), _, (r, _) in calls:
            assert self.check(case, lo, hi, peak, family != "near threshold") == r

    def test_root_ulps_from_an_end(self, reference_robot, reference_motor):
        case = (*coefficients(reference_robot, reference_motor), 300.0, 0.0)
        flight, log, _ = recorded(*case)
        _, calls = land_roots(flight, log, 0.5)
        for (lo, hi, _, _, peak), _, (r, _) in calls:
            for ulps in (1, 3):
                up = down = r
                for _ in range(ulps):
                    up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
                assert self.check(case, lo, up, peak) == r  # root ulps below hi
                assert self.check(case, down, hi, peak) == r  # and ulps above lo


class TestRootCost:
    """Evaluations per root, counted through a logging psi0 (Phases); each
    test asserts that its log saw evaluations."""

    @staticmethod
    def bisections(plain, lo, hi, peak):
        """Plain bisection's evaluations strictly inside (lo, hi)."""
        inside = []
        bisect(lambda u: (lo < u and inside.append(u)) or state(plain, u)[peak], lo, hi)
        return len(inside)

    def test_reference_peak_and_touchdown_take_at_most_5_evaluations(
        self, reference_robot, reference_motor
    ):
        c_force, c_grav = coefficients(reference_robot, reference_motor)
        flight, log, _ = recorded(c_force, c_grav, reference_motor.speed, 0.0)
        _, calls = land_roots(flight, log, 0.5)
        costs = sorted((args[-1], len(evaluated)) for args, evaluated, _ in calls)
        assert [peak for peak, _ in costs] == [False, True]  # a touchdown, a peak
        assert all(1 <= cost <= 5 for _, cost in costs)  # bisection takes 53 for the peak

    def test_seeded_flights_from_rest_cost_at_most_bisection(self):
        rng = np.random.default_rng(1313)
        costs = []
        for _ in range(500):
            rho, omega = rng.uniform(0.05, 0.99), rng.uniform(150.0, 2000.0)
            c_force = rng.uniform(0.5, 2.0) * 3e-3 * omega**2
            flight, log, plain = recorded(c_force, rho * c_force, omega, 0.0)
            (duration, _), calls = land_roots(flight, log, 16.0 * math.pi / omega)
            assert duration < math.inf
            for (lo, hi, _, above, peak), evaluated, _ in calls:
                assert len(evaluated) <= self.bisections(plain, lo, hi, peak), (rho, omega, peak)
                costs.append(len(evaluated))
        # ~4 per root with a first point (3 to converge, 1 beside the end the
        # last estimate rounds onto), ~8-9 from a midpoint; 5.02 here
        assert len(costs) > 1000 and min(costs) >= 1
        assert sum(costs) / len(costs) <= 5.5

    # Two first peaks at rho = 0.9416 from r2_sweep points: theta_dot is
    # rounding noise for ~100 ulps around the root, so Newton's steps there
    # are rejected. Bisecting from the far end after that took 39 and 34
    # evaluations; galloping from the converged end takes 4 and 7.
    @pytest.mark.parametrize("case", [
        (109.9960861338325, 103.57714011467796, 159.81803518948936),
        (80.29283241027143, 75.60725335849068, 213.28910946940292),
    ])
    def test_noisy_near_threshold_peaks_take_at_most_16_evaluations(self, case):
        flight, log, _ = recorded(*case, 0.0)
        _, calls = land_roots(flight, log, 16.0 * math.pi / case[2])
        (peak,) = [evaluated for args, evaluated, _ in calls if args[-1]]
        assert 1 <= len(peak) <= 16

    def test_extreme_flight_costs_at_most_twice_bisection(self):
        # eccentricity = 1e300 in the CLI fuzz corpus: c_f = 1.35e305 against
        # c_g = 73.6 from theta0 = 0.01. theta' is noise over most of the peak
        # bracket, and the touchdown bracket runs from phase ~5e-304 to ~1e-8,
        # where bisection takes ~1,000 evaluations. A gallop whose reach
        # restarts after each accepted Newton step takes 329 on the peak. The
        # touchdown bracket starts before the phase _MIN_FLIGHT_FRACTION*2*pi,
        # so land finds the touchdown for the short-flight rule and hands
        # _flights a bracket closed on it, which costs nothing.
        flight, log, plain = recorded(1.35e305, 73.575, 300.0, 0.01)
        (duration, _), calls = land_roots(flight, log, 0.5)
        assert duration < math.inf
        assert [(args[-1], len(evaluated) > 0) for args, evaluated, _ in calls] == [
            (True, True), (False, True), (False, False)]
        for (lo, hi, _, _, peak), evaluated, _ in calls:
            assert len(evaluated) <= 2 * self.bisections(plain, lo, hi, peak), peak

    # Motor off from a subnormal theta0: theta = theta0 - c_g*s^2/2 rounds to
    # the same few subnormals over ~1e15 floats around its root, where every
    # Newton step is 0, so trying one neighbour float per evaluation there
    # never ends; bisection takes ~580. The bracket starts at 0, so land finds
    # the touchdown, and _flights finds it again in the closed bracket land
    # hands back, with no evaluation.
    @pytest.mark.parametrize("theta0", [5e-324, 1e-320, 1e-315])
    def test_flat_stretch_costs_at_most_twice_bisection(self, theta0):
        flight, _, plain = recorded(0.0, 73.575, 300.0, theta0)
        log = flight.terms[2].log = Ceiling(10_000)
        (duration, _), calls = land_roots(flight, log, 0.5)
        assert duration < math.inf and [args[-1] for args, *_ in calls] == [False, False]
        assert [len(evaluated) > 0 for _, evaluated, _ in calls] == [True, False]
        for (lo, hi, _, _, peak), evaluated, _ in calls:
            assert len(evaluated) <= 2 * self.bisections(plain, lo, hi, peak)


class TestStarts:
    """regime2._starts against the phases of the stdlib oracle
    (helpers.from_rest_phases), to the 5e-5 it states, over the rho it
    claims: the first peak on [0.05, 1), the touchdown on [0.25, 1), and the
    first trough, the second peak and the touchdown on [0.14, 0.21]."""

    RHOS = sorted({*np.linspace(0.05, 0.99, 189), *np.linspace(0.14, 0.21, 29),
                   *(1.0 - 10.0**-k for k in range(2, 13))})

    def test_first_points_are_within_5e_5_of_the_roots(self):
        for rho in self.RHOS:
            touchdown, turns = from_rest_phases(rho)
            downs, firsts = regime2._starts(rho)
            two_rises = 0.14 <= rho <= 0.21
            assert len(downs) == (rho >= 0.25 or two_rises), rho
            assert len(firsts) == (3 if two_rises else 1), rho
            for got, want in zip(downs + firsts, (touchdown,) * len(downs) + tuple(turns)):
                assert got == pytest.approx(want, rel=5e-5, abs=0.0), rho

    def test_only_flights_from_rest_in_range_have_first_points(self):
        def starts(rho, theta0):
            return regime2._Flight(270.0, rho * 270.0, 300.0, theta0).starts

        assert [len(side) for side in starts(0.2725, 0.0)] == [1, 1]
        assert starts(0.2725, 0.05) == starts(0.04, 0.0) == starts(1.5, 0.0) == ((), ())


class TestLandEvaluations:
    """_Flight.land and the touchdown in its bracket evaluate the closed form
    at most once per time: values at bracket ends carry over, root is told
    the side of its lower end and hands back theta at its root."""

    @staticmethod
    def assert_no_repeats(c_force, c_grav, omega, theta0, limit):
        flight, log, plain = recorded(c_force, c_grav, omega, theta0)
        events = landing(flight, 0, limit)
        assert events == landing(plain, 0, limit)
        assert log and len(set(log)) == len(log), [s for s in set(log) if log.count(s) > 1]
        return events

    def test_reference_flight(self, reference_robot, reference_motor):
        c_force, c_grav = coefficients(reference_robot, reference_motor)
        for theta0 in (0.0, 0.05):
            self.assert_no_repeats(c_force, c_grav, reference_motor.speed, theta0, 0.5)
        for rho in (1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9):  # flat, short flights
            self.assert_no_repeats(c_force, rho * c_force, reference_motor.speed, 0.0, 0.5)

    def test_seeded_flights(self):
        # tilted starts, rho = c_g/c_f in 0.1-0.9 and 0.9-0.99, gravity_arm 0
        rng = np.random.default_rng(909)
        for index in range(150):
            family = TestEventLocation.FAMILIES[index % 3]
            robot, motor, cfg = event_case(rng, family, 1)
            c_force, c_grav = coefficients(robot, motor)
            try:
                touchdown, _ = self.assert_no_repeats(
                    c_force, c_grav, motor.speed, cfg.theta0, cfg.t_end)
            except ModelDomainError:
                assert family == "no_arm"
                continue
            # _flights takes a tilted flight's touchdown as the time it comes to rest
            assert touchdown == math.inf or touchdown <= cfg.t_end


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
    """Touchdowns and peaks of stream against bisection on the closed form
    in another arrangement (helpers.flight_events), not the library's Newton."""

    FAMILIES = ("tilted", "near_one", "no_arm")

    @pytest.mark.parametrize("stride", [1, 7])
    def test_events_match_bisection_oracle(self, stride):
        rng = np.random.default_rng(606 + stride)
        events = 0
        for index in range(120):
            family = self.FAMILIES[index % 3]
            robot, motor, cfg = event_case(rng, family, stride)
            traj = regime2.stream(robot, motor, cfg)
            if family == "no_arm":
                assert not traj.cycles  # theta_dot >= 0: nothing comes down
                continue
            omega = motor.speed
            c_force = motor.force_amplitude * robot.forcing_arm / robot.pivot_inertia
            c_grav = robot.weight * robot.gravity_arm / robot.pivot_inertia
            oracle = {}
            for cycle in traj.cycles:
                start = (0.0, cfg.theta0) if cycle.lift_off == 0.0 else (
                    math.asin(c_grav / c_force), 0.0
                )
                if start not in oracle:
                    flight = regime2._Flight(c_force, c_grav, omega, start[1])
                    _, _, bracket = flight.land(0, omega * cfg.t_end)
                    assert state(flight, flight.root(*bracket, False)[0])[0] <= 0.0
                    oracle[start] = flight_events(c_force, c_grav, omega, *start, cfg.t_end)
                touchdown, oracle_peak = oracle[start]
                assert cycle.touchdown == pytest.approx(
                    cycle.lift_off + touchdown, rel=1e-12, abs=0.0
                ), (index, cycle)
                assert cycle.peak == pytest.approx(oracle_peak, rel=1e-12, abs=0.0), (index, cycle)
                events += 1
        assert events > 300


class TestCycleCount:
    """The walk over the flights in a window one at a time (regime2._flights)
    against their closed-form count (helpers.count_flights)."""

    @staticmethod
    def assert_matches_count(robot, motor, cfg):
        try:
            counted = count_flights(robot, motor, cfg)
        except ModelDomainError:
            with pytest.raises(ModelDomainError):
                regime2.stream(robot, motor, cfg)
            if cfg.theta0 == 0.0:  # a flight from rest tipped over, in any window
                with pytest.raises(ModelDomainError):
                    regime2.steady_speed(robot, motor)
            return []
        flights = [  # every flight the walk yields, airborne last
            (t, t + duration, peak) for _, t, duration, peak in regime2._flights(robot, motor, cfg)
        ]
        assert flights == counted
        cycles = [f for f in counted if f[2] is not None]
        traj = regime2.stream(robot, motor, cfg)
        assert traj.cycles == tuple(cycles)
        # the steady hop, where the window holds one: the count's flights from
        # rest, their lift-offs n periods apart
        rest = counted[1:] if cfg.theta0 > 0.0 else counted
        if not any(peak is not None for *_, peak in rest):
            return counted
        (lift_off, touchdown, peak), *after = rest
        if after:  # the next lift-off from rest, whole periods later
            periods = round((after[0][0] - lift_off) / motor.period)
        else:  # the next would lift off past the window end
            periods = max(1, math.ceil((touchdown - lift_off) / motor.period))
        assert regime2.steady_speed(robot, motor) == (
            regime2.step_displacement(robot, peak) / (periods * motor.period))
        return counted

    def test_seeded_windows_match_count(self):
        rng = np.random.default_rng(707)
        flights = 0
        for index in range(90):
            robot, motor, dt, theta0 = random_flights(rng)
            cfg = SimConfig(rng.uniform(5.0, 30.0) * motor.period, dt, theta0, 1)
            flights += len(self.assert_matches_count(robot, motor, cfg))
            family = TestEventLocation.FAMILIES[index % 3]
            flights += len(self.assert_matches_count(*event_case(rng, family, 7)))
        assert flights > 1000

    def test_no_lift_and_runaway_match_count(self, reference_robot, reference_motor):
        weak = MotorParams(1e-4, 2e-3, 300.0)  # c_g > c_f: never lifts from rest
        for theta0 in (0.0, 0.02):
            cfg = SimConfig(0.5, 1e-4, theta0)
            assert self.assert_matches_count(reference_robot, weak, cfg) == (
                [] if theta0 == 0.0 else count_flights(reference_robot, weak, cfg)
            )
        with pytest.raises(NoCompletedCycleError, match="no flight from rest"):
            regime2.steady_speed(reference_robot, weak)
        runaway = RobotParams(0.05, 1e-6, 0.05, 0.0, 0.04)
        cfg = SimConfig(t_end=0.5, dt=1e-4)
        assert self.assert_matches_count(runaway, MotorParams(0.01, 0.01, 300.0), cfg) == []
        # a 1e-30 rad tilt lands in ~1.7e-16 s, too short to count as a cycle
        cfg = SimConfig(0.5, 1e-4, 1e-30)
        short, *rest = self.assert_matches_count(reference_robot, reference_motor, cfg)
        assert short[1] < math.inf and short[2] is None and rest

    def test_window_ends_within_ulps_of_an_event(self):
        # end = N*dt with dt = t/N put a few ulps to either side of a
        # touchdown or lift-off t, which decides whether that flight counts
        # or exists at all
        rng = np.random.default_rng(708)
        at_event = airborne = 0
        for index in range(100):
            robot, motor, dt, theta0 = random_flights(rng)
            period = motor.period
            counted = count_flights(robot, motor, SimConfig(30.0 * period, dt, theta0))
            for column in (0, 1, 1, 1):  # a lift-off, then touchdowns
                times = [f[column] for f in counted if 6.0 * period < f[column] < math.inf]
                t = times[rng.integers(len(times))]
                steps = math.ceil(t / (period / 200.0)) + int(rng.integers(0, 40))
                dt = t / steps
                for _ in range(int(rng.integers(0, 4))):
                    dt = math.nextafter(dt, math.inf if rng.random() < 0.5 else 0.0)
                cfg = SimConfig(steps * dt, dt, theta0, int(rng.integers(20, 60)))
                flights = self.assert_matches_count(robot, motor, cfg)
                at_event += abs(steps * dt - t) <= 4.0 * math.ulp(t)
                airborne += flights[-1][1] == math.inf
        assert at_event > 300 and airborne > 80

    def test_tilted_touchdown_ulps_past_the_window_end_is_airborne(
        self, reference_robot, reference_motor
    ):
        # the tilted flight's touchdown phase, found within the phase omega*end,
        # can still divide by omega to a time past end: the flight is airborne.
        # These tilts land at 0.120-0.125 s, where omega*ulp(t) < ulp(omega*t),
        # and then at up to 0.136 s.
        period, rounded = reference_motor.period, 0
        for theta0 in np.linspace(0.42, 0.56, 40):
            tilted = regime2._flight(reference_robot, reference_motor, float(theta0))
            touchdown, _ = landing(tilted, 0, math.inf)
            for steps in range(math.ceil(touchdown / (period / 200.0)), 8000, 97):
                dt = math.nextafter(touchdown / steps, 0.0)  # steps*dt an ulp or so before
                cfg = SimConfig(steps * dt, dt, float(theta0), 1000)
                rounded += steps * dt < landing(tilted, 0, steps * dt)[0] < math.inf
                self.assert_matches_count(reference_robot, reference_motor, cfg)
        assert rounded > 20


class TestHopBoundary:
    """The hop count n of the flight from rest (_Flight.land) where it steps
    to n + 1: as rho = c_g/c_f falls, the touchdown passes the rising zero of
    the net moment n periods after the lift-off. There theta(2*pi*n/omega) = 0;
    each such rho is found by bisection (helpers.bisect) on the closed form in
    sum-to-product arrangement, not by the library's Newton or its walk."""

    @staticmethod
    def boundaries(c_force, omega):
        """(n, rho) for each step n -> n + 1 with rho in [0.02, 0.99]."""
        def theta(rho, n):  # theta 2*pi*n/omega after a lift-off from rest
            s, half, rise = TWO_PI * n / omega, math.pi * n, math.asin(rho)
            lag = 2.0 * c_force / omega**2 * math.cos(rise + half) * math.sin(half)
            return (c_force / omega * math.cos(rise) - 0.5 * rho * c_force * s) * s - lag

        n, found = 1, []
        while theta(0.02, n) > 0.0 >= theta(0.99, n):
            found.append((n, bisect(lambda rho: theta(rho, n), 0.02, 0.99)))
            n += 1
        return found

    def test_hop_count_is_the_oracle_ceiling_away_from_each_boundary(
        self, reference_robot, reference_motor
    ):
        omega = reference_motor.speed
        found = self.boundaries(coefficients(reference_robot, reference_motor)[0], omega)
        assert len(found) > 10
        for n, rho in found:
            for side, hops in ((1.0 + 1e-3, n), (1.0 - 1e-3, n + 1)):
                robot = at_rho(reference_robot, reference_motor, rho * side)
                c_force, c_grav = coefficients(robot, reference_motor)
                rise = math.asin(c_grav / c_force)
                duration, _ = flight_events(c_force, c_grav, omega, rise, 0.0, 40.0 / omega * n)
                assert math.ceil(duration * omega / TWO_PI) == hops, (n, rho, side)
                flight = regime2._Flight(c_force, c_grav, omega, 0.0)
                assert flight.land(0, math.inf)[0] == hops, (n, rho, side)

    def test_no_lift_off_before_the_last_touchdown_within_ulps_of_a_boundary(
        self, reference_robot, reference_motor
    ):
        # the touchdown lies within ulps of the next lift-off, n or n + 1
        # periods after the last: the sum lift_off + duration may round past it
        period = reference_motor.period
        omega = reference_motor.speed
        found = self.boundaries(coefficients(reference_robot, reference_motor)[0], omega)
        ties = 0
        for n, rho in found:
            arm = at_rho(reference_robot, reference_motor, rho).gravity_arm
            for _ in range(20):
                arm = math.nextafter(arm, 0.0)
            cfg = SimConfig((3 * n + 8) * period, period / 200.0, 0.0, 10**6)
            for _ in range(41):
                robot = reference_robot._replace(gravity_arm=arm)
                flight = regime2._Flight(*coefficients(robot, reference_motor), omega, 0.0)
                assert flight.land(0, math.inf)[0] in (n, n + 1)
                cycles = regime2.stream(robot, reference_motor, cfg).cycles
                assert len(cycles) >= 3
                for last, cycle in zip(cycles, cycles[1:]):
                    assert cycle.lift_off >= last.touchdown, (n, arm)
                    ties += cycle.lift_off - last.touchdown <= 4.0 * math.ulp(cycle.lift_off)
                arm = math.nextafter(arm, 1.0)
        assert ties > 500


class TestModelDomain:
    def test_runaway_rotation_aborts(self):
        # no gravity moment, violent forcing: the angle ratchets upward
        robot = RobotParams(0.05, 1e-6, 0.05, 0.0, 0.04)
        motor = MotorParams(0.01, 0.01, 300.0)
        with pytest.raises(ModelDomainError):
            regime2.stream(robot, motor, SimConfig(t_end=0.5, dt=1e-4))

    @pytest.mark.parametrize("forcing_arm", [0.03, 0.05, 0.3])
    def test_error_names_the_time_theta_crosses_pi_over_2(self, forcing_arm):
        # with c_g = 0 the flight from rest is theta = swing*(u - sin u),
        # u = omega*t: written out here, it is pi/2 at the time the error names
        robot = RobotParams(0.05, 1e-6, forcing_arm, 0.0, 0.04)
        motor = MotorParams(0.01, 0.01, 300.0)
        swing = motor.force_amplitude * forcing_arm / robot.pivot_inertia / motor.speed**2
        for call in (lambda: regime2.steady_speed(robot, motor),
                     lambda: regime2.stream(robot, motor, SimConfig(0.5, 1e-4))):
            with pytest.raises(ModelDomainError, match="exceeds pi/2") as error:
                call()
            (t,) = re.findall(r"at t = (\S+) s", str(error.value))
            u = motor.speed * float(t)
            assert swing * (u - math.sin(u)) == pytest.approx(math.pi / 2, rel=1e-5)


class TestStream:
    """stream lists its flights at the call, so it raises there, before any
    block of samples is read."""

    @pytest.mark.parametrize("cfg, match", [
        (SimConfig(0.5, 2e-4), "T/200"),
        (SimConfig(0.05, 1e-4), "five forcing periods"),
        (SimConfig(1e4, 1e-4), "grid steps"),
    ])
    def test_window_errors_raise_at_the_call(self, reference_robot, reference_motor, cfg, match):
        with pytest.raises(ValidationError, match=match):
            regime2.stream(reference_robot, reference_motor, cfg)

    def test_end_is_the_last_sample_of_its_blocks(self):
        # stream knows its last sample before any block is read: a grid
        # point, or a touchdown after the last one that a stride keeps
        rng = np.random.default_rng(852)
        touchdowns = 0
        for index in range(150):
            robot, motor, dt, theta0 = random_flights(rng)
            stride = int(rng.choice((1, 3, 50, 5000)))
            cfg = SimConfig(rng.uniform(5.0, 30.0) * motor.period, dt, theta0, stride)
            traj = regime2.stream(robot, motor, cfg)
            *_, last = rows(traj.samples)
            assert traj.end == (last.t, last.x), index
            touchdowns += bool(traj.cycles) and last.t == traj.cycles[-1].touchdown
        assert touchdowns > 20

    @pytest.mark.parametrize("theta0", [0.0, 0.5])
    def test_runaway_raises_at_the_call(self, theta0):
        robot = RobotParams(0.05, 1e-6, 0.05, 0.0, 0.04)
        with pytest.raises(ModelDomainError, match="exceeds pi/2"):
            regime2.stream(robot, MotorParams(0.01, 0.01, 300.0), SimConfig(0.5, 1e-4, theta0))


class TestPeakAngle:
    @pytest.mark.parametrize("stride", [1, 7])
    def test_last_peak_is_the_last_half_maximum(self, stride):
        # the rule peak_angle once applied, kept as an oracle: the largest
        # peak over the last half of the cycles; every other window starts
        # tilted, so its first peak differs. simulate-r2 reports the last
        # cycle's peak, as here.
        rng = np.random.default_rng(818 + stride)
        windows = tilted = 0
        for index in range(200):
            robot, motor, dt, _ = random_flights(rng)
            theta0 = rng.uniform(0.001, 0.3) if index % 2 else 0.0
            cfg = SimConfig(rng.uniform(5.0, 30.0) * motor.period, dt, theta0, stride)
            traj = regime2.stream(robot, motor, cfg)
            peaks = [c.peak for c in traj.cycles]
            if not peaks:
                continue
            assert traj.cycles[-1].peak == max(peaks[len(peaks) // 2:]), index
            windows += 1
            tilted += theta0 > 0.0 and len(set(peaks)) > 1
        assert windows > 190 and tilted > 90


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


class TestSteadySpeed:
    # The reference robot and motor hop once per n forcing periods, n rising
    # with omega as rho = c_g/c_f falls: the one-hop-per-period speed
    # omega*h*sin(peak)/(2*pi) is n times too fast.
    @pytest.mark.parametrize("speed, hops", [(250.0, 1), (300.0, 2), (400.0, 3), (600.0, 5)])
    def test_speed_is_the_x_gained_per_hop_time(self, reference_robot, speed, hops):
        motor = MotorParams(1e-3, 2e-3, speed)
        cfg = SimConfig(200.0 * motor.period, motor.period / 200.0, record_stride=100)
        traj = regime2.stream(reference_robot, motor, cfg)
        first, *_, last = traj.cycles
        assert round((traj.cycles[1].lift_off - first.lift_off) / motor.period) == hops
        # x steps at each touchdown; the first step is not a hop's time apart
        x = [s.x for s in rows(traj.samples) if s.t == last.touchdown][-1]
        per_hop = (x - x / len(traj.cycles)) / (last.lift_off - first.lift_off)
        steady = regime2.steady_speed(reference_robot, motor)
        assert steady == pytest.approx(per_hop, rel=1e-12, abs=0.0)
        once_per_period = speed * x / len(traj.cycles) / (2.0 * math.pi)
        assert steady * hops == pytest.approx(once_per_period, rel=1e-12, abs=0.0)

    # A sweep point costs one flight: steady_speed lands the first flight
    # from rest, followed to the horizon at most, and no window enters.
    def test_lands_one_flight_from_rest_within_the_horizon(
        self, reference_robot, reference_motor, monkeypatch
    ):
        calls, land = [], regime2._Flight.land

        def counted(flight, k, limit):
            calls.append(((flight.terms[3], k, limit), land(flight, k, limit)))
            return calls[-1][1]

        monkeypatch.setattr(regime2._Flight, "land", counted)
        speed = regime2.steady_speed(reference_robot, reference_motor)
        horizon = regime2.MAX_GRID_STEPS / 200 * TWO_PI  # in phase
        (((theta0, k, limit), (n, peak, _)),) = calls
        assert theta0 == 0.0 and k == 0 and limit == horizon
        # one hop per 2 periods, as test_speed_is_the_x_gained_per_hop_time has it
        assert n == 2
        step = regime2.step_displacement(reference_robot, peak)
        assert speed == step / (2 * reference_motor.period)

    # steady_speed reads the hop count n and the peak, not the touchdown
    # time: land asks root for the touchdown only in a bracket that starts
    # before _MIN_FLIGHT_FRACTION*T, the one place a flight can be too short
    # to be a cycle.
    def test_finds_no_touchdown_time(self, reference_robot, reference_motor, monkeypatch):
        rng = np.random.default_rng(3300)
        cases = [(reference_robot, reference_motor)]
        for _ in range(120):
            motor = MotorParams(1e-3, 2e-3, rng.uniform(150.0, 2000.0))
            cases.append((at_rho(reference_robot, motor, rng.uniform(0.05, 0.99)), motor))
        peaks = 0
        for robot, motor in cases:
            flight, log, _ = recorded(*coefficients(robot, motor), motor.speed, 0.0)
            calls = logged_roots(flight, log)
            monkeypatch.setattr(regime2, "_flight", lambda *_: flight)
            regime2.steady_speed(robot, motor)
            brief = regime2._MIN_FLIGHT_FRACTION * TWO_PI  # in phase
            assert all(peak or lo < brief for (lo, *_, peak), _, _ in calls), calls
            assert all(evaluated for _, evaluated, _ in calls), calls
            peaks += sum(peak for (*_, peak), _, _ in calls)
        assert peaks >= len(cases)

    # In phase the flight from rest depends on rho = c_g/c_f and swing = c_f/omega^2
    # alone: a robot that scales I_P, both arms, omega and the body mass, and keeps rho,
    # swing and drop = c_g/omega^2 to the last bit, flies the same phases to the same
    # peak, so steady_speed/omega = h*sin(peak)/(2*pi*n) is the same to rounding.
    def test_speed_over_omega_depends_on_rho_and_swing_alone(
        self, reference_robot, reference_motor
    ):
        def kept(robot, motor):  # rho, swing and drop as regime2 forms them
            c_force, c_grav = coefficients(robot, motor)
            return c_grav / c_force, c_force / motor.speed**2, c_grav / motor.speed**2

        rng = np.random.default_rng(1800)
        for _ in range(200):
            motor = reference_motor._replace(speed=rng.uniform(150.0, 2000.0))
            robot = at_rho(reference_robot, motor, rng.uniform(0.05, 0.99))
            want = regime2.steady_speed(robot, motor) / motor.speed
            while True:  # scales drawn until rho, swing and drop round alike
                arm, speed, mass = (10.0 ** rng.uniform(-1.0, 1.0, 3)).tolist()
                scaled = robot._replace(
                    body_mass=robot.body_mass * mass, pivot_inertia=robot.pivot_inertia * arm,
                    forcing_arm=robot.forcing_arm * arm,
                    gravity_arm=robot.gravity_arm * arm * speed**2 / mass)
                fast = motor._replace(speed=motor.speed * speed)
                if kept(scaled, fast) == kept(robot, motor):
                    break
            got = regime2.steady_speed(scaled, fast) / fast.speed
            assert got == pytest.approx(want, rel=4 * 2.0**-52, abs=0.0), (robot, motor)


class TestRecording:
    def test_stride_thins_grid_but_keeps_touchdowns(
        self, reference_robot, reference_motor
    ):
        dense = regime2.stream(
            reference_robot, reference_motor, SimConfig(0.5, 1e-4, record_stride=1)
        )
        thin = regime2.stream(
            reference_robot, reference_motor, SimConfig(0.5, 1e-4, record_stride=50)
        )
        assert thin.cycles == dense.cycles
        thin_times = [s.t for s in rows(thin.samples)]
        assert len(thin_times) < len(list(rows(dense.samples)))
        for cycle in thin.cycles:
            assert cycle.touchdown in thin_times

    def test_touchdown_on_a_grid_point_is_sampled_once(self, reference_robot):
        # a free fall from 0.05 rad on a grid whose point n lands exactly on
        # the touchdown time: the touchdown sample stands for that point
        motor = quiet_motor()
        fall = SimConfig(t_end=0.5, dt=1e-4, theta0=0.05)
        ((_, touchdown, _),) = regime2.stream(reference_robot, motor, fall).cycles
        n = next(n for n in range(400, 1000) if n * (touchdown / n) == touchdown)
        cfg = SimConfig(t_end=0.5, dt=touchdown / n, theta0=0.05)
        times = [s.t for s in rows(regime2.stream(reference_robot, motor, cfg).samples)]
        assert times.count(touchdown) == 1
        assert all(b > a for a, b in zip(times, times[1:]))
