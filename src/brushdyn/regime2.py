"""Rigid-brush locomotion: hybrid rotation about the ground pivot.

The body angle obeys I_P * theta_ddot = m*omega^2*r*sin(omega*t)*w - M*g*w_G
while airborne, subject to the unilateral ground constraint theta >= 0.
Impacts are perfectly plastic: at touchdown the angle, rate and acceleration
are reset to zero and the body stays glued to the ground until the net moment
next rises through zero. The rising-edge trigger (rather than releasing the
instant the moment is positive) keeps impact chains from re-launching at a
drifting phase, so the stick-slip pattern locks to the forcing. Each completed
lift-off/touchdown cycle advances the robot by h*sin(peak angle of that cycle).

The solver is exact and event-driven: theta_ddot = c_f*sin(omega*t) - c_g
depends on time only, so flights have a closed form, and every lift-off from
rest is at the forcing phase asin(c_g/c_f), so all flights from rest are one
flight shifted by whole periods. Peaks and touchdowns are Newton roots of the
closed form, to float resolution away from the lift-off threshold; the closed
form cancels as rho = c_g/c_f nears 1, so the steady peak is off by 6.4e-10
(relative) at rho = 1 - 1e-4 and by 11 % at rho = 1 - 1e-8. dt only sets the
sampling grid. Limit: this holds only while the moments do not depend on
theta (fixed moment arms).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .params import TWO_PI, ModelDomainError, MotorParams, RobotParams
from .params import ValidationError, validated

# Body angles beyond this break the single-pivot geometry.
MAX_BODY_ANGLE = math.pi / 2.0
# Flights shorter than this fraction of the forcing period are boundary
# artifacts (lift-off exactly at the zero-moment point), not real cycles.
_MIN_FLIGHT_FRACTION = 1e-12
# Longest window, in grid steps: it bounds the samples.
MAX_GRID_STEPS = 10**7


class NoCompletedCycleError(ValueError):
    """The trajectory contains no completed lift-off/touchdown cycle."""


@validated
class SimConfig(NamedTuple):
    """Simulation window and its sampling grid.

    t_end          s, must cover at least 5 forcing periods
    dt             s, must not exceed T/200 of the motor period
    theta0         rad, initial body angle in [0, pi/2)
    record_stride  grid samples kept every this many steps (touchdown
                   samples are always kept)

    The window ends at the last grid point t_k = k*dt inside t_end, so
    t_end / dt must be finite; the solver takes at most MAX_GRID_STEPS of
    them. dt sets where the exact solution is sampled, not its accuracy.
    """

    t_end: float
    dt: float
    theta0: float = 0.0
    record_stride: int = 1

    def _check(self) -> None:
        if not self.t_end > 0.0:
            raise ValidationError("t_end must be > 0")
        if not self.dt > 0.0:
            raise ValidationError("dt must be > 0")
        if not math.isfinite(self.t_end / self.dt):
            raise ValidationError("t_end / dt must be finite")
        if not 0.0 <= self.theta0 < MAX_BODY_ANGLE:
            raise ValidationError("theta0 out of [0, pi/2)")
        if not (isinstance(self.record_stride, int) and self.record_stride >= 1):
            raise ValidationError("record_stride must be a positive integer")


class Sample(NamedTuple):
    t: float
    theta: float
    theta_dot: float
    theta_ddot: float
    x: float


class FlightEvent(NamedTuple):
    lift_off_time: float
    touchdown_time: float


class Regime2Trajectory(NamedTuple):
    """Sampled hybrid trajectory plus per-cycle bookkeeping.

    samples      time-ordered (t, theta, theta_dot, theta_ddot, x)
    cycle_peaks  peak angle of each completed flight, rad
    events       (lift_off_time, touchdown_time) of each completed flight
    """

    samples: tuple[Sample, ...]
    cycle_peaks: tuple[float, ...]
    events: tuple[FlightEvent, ...]


def _root(f: Callable, slope: Callable, lo: float, hi: float, above: bool) -> float:
    """The end of [lo, hi] on f(hi)'s side (f > 0 or f <= 0) once lo and hi
    are adjacent floats; f(lo) is on the other side, above = f(lo) > 0.

    Newton steps on f, whose derivative is slope, from the midpoint (slope
    vanishes at an end of the brackets here). A step that would leave
    (lo, hi) or is over half the one before gives way to a bisection, which
    caps the cost at about twice bisection's. Each step is aimed two ulps
    past its estimate, so a converged one lands across the root.
    """
    x = lo  # x is not inside (lo, hi): the first point bisects
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if not lo < x < hi:
            x, last = mid, hi - lo
        value = f(x)
        if (value > 0.0) == above:
            lo = x
        else:
            hi = x
        d = slope(x)
        step = value / d if d else math.inf
        if abs(step) <= 0.5 * last:  # else x is an end: the next point bisects
            last = abs(step)
            x -= step + math.copysign(2.0 * math.ulp(x), step)


class _Flight:
    """Closed-form flight from (theta0, rate 0) at forcing phase psi0; s is
    the time since lift-off."""

    def __init__(self, c_force, c_grav, omega, psi0, theta0):
        self.c_force, self.c_grav, self.omega = c_force, c_grav, omega
        self.psi0, self.theta0, self.sin0 = psi0, theta0, math.sin(psi0)
        self.force_omega, self.swing = c_force / omega, c_force / omega**2
        self.rate0 = self.force_omega * math.cos(psi0)

    def theta(self, s: float) -> float:
        lag = math.sin(self.psi0 + self.omega * s) - self.sin0
        return self.theta0 + (self.rate0 - 0.5 * self.c_grav * s) * s - self.swing * lag

    def rate(self, s: float) -> float:
        cos = math.cos(self.psi0 + self.omega * s)
        return self.rate0 - self.force_omega * cos - self.c_grav * s

    def accel(self, s: float) -> float:
        return self.c_force * math.sin(self.psi0 + self.omega * s) - self.c_grav

    def lift_off(self, k: int) -> float:
        return (TWO_PI * k + self.psi0) / self.omega

    def land(self, lift_off: float, limit: float) -> tuple[float, float | None]:
        """Touchdown time (math.inf if airborne at ``limit``) and the peak
        angle before it, the larger of theta0 and theta at the maxima of
        theta, each time found by _root as the only root in its bracket:
        theta_ddot changes sign only at the phases rise and pi - rise, theta
        is monotone between zeros of theta_dot. Values at bracket ends carry
        over; the peak is None for a flight too short to be a cycle.
        """
        lifts = self.c_grav < self.c_force  # else theta_ddot <= 0: one bracket
        rise = math.asin(self.c_grav / self.c_force) if lifts else 0.0
        peak = angle = self.theta0  # theta(0) is theta0 exactly
        p, index = 0.0, 0 if self.psi0 < rise else 1  # the first turn after psi0
        v_p = self.rate(p)
        while p < limit:
            q = limit
            if lifts:
                phase = (rise, math.pi - rise)[index % 2] + TWO_PI * (index // 2)
                q = min(q, (phase - self.psi0) / self.omega)
                index += 1
            v_q = self.rate(q)
            if v_p > 0.0 > v_q or v_p < 0.0 < v_q:
                pieces = ((_root(self.rate, self.accel, p, q, v_p > 0.0), v_p > 0.0),
                          (q, v_q > 0.0))
            else:
                pieces = ((q, v_p > 0.0 or v_q > 0.0),)
            for q, rising in pieces:  # theta is monotone on [p, q]
                start, angle = angle, self.theta(q)
                if not rising and angle <= 0.0:
                    duration = _root(self.theta, self.rate, p, q, start > 0.0)
                    short = duration < _MIN_FLIGHT_FRACTION * (TWO_PI / self.omega)
                    return duration, None if short else peak
                if rising and angle > MAX_BODY_ANGLE:
                    raise ModelDomainError(f"body angle {angle:.6g} rad exceeds pi/2 "
                                           f"at t = {lift_off + q:.6g} s")
                if rising and v_q <= 0.0:  # theta_dot at q is on v_q's side
                    peak = max(peak, angle)
                p = q
            v_p = v_q
        return math.inf, peak


def _steps(cfg: SimConfig) -> int:
    return math.floor(cfg.t_end / cfg.dt + 1e-9)


def _cycles(robot: RobotParams, motor: MotorParams, cfg: SimConfig) -> list:
    """Runs (flight, ks, duration, landed, peak) of one flight shifted by
    whole periods: it lifts off at flight.lift_off(k) for k in ks, and the
    first ``landed`` touch down inside the window; one more may be airborne."""
    period = motor.period
    if cfg.dt > period / 200.0:
        raise ValidationError(f"dt {cfg.dt:.6g} exceeds T/200 = {period / 200.0:.6g} s")
    if cfg.t_end < 5.0 * period:
        raise ValidationError(
            f"t_end {cfg.t_end:.6g} below five forcing periods {5.0 * period:.6g} s"
        )
    if _steps(cfg) > MAX_GRID_STEPS:
        raise ValidationError(f"t_end / dt exceeds {MAX_GRID_STEPS:.6g} grid steps")

    omega = motor.speed
    c_force = motor.force_amplitude * robot.forcing_arm / robot.pivot_inertia
    c_grav = robot.weight * robot.gravity_arm / robot.pivot_inertia
    end = _steps(cfg) * cfg.dt
    runs, at_rest = [], 0.0
    if cfg.theta0 > 0.0:
        flight = _Flight(c_force, c_grav, omega, 0.0, cfg.theta0)
        duration, peak = flight.land(0.0, end)
        at_rest = duration if duration <= end else math.inf
        runs.append((flight, range(1), duration, int(at_rest < math.inf), peak))
    if not (c_grav < c_force and at_rest < end):
        return runs  # no lift-off from rest inside the window

    # Lift-offs from rest sit on the rising zeros (2*pi*k + rise)/omega of the
    # net moment, the first at or after the body came to rest.
    rise = math.asin(c_grav / c_force)
    flight = _Flight(c_force, c_grav, omega, rise, 0.0)
    k = max(0, math.ceil((omega * at_rest - rise) / TWO_PI))
    if not flight.lift_off(k) < end:
        return runs
    duration, peak = flight.land(flight.lift_off(k), end - flight.lift_off(k))
    if duration == math.inf:
        return runs + [(flight, range(k, k + 1), duration, 0, peak)]
    step = max(1, math.ceil(duration * omega / TWO_PI))
    # Division estimates how many land inside the window, and rounding can put
    # it one too high: count up from one below it against the times themselves.
    last = math.floor(((end - duration) * omega - rise) / TWO_PI)
    landed = max(0, (last - k) // step)
    while (t := flight.lift_off(k + landed * step)) < end and t + duration <= end:
        landed += 1
    flights = landed + (t < end)  # the one after them lifts off, but lands too late
    return runs + [(flight, range(k, k + flights * step, step), duration, landed, peak)]


def cycle_peaks(robot: RobotParams, motor: MotorParams, cfg: SimConfig) -> tuple:
    """``simulate(robot, motor, cfg).cycle_peaks`` without sampling the flights."""
    runs = _cycles(robot, motor, cfg)  # each landed flight of a run has its peak
    return sum([(peak,) * landed for *_, landed, peak in runs if peak is not None], ())


def simulate(
    robot: RobotParams, motor: MotorParams, cfg: SimConfig
) -> Regime2Trajectory:
    """Solve the pivot rotation with ground contact over [0, t_end].

    Flights are exact; a touchdown resets the state to rest until the next
    rising zero of the net moment. Samples are the closed form at every
    record_stride-th grid point t_k = k*dt (exact zeros at rest), plus a rest
    sample at each completed touchdown, where x steps by h*sin(cycle peak) and
    which stands for a grid point at the same time. Near a peak or touchdown
    the closed form can round a few ulps past it, so sampled theta in flight
    is clamped to [0, cycle peak]. A flight still airborne at the window end
    is not a cycle, and its theta is only kept >= 0.

    Raises ValidationError when dt or t_end violate the resolution guards
    and ModelDomainError if the body angle exceeds pi/2 inside the window.
    """
    dt, stride, steps = cfg.dt, cfg.record_stride, _steps(cfg)
    # tuple.__new__ builds each Sample without its Python-level __new__
    sin, cos, new = math.sin, math.cos, tuple.__new__
    x, samples, peaks, events, k = 0.0, [], [], [], 0
    for flight, ks, duration, landed, peak in _cycles(robot, motor, cfg):
        # _Flight.theta and _Flight.rate inlined with one sin per sample
        c_force, c_grav, omega = flight.c_force, flight.c_grav, flight.omega
        psi0, theta0, sin0 = flight.psi0, flight.theta0, flight.sin0
        rate0, swing, force_omega = flight.rate0, flight.swing, flight.force_omega
        for i, lift_off in enumerate(map(flight.lift_off, ks)):
            counted = i < landed and peak is not None
            touchdown = lift_off + duration if i < landed else math.inf
            top = peak if counted else math.inf
            while k <= steps and k * dt < lift_off:
                samples.append(new(Sample, (k * dt, 0.0, 0.0, 0.0, x)))
                k += stride
            while k <= steps and k * dt < touchdown:
                t = k * dt
                k += stride
                s = t - lift_off
                phase = psi0 + omega * s
                sine = sin(phase)
                theta = theta0 + (rate0 - 0.5 * c_grav * s) * s - swing * (sine - sin0)
                rate = rate0 - force_omega * cos(phase) - c_grav * s
                theta = 0.0 if theta < 0.0 else theta if theta < top else top
                samples.append(new(Sample, (t, theta, rate, c_force * sine - c_grav, x)))
            if counted:
                x += robot.step_height * sin(peak)
                samples.append(new(Sample, (touchdown, 0.0, 0.0, 0.0, x)))
                peaks.append(peak)
                events.append(FlightEvent(lift_off, touchdown))
                if k * dt <= touchdown:
                    k += stride  # a touchdown sample already stands here
    while k <= steps:  # rest through the window end
        samples.append(new(Sample, (k * dt, 0.0, 0.0, 0.0, x)))
        k += stride
    return Regime2Trajectory(tuple(samples), tuple(peaks), tuple(events))


def steady_peak(peaks: Sequence[float]) -> float:
    """Largest of the steady cycle peaks (the last half of them)."""
    if not peaks:
        raise NoCompletedCycleError(
            "trajectory has no completed lift-off/touchdown cycle"
        )
    return max(peaks[len(peaks) // 2:])


def peak_angle(traj: Regime2Trajectory) -> float:
    """Largest cycle peak over the steady portion (last half of the cycles)."""
    return steady_peak(traj.cycle_peaks)


def _check_peak_domain(theta_hat: float) -> None:
    if not 0.0 <= theta_hat < MAX_BODY_ANGLE:
        raise ValidationError("theta_hat out of [0, pi/2)")


def step_displacement(robot: RobotParams, theta_hat: float) -> float:
    """Forward step per cycle, delta = h*sin(theta_hat)."""
    _check_peak_domain(theta_hat)
    return robot.step_height * math.sin(theta_hat)


def ground_speed(robot: RobotParams, motor: MotorParams, theta_hat: float) -> float:
    """Small-angle speed estimate, v_r = omega*h*theta_hat/(2*pi)."""
    _check_peak_domain(theta_hat)
    return motor.speed * robot.step_height * theta_hat / (2.0 * math.pi)
