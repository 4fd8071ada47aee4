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
closed form, to float resolution. dt only sets the sampling grid. Limit: this
holds only while the moments do not depend on theta (fixed moment arms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .params import TWO_PI, MotorParams, RobotParams, ValidationError
from .params import forcing_at, require_finite

# Body angles beyond this break the single-pivot geometry.
MAX_BODY_ANGLE = math.pi / 2.0
# Flights shorter than this fraction of the forcing period are boundary
# artifacts (lift-off exactly at the zero-moment point), not real cycles.
_MIN_FLIGHT_FRACTION = 1e-12
# Longest window, in grid steps: it bounds the cycle walk and the samples.
MAX_GRID_STEPS = 10**7


class ModelDomainError(RuntimeError):
    """The body angle left the domain where the pivot model is meaningful."""


class NoCompletedCycleError(ValueError):
    """The trajectory contains no completed lift-off/touchdown cycle."""


@dataclass(frozen=True)
class SimConfig:
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

    def __post_init__(self) -> None:
        require_finite(self)
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


@dataclass(frozen=True)
class Regime2Trajectory:
    """Sampled hybrid trajectory plus per-cycle bookkeeping.

    samples      time-ordered (t, theta, theta_dot, theta_ddot, x)
    cycle_peaks  peak angle of each completed flight, rad
    events       (lift_off_time, touchdown_time) of each completed flight
    """

    samples: tuple[Sample, ...]
    cycle_peaks: tuple[float, ...]
    events: tuple[FlightEvent, ...]


def net_moment(robot: RobotParams, motor: MotorParams, t: float) -> float:
    """Moment about the pivot: m*omega^2*r*sin(omega*t)*w - M*g*w_G, N*m."""
    return (
        forcing_at(motor, t) * robot.forcing_arm
        - robot.weight * robot.gravity_arm
    )


def _root(f: Callable, slope: Callable, lo: float, hi: float) -> float:
    """The end of [lo, hi] on f(hi)'s side of zero once lo and hi are
    adjacent floats; f(lo) and f(hi) lie on opposite sides (f > 0 or f <= 0).

    Newton steps on f, whose derivative is slope, from the midpoint (slope
    vanishes at an end of the brackets here). A step that would leave
    (lo, hi) or is over half the one before gives way to a bisection, which
    caps the cost at about twice bisection's. Each step is aimed two ulps
    past its estimate, so a converged one lands across the root.
    """
    above, x = f(lo) > 0.0, lo  # x is not inside (lo, hi): the first point bisects
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
        self.rate0 = c_force / omega * math.cos(psi0)
        self.swing = c_force / omega**2

    def theta(self, s: float) -> float:
        lag = math.sin(self.psi0 + self.omega * s) - self.sin0
        return self.theta0 + (self.rate0 - 0.5 * self.c_grav * s) * s - self.swing * lag

    def rate(self, s: float) -> float:
        cos = math.cos(self.psi0 + self.omega * s)
        return self.rate0 - self.c_force / self.omega * cos - self.c_grav * s

    def accel(self, s: float) -> float:
        return self.c_force * math.sin(self.psi0 + self.omega * s) - self.c_grav

    def land(self, lift_off: float, limit: float) -> tuple[float, list]:
        """Touchdown time (math.inf if airborne at ``limit``) and the (time,
        theta) of the maxima of theta before it, each time found by _root as
        the only root in its bracket: theta_ddot changes sign only at the
        phases rise and pi - rise, theta is monotone between zeros of theta_dot.
        """
        lifts = self.c_grav < self.c_force  # else theta_ddot <= 0: one bracket
        rise = math.asin(self.c_grav / self.c_force) if lifts else 0.0
        humps: list[tuple[float, float]] = []
        p, index = 0.0, 0 if self.psi0 < rise else 1  # the first turn after psi0
        while p < limit:
            q = limit
            if lifts:
                phase = (rise, math.pi - rise)[index % 2] + TWO_PI * (index // 2)
                q = min(q, (phase - self.psi0) / self.omega)
                index += 1
            v_p, v_q = self.rate(p), self.rate(q)
            if v_p > 0.0 > v_q or v_p < 0.0 < v_q:
                pieces = ((_root(self.rate, self.accel, p, q), v_p > 0.0),
                          (q, v_q > 0.0))
            else:
                pieces = ((q, v_p > 0.0 or v_q > 0.0),)
            for q, rising in pieces:  # theta is monotone on [p, q]
                angle = self.theta(q)
                if not rising and angle <= 0.0:
                    return _root(self.theta, self.rate, p, q), humps
                if rising and angle > MAX_BODY_ANGLE:
                    raise ModelDomainError(
                        f"body angle {angle:.6g} rad exceeds pi/2 at "
                        f"t = {lift_off + q:.6g} s"
                    )
                if rising and self.rate(q) <= 0.0:
                    humps.append((q, angle))
                p = q
        return math.inf, humps


def _steps(cfg: SimConfig) -> int:
    return math.floor(cfg.t_end / cfg.dt + 1e-9)


def _cycle(flight, lift_off, landing, end, dt, period) -> tuple:
    """(lift_off, touchdown, peak, flight); touchdown is math.inf if the
    flight is airborne at the window end, peak None unless it counts."""
    duration, humps = landing
    touchdown = lift_off + duration
    if touchdown > end:
        return lift_off, math.inf, None, flight
    if duration < _MIN_FLIGHT_FRACTION * period:
        return lift_off, touchdown, None, flight
    # theta at the grid points next to a hump can round above the root-found
    # value; taking them in keeps every sample at or below the peak.
    peak = flight.theta0
    for hump, angle in humps:
        peak = max(peak, angle)
        k = math.floor((lift_off + hump) / dt)
        for t in (k * dt, (k + 1) * dt):
            if lift_off < t < touchdown:
                peak = max(peak, flight.theta(t - lift_off))
    return lift_off, touchdown, peak, flight


def _cycles(robot: RobotParams, motor: MotorParams, cfg: SimConfig) -> list:
    period = motor.period
    if cfg.dt > period / 200.0:
        raise ValidationError(
            f"dt {cfg.dt:.6g} exceeds T/200 = {period / 200.0:.6g} s"
        )
    if cfg.t_end < 5.0 * period:
        raise ValidationError(
            f"t_end {cfg.t_end:.6g} below five forcing periods {5.0 * period:.6g} s"
        )
    if _steps(cfg) > MAX_GRID_STEPS:
        raise ValidationError(f"t_end / dt exceeds {MAX_GRID_STEPS:.6g} grid steps")

    omega, dt = motor.speed, cfg.dt
    c_force = motor.force_amplitude * robot.forcing_arm / robot.pivot_inertia
    c_grav = robot.weight * robot.gravity_arm / robot.pivot_inertia
    end = _steps(cfg) * dt
    cycles, at_rest = [], 0.0
    if cfg.theta0 > 0.0:
        flight = _Flight(c_force, c_grav, omega, 0.0, cfg.theta0)
        cycles.append(_cycle(flight, 0.0, flight.land(0.0, end), end, dt, period))
        at_rest = cycles[0][1]
    if not (c_grav < c_force and at_rest < end):
        return cycles  # no lift-off from rest inside the window

    # Lift-offs from rest sit on the rising zeros (2*pi*k + rise)/omega of the
    # net moment, each the first at or after the body came to rest.
    rise = math.asin(c_grav / c_force)
    k = max(0, math.ceil((omega * at_rest - rise) / TWO_PI))
    lift_off = (TWO_PI * k + rise) / omega
    flight = _Flight(c_force, c_grav, omega, rise, 0.0)
    landing = flight.land(lift_off, end - lift_off) if lift_off < end else None
    while lift_off < end:
        cycles.append(_cycle(flight, lift_off, landing, end, dt, period))
        if cycles[-1][1] == math.inf:
            break
        k += max(1, math.ceil(landing[0] * omega / TWO_PI))
        lift_off = (TWO_PI * k + rise) / omega
    return cycles


def cycle_peaks(robot: RobotParams, motor: MotorParams, cfg: SimConfig) -> tuple:
    """``simulate(robot, motor, cfg).cycle_peaks`` without sampling the flights."""
    # a list, not a generator: on CPython 3.11 one per call raised peak RSS
    return tuple([c[2] for c in _cycles(robot, motor, cfg) if c[2] is not None])


def simulate(
    robot: RobotParams, motor: MotorParams, cfg: SimConfig
) -> Regime2Trajectory:
    """Solve the pivot rotation with ground contact over [0, t_end].

    Flights are exact; a touchdown resets the state to rest until the next
    rising zero of the net moment. Samples are the closed form at every
    record_stride-th grid point t_k = k*dt (exact zeros at rest, theta
    rounded up to >= 0 in flight), plus a rest sample at each completed
    touchdown, where x steps by h*sin(cycle peak) and which stands for a grid
    point at the same time. No sampled theta exceeds its cycle's peak. A
    flight still airborne at the window end is not a cycle.

    Raises ValidationError when dt or t_end violate the resolution guards
    and ModelDomainError if the body angle exceeds pi/2 inside the window.
    """
    cycles = _cycles(robot, motor, cfg)
    dt, stride, steps = cfg.dt, cfg.record_stride, _steps(cfg)
    # tuple.__new__ builds each Sample without its Python-level __new__
    sin, cos, new = math.sin, math.cos, tuple.__new__
    x, samples, k = 0.0, [], 0
    after = (math.inf, math.inf, None, None)  # rest through the window end
    for lift_off, touchdown, peak, flight in cycles + [after]:
        while k <= steps and k * dt < lift_off:
            samples.append(new(Sample, (k * dt, 0.0, 0.0, 0.0, x)))
            k += stride
        if flight is None:
            break
        # _Flight.theta and _Flight.rate inlined with one sin per sample, in
        # the same operation order: _cycle bounds the peak with those values.
        c_force, c_grav, omega = flight.c_force, flight.c_grav, flight.omega
        psi0, theta0, sin0 = flight.psi0, flight.theta0, flight.sin0
        rate0, swing, force_omega = flight.rate0, flight.swing, c_force / omega
        while k <= steps and k * dt < touchdown:
            t = k * dt
            k += stride
            s = t - lift_off
            phase = psi0 + omega * s
            sine = sin(phase)
            theta = theta0 + (rate0 - 0.5 * c_grav * s) * s - swing * (sine - sin0)
            rate = rate0 - force_omega * cos(phase) - c_grav * s
            samples.append(new(Sample, (t, 0.0 if theta < 0.0 else theta, rate,
                                        c_force * sine - c_grav, x)))
        if peak is not None:
            x += robot.step_height * sin(peak)
            samples.append(new(Sample, (touchdown, 0.0, 0.0, 0.0, x)))
            if k * dt <= touchdown:
                k += stride  # a touchdown sample already stands here

    counted = [c for c in cycles if c[2] is not None]
    return Regime2Trajectory(
        samples=tuple(samples),
        cycle_peaks=tuple([c[2] for c in counted]),
        events=tuple([FlightEvent(c[0], c[1]) for c in counted]),
    )


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
