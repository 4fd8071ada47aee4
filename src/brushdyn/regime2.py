"""Rigid-brush locomotion: hybrid rotation about the ground pivot.

The body angle obeys I_P * theta_ddot = m*omega^2*r*sin(omega*t)*w - M*g*w_G
while airborne, subject to the unilateral ground constraint theta >= 0.
Impacts are perfectly plastic: at touchdown the angle, rate and acceleration
are reset to zero and the body stays glued to the ground until the net moment
next rises through zero. The rising-edge trigger (rather than releasing the
instant the moment is positive) keeps impact chains from re-launching at a
drifting phase, so the stick-slip pattern locks to the forcing. Each completed
lift-off/touchdown cycle advances the robot by h*sin(peak angle of that cycle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .params import MotorParams, RobotParams, ValidationError, forcing_at

# Touchdown location tolerance on |theta|, rad.
TOUCHDOWN_TOL = 1e-10
# Body angles beyond this break the single-pivot geometry.
MAX_BODY_ANGLE = math.pi / 2.0
# Flights shorter than this fraction of the forcing period are boundary
# artifacts (lift-off exactly at the zero-moment point), not real cycles.
_MIN_FLIGHT_FRACTION = 1e-12


class ModelDomainError(RuntimeError):
    """The body angle left the domain where the pivot model is meaningful."""


class NoCompletedCycleError(ValueError):
    """The trajectory contains no completed lift-off/touchdown cycle."""


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration window.

    t_end          s, must cover at least 5 forcing periods
    dt             s, must not exceed T/200 of the motor period
    theta0         rad, initial body angle in [0, pi/2)
    record_stride  grid samples kept every this many steps (touchdown
                   samples are always kept)

    The time grid is t_k = k*dt up to the last full step inside t_end.
    """

    t_end: float
    dt: float
    theta0: float = 0.0
    record_stride: int = 1

    def __post_init__(self) -> None:
        if not self.t_end > 0.0:
            raise ValidationError("t_end must be > 0")
        if not self.dt > 0.0:
            raise ValidationError("dt must be > 0")
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


def _rk4_step(
    t: float,
    theta: float,
    vel: float,
    h: float,
    c_force: float,
    c_grav: float,
    omega: float,
) -> tuple[float, float]:
    # Classical RK4; the angular acceleration depends on time only, so the
    # two middle stages coincide and three forcing evaluations suffice.
    a1 = c_force * math.sin(omega * t) - c_grav
    a2 = c_force * math.sin(omega * (t + 0.5 * h)) - c_grav
    a3 = c_force * math.sin(omega * (t + h)) - c_grav
    theta_new = theta + h * vel + h * h / 6.0 * (a1 + 2.0 * a2)
    vel_new = vel + h / 6.0 * (a1 + 4.0 * a2 + a3)
    return theta_new, vel_new


def _locate_touchdown(
    t0: float,
    theta: float,
    vel: float,
    h: float,
    c_force: float,
    c_grav: float,
    omega: float,
) -> tuple[float, float]:
    """Bisect the RK4 substep size for the downward zero crossing of theta.

    Returns (substep, highest theta seen); theta(substep) is within
    TOUCHDOWN_TOL of zero unless the interval collapses to float resolution
    first.
    """
    if abs(theta) <= TOUCHDOWN_TOL:
        return 0.0, theta
    lo, hi = 0.0, h
    peak = theta
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        th_mid, _ = _rk4_step(t0, theta, vel, mid, c_force, c_grav, omega)
        if th_mid > peak:
            peak = th_mid
        if abs(th_mid) <= TOUCHDOWN_TOL:
            return mid, peak
        if th_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return hi, peak


def _locate_crossing(
    t_lo: float, t_hi: float, predicate: Callable[[float], bool]
) -> float:
    """Bisect the earliest time in (t_lo, t_hi] where predicate flips true.

    predicate(t_lo) must be false and predicate(t_hi) true.
    """
    lo, hi = t_lo, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


def simulate(
    robot: RobotParams, motor: MotorParams, cfg: SimConfig
) -> Regime2Trajectory:
    """Integrate the pivot rotation with ground contact over [0, t_end].

    Fixed-step explicit 4th-order integration while airborne; touchdown is
    located by bisection inside the crossing step, after which the state is
    reset to rest and held until the net moment next rises through zero
    (it must drop non-positive before a new lift can trigger). The robot
    position x jumps by h*sin(cycle peak) at every touchdown.

    Raises ValidationError when dt or t_end violate the resolution guards
    and ModelDomainError if the body angle exceeds pi/2.
    """
    period = motor.period
    if cfg.dt > period / 200.0:
        raise ValidationError(
            f"dt {cfg.dt:.6g} exceeds T/200 = {period / 200.0:.6g} s"
        )
    if cfg.t_end < 5.0 * period:
        raise ValidationError(
            f"t_end {cfg.t_end:.6g} below five forcing periods {5.0 * period:.6g} s"
        )

    omega = motor.speed
    c_force = motor.force_amplitude * robot.forcing_arm / robot.pivot_inertia
    c_grav = robot.weight * robot.gravity_arm / robot.pivot_inertia
    step_height = robot.step_height
    dt = cfg.dt
    stride = cfg.record_stride
    n_steps = int(math.floor(cfg.t_end / dt + 1e-9))
    min_flight = _MIN_FLIGHT_FRACTION * period

    def accel(t: float) -> float:
        return c_force * math.sin(omega * t) - c_grav

    samples: list[Sample] = []
    peaks: list[float] = []
    events: list[FlightEvent] = []

    x = 0.0
    theta = cfg.theta0
    vel = 0.0
    airborne = theta > 0.0
    # A rest state only releases on a rising edge of the net moment: it must
    # be non-positive first ("armed"), then cross into positive.
    armed = accel(0.0) <= 0.0
    flight_start = 0.0
    flight_peak = theta if airborne else 0.0

    samples.append(Sample(0.0, theta, vel, accel(0.0) if airborne else 0.0, x))

    for k in range(n_steps):
        step_end = (k + 1) * dt
        tau = k * dt
        spins = 0
        while True:
            spins += 1
            if spins > 100000:
                raise RuntimeError("contact event cascade did not terminate")
            if airborne:
                h = step_end - tau
                th_new, v_new = _rk4_step(tau, theta, vel, h, c_force, c_grav, omega)
                if th_new > 0.0:
                    theta, vel = th_new, v_new
                    if theta > flight_peak:
                        flight_peak = theta
                    if theta > MAX_BODY_ANGLE:
                        raise ModelDomainError(
                            f"body angle {theta:.6g} rad exceeds pi/2 at "
                            f"t = {step_end:.6g} s"
                        )
                    break
                sub, seen = _locate_touchdown(
                    tau, theta, vel, h, c_force, c_grav, omega
                )
                if seen > flight_peak:
                    flight_peak = seen
                if flight_peak > MAX_BODY_ANGLE:
                    raise ModelDomainError(
                        f"body angle {flight_peak:.6g} rad exceeds pi/2 near "
                        f"t = {tau + sub:.6g} s"
                    )
                touchdown = tau + sub
                theta = vel = 0.0
                airborne = False
                armed = accel(touchdown) <= 0.0
                if touchdown - flight_start >= min_flight:
                    x += step_height * math.sin(flight_peak)
                    peaks.append(flight_peak)
                    events.append(FlightEvent(flight_start, touchdown))
                    if touchdown > samples[-1].t:
                        samples.append(Sample(touchdown, 0.0, 0.0, 0.0, x))
                # else: lift-off at the moment boundary re-touching at once is
                # a numerical artifact, not a cycle
                tau = touchdown
                if tau >= step_end:
                    break
            elif not armed:
                if accel(step_end) > 0.0:
                    tau = step_end
                    break
                tau = _locate_crossing(tau, step_end, lambda t: accel(t) <= 0.0)
                armed = True
                if tau >= step_end:
                    break
            else:
                if accel(step_end) <= 0.0:
                    tau = step_end
                    break
                lift = _locate_crossing(tau, step_end, lambda t: accel(t) > 0.0)
                airborne = True
                flight_start = lift
                flight_peak = 0.0
                theta = vel = 0.0
                tau = lift
                if tau >= step_end:
                    break

        if (k + 1) % stride == 0 and step_end > samples[-1].t:
            if airborne:
                samples.append(Sample(step_end, theta, vel, accel(step_end), x))
            else:
                samples.append(Sample(step_end, 0.0, 0.0, 0.0, x))

    return Regime2Trajectory(
        samples=tuple(samples),
        cycle_peaks=tuple(peaks),
        events=tuple(events),
    )


def peak_angle(traj: Regime2Trajectory) -> float:
    """Largest cycle peak over the steady portion (last half of the cycles)."""
    peaks = traj.cycle_peaks
    if not peaks:
        raise NoCompletedCycleError(
            "trajectory has no completed lift-off/touchdown cycle"
        )
    return max(peaks[len(peaks) // 2:])


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
