"""Rigid-brush locomotion: hybrid rotation about the ground pivot.

The body angle obeys I_P * theta_ddot = m*omega^2*r*sin(omega*t)*w - M*g*w_G
while airborne, subject to the unilateral ground constraint theta >= 0.
Impacts are perfectly plastic: at touchdown the angle, rate and acceleration
are reset to zero and the body stays glued to the ground until the net moment
next rises through zero. The rising-edge trigger (rather than releasing the
instant the moment is positive) keeps impact chains from re-launching at a
drifting phase, so the stick-slip pattern locks to the forcing. Each completed
lift-off/touchdown cycle advances the robot by h*sin(peak angle of that cycle),
so the steady speed is h*sin(peak)/(n*T): one hop from rest per n periods.

The solver is exact and event-driven: theta_ddot = c_f*sin(omega*t) - c_g
depends on time only, so flights have a closed form, and every lift-off from
rest is at the forcing phase asin(c_g/c_f), so all flights from rest are one
flight shifted by whole periods. One inlined Newton kernel finds peaks and
touchdowns from phases fitted in rho = c_g/c_f for a flight from rest, in ~4
evaluations each (once converged it gallops out of rounding noise), to float
resolution away from the lift-off threshold; the closed form cancels as rho
nears 1, so the steady peak is off by ~1e-9 (relative) at rho = 1 - 1e-4 and
by 8-11 % at rho = 1 - 1e-8 (omega = 300 rad/s with c_g = 73.575, c_f = 50 or
c_f = 270 rad/s^2). dt only sets the sampling grid: ``simulate`` holds every
sample (~2 GB at MAX_GRID_STEPS), ``stream`` yields one block of at most
_BLOCK samples at a time. Limit: exact only while the moments do not depend
on theta (fixed moment arms).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain, islice, repeat
from typing import Iterator, NamedTuple

from .params import TWO_PI, ModelDomainError, MotorParams, RobotParams
from .params import ValidationError, _require, validated

# Body angles beyond this break the single-pivot geometry.
MAX_BODY_ANGLE = math.pi / 2.0
# Flights shorter than this fraction of the forcing period are boundary
# artifacts (lift-off exactly at the zero-moment point), not real cycles.
_MIN_FLIGHT_FRACTION = 1e-12
# Longest window, in grid steps: it bounds the samples, which ``simulate``
# holds (~2 GB at this cap) and ``stream`` yields in blocks of at most _BLOCK.
MAX_GRID_STEPS = 10**7
_BLOCK = 128  # most samples in one block of ``stream``


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
        _require(self.t_end > 0.0, "t_end must be > 0")
        _require(self.dt > 0.0, "dt must be > 0")
        _require(math.isfinite(self.t_end / self.dt), "t_end / dt must be finite")
        _require(0.0 <= self.theta0 < MAX_BODY_ANGLE, "theta0 out of [0, pi/2)")
        _require(isinstance(self.record_stride, int) and self.record_stride >= 1,
                 "record_stride must be a positive integer")


class Sample(NamedTuple):
    t: float
    theta: float
    theta_dot: float
    theta_ddot: float
    x: float


class Cycle(NamedTuple):
    lift_off: float
    touchdown: float
    peak: float


class Regime2Trajectory(NamedTuple):
    """Sampled hybrid trajectory and its completed flights.

    samples  time-ordered: Samples from simulate, column blocks from stream
    cycles   one Cycle per completed flight, in time order: its lift-off and
             touchdown times, s, and its peak angle, rad
    """

    samples: tuple[Sample, ...] | Iterator[tuple]
    cycles: tuple[Cycle, ...]


def _starts(rho: float, omega: float) -> tuple[tuple, tuple]:
    """Newton's first points (touchdowns, theta_dot roots) for a flight from
    rest at rho = c_g/c_f in [0.05, 1): times u/omega, u fitted to the phase
    of each root to 5e-5 (relative). Rationals in x = sqrt(1 - rho) give the
    first peak and, at rho >= 0.25, the touchdown; at rho in [0.14, 0.21],
    where theta rises twice before it lands (the touchdown jumps a hump at
    rho ~ 0.2173 and ~ 0.1288), one polynomial in -+sqrt(0.21723363 - rho)
    gives the first trough and the second peak, and a rational in rho the
    touchdown."""
    x = math.sqrt(1.0 - rho)
    scale = x / (rho * omega)
    peak = 4.2427078 + x * (-6.3076059 + x * (-1.5054631 + x * (5.2951956 - 1.7247491 * x)))
    peak *= scale / (1.0 + x * (-1.4857565 + x * (0.48480704 + 0.029269407 * x)))
    if rho >= 0.25:
        down = 5.6568662 + x * (-8.9190777 + x * (-1.873952 + x * (7.3071527 - 2.1905883 * x)))
        down *= scale / (1.0 + x * (-1.5764918 + x * (0.44903894 + 0.07499999 * x)))
        return (down,), (peak,)
    if not 0.14 <= rho <= 0.21:
        return (), (peak,)
    w = math.sqrt(0.21723363 - rho)
    even = 8.98694 + w * w * (1.353238 + 0.8085553 * w * w)
    odd = w * (4.293196 + w * w * (3.14305 + 10.60137 * w * w))
    t = rho - 0.175
    down = 11.88564 + t * (-346.0636 + t * (-2212.778 + t * (93735.52 - 183898.5 * t)))
    down /= (1.0 + t * (-26.01208 + t * (-267.2521 + 7364.755 * t))) * omega
    return (down,), (peak, (even - odd) / omega, (even + odd) / omega)


class _Flight:
    """Closed-form flight from (theta0, rate 0), s the time since lift-off:
    from rest (theta0 = 0) it lifts off at the forcing phase rise, else at
    phase 0."""

    def __init__(self, c_force, c_grav, omega, theta0):
        self.lifts = lifts = c_grav < c_force  # else theta_ddot <= 0 at every phase
        self.rise = math.asin(c_grav / c_force) if lifts else 0.0
        self.psi0 = psi0 = 0.0 if theta0 > 0.0 else self.rise
        self.omega, force_omega = omega, c_force / omega
        self.terms = (c_force, c_grav, omega, psi0, theta0, math.sin(psi0),
                      force_omega * math.cos(psi0), c_force / omega**2, force_omega)
        rest = theta0 == 0.0 and lifts and c_grav >= 0.05 * c_force  # else midpoints only
        self.starts = _starts(c_grav / c_force, omega) if rest else ((), ())

    def lift_off(self, k: int) -> float:
        return (TWO_PI * k + self.psi0) / self.omega

    def root(self, lo: float, hi: float, angle: float, above: bool, peak: bool) -> tuple:
        """(r, theta(r)), r the end on hi's side of the adjacent floats around
        the root of f = theta_dot (peak) or theta in (lo, hi), above = f(lo) > 0
        and angle = theta(hi). Newton steps on f, with f and its slope inline
        from one phase, start from the first of self.starts[peak] inside
        (lo, hi), else the midpoint, and aim at their bare estimates; f is
        evaluated only inside (lo, hi). An estimate that rounds onto an end
        tries that end's neighbour next. x gallops from its end toward the
        other, by 2, 4, 8, ... ulps over the call, when f repeats its last
        value exactly (f is flat there and steps round to 0), or when a step
        over half the one before follows convergence (half the last step within
        4 ulps); after any other such step, or one out of (lo, hi), the next
        point bisects. The cost stays at most about twice bisection's, on flat
        stretches too."""
        sin, cos, ulp = math.sin, math.cos, math.ulp
        c_force, c_grav, omega, psi0, theta0, sin0, rate0, swing, force_omega = self.terms
        x, half, reach, top, last = lo, 0.5 * (hi - lo), 2.0, None, math.nan  # top: sine at hi
        for x in self.starts[peak]:
            if lo < x < hi:
                break
        while True:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                if top is not None:  # hi was evaluated here
                    angle = theta0 + (rate0 - 0.5 * c_grav * hi) * hi - swing * (top - sin0)
                return hi, angle
            if not lo < x < hi:
                x, half = mid, 0.5 * (hi - lo)
            phase = psi0 + omega * x
            sine = sin(phase)
            rate = rate0 - force_omega * cos(phase) - c_grav * x
            if peak:
                value, d = rate, c_force * sine - c_grav
            else:
                value = theta0 + (rate0 - 0.5 * c_grav * x) * x - swing * (sine - sin0)
                d = rate
            if (value > 0.0) == above:
                lo, far = x, hi
            else:
                hi, top, far = x, sine, lo
            step = value / d if d else math.inf
            if -half <= step <= half and value != last:
                half = 0.5 * abs(step)
                x -= step
                if x == lo or x == hi:  # converged onto an end: try its neighbour
                    x = math.nextafter(x, far)
            elif half <= 4.0 * ulp(x) or value == last:  # noise or a flat f: gallop
                x += math.copysign(reach * ulp(x), far - x)
                reach *= 2.0
            last = value

    def land(self, lift_off: float, limit: float) -> tuple[float, float | None]:
        """Touchdown time and the peak angle before it, the larger of theta0
        and theta at the maxima of theta, each time found by root as the only
        root in its bracket: theta_ddot changes sign only at the phases rise
        and pi - rise, theta is monotone between zeros of theta_dot. Values at
        bracket ends carry over. (math.inf, None) if airborne at ``limit``;
        the peak is None also for a flight too short to be a cycle, else in
        [0, pi/2): an angle at pi/2 or beyond raises ModelDomainError.
        """
        c_force, c_grav, omega, psi0, theta0, sin0, rate0, swing, force_omega = self.terms
        lifts, rise = self.lifts, self.rise
        peak = angle = theta0  # theta(0) is theta0 and theta_dot(0) 0.0 exactly
        p, v_p, index = 0.0, 0.0, 0 if psi0 < rise else 1  # the first turn after psi0
        while p < limit:
            q = limit
            if lifts:
                turn = (rise, math.pi - rise)[index % 2] + TWO_PI * (index // 2)
                q = min(q, (turn - psi0) / omega)
                index += 1
            phase = psi0 + omega * q  # theta and theta_dot at q
            a_q = theta0 + (rate0 - 0.5 * c_grav * q) * q - swing * (math.sin(phase) - sin0)
            v_q = rate0 - force_omega * math.cos(phase) - c_grav * q
            pieces = ((q, v_p > 0.0 or v_q > 0.0, a_q),)
            if v_p > 0.0 > v_q or v_p < 0.0 < v_q:
                r, a_r = self.root(p, q, a_q, v_p > 0.0, True)
                pieces = ((r, v_p > 0.0, a_r), (q, v_q > 0.0, a_q))
            for q, rising, end_angle in pieces:  # theta is monotone on [p, q]
                start, angle = angle, end_angle
                if not rising and angle <= 0.0:
                    duration = self.root(p, q, angle, start > 0.0, False)[0]
                    short = duration < _MIN_FLIGHT_FRACTION * (TWO_PI / omega)
                    return duration, None if short else peak
                if rising and angle >= MAX_BODY_ANGLE:
                    raise ModelDomainError(f"body angle {angle:.6g} rad exceeds pi/2 "
                                           f"at t = {lift_off + q:.6g} s")
                if rising and v_q <= 0.0 and angle > peak:  # theta_dot(q) is on v_q's side
                    peak = angle
                p = q
            v_p = v_q
        return math.inf, None


def _steps(cfg: SimConfig) -> int:
    return math.floor(cfg.t_end / cfg.dt + 1e-9)


def _flights(robot: RobotParams, motor: MotorParams, cfg: SimConfig) -> Iterator[tuple]:
    """(flight, lift_off, duration, peak) of each flight lifting off inside the
    window, in time order: the tilted start's, then the flights from rest, the
    one landing shifted by whole periods. peak is None unless it is a cycle; a
    last one landing after the window end is (flight, lift_off, math.inf,
    None). The window's errors are raised before the first record."""
    period = motor.period
    if cfg.dt > period / 200.0:
        raise ValidationError(f"dt {cfg.dt:.6g} exceeds T/200 = {period / 200.0:.6g} s")
    if cfg.t_end < 5.0 * period:
        raise ValidationError(
            f"t_end {cfg.t_end:.6g} below five forcing periods {5.0 * period:.6g} s"
        )
    steps = _steps(cfg)
    if steps > MAX_GRID_STEPS:
        raise ValidationError(f"t_end / dt exceeds {MAX_GRID_STEPS:.6g} grid steps")

    omega = motor.speed
    c_force = motor.force_amplitude * robot.forcing_arm / robot.pivot_inertia
    c_grav = robot.weight * robot.gravity_arm / robot.pivot_inertia
    end = steps * cfg.dt
    at_rest = 0.0
    if cfg.theta0 > 0.0:
        flight = _Flight(c_force, c_grav, omega, cfg.theta0)
        at_rest, peak = flight.land(0.0, end)  # a touchdown is at most end
        yield flight, 0.0, at_rest, peak
    if not (c_grav < c_force and at_rest < end):
        return  # no lift-off from rest inside the window

    # Lift-offs from rest sit on the rising zeros (2*pi*k + rise)/omega of the
    # net moment, the first at or after the body came to rest.
    flight = _Flight(c_force, c_grav, omega, 0.0)
    k = max(0, math.ceil((omega * at_rest - flight.rise) / TWO_PI))
    t = flight.lift_off(k)
    duration, peak = flight.land(t, end - t)  # (math.inf, None) if t >= end
    while t < end and t + duration <= end:
        yield flight, t, duration, peak
        k += max(1, math.ceil(duration * omega / TWO_PI))  # the periods per hop
        t = flight.lift_off(k)
    if t < end:
        yield flight, t, math.inf, None


def _blocks(robot: RobotParams, cfg: SimConfig, flights: list) -> Iterator[tuple]:
    """The samples of ``simulate`` over the records of _flights, in blocks of
    at most _BLOCK consecutive ones of one x as columns (t, theta, theta_dot,
    theta_ddot, x): lists, and the float x; the angle columns are None at
    rest, where all three are 0.0."""
    dt, stride, stop = cfg.dt, cfg.record_stride, _steps(cfg) + 1
    sin, cos = math.sin, math.cos
    k = 0

    def grid(end: float) -> Iterator[list]:
        """Non-empty blocks of the grid times from t_k up to before end."""
        nonlocal k
        while k < stop:
            t = [j * dt for j in range(k, min(k + _BLOCK * stride, stop), stride)]
            n = bisect_left(t, end)
            if n:
                k += n * stride
                yield t[:n]
            if n < len(t):
                return

    x = 0.0
    for flight, lift_off, duration, peak in flights:
        touchdown = lift_off + duration
        for t in grid(lift_off):
            yield t, None, None, None, x
        # the closed form of _Flight.land, with one sin per sample
        c_force, c_grav, omega, psi0, theta0, sin0, rate0, swing, force_omega = flight.terms
        top = math.inf if peak is None else peak
        for t in grid(touchdown):
            theta, rate, accel = [], [], []
            for s in t:
                s -= lift_off
                phase = psi0 + omega * s
                sine = sin(phase)
                angle = theta0 + (rate0 - 0.5 * c_grav * s) * s - swing * (sine - sin0)
                theta.append(0.0 if angle < 0.0 else angle if angle < top else top)
                rate.append(rate0 - force_omega * cos(phase) - c_grav * s)
                accel.append(c_force * sine - c_grav)
            yield t, theta, rate, accel, x
        if peak is not None:
            x += step_displacement(robot, peak)
            yield [touchdown], None, None, None, x
            if k * dt <= touchdown:
                k += stride  # a touchdown sample already stands here
    for t in grid(math.inf):  # rest through the window end
        yield t, None, None, None, x


def stream(robot: RobotParams, motor: MotorParams, cfg: SimConfig) -> Regime2Trajectory:
    """``simulate`` with samples yielded one block of at most _BLOCK at a time,
    laid out as _blocks says. It lists every flight of _flights at the call,
    so it raises there what simulate raises, before any block is read."""
    flights = list(_flights(robot, motor, cfg))
    return Regime2Trajectory(_blocks(robot, cfg, flights), tuple(
        Cycle(t, t + duration, peak) for _, t, duration, peak in flights if peak is not None))


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
    and ModelDomainError if the body angle reaches pi/2 inside the window.
    """
    traj, zero = stream(robot, motor, cfg), repeat(0.0)
    rows = chain.from_iterable(zip(t, theta or zero, rate or zero, accel or zero, repeat(x))
                               for t, theta, rate, accel, x in traj.samples)
    # tuple.__new__ builds each Sample without its Python-level __new__
    return traj._replace(samples=tuple(map(tuple.__new__, repeat(Sample), rows)))


def peak_angle(traj: Regime2Trajectory) -> float:
    """The steady cycle peak, the last one's: flights from rest share one peak,
    and a first flight from theta0 > 0 is the last cycle only when alone."""
    if not traj.cycles:
        raise NoCompletedCycleError("trajectory has no completed lift-off/touchdown cycle")
    return traj.cycles[-1].peak


def step_displacement(robot: RobotParams, theta_hat: float) -> float:
    """Forward step per cycle, delta = h*sin(theta_hat)."""
    _require(0.0 <= theta_hat < MAX_BODY_ANGLE, "theta_hat out of [0, pi/2)")
    return robot.step_height * math.sin(theta_hat)


def steady_speed(robot: RobotParams, motor: MotorParams, cfg: SimConfig) -> float:
    """h*sin(peak)/(n*T), the steady speed ``simulate`` implies: one step of
    the flight from rest per hop of n = max(1, ceil(duration*omega/(2*pi)))
    periods. It solves only the first flight from rest, so it costs one flight
    whatever the window length. Raises what simulate raises, and
    NoCompletedCycleError when that flight is not a cycle inside the window."""
    rest = islice(_flights(robot, motor, cfg), int(cfg.theta0 > 0.0), None)  # after a tilted start
    _, _, duration, peak = next(rest, (None,) * 4)
    if peak is None:
        raise NoCompletedCycleError("no flight from rest lands inside the window")
    hop = max(1, math.ceil(duration * motor.speed / TWO_PI))
    return step_displacement(robot, peak) / (hop * motor.period)
