"""Rigid-brush locomotion: hybrid rotation about the ground pivot.

The body angle obeys I_P * theta_ddot = m*omega^2*r*sin(omega*t)*w - M*g*w_G
while airborne, subject to the unilateral ground constraint theta >= 0.
Impacts are perfectly plastic: at touchdown the angle, rate and acceleration
are reset to zero and the body stays glued to the ground until the net moment
next rises through zero. The rising-edge trigger (rather than releasing the
instant the moment is positive) keeps impact chains from re-launching at a
drifting phase, so the stick-slip pattern locks to the forcing. Each completed
lift-off/touchdown cycle advances the robot by h*sin(peak angle of that cycle),
so the steady speed is h*sin(peak)/(n*T) with one hop from rest per n periods:
theta falls to zero in forcing half-period 2n - 1 or 2n after the lift-off.

The solver is exact and event-driven: theta_ddot = c_f*sin(omega*t) - c_g
depends on time only, so a flight has a closed form in the forcing phase
u = omega*s since its lift-off. Every lift-off from rest is at the phase
asin(rho), rho = c_g/c_f, so the flights from rest are one flight shifted by
whole periods, whose phases, hop count and peak/swing (swing = c_f/omega^2)
depend on rho alone. One inlined Newton kernel finds the phases of peaks and
touchdowns from phases fitted in rho, in ~4 evaluations each (once converged
it gallops out of rounding noise), to float resolution away from the lift-off
threshold; the closed form cancels as rho nears 1, so the steady peak is off by
~1e-9 (relative) at rho = 1 - 1e-4 and by 6-9 % at rho = 1 - 1e-8 (c_f = 50 or
270 rad/s^2, omega = 300 rad/s). dt only sets the sampling grid; ``stream``
yields its samples in blocks of at most _BLOCK. Exact only for fixed moment arms.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Iterator, NamedTuple

from .params import TWO_PI, ModelDomainError, MotorParams, RobotParams
from .params import ValidationError, _require, validated

# Body angles beyond this break the single-pivot geometry.
MAX_BODY_ANGLE = math.pi / 2.0
# Flights shorter than this fraction of the forcing period are boundary
# artifacts (lift-off exactly at the zero-moment point), not real cycles.
_MIN_FLIGHT_FRACTION = 1e-12
# Longest window, in grid steps: it bounds the samples, which ``stream``
# yields in blocks of at most _BLOCK.
MAX_GRID_STEPS = 10**7
_BLOCK = 128  # most samples in one block of ``stream``
_HORIZON = MAX_GRID_STEPS / 200  # periods steady_speed flies: the longest window, at T/200


class NoCompletedCycleError(ValueError):
    """No flight from rest completes a lift-off/touchdown cycle."""


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


class Cycle(NamedTuple):
    lift_off: float
    touchdown: float
    peak: float


class Regime2Trajectory(NamedTuple):
    """Sampled hybrid trajectory and its completed flights.

    samples  time-ordered column blocks, laid out as _blocks says
    cycles   one Cycle per completed flight, in time order: its lift-off and
             touchdown times, s, and its peak angle, rad
    end      (t, x) of the last sample, s and m
    """

    samples: Iterator[tuple]
    cycles: tuple[Cycle, ...]
    end: tuple[float, float]


def _starts(rho: float) -> tuple[tuple, tuple]:
    """Newton's first points (touchdowns, theta' roots) for a flight from rest at
    rho = c_g/c_f in [0.05, 1): phases since lift-off, each fitted to its root to 5e-5
    (relative). Rationals in x = sqrt(1 - rho) give the first peak and, at rho >= 0.25,
    the touchdown; at rho in [0.14, 0.21], where theta rises twice before it lands (the
    touchdown jumps a hump at rho ~ 0.2173 and ~ 0.1288), one polynomial in
    -+sqrt(0.21723363 - rho) gives the first trough and the second peak, and a rational
    in rho the touchdown."""
    x = math.sqrt(1.0 - rho)
    scale = x / rho
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
    down /= 1.0 + t * (-26.01208 + t * (-267.2521 + 7364.755 * t))
    return (down,), (peak, even - odd, even + odd)


class _Flight:
    """Closed-form flight from (theta0, rate 0) in the phase u = omega*s, s the time since
    lift-off: theta = theta0 + (rate0 - drop*u/2)*u - swing*(sin(psi0 + u) - sin psi0),
    rate0 = swing*cos psi0, swing = c_f/omega^2, drop = c_g/omega^2, theta' = d theta/du;
    psi0 is rise from rest, else 0. lift_off(k, u) is the time at phase u past lift-off k."""

    def __init__(self, c_force, c_grav, omega, theta0):
        self.lifts = lifts = c_grav < c_force  # else theta_ddot <= 0 at every phase
        self.rise = math.asin(c_grav / c_force) if lifts else 0.0
        self.psi0 = psi0 = 0.0 if theta0 > 0.0 else self.rise
        self.omega, swing, drop = omega, c_force / omega**2, c_grav / omega**2
        self.terms = (swing, drop, psi0, theta0, math.sin(psi0), swing * math.cos(psi0))
        rest = theta0 == 0.0 and lifts and c_grav >= 0.05 * c_force  # else midpoints only
        self.starts = _starts(c_grav / c_force) if rest else ((), ())

    def lift_off(self, k: int, u: float = 0.0) -> float:
        return (TWO_PI * k + self.psi0 + u) / self.omega

    def root(self, lo: float, hi: float, angle: float, above: bool, peak: bool) -> tuple:
        """(r, theta(r)), r the end on hi's side of the adjacent floats around
        the root of f = theta' (peak) or theta in the phases (lo, hi), above =
        f(lo) > 0 and angle = theta(hi). Newton steps on f, with f and its slope
        inline from one phase, start from the first of self.starts[peak] inside
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
        swing, drop, psi0, theta0, sin0, rate0 = self.terms
        x, half, reach, top, last = lo, 0.5 * (hi - lo), 2.0, None, math.nan  # top: sine at hi
        for x in self.starts[peak]:
            if lo < x < hi:
                break
        while True:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                if top is not None:  # hi was evaluated here
                    angle = theta0 + (rate0 - 0.5 * drop * hi) * hi - swing * (top - sin0)
                return hi, angle
            if not lo < x < hi:
                x, half = mid, 0.5 * (hi - lo)
            phase = psi0 + x
            sine = sin(phase)
            rate = rate0 - swing * cos(phase) - drop * x
            if peak:
                value, d = rate, swing * sine - drop
            else:
                value = theta0 + (rate0 - 0.5 * drop * x) * x - swing * (sine - sin0)
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

    def land(self, k: int, limit: float) -> tuple[int, float | None, tuple | None]:
        """(n, peak, bracket) of lift-off k up to the phase ``limit``: theta falls to zero
        in bracket = (p, q, theta(q), theta(p) > 0), root's arguments for the touchdown,
        in the half-period up to turn j at (rise, pi - rise)[j % 2] + 2*pi*(j // 2); the
        moment next rises through zero at rise + 2*pi*n, n = (j + 1) // 2. root finds the
        peak, the larger of theta0 and theta at its maxima: theta'' changes sign only at
        the turns, theta is monotone between zeros of theta'; values at bracket ends carry
        over. No bracket if airborne at ``limit``; the peak is None then and for a flight
        shorter than brief = 2*pi*_MIN_FLIGHT_FRACTION, else in [0, pi/2). A bracket from
        before brief comes closed on its root. ModelDomainError names the time of pi/2."""
        swing, drop, psi0, theta0, sin0, rate0 = self.terms
        lifts, rise, brief = self.lifts, self.rise, _MIN_FLIGHT_FRACTION * TWO_PI
        peak = angle = theta0  # theta(0) is theta0 and theta'(0) 0.0 exactly
        p, v_p, index = 0.0, 0.0, 0 if psi0 < rise else 1  # the first turn after psi0
        while p < limit:
            q = limit
            if lifts:
                turn = (rise, math.pi - rise)[index % 2] + TWO_PI * (index // 2)
                q = min(q, turn - psi0)
                index += 1
            phase = psi0 + q  # theta and theta' at q
            a_q = theta0 + (rate0 - 0.5 * drop * q) * q - swing * (math.sin(phase) - sin0)
            v_q = rate0 - swing * math.cos(phase) - drop * q
            pieces = ((q, v_p > 0.0 or v_q > 0.0, a_q),)
            if v_p > 0.0 > v_q or v_p < 0.0 < v_q:
                r, a_r = self.root(p, q, a_q, v_p > 0.0, True)
                pieces = ((r, v_p > 0.0, a_r), (q, v_q > 0.0, a_q))
            for q, rising, end_angle in pieces:  # theta is monotone on [p, q]
                start, angle = angle, end_angle
                if not rising and angle <= 0.0:  # root's r > p: only p < brief can be short
                    if p < brief:  # root it here, and hand back the bracket closed on r
                        q, angle = self.root(p, q, angle, start > 0.0, False)
                        p, peak = math.nextafter(q, -math.inf), None if q < brief else peak
                    return index // 2, peak, (p, q, angle, start > 0.0)
                if rising and angle >= MAX_BODY_ANGLE:  # theta rises through pi/2 on (p, q]
                    while p < (s := 0.5 * (p + q)) < q:
                        sine = math.sin(psi0 + s)
                        up = theta0 + (rate0 - 0.5 * drop * s) * s - swing * (sine - sin0)
                        p, q = (p, s) if up >= MAX_BODY_ANGLE else (s, q)
                    raise ModelDomainError(
                        f"body angle exceeds pi/2 at t = {self.lift_off(k, q):.6g} s")
                if rising and v_q <= 0.0 and angle > peak:  # theta'(q) is on v_q's side
                    peak = angle
                p = q
            v_p = v_q
        return index // 2, None, None


def _steps(cfg: SimConfig) -> int:
    return math.floor(cfg.t_end / cfg.dt + 1e-9)


def _flight(robot: RobotParams, motor: MotorParams, theta0: float) -> _Flight:
    """The flight from (theta0, rate 0) under c_f = m*omega^2*r*w/I_P, c_g = M*g*w_G/I_P."""
    c_force = motor.force_amplitude * robot.forcing_arm / robot.pivot_inertia
    c_grav = robot.weight * robot.gravity_arm / robot.pivot_inertia
    return _Flight(c_force, c_grav, motor.speed, theta0)


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

    end, at_rest, k, omega = steps * cfg.dt, 0.0, 0, motor.speed
    if cfg.theta0 > 0.0:
        flight = _flight(robot, motor, cfg.theta0)
        k, peak, bracket = flight.land(0, omega * end)
        at_rest = math.inf if bracket is None else flight.root(*bracket, False)[0] / omega
        yield (flight, 0.0, at_rest, peak) if at_rest <= end else (flight, 0.0, math.inf, None)
    flight = _flight(robot, motor, 0.0)
    if not (flight.lifts and at_rest < end):
        return  # no lift-off from rest inside the window

    # Lift-offs from rest sit on the rising zeros (2*pi*k + rise)/omega of the net moment,
    # the first at or after at_rest: k = 0, or the tilted flight's n, at or after its bracket.
    t = flight.lift_off(k)
    n, peak, bracket = flight.land(k, omega * (end - t))  # no bracket if t >= end
    duration = math.inf if bracket is None else flight.root(*bracket, False)[0] / omega
    while t < end and t + duration <= end:
        yield flight, t, duration, peak
        k += n + (flight.lift_off(k + n) < t + duration)  # t + duration may round past it
        t = flight.lift_off(k)
    if t < end:
        yield flight, t, math.inf, None


def _blocks(cfg: SimConfig, flights: list, xs: Iterator[float]) -> Iterator[tuple]:
    """The samples of ``stream`` over the records of _flights, in blocks of
    at most _BLOCK consecutive ones of one x as columns (t, theta, theta_dot,
    theta_ddot, x): lists, and the float x, the next of xs from each touchdown;
    the angle columns are None at rest, where all three are 0.0."""
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
        # the closed form of _Flight.land at u = omega*s, with one sin per sample
        swing, drop, psi0, theta0, sin0, rate0 = flight.terms
        omega, top = flight.omega, math.inf if peak is None else peak
        for t in grid(touchdown):
            theta, rate, accel = [], [], []
            for s in t:
                u = omega * (s - lift_off)
                phase = psi0 + u
                sine = sin(phase)
                angle = theta0 + (rate0 - 0.5 * drop * u) * u - swing * (sine - sin0)
                theta.append(0.0 if angle < 0.0 else angle if angle < top else top)
                rate.append(omega * (rate0 - swing * cos(phase) - drop * u))
                accel.append(omega * omega * (swing * sine - drop))
            yield t, theta, rate, accel, x
        if peak is not None:
            x = next(xs)
            yield [touchdown], None, None, None, x
            if k * dt <= touchdown:
                k += stride  # a touchdown sample already stands here
    for t in grid(math.inf):  # rest through the window end
        yield t, None, None, None, x


def stream(robot: RobotParams, motor: MotorParams, cfg: SimConfig) -> Regime2Trajectory:
    """Solve the pivot rotation with ground contact over [0, t_end].

    Flights are exact; a touchdown resets the state to rest until the next
    rising zero of the net moment. Samples are the closed form at every
    record_stride-th grid point t_k = k*dt (exact zeros at rest), plus a rest
    sample at each completed touchdown, where x steps by h*sin(cycle peak) and
    which stands for a grid point at the same time. Near a peak or touchdown
    the closed form can round a few ulps past it, so sampled theta in flight
    is clamped to [0, cycle peak]. A flight still airborne at the window end
    is not a cycle, and its theta is only kept >= 0. Samples are yielded one
    block of at most _BLOCK at a time, laid out as _blocks says.

    Every flight, each touchdown's x and the end are found at the call, so it
    raises there, before any block: ValidationError when dt or t_end violate
    the resolution guards, ModelDomainError if the body angle reaches pi/2
    inside the window and OverflowError if x leaves the float range.
    """
    flights = list(_flights(robot, motor, cfg))
    cycles = tuple(Cycle(t, t + duration, peak)
                   for _, t, duration, peak in flights if peak is not None)
    # x added up in turn, as samples carry it: sum() may compensate and not overflow
    xs = list(accumulate(step_displacement(robot, peak) for *_, peak in cycles))
    if math.inf in xs:
        raise OverflowError(f"x is inf after {xs.index(math.inf) + 1} cycles")
    last = _steps(cfg) // cfg.record_stride * cfg.record_stride * cfg.dt  # _blocks' last grid time
    end = (max(last, cycles[-1].touchdown), xs[-1]) if cycles else (last, 0.0)
    return Regime2Trajectory(_blocks(cfg, flights, iter(xs)), cycles, end)


def step_displacement(robot: RobotParams, theta_hat: float) -> float:
    """Forward step per cycle, delta = h*sin(theta_hat)."""
    _require(0.0 <= theta_hat < MAX_BODY_ANGLE, "theta_hat out of [0, pi/2)")
    return robot.step_height * math.sin(theta_hat)


def steady_speed(robot: RobotParams, motor: MotorParams) -> float:
    """h*sin(peak)/(n*T), the steady speed ``stream`` implies: one step of the flight
    from rest per hop of n periods, n from the forcing half-period in which theta falls
    to zero (_Flight.land), up to the phase _HORIZON*2*pi: no window enters, and the peak
    and n depend on rho and swing alone. Raises ModelDomainError if the body tips over, and
    NoCompletedCycleError if it never lifts (c_g >= c_f) or is no cycle by the horizon."""
    flight = _flight(robot, motor, 0.0)
    n, peak, _ = flight.land(0, _HORIZON * TWO_PI) if flight.lifts else (0, None, None)
    if peak is None:
        raise NoCompletedCycleError(f"no flight from rest lands within {_HORIZON:g} periods")
    return step_displacement(robot, peak) / (n * motor.period)
