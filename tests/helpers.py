"""Shared test resources: parameter generators, a row view of the regime-2
samples, and independent oracles.

The oracles deliberately take different numerical routes than the library
(exact rational series, collocation BVP solves, fixed-step RK4 time stepping
with bisection for the rigid regime, whose library solver is the exact
event-driven closed form, grid scans plus bisection on that closed form
in another arrangement for its Newton event location, a closed-form count
for its walk over the window one flight at a time, and bisection of
the dimensionless flight in u-form for its fitted Newton starts) so that
agreement actually means something.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from brushdyn import BrushParams, MotorParams, RobotParams, regime2

REFERENCE_ROBOT = dict(
    body_mass=0.05,
    pivot_inertia=2e-5,
    forcing_arm=0.03,
    gravity_arm=0.003,
    step_height=0.04,
    gravity=9.81,
)
REFERENCE_MOTOR = dict(eccentric_mass=1e-3, eccentricity=2e-3, speed=300.0)

# Peak cycle angle of the reference run, frozen from a dt = 1e-6 s integration
# (one hundredth of the reference step).
REFERENCE_PEAK = 0.008650108980828084


def reference_robot() -> RobotParams:
    return RobotParams(**REFERENCE_ROBOT)


def reference_motor() -> MotorParams:
    return MotorParams(**REFERENCE_MOTOR)


def random_brush(rng: np.random.Generator) -> BrushParams:
    return BrushParams(
        young_modulus=10 ** rng.uniform(6.0, 10.0),
        second_area_moment=10 ** rng.uniform(-14.0, -10.0),
        length=rng.uniform(0.005, 0.08),
        inclination=rng.uniform(0.05, math.pi / 2 - 0.05),
        brush_mass=10 ** rng.uniform(-4.0, -2.0),
    )


def random_motor(rng: np.random.Generator, speed: float | None = None) -> MotorParams:
    return MotorParams(
        eccentric_mass=10 ** rng.uniform(-4.0, -2.0),
        eccentricity=10 ** rng.uniform(-4.0, -2.0),
        speed=rng.uniform(50.0, 1000.0) if speed is None else speed,
    )


def config_text(sections: dict[str, dict]) -> str:
    """Render a sections dict as a config file body."""
    lines = []
    for name, pairs in sections.items():
        lines.append(f"[{name}]")
        for key, value in pairs.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


BRUSH_SECTION = dict(
    young_modulus="2e9",
    second_area_moment="1e-12",
    length="0.02",
    inclination="0.6",
    brush_mass="1e-3",
)
MOTOR_SECTION = dict(eccentric_mass="1e-3", eccentricity="2e-3", speed="300.0")
ROBOT_SECTION = dict(
    body_mass="0.05",
    pivot_inertia="2e-5",
    forcing_arm="0.03",
    gravity_arm="0.003",
    step_height="0.04",
    gravity="9.81",
)
SIM_SECTION = dict(t_end="0.5", dt="1e-4", record_stride="1")


# ---------------------------------------------------------------------------
# regime-2 samples one row each (a view of regime2.stream, not an oracle)

class Row(NamedTuple):
    t: float
    theta: float
    theta_dot: float
    theta_ddot: float
    x: float


def rows(blocks: Iterable[tuple]) -> Iterator[Row]:
    """The samples in the column blocks of ``regime2.stream`` (its trajectory's
    ``samples``), one Row each in time order; a block at rest, whose angle
    columns are None, gives rows with all three angles 0.0.

    A view of stream for tests that read its samples one at a time, not an
    oracle: it takes every value from the blocks and checks nothing.
    """
    zero = repeat(0.0)
    for t, theta, rate, accel, x in blocks:
        yield from map(Row._make, zip(t, theta or zero, rate or zero, accel or zero, repeat(x)))


# ---------------------------------------------------------------------------
# exact rational trigonometry (oracle for the step-geometry formulas)

def cos_exact(x: float | Fraction, terms: int = 40) -> Fraction:
    """Cosine of x, a float at its exact binary64 value or a Fraction, in
    rational arithmetic."""
    xf = Fraction(x)
    x2 = xf * xf
    total = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        total += term
        term = -term * x2 / ((2 * k + 1) * (2 * k + 2))
    return total


# ---------------------------------------------------------------------------
# numeric boundary value problem oracle for the beam bending shape

def bvp_deflection(brush: BrushParams, force: float, positions) -> np.ndarray:
    """Solve the clamped/tip-loaded fourth-order beam problem numerically.

    Independent route: first-order system [v, v', v'', v'''] with v'''' = 0,
    boundary conditions v(0) = v'(0) = 0, v''(l) = 0, EI v'''(l) = F cos(alpha),
    solved by scipy's collocation solver on a coarse mesh.
    """
    from scipy.integrate import solve_bvp

    rigidity = brush.flexural_rigidity
    shear = force * math.cos(brush.inclination)

    def odes(xi, y):
        return np.vstack([y[1], y[2], y[3], np.zeros_like(xi)])

    def bcs(ya, yb):
        return np.array([ya[0], ya[1], yb[2], rigidity * yb[3] - shear])

    mesh = np.linspace(0.0, brush.length, 11)
    guess = np.zeros((4, mesh.size))
    solution = solve_bvp(odes, bcs, mesh, guess, tol=1e-12)
    assert solution.success
    return solution.sol(np.asarray(positions))[0]


# ---------------------------------------------------------------------------
# time-stepping oracle for the pivot-rotation model (RK4 plus bisection)

def net_moment(robot: RobotParams, motor: MotorParams, t: float) -> float:
    """Moment about the pivot, m*omega^2*r*sin(omega*t)*w - M*g*w_G in N*m,
    from the forces and arms rather than the library's flight coefficients."""
    force = motor.force_amplitude * math.sin(motor.speed * t)
    return force * robot.forcing_arm - robot.weight * robot.gravity_arm


def rk4_hybrid(robot: RobotParams, motor: MotorParams, t_end: float, dt: float):
    """Integrate the hybrid pivot rotation from rest by fixed-step RK4.

    Independent route to the library's closed-form, event-driven solver:
    classical RK4 while airborne, touchdown located by bisecting the RK4
    substep, and release from rest at the rising edge of the net moment
    located by bisection in time. Plastic touchdowns reset theta and its
    rate to zero. Returns (flights, samples): (lift_off, touchdown, peak) of
    each completed flight, like count_flights, with peak the largest theta at
    its steps, and (t, theta, theta_dot) at every step k*dt.
    """
    a = motor.force_amplitude * robot.forcing_arm / robot.pivot_inertia
    b = robot.weight * robot.gravity_arm / robot.pivot_inertia
    w = motor.speed

    def accel(t):
        return a * math.sin(w * t) - b

    def rk4(t, theta, vel, h):
        a1, a2, a3 = accel(t), accel(t + 0.5 * h), accel(t + h)
        return (
            theta + h * vel + h * h / 6.0 * (a1 + 2.0 * a2),
            vel + h / 6.0 * (a1 + 4.0 * a2 + a3),
        )

    def first_true(lo, hi, predicate):
        # earliest point of (lo, hi] where predicate holds; predicate(hi) does
        while True:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                return hi
            if predicate(mid):
                hi = mid
            else:
                lo = mid

    flights, samples = [], [(0.0, 0.0, 0.0)]
    theta = vel = peak = lift = 0.0
    airborne = False
    armed = accel(0.0) <= 0.0
    for k in range(math.floor(t_end / dt + 1e-9)):
        tau, end = k * dt, (k + 1) * dt
        while tau < end:
            if airborne:
                th, v = rk4(tau, theta, vel, end - tau)
                if th > 0.0:
                    theta, vel, tau = th, v, end
                    peak = max(peak, theta)
                    continue
                start, th0, v0 = tau, theta, vel
                tau += first_true(
                    0.0, end - start, lambda h: rk4(start, th0, v0, h)[0] <= 0.0
                )
                flights.append((lift, tau, peak))
                theta = vel = 0.0
                airborne = False
                armed = accel(tau) <= 0.0
            elif not armed:
                if accel(end) > 0.0:
                    break
                tau = first_true(tau, end, lambda t: accel(t) <= 0.0)
                armed = True
            else:
                if accel(end) <= 0.0:
                    break
                lift = tau = first_true(tau, end, lambda t: accel(t) > 0.0)
                airborne = True
                peak = 0.0
        samples.append((end, theta, vel) if airborne else (end, 0.0, 0.0))
    return flights, samples


# ---------------------------------------------------------------------------
# bisection oracle for the events of one closed-form flight

def bisect(f, lo: float, hi: float) -> float:
    """The end of [lo, hi] on f(hi)'s side of zero after halving to float
    resolution; f(lo) and f(hi) lie on opposite sides (f > 0 or f <= 0)."""
    above = f(lo) > 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if (f(mid) > 0.0) == above:
            lo = mid
        else:
            hi = mid


def flight_events(c_force: float, c_grav: float, omega: float, psi0: float,
                  theta0: float, limit: float, scan: int = 512):
    """(touchdown, peak) of the flight from (theta0, rate 0) at forcing phase
    psi0 under theta_ddot = c_force*sin(psi0 + omega*s) - c_grav, with s the
    time since lift-off: the first fall of theta to <= 0 (None if that is
    not before ``limit``) and the largest of theta0 and theta at the maxima
    before it.

    Independent route to the library's Newton event location: the closed
    form in sum-to-product arrangement, sign changes of theta and theta_dot
    found on a grid of ``scan`` points per forcing period, each bisected to
    float resolution.
    """
    def rate(s):
        half = 0.5 * omega * s
        return 2.0 * c_force / omega * math.sin(psi0 + half) * math.sin(half) - c_grav * s

    def theta(s):
        half = 0.5 * omega * s
        lag = 2.0 * c_force / omega**2 * math.cos(psi0 + half) * math.sin(half)
        return theta0 + (c_force / omega * math.cos(psi0) - 0.5 * c_grav * s) * s - lag

    step = 2.0 * math.pi / omega / scan
    peak, s, v, th = theta0, 0.0, 0.0, theta0
    for k in range(1, math.ceil(limit / step) + 1):
        s_next = k * step
        v_next, th_next = rate(s_next), theta(s_next)
        if v > 0.0 >= v_next:
            peak = max(peak, theta(bisect(rate, s, s_next)))
        if th > 0.0 >= th_next:
            touchdown = bisect(theta, s, s_next)
            return (touchdown if touchdown < limit else None), peak
        s, v, th = s_next, v_next, th_next
    return None, peak


# ---------------------------------------------------------------------------
# phase oracle for the roots of a flight from rest

def _series(u: float, term: float, k: int) -> float:
    """The alternating tail of the sine or cosine series from its term
    u^k/k!: term - term*u^2/((k+1)(k+2)) + ..., summed until it stops
    changing."""
    total = 0.0
    while total + term != total:
        total += term
        term *= -u * u / ((k + 1) * (k + 2))
        k += 2
    return total


def from_rest_phases(rho: float):
    """(touchdown, theta_dot roots before it) of the flight from rest at
    rho = c_g/c_f < 1, as phases u = omega*s after lift-off.

    The dimensionless flight in u-form, with c = sqrt(1 - rho^2):
    theta_dot ~ c*(1 - cos u) - rho*(u - sin u) and
    theta ~ c*(u - sin u) - rho*(u^2/2 - (1 - cos u)), with 1 - cos u as
    2 sin^2(u/2) and both u - sin u and u^2/2 - (1 - cos u) summed as series
    below u = 1, so that nothing cancels. Sign changes are scanned on a grid
    fine against the flight length and bisected to float resolution.

    Independent route to regime2._starts, which fits these phases, and to
    the library's closed form, in u too but arranged so that it cancels as
    rho nears 1.
    """
    c = math.sqrt((1.0 - rho) * (1.0 + rho))

    def rate(u):
        sine = u - math.sin(u) if u >= 1.0 else _series(u, u**3 / 6.0, 3)
        return 2.0 * c * math.sin(0.5 * u) ** 2 - rho * sine

    def theta(u):
        sine = u - math.sin(u) if u >= 1.0 else _series(u, u**3 / 6.0, 3)
        versine = 0.5 * u * u - 2.0 * math.sin(0.5 * u) ** 2 if u >= 1.0 else (
            _series(u, u**4 / 24.0, 4))
        return c * sine - rho * versine

    step = min(0.01, c / rho / 50.0)
    turns, u = [], step
    while True:
        if (rate(u) > 0.0) != (rate(u + step) > 0.0):
            turns.append(bisect(rate, u, u + step))
        if theta(u + step) <= 0.0:
            return bisect(theta, u, u + step), turns
        u += step


# ---------------------------------------------------------------------------
# closed-form count oracle for the flights in a regime-2 window

def landing(flight, k: int, limit: float) -> tuple:
    """(duration, peak) of lift-off k of a regime2._Flight followed for
    ``limit`` seconds, as regime2._flights finds them: land's peak, and root's
    touchdown phase in land's bracket over omega (math.inf without one)."""
    omega = flight.omega
    _, peak, bracket = flight.land(k, omega * limit)
    return (math.inf if bracket is None else flight.root(*bracket, False)[0] / omega), peak


def count_flights(robot: RobotParams, motor: MotorParams, cfg) -> list:
    """(lift_off, touchdown, peak) of every flight in the window of
    ``regime2.stream``: touchdown is math.inf for a flight airborne at the
    window end, peak None unless the flight counts as a cycle.

    Independent route to the library's walk over the window one flight at a
    time: the flights from rest that land inside the window are counted in
    closed form, from the first one's landing and the hop of whole periods
    between lift-offs. Division estimates the last lift-off that lands by the
    window end; rounding can put it one too high, so the count goes up from
    one below it against the times themselves. A flight's landing (its
    duration and peak) is the library's event location, which flight_events
    checks on its own.
    """
    period, omega = motor.period, motor.speed
    c_force = motor.force_amplitude * robot.forcing_arm / robot.pivot_inertia
    c_grav = robot.weight * robot.gravity_arm / robot.pivot_inertia
    end = math.floor(cfg.t_end / cfg.dt + 1e-9) * cfg.dt

    def flight(lift_off, events):
        duration, peak = events
        if lift_off + duration > end:
            return lift_off, math.inf, None
        if duration < regime2._MIN_FLIGHT_FRACTION * period:
            return lift_off, lift_off + duration, None
        return lift_off, lift_off + duration, peak

    flights, at_rest = [], 0.0
    if cfg.theta0 > 0.0:
        tilted = regime2._Flight(c_force, c_grav, omega, cfg.theta0)
        flights.append(flight(0.0, landing(tilted, 0, end)))
        at_rest = flights[0][1]
    if not (c_grav < c_force and at_rest < end):
        return flights
    rise = math.asin(c_grav / c_force)

    def lift_off(k):  # the rising zeros of the net moment
        return (2.0 * math.pi * k + rise) / omega

    first = max(0, math.ceil((omega * at_rest - rise) / (2.0 * math.pi)))
    if not lift_off(first) < end:
        return flights
    rest = landing(regime2._Flight(c_force, c_grav, omega, 0.0), first, end - lift_off(first))
    duration = rest[0]
    if duration == math.inf:
        return flights + [flight(lift_off(first), rest)]
    hop = max(1, math.ceil(duration * omega / (2.0 * math.pi)))
    last = math.floor(((end - duration) * omega - rise) / (2.0 * math.pi))
    landed = max(0, (last - first) // hop)
    while (t := lift_off(first + landed * hop)) < end and t + duration <= end:
        landed += 1
    flights += [flight(lift_off(first + i * hop), rest) for i in range(landed)]
    if t < end:  # the one after them lifts off, but lands too late
        flights.append((t, math.inf, None))
    return flights
