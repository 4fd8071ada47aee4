"""Shared test resources: parameter generators and independent oracles.

The oracles deliberately take different numerical routes than the library
(exact rational series, collocation BVP solves, fixed-step RK4 time stepping
with bisection for the rigid regime, whose library solver is the exact
event-driven closed form, and grid scans plus bisection on that closed form
in another arrangement for its Newton event location) so that agreement
actually means something.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from brushdyn import BrushParams, MotorParams, RobotParams

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
# exact rational trigonometry (oracle for the step-geometry formulas)

def cos_exact(x: float, terms: int = 40) -> Fraction:
    """Cosine of the exact binary64 value of x, in rational arithmetic."""
    xf = Fraction(x)
    x2 = xf * xf
    total = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        total += term
        term = -term * x2 / ((2 * k + 1) * (2 * k + 2))
    return total


def sin_exact(x: float, terms: int = 40) -> Fraction:
    """Sine of the exact binary64 value of x, in rational arithmetic."""
    xf = Fraction(x)
    x2 = xf * xf
    total = Fraction(0)
    term = xf
    for k in range(terms):
        total += term
        term = -term * x2 / ((2 * k + 2) * (2 * k + 3))
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

def rk4_hybrid(robot: RobotParams, motor: MotorParams, t_end: float, dt: float):
    """Integrate the hybrid pivot rotation from rest by fixed-step RK4.

    Independent route to the library's closed-form, event-driven solver:
    classical RK4 while airborne, touchdown located by bisecting the RK4
    substep, and release from rest at the rising edge of the net moment
    located by bisection in time. Plastic touchdowns reset theta and its
    rate to zero. Returns (cycle_peaks, events, samples): the largest theta
    at the steps of each completed flight, its (lift_off_time,
    touchdown_time), and (t, theta, theta_dot) at every step k*dt.
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

    peaks, events, samples = [], [], [(0.0, 0.0, 0.0)]
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
                peaks.append(peak)
                events.append((lift, tau))
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
    return peaks, events, samples


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
