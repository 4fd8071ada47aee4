"""Acceptance suite: one test per criterion, printing a pass line for each.

Each criterion is the one test of its behaviour: no unit test restates it.
Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Criteria 1/3/5 carry wall-time budgets which are asserted, not just reported.
The CLI contract lives in tests/test_cli.py (`FAILING_RUNS`) and in the
recorded output digests of tests/test_digests.py.
"""

import math
import time

import numpy as np
import pytest

from brushdyn import (
    BrushParams,
    MotorParams,
    Regime,
    RobotParams,
    SimConfig,
    regime1,
    regime2,
)
from brushdyn.classify import classify
from brushdyn.sweep import STATUS_OK, SweepSpec, run_sweep

from helpers import (
    REFERENCE_MOTOR,
    REFERENCE_ROBOT,
    random_brush,
    random_motor,
    rk4_hybrid,
    rows,
)

# 1,000 random beam load cases shared by criteria 1 and 2
_RNG_BEAM = np.random.default_rng(2024)
BEAM_SAMPLES = [
    (random_brush(_RNG_BEAM), _RNG_BEAM.uniform(0.01, 10.0)) for _ in range(1000)
]


def test_criterion_1_beam_boundary_conditions():
    # v(0) = 0 exactly; v'(0) = 0 by a one-sided difference, since the domain
    # starts at 0; v''(l) = 0 and EI v'''(l) = F cos(alpha) by the analytic
    # derivatives of the cubic v = A s^3 + B s^2 recovered from two samples
    started = time.perf_counter()
    for brush, force in BEAM_SAMPLES:
        length = brush.length
        tip = regime1.beam_deflection(brush, force, length)
        mid = regime1.beam_deflection(brush, force, length / 2)
        assert regime1.beam_deflection(brush, force, 0.0) == 0.0

        h = 1e-6 * length
        v1 = regime1.beam_deflection(brush, force, h)
        v2 = regime1.beam_deflection(brush, force, 2 * h)
        slope0 = (4.0 * v1 - v2) / (2.0 * h)
        assert abs(slope0) <= 1e-6 * abs(tip) / length

        A = (2.0 * tip - 8.0 * mid) / length**3
        B = (tip - A * length**3) / length**2
        curvature_tip = 6.0 * A * length + 2.0 * B
        assert abs(curvature_tip) <= 1e-9 * abs(6.0 * A * length)
        shear = brush.flexural_rigidity * 6.0 * A
        load = force * math.cos(brush.inclination)
        assert abs(shear - load) <= 1e-9 * load
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"criterion 1 PASS: beam boundary conditions on 1000 random cases: "
        f"v(0) exactly 0, v'(0) within 1e-6 and v''(l), EI v'''(l) within "
        f"1e-9 relative ({elapsed:.2f}s)"
    )


def test_criterion_2_lumped_consistency():
    for brush, force in BEAM_SAMPLES:
        tilt = regime1.tip_displacement(brush, force) / brush.length
        recovered = regime1.lumped_stiffness(brush) * tilt
        assert recovered == pytest.approx(force, rel=1e-12)
    print(
        "criterion 2 PASS: k_theta * (|v(l)|/l) recovers the load to 1e-12 "
        "relative on the same 1000 cases"
    )


def test_criterion_3_resonance_theorem():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(20):
        brush = random_brush(rng)
        motor = random_motor(rng)
        omega_n = regime1.natural_frequency(brush)
        grid = tuple(np.geomspace(0.1 * omega_n, 10.0 * omega_n, 200))
        spec = SweepSpec("omega", "forced_amplitude_abs", grid)
        result = run_sweep(spec, brush, motor)
        ok = [row for row in result.rows if row.status == STATUS_OK]
        assert len(ok) >= 198
        below = max((r.value for r in ok if r.value < omega_n), default=None)
        above = min((r.value for r in ok if r.value > omega_n), default=None)
        assert result.argmax in (below, above)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"criterion 3 PASS: amplitude argmax adjacent to omega_n on 200-point "
        f"log grids for 20 random sets ({elapsed:.2f}s)"
    )


def test_criterion_4_forced_response_residual():
    rng = np.random.default_rng(4)
    for _ in range(100):
        brush = random_brush(rng)
        omega_n = regime1.natural_frequency(brush)
        ratio = rng.uniform(0.1, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 10.0)
        motor = random_motor(rng, speed=ratio * omega_n)
        theta_hat = regime1.forced_amplitude(brush, motor)
        inertia = regime1.lumped_inertia(brush)
        stiffness = regime1.lumped_stiffness(brush)
        drive = motor.force_amplitude * math.cos(brush.inclination)
        omega = motor.speed
        for t in np.linspace(0.0, 10.0 * motor.period, 201):
            s = math.sin(omega * t)
            residual = (
                inertia * (-(omega**2) * theta_hat * s)
                + stiffness * theta_hat * s
                - drive * s
            )
            assert abs(residual) <= 1e-8 * drive
    print(
        "criterion 4 PASS: forced-response residual below 1e-8 of the drive "
        "over 10 periods for 100 off-resonance cases"
    )


def _random_regime2_case(rng):
    for _ in range(1000):
        robot = RobotParams(
            body_mass=10 ** rng.uniform(-2.0, -0.5),
            pivot_inertia=10 ** rng.uniform(-5.5, -4.0),
            forcing_arm=rng.uniform(0.01, 0.06),
            gravity_arm=rng.uniform(0.001, 0.008),
            step_height=rng.uniform(0.01, 0.08),
        )
        motor = MotorParams(
            eccentric_mass=10 ** rng.uniform(-3.5, -2.5),
            eccentricity=10 ** rng.uniform(-3.2, -2.2),
            speed=rng.uniform(150.0, 600.0),
        )
        lifts = (
            motor.force_amplitude * robot.forcing_arm
            > 1.3 * robot.weight * robot.gravity_arm
        )
        if not lifts:
            continue
        cfg = SimConfig(t_end=5.0 * motor.period, dt=motor.period / 200.0)
        try:
            traj = regime2.stream(robot, motor, cfg)
        except regime2.ModelDomainError:
            continue
        if traj.cycles:
            return robot, motor, cfg, traj
    raise AssertionError("could not sample a usable rigid-regime case")


def _check_against_rk4(traj, robot, motor, cfg, refine=10):
    """The number of samples inside a flight, each checked against RK4 plus
    bisection at dt/refine (grid point k is oracle step refine*k): its time
    to 1e-15 s, theta to 1e-8 rad and theta_dot to 1e-7 rad/s. Every cycle
    peak is checked to 1e-4 rad."""
    flights, oracle = rk4_hybrid(robot, motor, cfg.t_end, cfg.dt / refine)
    assert len(traj.cycles) == len(flights)
    assert max(abs(cycle.peak - peak) for cycle, (*_, peak) in zip(traj.cycles, flights)) <= 1e-4
    checked, samples = 0, list(rows(traj.samples))
    for cycle in traj.cycles:
        for s in samples:
            if cycle.lift_off < s.t < cycle.touchdown:
                t, theta, theta_dot = oracle[refine * round(s.t / cfg.dt)]
                assert abs(t - s.t) <= 1e-15
                assert abs(s.theta - theta) <= 1e-8
                assert abs(s.theta_dot - theta_dot) <= 1e-7
                checked += 1
    return checked


def test_criterion_5_rigid_regime_oracles():
    started = time.perf_counter()

    robot = RobotParams(**REFERENCE_ROBOT)
    motor = MotorParams(**REFERENCE_MOTOR)
    cfg = SimConfig(t_end=0.5, dt=1e-4)
    assert _check_against_rk4(regime2.stream(robot, motor, cfg), robot, motor, cfg) > 100

    rng = np.random.default_rng(55)
    for _ in range(10):
        robot, motor, cfg, traj = _random_regime2_case(rng)
        assert _check_against_rk4(traj, robot, motor, cfg) > 0

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"criterion 5 PASS: exact solver matches RK4 plus bisection at dt/10 "
        f"to 1e-8 rad and 1e-7 rad/s along every flight and 1e-4 rad in every "
        f"cycle peak on the reference plus 10 random sets ({elapsed:.2f}s)"
    )


def test_criterion_6_qualitative_reproduction():
    robot = RobotParams(**REFERENCE_ROBOT)
    motor = MotorParams(**REFERENCE_MOTOR)
    traj = regime2.stream(robot, motor, SimConfig(t_end=0.5, dt=1e-4))
    samples = list(rows(traj.samples))

    # (a) unilateral constraint
    assert all(s.theta >= 0.0 for s in samples)

    # (b) plastic impacts: exact zeros at every touchdown
    by_time = {s.t: s for s in samples}
    for cycle in traj.cycles:
        s = by_time[cycle.touchdown]
        assert s.theta == 0.0 and s.theta_dot == 0.0 and s.theta_ddot == 0.0

    # (c) staircase displacement: x steps by h*sin(peak) at each touchdown
    # and nowhere else
    xs = [s.x for s in samples]
    assert all(b >= a for a, b in zip(xs, xs[1:]))
    expected, cycles = 0.0, iter(traj.cycles)
    cycle = next(cycles)
    for s in samples:
        if cycle is not None and s.t >= cycle.touchdown:
            expected += robot.step_height * math.sin(cycle.peak)
            cycle = next(cycles, None)
        assert s.x == pytest.approx(expected, rel=1e-12, abs=1e-300)

    # (d) at least 6 cycles, their peaks steady after cycle 3
    peaks = [c.peak for c in traj.cycles]
    assert len(peaks) >= 6
    for a, b in zip(peaks[3:], peaks[4:]):
        assert abs(b - a) / a <= 0.01

    print(
        "criterion 6 PASS: reference run keeps theta >= 0, zeroes rates at "
        "impact, steps x by h*sin(peak) at each touchdown and nowhere else, "
        "and holds its 6+ peaks steady within 1% after cycle 3"
    )


def test_criterion_7_classifier_transition():
    brush = BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)
    robot = RobotParams(**REFERENCE_ROBOT)
    eccentric_mass, eccentricity = 1e-3, 2e-3
    crossing = math.sqrt(
        robot.weight / (eccentric_mass * eccentricity)
    )
    flipped = False
    for speed in np.linspace(0.5 * crossing, 1.5 * crossing, 100):
        motor = MotorParams(eccentric_mass, eccentricity, speed)
        report = classify(brush, motor, robot)
        rigid = report.regime is Regime.REGIME_II
        assert rigid == (report.lift_ratio > 1.0)
        if flipped:
            assert rigid
        flipped = flipped or rigid
    assert flipped
    print(
        "criterion 7 PASS: classification flips to RegimeII exactly when the "
        "lift ratio exceeds 1, with no flip-backs, on a 100-point speed grid"
    )
