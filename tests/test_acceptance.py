"""Acceptance suite: one test per criterion, printing a pass line for each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Criteria 1/3/5 carry wall-time budgets which are asserted, not just reported.
"""

import json
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
from brushdyn.cli import main
from brushdyn.sweep import STATUS_OK, SweepSpec, run_sweep

from helpers import (
    BRUSH_SECTION,
    MOTOR_SECTION,
    REFERENCE_MOTOR,
    REFERENCE_ROBOT,
    ROBOT_SECTION,
    SIM_SECTION,
    config_text,
    random_brush,
    random_motor,
    rk4_hybrid,
)

# 1,000 random beam load cases shared by criteria 1 and 2
_RNG_BEAM = np.random.default_rng(2024)
BEAM_SAMPLES = [
    (random_brush(_RNG_BEAM), _RNG_BEAM.uniform(0.01, 10.0)) for _ in range(1000)
]


def test_criterion_1_beam_boundary_conditions():
    started = time.perf_counter()
    for brush, force in BEAM_SAMPLES:
        length = brush.length
        tip = regime1.beam_deflection(brush, force, length)
        mid = regime1.beam_deflection(brush, force, length / 2)
        scale = abs(tip)

        # cubic coefficients recovered from the two samples: v = A s^3 + B s^2
        A = (2.0 * tip - 8.0 * mid) / length**3
        B = (tip - A * length**3) / length**2

        assert abs(regime1.beam_deflection(brush, force, 0.0)) <= 1e-6 * scale
        slope0 = 3.0 * A * 0.0**2 + 2.0 * B * 0.0
        assert abs(slope0) <= 1e-6 * scale / length
        curvature_tip = 6.0 * A * length + 2.0 * B
        assert abs(curvature_tip) <= 1e-6 * abs(2.0 * B)
        shear = brush.flexural_rigidity * 6.0 * A
        load = force * math.cos(brush.inclination)
        assert abs(shear - load) <= 1e-6 * load
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"criterion 1 PASS: beam boundary conditions on 1000 random cases "
        f"within 1e-6 relative ({elapsed:.2f}s)"
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
            traj = regime2.simulate(robot, motor, cfg)
        except regime2.ModelDomainError:
            continue
        if traj.cycle_peaks:
            return robot, motor, cfg, traj
    raise AssertionError("could not sample a usable rigid-regime case")


def _check_against_rk4(traj, robot, motor, cfg, refine=10):
    """Samples inside each flight to 1e-8 rad and cycle peaks to 1e-4 rad
    against RK4 plus bisection at dt/refine (grid point k is oracle step
    refine*k)."""
    peaks, _, oracle = rk4_hybrid(robot, motor, cfg.t_end, cfg.dt / refine)
    assert len(traj.cycle_peaks) == len(peaks)
    assert max(abs(a - b) for a, b in zip(traj.cycle_peaks, peaks)) <= 1e-4
    checked = 0
    for event in traj.events:
        for s in traj.samples:
            if event.lift_off_time < s.t < event.touchdown_time:
                t, theta, _ = oracle[refine * round(s.t / cfg.dt)]
                assert abs(t - s.t) <= 1e-9 * cfg.dt
                assert abs(s.theta - theta) <= 1e-8
                checked += 1
    assert checked > 0


def test_criterion_5_rigid_regime_oracles():
    started = time.perf_counter()

    robot = RobotParams(**REFERENCE_ROBOT)
    motor = MotorParams(**REFERENCE_MOTOR)
    cfg = SimConfig(t_end=0.5, dt=1e-4)
    _check_against_rk4(regime2.simulate(robot, motor, cfg), robot, motor, cfg)

    rng = np.random.default_rng(55)
    for _ in range(10):
        robot, motor, cfg, traj = _random_regime2_case(rng)
        _check_against_rk4(traj, robot, motor, cfg)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"criterion 5 PASS: exact solver matches RK4 plus bisection at dt/10 "
        f"to 1e-8 rad along every flight and 1e-4 rad in every cycle peak on "
        f"the reference plus 10 random sets ({elapsed:.2f}s)"
    )


def test_criterion_6_qualitative_reproduction():
    robot = RobotParams(**REFERENCE_ROBOT)
    motor = MotorParams(**REFERENCE_MOTOR)
    traj = regime2.simulate(robot, motor, SimConfig(t_end=0.5, dt=1e-4))

    # (a) unilateral constraint
    assert all(s.theta >= 0.0 for s in traj.samples)

    # (b) plastic impacts: exact zeros at every touchdown
    by_time = {s.t: s for s in traj.samples}
    for event in traj.events:
        s = by_time[event.touchdown_time]
        assert s.theta == 0.0 and s.theta_dot == 0.0 and s.theta_ddot == 0.0

    # (c) staircase displacement with steps h*sin(peak)
    xs = [s.x for s in traj.samples]
    assert all(b >= a for a, b in zip(xs, xs[1:]))
    total = 0.0
    for event, peak in zip(traj.events, traj.cycle_peaks):
        landing = by_time[event.touchdown_time]
        total += robot.step_height * math.sin(peak)
        assert landing.x == pytest.approx(total, rel=1e-12)

    # (d) steady cycle peaks
    peaks = traj.cycle_peaks
    assert len(peaks) > 4
    for a, b in zip(peaks[3:], peaks[4:]):
        assert abs(b - a) / a <= 0.01

    print(
        "criterion 6 PASS: reference run keeps theta >= 0, zeroes rates at "
        "impact, steps x by h*sin(peak) and holds peaks steady within 1%"
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


def _write(tmp_path, name, sections):
    path = tmp_path / name
    path.write_text(config_text(sections), encoding="utf-8")
    return str(path)


def test_criterion_8_cli_contract(tmp_path, capsys):
    full = {
        "brush": BRUSH_SECTION,
        "motor": MOTOR_SECTION,
        "robot": ROBOT_SECTION,
        "sim": SIM_SECTION,
        "sweep": dict(parameter="omega", objective="v_r_regime1", grid="100,200,300"),
    }
    good = _write(tmp_path, "good.cfg", full)

    # trajectory header
    out_file = tmp_path / "traj.txt"
    assert main(["simulate-r2", "--config", good, "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_text(encoding="utf-8").splitlines()[0] == "t th thdot thddot x"

    # byte determinism: rerunning every command reproduces stdout and files
    for argv, out_name in (
        (["predict-r1", "--config", good], None),
        (["predict-r1", "--config", good, "--json"], None),
        (["classify", "--config", good], None),
        (["simulate-r2", "--config", good, "--out", str(tmp_path / "t.txt")], "t.txt"),
        (["sweep", "--config", good, "--out", str(tmp_path / "s.csv")], "s.csv"),
    ):
        assert main(argv) == 0
        first_stdout = capsys.readouterr().out
        first_bytes = (tmp_path / out_name).read_bytes() if out_name else None
        assert main(argv) == 0
        assert capsys.readouterr().out == first_stdout
        if out_name:
            assert (tmp_path / out_name).read_bytes() == first_bytes

    # exit-code matrix: 0 success, 2 config/validation, 3 resonance, 4 domain
    brush = BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)
    resonant = {**full, "motor": {**MOTOR_SECTION, "speed": repr(regime1.natural_frequency(brush))}}
    runaway = {
        **full,
        "robot": {**ROBOT_SECTION, "pivot_inertia": "1e-6", "gravity_arm": "0"},
        "motor": dict(eccentric_mass="0.01", eccentricity="0.01", speed="300"),
    }
    matrix = [
        ("success", ["predict-r1", "--config", good], 0),
        ("missing file", ["predict-r1", "--config", str(tmp_path / "no.cfg")], 2),
        ("unknown key", ["predict-r1", "--config", _write(
            tmp_path, "k.cfg", {**full, "brush": {**BRUSH_SECTION, "lenght": "1"}})], 2),
        ("unknown section", ["predict-r1", "--config", _write(
            tmp_path, "s.cfg", {**full, "brushes": BRUSH_SECTION})], 2),
        ("missing section", ["predict-r1", "--config", _write(
            tmp_path, "m.cfg", {"brush": BRUSH_SECTION, "motor": MOTOR_SECTION})], 2),
        ("vertical brush", ["predict-r1", "--config", _write(
            tmp_path, "a.cfg",
            {**full, "brush": {**BRUSH_SECTION, "inclination": repr(math.pi / 2)}})], 2),
        ("negative modulus", ["predict-r1", "--config", _write(
            tmp_path, "e.cfg", {**full, "brush": {**BRUSH_SECTION, "young_modulus": "-1"}})], 2),
        ("zero speed", ["predict-r1", "--config", _write(
            tmp_path, "w.cfg", {**full, "motor": {**MOTOR_SECTION, "speed": "0"}})], 2),
        ("coarse dt", ["simulate-r2", "--config", _write(
            tmp_path, "dt.cfg", {**full, "sim": {**SIM_SECTION, "dt": "0.01"}}),
            "--out", str(tmp_path / "x1.txt")], 2),
        ("short window", ["simulate-r2", "--config", _write(
            tmp_path, "te.cfg", {**full, "sim": {**SIM_SECTION, "t_end": "0.05"}}),
            "--out", str(tmp_path / "x2.txt")], 2),
        ("resonant speed", ["predict-r1", "--config", _write(tmp_path, "r.cfg", resonant)], 3),
        ("tipping body", ["simulate-r2", "--config", _write(tmp_path, "d.cfg", runaway),
            "--out", str(tmp_path / "x3.txt")], 4),
    ]
    assert len(matrix) == 12
    for name, argv, expected in matrix:
        code = main(argv)
        capsys.readouterr()
        assert code == expected, f"case {name!r}: expected {expected}, got {code}"

    print(
        "criterion 8 PASS: exact trajectory header, byte-identical reruns of "
        "every command and a 12-case exit-code matrix on the 0/2/3/4 contract"
    )
