"""Command surface: the formats, files, exit codes and entry point the CLI adds."""

import codecs
import errno
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from brushdyn import (
    BrushParams,
    ModelDomainError,
    MotorParams,
    NoCompletedCycleError,
    ResonanceError,
    RobotParams,
    SimConfig,
    ValidationError,
    load_config,
    regime1,
    regime2,
)
from brushdyn.cli import _COMMANDS, build_parser, main
from brushdyn.sweep import FAILURES

from helpers import (
    BRUSH_SECTION,
    MOTOR_SECTION,
    ROBOT_SECTION,
    SIM_SECTION,
    config_text,
    rows,
)

FULL = {
    "brush": BRUSH_SECTION,
    "motor": MOTOR_SECTION,
    "robot": ROBOT_SECTION,
    "sim": SIM_SECTION,
}


def write_config(tmp_path, sections, name="run.cfg"):
    path = tmp_path / name
    path.write_text(config_text(sections), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sweep_summary(out, form):
    """rows, argmax and out from the sweep command's stdout, in either form."""
    if form:
        return json.loads(out)
    text = dict(line.split(" ", 1) for line in out.splitlines())
    argmax = None if text["argmax"] == "nan" else float(text["argmax"])
    return {"rows": int(text["rows"]), "argmax": argmax, "out": text["out"]}


ROOT = Path(__file__).resolve().parent.parent
# an --out file from an earlier run, which a run that fails must leave as is
EARLIER_OUT = b"t th thdot thddot x\n0.0 0.0 0.0 0.0 0.0\n"
SRC_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
WRITERS = ("simulate-r2", "sweep")  # the commands that take --out
FORMS = pytest.mark.parametrize("form", [[], ["--json"]], ids=["table", "json"])


def assert_failed(result, code, error=None, out_path=None):
    """The failure contract of an (exit code, stdout, stderr) run: exit code
    `code`, nothing on stdout and one `error: ...` line on stderr, exactly
    `error: {error}` when error is given; out_path, an --out file written
    before the run, keeps its bytes."""
    exit_code, out, err = result
    assert (exit_code, out) == (code, ""), err
    if error is None:
        assert re.fullmatch(r"error: .+\n", err), err
    else:
        assert err == f"error: {error}\n"
    if out_path is not None:
        assert out_path.read_bytes() == EARLIER_OUT


def changed(section, **keys):
    """FULL with keys set in section, which is added if FULL has none."""
    return {**FULL, section: {**FULL.get(section, {}), **keys}}


def omega_sweep(objective, **keys):
    return changed("sweep", parameter="omega", objective=objective, **keys)


OMEGA_N = repr(regime1.natural_frequency(BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)))
OMEGA_DOMAIN = "out of domain for parameter 'omega'"
LOG_OVERFLOW = "overflows: stop / start exceeds the float range"

# Runs that fail: case id -> (command, config, exit code, the one stderr line
# after "error: "). The config is sections, raw text written as is, or None
# for no file. TestFailingRuns runs each row as --config run.cfg in its
# directory, in table and --json form, with an earlier --out file for
# simulate-r2 and sweep, and checks it with assert_failed. To add a failure,
# add its row here.
FAILING_RUNS = {
    # a config file that cannot be read or parsed; a parse error is one line
    "missing-file": ("predict-r1", None, 2, "cannot read config file 'run.cfg': "
                     "[Errno 2] No such file or directory: 'run.cfg'"),
    "no-section-header": ("predict-r1", "speed = 1\n", 2,
                          "cannot parse config file 'run.cfg': File contains no section "
                          "headers. file: 'run.cfg', line: 1 'speed = 1\\n'"),
    "line-without-equals": ("predict-r1", "[motor]\nfoo\n", 2,
                            "cannot parse config file 'run.cfg': Source contains parsing "
                            "errors: 'run.cfg' [line  2]: 'foo\\n'"),
    "duplicate-key": ("predict-r1", "[motor]\nspeed = 1\nspeed = 2\n", 2,
                      "cannot parse config file 'run.cfg': While reading from 'run.cfg' "
                      "[line  3]: option 'speed' in section 'motor' already exists"),
    "duplicate-section": ("predict-r1", "[motor]\nspeed = 1\n[motor]\n", 2,
                          "cannot parse config file 'run.cfg': While reading from 'run.cfg' "
                          "[line  3]: section 'motor' already exists"),
    # config errors, before any command runs
    "unknown-key": ("predict-r1", changed("brush", lenght="1"), 2,
                    "unknown key 'lenght' in [brush]"),
    "unknown-section": ("predict-r1", {**FULL, "brushes": BRUSH_SECTION}, 2,
                        "unknown section [brushes]"),
    "missing-key": ("predict-r1", {**FULL, "motor": {"eccentric_mass": "1e-3", "speed": "300"}},
                    2, "missing key 'eccentricity' in [motor]"),
    "bad-number": ("predict-r1", changed("motor", speed="fast"), 2,
                   "value 'fast' for 'speed' in [motor] is not a number"),
    "grid-and-range": ("sweep", omega_sweep("v_r_regime1", grid="1,2,3", start="1", stop="3",
                                            points="3"), 2,
                       "[sweep] takes either grid= or start/stop/points, not both"),
    "default-section": ("sweep", {"DEFAULT": {"speed": "300.0"}, **FULL}, 2,
                        "[DEFAULT] section is not supported"),
    "bare-default-section": ("sweep", {"DEFAULT": {}, **FULL}, 2,
                             "[DEFAULT] section is not supported"),
    "range-without-points": ("sweep", omega_sweep("v_r_regime1", start="100", stop="300"), 2,
                             "[sweep] needs grid= or all of start=, stop=, points="),
    "empty-grid": ("sweep", omega_sweep("v_r_regime1", grid=""), 2,
                   "sweep grid must contain at least one value"),
    # the brush mass does not enter k_theta: every row would read the same
    "constant-sweep": ("sweep", changed("sweep", parameter="M_b", objective="k_theta",
                                        grid="1e-3, 2e-3"), 2,
                       "sweep parameter 'M_b' does not enter objective 'k_theta'"),
    # every grid item is a number: a blank one is a typo, not a skipped point
    **{case: ("sweep", omega_sweep("v_r_regime1", grid=grid), 2,
              "value '' for 'grid' in [sweep] is not a number")
       for case, grid in [("blank-grid-item", "100,,300"), ("trailing-grid-comma", "100,")]},
    "fractional-points": ("sweep", omega_sweep("v_r_regime1", start="100", stop="300",
                                               points="2.5"),
                          2, "value '2.5' for 'points' in [sweep] is not an integer"),
    "missing-robot-section": ("predict-r1", {"brush": BRUSH_SECTION, "motor": MOTOR_SECTION},
                              2, "missing [robot] section in config"),
    "v_r_regime2-without-robot": (
        "sweep", {name: keys for name, keys in omega_sweep("v_r_regime2", grid="250, 300").items()
                  if name != "robot"}, 2, "objective v_r_regime2 needs robot parameters"),
    # a parameter outside its domain
    "vertical-brush": ("predict-r1", changed("brush", inclination=repr(math.pi / 2)), 2,
                       "alpha out of (0, pi/2)"),
    "negative-modulus": ("predict-r1", changed("brush", young_modulus="-1"), 2,
                         "young_modulus must be > 0"),
    "zero-speed": ("predict-r1", changed("motor", speed="0"), 2, "speed must be > 0"),
    # 1e400 parses to inf; every command refuses it as a config error
    **{f"{command}-{key}-1e400": (command, changed(section, **{key: "1e400"}), 2,
                                  f"{key} must be finite")
       for command, section, key in [("predict-r1", "brush", "brush_mass"),
                                     ("classify", "brush", "brush_mass"),
                                     ("predict-r1", "motor", "speed"),
                                     ("classify", "motor", "speed"),
                                     ("simulate-r2", "sim", "t_end")]},
    # the window: a 200th of a period, a finite step count, at most 1e7 steps
    "dt-above-a-200th-period": ("simulate-r2", changed("sim", dt="2e-4"), 2,
                                "dt 0.0002 exceeds T/200 = 0.00010472 s"),
    "short-window": ("simulate-r2", changed("sim", t_end="0.05"), 2,
                     "t_end 0.05 below five forcing periods 0.10472 s"),
    "t_end-over-dt-overflows": ("simulate-r2", changed("sim", t_end="1e300", dt="1e-10"), 2,
                                "t_end / dt must be finite"),
    # finite t_end / dt, but ~1e302 forcing periods to walk
    "huge-window": ("simulate-r2", changed("sim", t_end="1e300"), 2,
                    "t_end / dt exceeds 1e+07 grid steps"),
    # a sweep grid value that is not finite, given or from a range
    "infinite-grid-value": ("sweep", omega_sweep("v_r_regime2", grid="250, inf"), 2,
                            f"grid value inf {OMEGA_DOMAIN}"),
    "infinite-range-stop": ("sweep", omega_sweep("v_r_regime2", start="100", stop="1e400",
                                                 points="5", spacing="log"), 2,
                            f"grid value inf {OMEGA_DOMAIN}"),
    # A linear span that overflows spaces the grid by an infinite step; the
    # error names the endpoint that was written, not the nan first point. A
    # log range whose stop / start overflows names both of its ends.
    **{f"{spacing}-range-{start}-{stop}": (
        "sweep", omega_sweep("v_r_regime1", start=start, stop=stop, points="5", spacing=spacing),
        2, error)
       for spacing, start, stop, error in [
           ("linear", "100", "1e400", f"grid value inf {OMEGA_DOMAIN}"),
           ("linear", "-1e400", "100", f"grid value -inf {OMEGA_DOMAIN}"),
           ("linear", "-1e308", "1e308", f"grid value -1e+308 {OMEGA_DOMAIN}"),
           ("log", "1e-200", "1e200", f"log spacing from 1e-200 to 1e+200 {LOG_OVERFLOW}"),
           ("log", "5e-324", "1", f"log spacing from 5e-324 to 1.0 {LOG_OVERFLOW}")]},
    # speed = 1e300 is finite but its square overflows in regime1, and
    # classify computes lift_ratio = inf. length = 1e-200 and young_modulus =
    # 5e-324 are positive, but length**2 or EI underflows to 0, a zero divisor.
    # Each message names the quantity and its value.
    "predict-r1-speed-1e300": ("predict-r1", changed("motor", speed="1e300"), 2,
                               "arithmetic overflow: speed**2 overflows at speed = 1e+300"),
    "classify-speed-1e300": ("classify", changed("motor", speed="1e300"), 2,
                             "arithmetic overflow: lift_ratio is inf"),
    **{f"{command}-{key}-{value}": (command, changed("brush", **{key: value}), 2,
                                    f"arithmetic underflow: {message}")
       for command in ("predict-r1", "classify")
       for key, value, message in (
           ("length", "1e-200", "length**2*cos(inclination) is 0 at length = 1e-200"),
           ("young_modulus", "5e-324",
            "k_theta/I_theta = 0.0/2.0000000000000002e-07 is 0 or undefined"))},
    # the force m*omega^2*r overflows; it is not an overswing (exit 4)
    "stick-phase-angle-overflows": ("predict-r1", changed("motor", eccentric_mass="1e308"), 2,
                                    "arithmetic overflow: stick-phase angle is inf"),
    # ~240 hops of 1e308*sin(peak): x leaves the float range before --out opens
    "x-past-the-float-range": ("simulate-r2", {**changed("robot", step_height="1e308"),
                                               "sim": {**SIM_SECTION, "t_end": "10"}}, 2,
                               "arithmetic overflow: x is inf after 208 cycles"),
    # x stays finite, but x / t of the last sample does not: refused before --out opens
    "mean_v_r-past-the-float-range": (
        "simulate-r2", {**changed("robot", step_height="1.7976931348623157e308"),
                        "motor": {**MOTOR_SECTION, "eccentric_mass": "4.2e-3"},
                        "sim": {**SIM_SECTION, "t_end": "0.105"}}, 2,
        "arithmetic overflow: mean_v_r is inf"),
    "resonant-speed": ("predict-r1", changed("motor", speed=OMEGA_N), 3,
                       "resonance: motor speed 9532.69 rad/s is within 1e-03 of the brush "
                       "resonance 9532.69 rad/s"),
    # E = 2e5 Pa: a stick-phase angle of ~99 rad against a 0.6 rad inclination
    "overswinging-brush": ("predict-r1", changed("brush", young_modulus="2e5"), 4,
                           "model domain: stick-phase angle 99.0403 rad exceeds brush "
                           "inclination 0.6 rad"),
    "tipping-body": ("simulate-r2", {**changed("robot", pivot_inertia="1e-6", gravity_arm="0"),
                                     "motor": dict(eccentric_mass="0.01", eccentricity="0.01",
                                                   speed="300")}, 4,
                     "model domain: body angle exceeds pi/2 at t = 0.00507476 s"),
}


def readme_config_table():
    """section -> [(key, stated default or None)] from the README table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("### Config sections", 1)[1]
    rows = {}
    for section, keys in re.findall(r"^\| `(\w+)` *\| (.*) \|$", table, re.M):
        rows[section] = [
            (key, default or None)
            for key, default in re.findall(r"`(\w+)`(?: \(default ([^)]+)\))?", keys)
        ]
    return rows


class TestConfigParsing:
    def test_full_config_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, FULL))
        assert cfg.brush == BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)
        assert cfg.motor == MotorParams(1e-3, 2e-3, 300.0)
        assert cfg.robot.gravity == 9.81
        assert cfg.sim.record_stride == 1

    def test_defaults_applied(self, tmp_path):
        sections = {
            "robot": {k: v for k, v in ROBOT_SECTION.items() if k != "gravity"},
            "sim": {"t_end": "0.5", "dt": "1e-4"},
        }
        cfg = load_config(write_config(tmp_path, sections))
        assert cfg.robot.gravity == 9.81
        assert cfg.sim.theta0 == 0.0
        assert cfg.sim.record_stride == 1

    def test_sweep_explicit_grid(self, tmp_path):
        sections = {
            "sweep": dict(parameter="omega", objective="v_r_regime1", grid="100, 200, 300")
        }
        cfg = load_config(write_config(tmp_path, sections))
        assert cfg.sweep.grid == (100.0, 200.0, 300.0)

    def test_bad_values_reported_in_field_order(self, tmp_path):
        # several bad values: the first field is named, whatever the hash seed
        path = write_config(tmp_path, {"robot": {key: "x" for key in ROBOT_SECTION}})
        code = (
            "import sys\n"
            "from brushdyn.config import ConfigError, load_config\n"
            "try:\n"
            "    load_config(sys.argv[1])\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n"
        )
        messages = {
            subprocess.run(
                [sys.executable, "-c", code, path],
                capture_output=True,
                text=True,
                env=dict(SRC_ENV, PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("0", "1", "2")
        }
        assert messages == {"value 'x' for 'body_mass' in [robot] is not a number\n"}

    def test_readme_table_matches_schema(self):
        table = readme_config_table()
        for section, cls in [
            ("brush", BrushParams),
            ("motor", MotorParams),
            ("robot", RobotParams),
            ("sim", SimConfig),
        ]:
            assert [key for key, _ in table[section]] == list(cls._fields)
            for (_, stated), name in zip(table[section], cls._fields):
                if name not in cls._field_defaults:
                    assert stated is None, name
                else:
                    assert float(stated) == cls._field_defaults[name], name

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_config_with_a_byte_order_mark_runs_as_without_one(self, tmp_path, capsys, command):
        # some editors save UTF-8 with a BOM before the first line
        text = (ROOT / "configs" / "reference.cfg").read_bytes()
        path, out_path = tmp_path / "run.cfg", tmp_path / "out.txt"
        argv = [command, "--config", str(path)]
        argv += ["--out", str(out_path)] if command in WRITERS else []
        runs = []
        for body in (text, codecs.BOM_UTF8 + text):
            path.write_bytes(body)
            result = run_cli(capsys, argv)
            runs.append((result, out_path.read_bytes() if command in WRITERS else None))
        ((code, _, err), _), bom = runs
        assert (code, err) == (0, "") and runs[0] == bom


class TestPredictR1:
    def test_table_matches_library(self, tmp_path, capsys):
        # the record's fields in order, then the validity test, each value
        # the repr of what the library returns
        path = write_config(tmp_path, FULL)
        code, out, _ = run_cli(capsys, ["predict-r1", "--config", path])
        assert code == 0
        names, values = zip(*(line.split(" ", 1) for line in out.splitlines()))
        assert names == regime1.Regime1Prediction._fields + ("regime1_valid", "margin")
        cfg = load_config(path)
        prediction = regime1.predict(cfg.brush, cfg.motor)
        validity = regime1.regime1_validity(cfg.motor, cfg.robot)
        assert validity.valid
        assert values == (*map(repr, prediction), "true", repr(validity.margin))


class TestSimulateR2:
    def test_header_and_columns(self, tmp_path, capsys):
        path = write_config(tmp_path, FULL)
        out_path = tmp_path / "traj.txt"
        code, out, _ = run_cli(
            capsys, ["simulate-r2", "--config", path, "--out", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t th thdot thddot x"
        assert all(len(line.split(" ")) == 5 for line in lines[1:])
        first = lines[1].split(" ")
        assert first == ["0.0", "0.0", "0.0", "0.0", "0.0"]

    @pytest.mark.parametrize("stride, samples", [
        pytest.param("1", 5001, id="every-step"),
        # the only sample is at t = 0, so mean_v_r has no time to divide by
        pytest.param("10000", 1, id="stride-past-window-end"),
    ])
    def test_motor_off_writes_zero_columns(self, tmp_path, capsys, stride, samples):
        sections = {**FULL, "motor": {**MOTOR_SECTION, "eccentric_mass": "0"},
                    "sim": {**SIM_SECTION, "record_stride": stride}}
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "traj.txt"
        code, out, _ = run_cli(
            capsys, ["simulate-r2", "--config", path, "--out", str(out_path), "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cycles"] == 0
        assert payload["peak_angle"] is None
        assert payload["mean_v_r"] == 0.0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + samples
        for line in lines[1:]:
            _, th, thdot, thddot, x = line.split(" ")
            assert th == "0.0" and x == "0.0"

    def test_summary_matches_trajectory(self, tmp_path, capsys):
        path = write_config(tmp_path, FULL)
        out_path = tmp_path / "traj.txt"
        code, out, _ = run_cli(
            capsys, ["simulate-r2", "--config", path, "--out", str(out_path), "--json"]
        )
        payload = json.loads(out)
        assert payload["cycles"] == 12
        assert payload["peak_angle"] == pytest.approx(0.0086501, abs=1e-4)
        lines = out_path.read_text(encoding="utf-8").splitlines()
        t_last, *_, x_last = lines[-1].split(" ")
        assert payload["mean_v_r"] == pytest.approx(
            float(x_last) / float(t_last), rel=1e-12
        )

    def test_writes_in_constant_memory(self, tmp_path, capsys):
        # 50,000 samples: holding them all would take ~8 MB
        sections = {**FULL, "sim": {**SIM_SECTION, "dt": "1e-5"}}
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "traj.txt"
        tracemalloc.start()
        try:
            code = main(["simulate-r2", "--config", path, "--out", str(out_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert len(out_path.read_bytes().splitlines()) == 1 + 50_000 + 1 + 12
        assert peak < 1_000_000

    @staticmethod
    def block_windows():
        """(robot, motor, cfg) windows: 210 seeded draws with strides 1, 7
        and one longer than a block, every fourth tilted and every tenth too
        weak to lift, then three built so that a full block ends right at the
        first lift-off, at the first touchdown and at the window end."""
        rng = np.random.default_rng(2020)
        for index in range(210):
            robot = RobotParams(0.05 * rng.uniform(0.5, 2.0), 2e-5 * rng.uniform(0.5, 2.0),
                                0.03 * rng.uniform(0.5, 2.0), 0.003 * rng.uniform(0.5, 2.0),
                                0.04)
            # the speed that puts rho = c_g/c_f at a draw; above 1 it never lifts
            rho = rng.uniform(1.1, 3.0) if index % 10 == 9 else rng.uniform(0.1, 0.9)
            ratio = robot.weight * robot.gravity_arm / (1e-3 * 2e-3 * robot.forcing_arm)
            motor = MotorParams(1e-3, 2e-3, math.sqrt(ratio / rho))
            theta0 = rng.uniform(0.001, 0.05) if index % 4 == 1 else 0.0
            stride = (1, 7, regime2._BLOCK + 1)[index % 3]
            yield robot, motor, SimConfig(rng.uniform(5.0, 7.0) * motor.period,
                                          motor.period / 200.0 / rng.uniform(1.0, 2.0),
                                          theta0, stride)
        robot, motor = RobotParams(0.05, 2e-5, 0.03, 0.003, 0.04), MotorParams(1e-3, 2e-3, 300.0)
        period, block = motor.period, regime2._BLOCK
        flight = regime2.stream(robot, motor, SimConfig(5.5 * period, period / 200.0)).cycles[0]
        lift_off, touchdown, _ = flight
        # lift-off and touchdown times do not depend on dt: block samples at
        # rest before the lift-off, and a multiple of block in its flight
        yield robot, motor, SimConfig(5.2 * period, lift_off / (block - 0.5))
        blocks = math.ceil((touchdown - lift_off) / (period / 200.0) / block)
        for shift in range(-8, 9):
            dt = (touchdown - lift_off) / (blocks * block + shift / 16.0)
            in_flight = sum(lift_off <= k * dt < touchdown
                            for k in range(math.ceil(touchdown / dt) + 1))
            if in_flight == blocks * block:
                break
        yield robot, motor, SimConfig(5.2 * period, dt)
        weak = MotorParams(1e-3, 2e-3, 100.0)
        dt = weak.period / 200.0
        yield robot, weak, SimConfig((-(-1001 // block) * block - 0.5) * dt, dt)

    def test_block_writer_matches_per_sample_formatting(self, tmp_path, capsys):
        # the --out bytes against each row of stream's flattened blocks
        # formatted on its own, and the invariants of the blocks it yields
        block, header = regime2._BLOCK, "t th thdot thddot x\n"
        full_at, mid_flight, grounded, tilted = set(), 0, 0, 0
        path, out_path = tmp_path / "run.cfg", tmp_path / "traj.txt"
        for robot, motor, sim in self.block_windows():
            sections = {"robot": robot, "motor": motor, "sim": sim}
            path.write_text(config_text({name: {key: repr(value) for key, value in
                                                record._asdict().items()}
                                         for name, record in sections.items()}),
                            encoding="utf-8")
            code = main(["simulate-r2", "--config", str(path), "--out", str(out_path)])
            capsys.readouterr()
            traj = regime2.stream(robot, motor, sim)
            expected = header + "".join(
                f"{t!r} {theta!r} {theta_dot!r} {theta_ddot!r} {x!r}\n"
                for t, theta, theta_dot, theta_ddot, x in rows(traj.samples)
            )
            assert code == 0 and out_path.read_bytes() == expected.encode("utf-8"), sim

            blocks = list(regime2.stream(robot, motor, sim).samples)
            last = -math.inf
            for index, (t, *angles, x) in enumerate(blocks):
                assert 0 < len(t) <= block and isinstance(x, float)
                assert all(a < b for a, b in zip([last] + t, t))
                last = t[-1]
                if angles[0] is None:  # at rest: outside every counted flight
                    assert angles == [None] * 3
                    assert not any(lift_off <= u < touchdown
                                   for lift_off, touchdown, _ in traj.cycles for u in t)
                else:
                    assert all(len(column) == len(t) for column in angles)
                after = blocks[index + 1][1] if index + 1 < len(blocks) else "end"
                if len(t) == block and (angles[0] is None) != (after is None):
                    full_at.add("end" if after == "end" else
                                "lift-off" if angles[0] is None else "touchdown")
            mid_flight += blocks[-1][1] is not None
            grounded += not traj.cycles
            tilted += sim.theta0 > 0.0
        assert full_at == {"lift-off", "touchdown", "end"}
        assert mid_flight >= 10 and grounded >= 10 and tilted >= 50


class TestSweepCommand:
    def test_csv_layout(self, tmp_path, capsys):
        sections = {
            "brush": BRUSH_SECTION,
            "motor": MOTOR_SECTION,
            "sweep": dict(
                parameter="omega", objective="v_r_regime1", grid="100,200,300,400"
            ),
        }
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, ["sweep", "--config", path, "--out", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "param,value,objective,status"
        assert len(lines) == 6
        assert lines[-1].startswith("# argmax=")
        for line in lines[1:5]:
            param, value, objective, status = line.split(",")
            assert param == "omega"
            assert status == "ok"
            float(value), float(objective)
        assert lines[-1] == "# argmax=400.0"

    def test_points_above_the_cap_exit_2_before_the_grid_is_built(self, tmp_path):
        # Under a 400 MB address-space limit a 1e9-point grid fails with
        # MemoryError; the cap refuses the range before building anything.
        sweep = dict(parameter="omega", objective="v_r_regime1", start="100", stop="200",
                     points="1000000000")
        path = write_config(tmp_path, {**FULL, "sweep": sweep})
        out_path = tmp_path / "sweep.csv"
        out_path.write_bytes(EARLIER_OUT)
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
            "from brushdyn.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "sweep", "--config", path, "--out", str(out_path)],
            capture_output=True, text=True, env=SRC_ENV, timeout=60,
        )
        assert_failed((proc.returncode, proc.stdout, proc.stderr), 2,
                      "sweep range needs at most 1e+06 points", out_path)


SHIPPED_RUNS = [
    pytest.param(command, str(ROOT / "configs" / name), id=f"{command}-{name}")
    for command, name in [
        ("predict-r1", "reference.cfg"),
        ("simulate-r2", "reference.cfg"),
        ("classify", "reference.cfg"),
        ("sweep", "reference.cfg"),
        ("sweep", "alpha_sweep.cfg"),
    ]
]


class TestPipeline:
    """A command handler only computes from the config; main writes the
    --out file and prints the result, in table or JSON form."""

    @pytest.mark.parametrize("command, config", SHIPPED_RUNS)
    def test_handler_prints_nothing_and_creates_no_file(
        self, tmp_path, monkeypatch, capsys, command, config
    ):
        handler, _, writes, *_ = _COMMANDS[command]
        monkeypatch.chdir(tmp_path)
        pairs, write = handler(load_config(config))
        assert capsys.readouterr() == ("", "")
        assert list(tmp_path.iterdir()) == []
        assert (write is None) == (writes is None)
        argv = [command, "--config", config, "--json"]
        if write is not None:
            body = io.StringIO()
            write(body)
            out_path = tmp_path / "out.txt"
            argv += ["--out", str(out_path)]
            pairs.append(("out", str(out_path)))
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == dict(pairs)
        if write is not None:
            assert out_path.read_bytes() == body.getvalue().encode("utf-8")

    @pytest.mark.parametrize("command, config", SHIPPED_RUNS)
    def test_table_and_json_carry_the_same_pairs(self, tmp_path, capsys, command, config):
        argv = [command, "--config", config]
        if command in ("simulate-r2", "sweep"):
            argv += ["--out", str(tmp_path / "out.txt")]
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        separator = ": " if command == "classify" else " "
        expected = ""
        for name, value in payload.items():
            if isinstance(value, list):  # classify's rationale lines
                expected += f"{name}{separator.rstrip()}\n"
                expected += "".join(f"  {line}\n" for line in value)
                continue
            if value is None:
                value = "nan"
            elif not isinstance(value, str):
                value = json.dumps(value)  # a float's repr, an int, true or false
            expected += f"{name}{separator}{value}\n"
        assert table == expected


class TestEntryPoint:
    # the names brushdyn.__all__ listed by hand before it was derived
    PUBLIC = (
        "BrushParams", "MotorParams", "RobotParams", "ValidationError",
        "Regime1Prediction", "ResonanceError", "SimConfig", "Regime2Trajectory",
        "ModelDomainError", "NoCompletedCycleError", "Regime", "RegimeReport",
        "SweepSpec", "SweepResult", "RunConfig", "ConfigError", "load_config",
        "classify", "config", "regime1", "regime2", "sweep",
    )

    def test_star_import_binds_the_public_names(self):
        import pydoc

        import brushdyn

        namespace = {}
        exec("from brushdyn import *", namespace)
        assert set(self.PUBLIC) <= set(namespace) and set(self.PUBLIC) <= set(brushdyn.__all__)
        assert not any(name.startswith("_") for name in brushdyn.__all__)
        text = pydoc.render_doc(brushdyn, renderer=pydoc.plaintext)  # what help() shows
        assert all(f"class {name}(" in text for name in self.PUBLIC if name[0].isupper())

    def test_unknown_command_exits_2(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "brushdyn", "explode"],
            capture_output=True,
            text=True,
            env=SRC_ENV,
        )
        assert proc.returncode == 2

    @staticmethod
    def run_into_closed_pipe(argv, unbuffered):
        """(exit code, stderr) of python -m brushdyn argv with stdout on a pipe
        whose read end is closed before it starts."""
        read, write = os.pipe()
        os.close(read)
        env = {key: value for key, value in SRC_ENV.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run([sys.executable, "-m", "brushdyn", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write)
        return proc.returncode, proc.stderr

    # a reader that leaves early, such as `brushdyn ... | head -1`, ends no
    # run in failure: exit 0, nothing on stderr, and --out as a normal run's
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_closed_stdout_is_a_successful_run(self, tmp_path, capsys, command, unbuffered):
        out_path = tmp_path / "out.txt"
        argv = [command, "--config", str(ROOT / "configs" / "reference.cfg")]
        argv += ["--out", str(out_path)] if command in WRITERS else []
        assert self.run_into_closed_pipe(argv, unbuffered) == (0, "")
        if command in WRITERS:
            written = out_path.read_bytes()
            assert main(argv) == 0
            capsys.readouterr()
            assert out_path.read_bytes() == written

    def test_out_into_a_closed_pipe_exits_2(self):
        # /dev/stdout is the closed pipe too: the --out write fails, not stdout
        argv = ["sweep", "--config", str(ROOT / "configs" / "reference.cfg"),
                "--out", "/dev/stdout"]
        assert self.run_into_closed_pipe(argv, False) == (2, "error: [Errno 32] Broken pipe\n")

    def test_runtime_imports_only_the_standard_library(self):
        # -S: no site-packages on the path, so a stray import fails here too
        code = (
            "import sys; before = set(sys.modules); import brushdyn.cli; "
            "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=SRC_ENV
        )
        assert proc.returncode == 0, proc.stderr
        imported = proc.stdout.split()
        assert "brushdyn" in imported
        assert [name for name in imported
                if name != "brushdyn" and name not in sys.stdlib_module_names] == []

    def test_cli_loads_no_dataclasses_or_inspect_and_json_only_for_json(
        self, tmp_path, capsys
    ):
        # every command on the shipped configs in one fresh interpreter, in
        # table form and then with --json; the bytes match an in-process run
        configs = [str(ROOT / "configs" / name) for name in ("reference.cfg", "alpha_sweep.cfg")]
        runs = [
            ["predict-r1", "--config", configs[0]],
            ["classify", "--config", configs[0]],
            ["simulate-r2", "--config", configs[0], "--out", str(tmp_path / "traj.txt")],
            *(["sweep", "--config", path, "--out", str(tmp_path / "sweep.csv")]
              for path in configs),
        ]
        runs += [argv + ["--json"] for argv in runs]
        code = (
            "import sys; from brushdyn.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0\n"
            "    print(*sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=SRC_ENV
        )
        assert proc.returncode == 0, proc.stderr
        expected = ""
        for argv in runs:
            assert main(argv) == 0
            expected += capsys.readouterr().out + ("json\n" if "--json" in argv else "\n")
        assert proc.stdout == expected

    # --out is a usage error where no file is written, and missing where one is
    @pytest.mark.parametrize("command", ["predict-r1", "classify", "simulate-r2", "sweep"])
    def test_out_rejected_where_unused(self, tmp_path, capsys, command):
        path = write_config(tmp_path, FULL)
        out = tmp_path / "unused.txt"
        argv = [command, "--config", path]
        if command in ("predict-r1", "classify"):
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_usage_lines_match_the_out_requirement(self, capsys):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        usage = re.findall(r"^brushdyn +(\S+)(.*)$", text, re.M)
        assert sorted(command for command, _ in usage) == [
            "classify", "predict-r1", "simulate-r2", "sweep"
        ]
        for command, rest in usage:
            try:
                build_parser().parse_args([command, "--config", "run.cfg"])
                exits_2 = False
            except SystemExit as exc:
                exits_2 = exc.code == 2
            capsys.readouterr()
            assert ("--out" in rest) == exits_2, command

    def test_readme_library_example_prints_its_results(
        self, capsys, brush, reference_robot, reference_motor
    ):
        # the README's python block, run as written, against the same calls
        # on the same records made here
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        (example,) = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
        exec(compile(example, "README.md library example", "exec"), {})
        sim = SimConfig(t_end=0.5, dt=1e-4)
        traj = regime2.stream(reference_robot, reference_motor, sim)
        peak = traj.cycles[-1].peak
        speed = regime2.steady_speed(reference_robot, reference_motor)
        assert capsys.readouterr().out.splitlines() == [
            str(regime1.predict(brush, reference_motor)),
            f"{len(traj.cycles)} {peak}",
            str(speed),
        ]
        # its comment: "one hop per 2 periods here"
        step = regime2.step_displacement(reference_robot, peak)
        assert speed == step / (2 * reference_motor.period)


class TestNonFiniteValues:
    @pytest.mark.parametrize("sim", [
        {**SIM_SECTION, "t_end": "1e300"},
        dict(t_end="1e-6", dt="1e-7", theta0="0.3", record_stride="7"),
        SIM_SECTION,
        None,
    ], ids=["huge-window", "short-tilted-window", "reference", "no-sim"])
    def test_huge_window_or_none_leaves_the_sweep_rows_alone(self, tmp_path, capsys, sim):
        # no [sim] section enters v_r_regime2: every window gives the steady
        # hops of steady_speed, and so does a config without one
        sweep = dict(parameter="omega", objective="v_r_regime2", grid="100, 250, 300, 4000")
        sections = {**FULL, "sim": sim, "sweep": sweep}
        path = write_config(tmp_path, {name: keys for name, keys in sections.items() if keys})
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, ["sweep", "--config", path, "--out", str(out_path)])
        assert (code, err) == (0, "")
        assert out.startswith("rows 4\nargmax 4000.0\n")
        robot = RobotParams(0.05, 2e-5, 0.03, 0.003, 0.04)
        hops = [repr(regime2.steady_speed(robot, MotorParams(1e-3, 2e-3, speed)))
                for speed in (250.0, 300.0, 4000.0)]
        rows = out_path.read_text(encoding="utf-8").splitlines()
        assert rows[1:] == ["omega,100.0,,no_cycles", f"omega,250.0,{hops[0]},ok",
                            f"omega,300.0,{hops[1]},ok", f"omega,4000.0,{hops[2]},ok",
                            "# argmax=4000.0"]

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(config_text(FULL).replace("300.0", "300.0\xb0").encode("latin-1"))
        _, _, err = result = run_cli(capsys, ["classify", "--config", str(path)])
        assert_failed(result, 2)
        assert err.startswith(f"error: cannot read config file {str(path)!r}: ")
        assert "'utf-8' codec can't decode byte 0xb0" in err

    # A sweep point that leaves the float range is an invalid row, and the
    # other rows and the argmax stand. Over l: l = 1e-200 underflows l**2 to
    # a zero divisor and l = 1e-160 gives k_theta = inf; k_theta falls with l,
    # so the argmax is the first ok row. Over omega with length = 1e-200 or
    # young_modulus = 5e-324 in the brush, every point underflows.
    @pytest.mark.parametrize(
        "brush, sweep, statuses",
        [
            pytest.param({}, dict(parameter="l", objective="k_theta", start="1e-200",
                                  stop="0.02", points="5", spacing="log"),
                         ["invalid", "ok", "ok", "ok", "ok"], id="l-underflow"),
            pytest.param({}, dict(parameter="l", objective="k_theta", grid="1e-160, 0.02"),
                         ["invalid", "ok"], id="l-inf"),
            *(
                pytest.param({key: value}, dict(parameter="omega",
                                                objective="forced_amplitude_abs",
                                                grid="100, 200"),
                             ["invalid", "invalid"], id=key)
                for key, value in (("length", "1e-200"), ("young_modulus", "5e-324"))
            ),
        ],
    )
    @FORMS
    def test_sweep_point_leaving_the_float_range_is_an_invalid_row(
        self, tmp_path, capsys, brush, sweep, statuses, form
    ):
        sections = {**FULL, "brush": {**FULL["brush"], **brush}, "sweep": sweep}
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, ["sweep", "--config", path, *form,
                                          "--out", str(out_path)])
        assert (code, err) == (0, "")
        lines = out_path.read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:-1]]
        assert [status for *_, status in rows] == statuses
        oks = [row for row in rows if row[3] == "ok"]
        assert [row[2] for row in rows if row[3] == "invalid"] == [""] * (len(rows) - len(oks))
        params = BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)
        for _, value, objective, _ in oks:
            k_theta = regime1.lumped_stiffness(params._replace(length=float(value)))
            assert objective == repr(k_theta)
        argmax = float(oks[0][1]) if oks else math.nan
        assert lines[-1] == f"# argmax={argmax!r}"
        summary = {"rows": len(statuses), "argmax": argmax if oks else None,
                   "out": str(out_path)}
        assert sweep_summary(out, form) == summary


class TestFailingRuns:
    @pytest.mark.parametrize("case", list(FAILING_RUNS))
    @FORMS
    def test_run_exits_with_its_code_and_one_error_line(
        self, tmp_path, monkeypatch, capsys, case, form
    ):
        command, config, code, error = FAILING_RUNS[case]
        monkeypatch.chdir(tmp_path)  # a line that names the config names run.cfg
        if config is not None:
            text = config if isinstance(config, str) else config_text(config)
            Path("run.cfg").write_text(text, encoding="utf-8")
        out_path = tmp_path / "out.txt"
        out_path.write_bytes(EARLIER_OUT)
        argv = [command, "--config", "run.cfg", *form]
        argv += ["--out", str(out_path)] if command in WRITERS else []
        assert_failed(run_cli(capsys, argv), code, error, out_path)

    # an --out that cannot be opened is an OSError: exit 2 with its errno line
    @pytest.mark.parametrize("command", WRITERS)
    @pytest.mark.parametrize("name, number", [("missing/out.txt", errno.ENOENT),
                                              ("", errno.EISDIR)],
                             ids=["missing-directory", "directory"])
    @FORMS
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command, name, number, form):
        out = str(tmp_path / name)
        path = write_config(tmp_path, omega_sweep("v_r_regime1", grid="100"))
        assert_failed(run_cli(capsys, [command, "--config", path, "--out", out, *form]), 2,
                      f"[Errno {number}] {os.strerror(number)}: {out!r}")


class TestFailureTable:
    """One input per error class in sweep.FAILURES, run as a one-point sweep:
    the row status is the documented one. The exit code and stderr label of
    each class are FAILING_RUNS rows (resonant-speed, overswinging-brush,
    zero-speed, predict-r1-speed-1e300 and predict-r1-length-1e-200)."""

    # class -> (row status, exit code, stderr label), and the sweep
    # parameter, grid value and objective of an input that raises it
    CASES = {
        ResonanceError: (("resonance_guard", 3, "resonance: "),
                         ("omega", OMEGA_N, "forced_amplitude_abs")),
        ModelDomainError: (("model_domain", 4, "model domain: "),
                           ("omega", "3500.0", "v_r_regime1")),
        NoCompletedCycleError: (("no_cycles", 2, ""), ("omega", "100.0", "v_r_regime2")),
        ValidationError: (("invalid", 2, ""), ("EI", "1e300", "k_theta")),
        OverflowError: (("invalid", 2, "arithmetic overflow: "),
                        ("omega", "1e300", "forced_amplitude_abs")),
        ArithmeticError: (("invalid", 2, "arithmetic underflow: "),
                          ("l", "1e-200", "k_theta")),
    }

    def test_cases_cover_every_class_and_its_entry(self):
        assert {cls: expected for cls, (expected, _) in self.CASES.items()} == FAILURES

    @pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
    def test_sweep_row_status(self, tmp_path, cls):
        (status, _, _), (parameter, grid, objective) = self.CASES[cls]
        sweep = dict(parameter=parameter, objective=objective, grid=grid)
        path = write_config(tmp_path, {**FULL, "sweep": sweep})
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--out", str(out_path)]) == 0
        rows = out_path.read_text(encoding="utf-8").splitlines()[1:-1]
        assert [row.rsplit(",", 1)[1] for row in rows] == [status]


class TestFuzz:
    """Seeded malformed configs through every command: each run ends in a
    documented exit code and no exception escapes cli.main."""

    BASE = {
        **FULL,
        "sim": {"t_end": "0.15", "dt": "5e-5", "theta0": "0.01", "record_stride": "3"},
        "sweep": {
            "parameter": "omega",
            "objective": "v_r_regime2",
            "start": "250",
            "stop": "400",
            "points": "4",
            "spacing": "log",
        },
    }
    BAD = ("nan", "inf", "-inf", "1e300", "1e-300", "-1e300", "1e400", "", "-1", "0")
    HUGE_WINDOWS = (("t_end", "1e300"), ("t_end", "1e12"), ("dt", "1e-300"))
    SEED, CONFIGS = 2024, 160

    @classmethod
    def malformed(cls, rng) -> bytes:
        sections = {name: list(pairs.items()) for name, pairs in cls.BASE.items()}
        names = sorted(sections)
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            kind = rng.integers(5)
            name = names[rng.integers(len(names))]
            pairs = sections[name]
            at = rng.integers(len(pairs))
            key, value = pairs[at]
            if kind == 0:  # a bad value
                pairs[at] = (key, cls.BAD[rng.integers(len(cls.BAD))])
            elif kind == 1:  # a negated value
                pairs[at] = (key, "-" + value)
            elif kind == 2:  # a duplicate key
                pairs.append((key, value))
            elif kind == 3:  # a huge window
                key, value = cls.HUGE_WINDOWS[rng.integers(len(cls.HUGE_WINDOWS))]
                sections["sim"] = [(k, value if k == key else v) for k, v in sections["sim"]]
            else:  # a byte that is not UTF-8
                pairs[at] = (key, value + "\udcff")
        text = "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs)
            for name, pairs in sections.items()
        )
        return text.encode("utf-8", "surrogateescape")

    @classmethod
    def corpus(cls) -> tuple[bytes, ...]:
        """The seeded malformed configs, in order (digests.py replays them too)."""
        rng = np.random.default_rng(cls.SEED)
        return tuple(cls.malformed(rng) for _ in range(cls.CONFIGS))

    def test_malformed_configs_end_in_documented_exit_codes(self, tmp_path, capsys):
        # a failing run keeps to assert_failed; one that succeeds prints no error
        path, out_path = tmp_path / "fuzz.cfg", tmp_path / "out.txt"
        codes = []
        for index, config in enumerate(self.corpus()):
            path.write_bytes(config)
            for command in ("predict-r1", "classify", "simulate-r2", "sweep"):
                out_path.write_bytes(EARLIER_OUT)
                argv = [command, "--config", str(path)]
                argv += ["--out", str(out_path)] if command in WRITERS else []
                code, _, err = result = run_cli(capsys, argv)
                assert code in (0, 2, 3, 4), (index, command, config)
                if code:
                    assert_failed(result, code, out_path=out_path)
                else:
                    assert err == "", (index, command, config)
                codes.append(code)
        assert {0, 2} <= set(codes)

    # Flights that are flat over many floats: motor off from a subnormal
    # theta0, and c_f, c_g subnormal under the largest pivot_inertia. The
    # root finder once tried one float per evaluation there: simulate-r2 and
    # the sweep never finished on the first, and the sweep took ~35 s on the
    # second.
    FLAT = {
        "motor_off_theta0_5e-324": {"motor": {"eccentric_mass": "0"},
                                    "sim": {"theta0": "5e-324"}},
        "pivot_inertia_max": {"robot": {"pivot_inertia": "1.7976931348623157e308"},
                              "sim": {"dt": "1e-5"}},
    }
    SECONDS = 5.0

    @staticmethod
    def overtime(signum, frame):
        raise AssertionError(f"a run took over {TestFuzz.SECONDS} s")

    @pytest.mark.parametrize("name", sorted(FLAT))
    def test_flat_flights_finish_within_seconds(self, tmp_path, capsys, name):
        sweep = dict(self.BASE["sweep"], start="100", stop="5000", points="20")
        sections = {**FULL, "sweep": sweep}
        for section, changes in self.FLAT[name].items():
            sections[section] = {**sections[section], **changes}
        path = write_config(tmp_path, sections)
        out = str(tmp_path / "out.txt")
        previous = signal.signal(signal.SIGALRM, self.overtime)
        try:
            for command in ("predict-r1", "classify", "simulate-r2", "sweep"):
                argv = [command, "--config", path]
                if command in WRITERS:
                    argv += ["--out", out]
                signal.setitimer(signal.ITIMER_REAL, self.SECONDS)
                code = main(argv)
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                assert code in (0, 2, 3, 4), command
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        capsys.readouterr()
