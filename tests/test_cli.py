"""Command surface: output formats, exit codes, determinism."""

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
from brushdyn.config import ConfigError
from brushdyn.sweep import FAILURES

from helpers import (
    BRUSH_SECTION,
    MOTOR_SECTION,
    ROBOT_SECTION,
    SIM_SECTION,
    config_text,
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

    def test_unknown_key_fatal(self, tmp_path):
        sections = {"brush": {**BRUSH_SECTION, "lenght": "0.02"}}
        with pytest.raises(ConfigError, match="lenght"):
            load_config(write_config(tmp_path, sections))

    def test_unknown_section_fatal(self, tmp_path):
        with pytest.raises(ConfigError, match="brushes"):
            load_config(write_config(tmp_path, {"brushes": BRUSH_SECTION}))

    def test_missing_key_fatal(self, tmp_path):
        sections = {"motor": {"eccentric_mass": "1e-3", "speed": "300"}}
        with pytest.raises(ConfigError, match="eccentricity"):
            load_config(write_config(tmp_path, sections))

    def test_bad_number_fatal(self, tmp_path):
        sections = {"motor": {**MOTOR_SECTION, "speed": "fast"}}
        with pytest.raises(ConfigError, match="fast"):
            load_config(write_config(tmp_path, sections))

    def test_duplicate_key_fatal(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("[motor]\nspeed = 1\nspeed = 2\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"))

    def test_sweep_grid_and_range_exclusive(self, tmp_path):
        sections = {
            "sweep": dict(
                parameter="omega",
                objective="k_theta",
                grid="1,2,3",
                start="1",
                stop="3",
                points="3",
            )
        }
        with pytest.raises(ConfigError, match="not both"):
            load_config(write_config(tmp_path, sections))

    # each message through the CLI: exit 2, nothing on stdout, no --out file
    @pytest.mark.parametrize(
        "sections, error",
        [
            pytest.param({"DEFAULT": {"speed": "300.0"}},
                         "[DEFAULT] section is not supported", id="default-section"),
            pytest.param({"DEFAULT": {}}, "[DEFAULT] section is not supported",
                         id="bare-default-section"),
            pytest.param({"sweep": dict(parameter="omega", objective="k_theta",
                                        start="100", stop="300")},
                         "[sweep] needs grid= or all of start=, stop=, points=",
                         id="range-without-points"),
            pytest.param({"sweep": dict(parameter="omega", objective="k_theta", grid="")},
                         "sweep grid must contain at least one value", id="empty-grid"),
        ],
    )
    def test_config_error_exits_2_with_its_message(self, tmp_path, capsys, sections, error):
        path = write_config(tmp_path, {**sections, **FULL})
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, ["sweep", "--config", path, "--out", str(out_path)])
        assert (code, out, err) == (2, "", f"error: {error}\n")
        assert not out_path.exists()

    def test_sweep_explicit_grid(self, tmp_path):
        sections = {
            "sweep": dict(parameter="omega", objective="k_theta", grid="100, 200, 300")
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


class TestPredictR1:
    def test_table_matches_library(self, tmp_path, capsys):
        path = write_config(tmp_path, FULL)
        code, out, _ = run_cli(capsys, ["predict-r1", "--config", path])
        assert code == 0
        lines = out.splitlines()
        names = [line.split()[0] for line in lines]
        assert names == [
            "k_theta",
            "I_theta",
            "omega_n",
            "t_bar",
            "omega_star",
            "theta_hat",
            "delta",
            "v_r",
            "regime1_valid",
            "margin",
        ]
        values = dict(line.split(" ", 1) for line in lines)
        brush = BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)
        motor = MotorParams(1e-3, 2e-3, 300.0)
        prediction = regime1.predict(brush, motor)
        assert values["k_theta"] == repr(prediction.k_theta)
        assert values["omega_n"] == repr(prediction.omega_n)
        assert values["theta_hat"] == repr(prediction.theta_hat)
        assert values["delta"] == repr(prediction.delta)
        assert values["v_r"] == repr(prediction.v_r)
        assert values["omega_star"] == repr(regime1.optimal_motor_speed(brush))
        assert values["regime1_valid"] == "true"

    def test_json_mode(self, tmp_path, capsys):
        path = write_config(tmp_path, FULL)
        code, out, _ = run_cli(capsys, ["predict-r1", "--config", path, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "k_theta",
            "I_theta",
            "omega_n",
            "t_bar",
            "omega_star",
            "theta_hat",
            "delta",
            "v_r",
            "regime1_valid",
            "margin",
        }
        assert payload["regime1_valid"] is True

    def test_motor_off(self, tmp_path, capsys):
        sections = {**FULL, "motor": {**MOTOR_SECTION, "eccentric_mass": "0"}}
        path = write_config(tmp_path, sections)
        code, out, _ = run_cli(capsys, ["predict-r1", "--config", path, "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["delta"] == 0.0
        assert payload["v_r"] == 0.0
        assert payload["regime1_valid"] is True

    def test_resonant_speed_exits_3(self, tmp_path, capsys):
        brush = BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)
        omega_n = regime1.natural_frequency(brush)
        sections = {**FULL, "motor": {**MOTOR_SECTION, "speed": repr(omega_n)}}
        path = write_config(tmp_path, sections)
        code, _, err = run_cli(capsys, ["predict-r1", "--config", path])
        assert code == 3
        assert "resonance" in err

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["table", "json"])
    def test_overswinging_brush_exits_4(self, tmp_path, capsys, form):
        # E = 2e5 Pa: a stick-phase angle of ~99 rad against a 0.6 rad inclination
        sections = {**FULL, "brush": {**BRUSH_SECTION, "young_modulus": "2e5"}}
        path = write_config(tmp_path, sections)
        code, out, err = run_cli(capsys, ["predict-r1", "--config", path, *form])
        assert code == 4
        assert out == ""
        assert err.startswith("error: model domain: stick-phase angle 99.")
        assert err.endswith(" rad exceeds brush inclination 0.6 rad\n")

    def test_missing_robot_section_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"brush": BRUSH_SECTION, "motor": MOTOR_SECTION})
        code, _, err = run_cli(capsys, ["predict-r1", "--config", path])
        assert code == 2
        assert "robot" in err


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

    def test_motor_off_writes_zero_columns(self, tmp_path, capsys):
        sections = {**FULL, "motor": {**MOTOR_SECTION, "eccentric_mass": "0"}}
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
        for line in out_path.read_text(encoding="utf-8").splitlines()[1:]:
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

    def test_byte_determinism(self, tmp_path, capsys):
        path = write_config(tmp_path, FULL)
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        code_a, stdout_a, _ = run_cli(
            capsys, ["simulate-r2", "--config", path, "--out", str(out_a)]
        )
        code_b, stdout_b, _ = run_cli(
            capsys, ["simulate-r2", "--config", path, "--out", str(out_b)]
        )
        assert code_a == code_b == 0
        assert stdout_a.replace(str(out_a), "") == stdout_b.replace(str(out_b), "")
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize(
        "section, changes",
        [
            ("sim", {}),  # the reference run
            ("sim", {"theta0": "0.05", "record_stride": "7"}),
            ("motor", {"speed": "100.0"}),  # too weak to lift: rest throughout
        ],
    )
    def test_out_file_is_repr_of_every_sample(self, tmp_path, capsys, section, changes):
        sections = {**FULL, section: {**FULL[section], **changes}}
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "traj.txt"
        code, _, _ = run_cli(
            capsys, ["simulate-r2", "--config", path, "--out", str(out_path)]
        )
        assert code == 0
        cfg = load_config(path)
        samples = regime2.simulate(cfg.robot, cfg.motor, cfg.sim).samples
        expected = "t th thdot thddot x\n" + "".join(
            f"{s.t!r} {s.theta!r} {s.theta_dot!r} {s.theta_ddot!r} {s.x!r}\n"
            for s in samples
        )
        assert out_path.read_bytes() == expected.encode("utf-8")

    def test_model_domain_exits_4(self, tmp_path, capsys):
        sections = {
            **FULL,
            "robot": {**ROBOT_SECTION, "pivot_inertia": "1e-6", "gravity_arm": "0"},
            "motor": dict(eccentric_mass="0.01", eccentricity="0.01", speed="300"),
        }
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "t.txt"
        out_path.write_bytes(EARLIER_OUT)
        code, out, err = run_cli(
            capsys, ["simulate-r2", "--config", path, "--out", str(out_path)]
        )
        assert code == 4
        assert "model domain" in err
        assert out == ""
        assert out_path.read_bytes() == EARLIER_OUT  # found before --out opened

    def test_dt_above_a_200th_period_exits_2(self, tmp_path, capsys):
        sections = {**FULL, "sim": {**SIM_SECTION, "dt": "2e-4"}}
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "t.txt"
        out_path.write_bytes(EARLIER_OUT)
        code, out, err = run_cli(
            capsys, ["simulate-r2", "--config", path, "--out", str(out_path)]
        )
        assert code == 2
        assert out == ""
        assert err == "error: dt 0.0002 exceeds T/200 = 0.00010472 s\n"
        assert out_path.read_bytes() == EARLIER_OUT

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
        flight = regime2.simulate(robot, motor, SimConfig(5.5 * period, period / 200.0)).events[0]
        lift_off, touchdown = flight
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
        # the --out bytes against each Sample of simulate formatted on its own,
        # and the invariants of the blocks stream yields
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
            traj = regime2.simulate(robot, motor, sim)
            expected = header + "".join(
                f"{t!r} {theta!r} {theta_dot!r} {theta_ddot!r} {x!r}\n"
                for t, theta, theta_dot, theta_ddot, x in traj.samples
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
                                   for lift_off, touchdown in traj.events for u in t)
                else:
                    assert all(len(column) == len(t) for column in angles)
                after = blocks[index + 1][1] if index + 1 < len(blocks) else "end"
                if len(t) == block and (angles[0] is None) != (after is None):
                    full_at.add("end" if after == "end" else
                                "lift-off" if angles[0] is None else "touchdown")
            mid_flight += blocks[-1][1] is not None
            grounded += not traj.events
            tilted += sim.theta0 > 0.0
        assert full_at == {"lift-off", "touchdown", "end"}
        assert mid_flight >= 10 and grounded >= 10 and tilted >= 50


class TestClassify:
    def test_rigid_regime_line(self, tmp_path, capsys):
        sections = {
            **FULL,
            "motor": dict(eccentric_mass="1e-3", eccentricity="2e-3", speed="1000"),
        }
        path = write_config(tmp_path, sections)
        code, out, _ = run_cli(capsys, ["classify", "--config", path])
        assert code == 0
        assert out.splitlines()[0] == "regime: RegimeII"
        assert "lift_ratio: " in out

    def test_motor_off_is_flexible(self, tmp_path, capsys):
        sections = {**FULL, "motor": {**MOTOR_SECTION, "eccentric_mass": "0"}}
        path = write_config(tmp_path, sections)
        code, out, _ = run_cli(capsys, ["classify", "--config", path])
        assert code == 0
        assert out.splitlines()[0] == "regime: RegimeI"

    def test_rationale_tags(self, tmp_path, capsys):
        path = write_config(tmp_path, FULL)
        code, out, _ = run_cli(capsys, ["classify", "--config", path])
        assert code == 0
        assert "(ii)" in out

    def test_transitional_cites_fast_drive(self, tmp_path, capsys):
        # speed far above the brush bandwidth but too weak to lift the body
        sections = {
            **FULL,
            "motor": dict(eccentric_mass="1e-6", eccentricity="1e-3", speed="15000"),
        }
        path = write_config(tmp_path, sections)
        code, out, _ = run_cli(capsys, ["classify", "--config", path])
        assert code == 0
        assert out.splitlines()[0] == "regime: Transitional"
        assert "(i)" in out

    def test_json_mode(self, tmp_path, capsys):
        path = write_config(tmp_path, FULL)
        code, out, _ = run_cli(capsys, ["classify", "--config", path, "--json"])
        payload = json.loads(out)
        assert payload["regime"] == "RegimeI"
        assert isinstance(payload["rationale"], list)


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

    def test_resonance_rows_flagged(self, tmp_path, capsys):
        brush = BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)
        omega_n = regime1.natural_frequency(brush)
        grid = f"{0.5 * omega_n!r},{omega_n!r},{2.0 * omega_n!r}"
        sections = {
            "brush": BRUSH_SECTION,
            "motor": MOTOR_SECTION,
            "sweep": dict(parameter="omega", objective="forced_amplitude_abs", grid=grid),
        }
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, ["sweep", "--config", path, "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        statuses = [line.split(",")[3] for line in lines[1:4]]
        assert statuses == ["ok", "resonance_guard", "ok"]
        assert lines[2].split(",")[2] == ""

    def test_alpha_stiffness_column_increases(self, tmp_path, capsys):
        sections = {
            "brush": BRUSH_SECTION,
            "motor": MOTOR_SECTION,
            "sweep": dict(
                parameter="alpha",
                objective="k_theta",
                start="0.1",
                stop="1.4",
                points="10",
            ),
        }
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, ["sweep", "--config", path, "--out", str(out_path)])
        assert code == 0
        rows = out_path.read_text(encoding="utf-8").splitlines()[1:-1]
        objectives = [float(row.split(",")[2]) for row in rows]
        assert all(b > a for a, b in zip(objectives, objectives[1:]))

    def test_json_mode(self, tmp_path, capsys):
        sections = {
            "brush": BRUSH_SECTION,
            "motor": MOTOR_SECTION,
            "sweep": dict(
                parameter="omega", objective="v_r_regime1", grid="100,200,300"
            ),
        }
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, ["sweep", "--config", path, "--out", str(out_path), "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == 3
        assert payload["argmax"] == 300.0

    @pytest.mark.parametrize("missing", ["robot", "sim"])
    def test_v_r_regime2_without_robot_or_sim_exits_2(self, tmp_path, capsys, missing):
        sweep = dict(parameter="omega", objective="v_r_regime2", grid="250, 300")
        sections = {name: keys for name, keys in FULL.items() if name != missing}
        path = write_config(tmp_path, {**sections, "sweep": sweep})
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, ["sweep", "--config", path, "--out", str(out_path)])
        assert code == 2
        assert out == ""
        assert err == "error: objective v_r_regime2 needs robot and sim parameters\n"
        assert not out_path.exists()

    def test_points_above_the_cap_exit_2_before_the_grid_is_built(self, tmp_path):
        # Under a 400 MB address-space limit a 1e9-point grid fails with
        # MemoryError; the cap refuses the range before building anything.
        sweep = dict(parameter="omega", objective="k_theta", start="100", stop="200",
                     points="1000000000")
        path = write_config(tmp_path, {**FULL, "sweep": sweep})
        out_path = tmp_path / "sweep.csv"
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
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == "error: sweep range needs at most 1e+06 points\n"
        assert not out_path.exists()

    def test_csv_byte_determinism(self, tmp_path, capsys):
        sections = {
            "brush": BRUSH_SECTION,
            "motor": MOTOR_SECTION,
            "sweep": dict(
                parameter="omega", objective="v_r_regime1", grid="100,200,300"
            ),
        }
        path = write_config(tmp_path, sections)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, ["sweep", "--config", path, "--out", str(out_a)])
        run_cli(capsys, ["sweep", "--config", path, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()


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
            pairs += write(body) or []  # pairs measured from what it wrote
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

    def test_python_dash_m(self, tmp_path):
        path = write_config(tmp_path, FULL)
        proc = subprocess.run(
            [sys.executable, "-m", "brushdyn", "predict-r1", "--config", path, "--json"],
            capture_output=True,
            text=True,
            env=SRC_ENV,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["regime1_valid"] is True

    def test_unknown_command_exits_2(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "brushdyn", "explode"],
            capture_output=True,
            text=True,
            env=SRC_ENV,
        )
        assert proc.returncode == 2

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


class TestNonFiniteValues:
    # 1e400 parses to inf; every command must refuse it as a config error
    @pytest.mark.parametrize(
        "command, section, key",
        [
            ("predict-r1", "brush", "brush_mass"),
            ("classify", "brush", "brush_mass"),
            ("predict-r1", "motor", "speed"),
            ("classify", "motor", "speed"),
            ("simulate-r2", "sim", "t_end"),
        ],
    )
    def test_overflowing_value_exits_2(self, tmp_path, capsys, command, section, key):
        sections = {**FULL, section: {**FULL[section], key: "1e400"}}
        path = write_config(tmp_path, sections)
        argv = [command, "--config", path]
        if command == "simulate-r2":
            argv += ["--out", str(tmp_path / "traj.txt")]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {key} must be finite\n"

    def test_overflowed_stick_phase_angle_exits_2(self, tmp_path, capsys):
        # the force m*omega^2*r overflows; it is not an overswing (exit 4)
        sections = {**FULL, "motor": {**MOTOR_SECTION, "eccentric_mass": "1e308"}}
        code, out, err = run_cli(capsys, ["predict-r1", "--config",
                                          write_config(tmp_path, sections)])
        assert (code, out, err) == (2, "", "error: arithmetic overflow: "
                                           "stick-phase angle is inf\n")

    def test_grid_count_overflowing_the_float_range_exits_2(self, tmp_path, capsys):
        sections = {**FULL, "sim": {**SIM_SECTION, "t_end": "1e300", "dt": "1e-10"}}
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "traj.txt"
        code, out, err = run_cli(
            capsys, ["simulate-r2", "--config", path, "--out", str(out_path)]
        )
        assert code == 2
        assert out == ""
        assert err == "error: t_end / dt must be finite\n"
        assert not out_path.exists()

    def test_huge_window_exits_2(self, tmp_path, capsys):
        # finite t_end / dt, but ~1e302 forcing periods to walk
        sections = {**FULL, "sim": {**SIM_SECTION, "t_end": "1e300"}}
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "traj.txt"
        out_path.write_bytes(EARLIER_OUT)
        code, out, err = run_cli(
            capsys, ["simulate-r2", "--config", path, "--out", str(out_path)]
        )
        assert code == 2
        assert out == ""
        assert err == "error: t_end / dt exceeds 1e+07 grid steps\n"
        assert out_path.read_bytes() == EARLIER_OUT

    def test_huge_window_sweep_rows_are_invalid(self, tmp_path, capsys):
        sections = {
            **FULL,
            "sim": {**SIM_SECTION, "t_end": "1e300"},
            "sweep": dict(parameter="omega", objective="v_r_regime2", grid="250, 300"),
        }
        path = write_config(tmp_path, sections)
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, ["sweep", "--config", path, "--out", str(out_path)])
        assert code == 0
        assert out.startswith("rows 2\nargmax nan\n")
        rows = out_path.read_text(encoding="utf-8").splitlines()
        assert rows[1:] == ["omega,250.0,,invalid", "omega,300.0,,invalid", "# argmax=nan"]

    @pytest.mark.parametrize(
        "grid",
        [dict(grid="250, inf"), dict(start="100", stop="1e400", points="5", spacing="log")],
        ids=["grid", "range"],
    )
    def test_infinite_sweep_grid_value_exits_2(self, tmp_path, capsys, grid):
        sweep = dict(parameter="omega", objective="v_r_regime2", **grid)
        path = write_config(tmp_path, {**FULL, "sweep": sweep})
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, ["sweep", "--config", path, "--out", str(out_path)])
        assert code == 2
        assert out == ""
        assert err == "error: grid value inf out of domain for parameter 'omega'\n"
        assert not out_path.exists()

    # a linear span that overflows spaces the grid by an infinite step; the
    # error names the endpoint that was written, not the nan first point. A
    # log range whose stop / start overflows names both of its ends.
    @pytest.mark.parametrize(
        "spacing, start, stop, error",
        [
            pytest.param("linear", "100", "1e400", "grid value inf out of domain for "
                         "parameter 'omega'", id="100-1e400-inf"),
            pytest.param("linear", "-1e400", "100", "grid value -inf out of domain for "
                         "parameter 'omega'", id="-1e400-100--inf"),
            pytest.param("linear", "-1e308", "1e308", "grid value -1e+308 out of domain for "
                         "parameter 'omega'", id="-1e308-1e308--1e+308"),
            pytest.param("log", "1e-200", "1e200", "log spacing from 1e-200 to 1e+200 "
                         "overflows: stop / start exceeds the float range", id="log-both-ends"),
            pytest.param("log", "5e-324", "1", "log spacing from 5e-324 to 1.0 "
                         "overflows: stop / start exceeds the float range", id="log-subnormal"),
        ],
    )
    def test_overflowing_linear_range_names_an_endpoint(
        self, tmp_path, capsys, spacing, start, stop, error
    ):
        sweep = dict(parameter="omega", objective="k_theta", start=start, stop=stop,
                     points="5", spacing=spacing)
        path = write_config(tmp_path, {**FULL, "sweep": sweep})
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, ["sweep", "--config", path, "--out", str(out_path)])
        assert code == 2
        assert out == ""
        assert err == f"error: {error}\n"
        assert not out_path.exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(config_text(FULL).replace("300.0", "300.0\xb0").encode("latin-1"))
        code, out, err = run_cli(capsys, ["classify", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read config file {str(path)!r}: ")
        assert "can't decode byte 0xb0" in err

    # speed = 1e300 is finite but its square overflows in regime1, and
    # classify computes lift_ratio = inf. length = 1e-200 and young_modulus =
    # 5e-324 are positive, but length**2 or EI underflows to 0, a zero divisor.
    # Each message names the quantity and its value.
    @pytest.mark.parametrize(
        "command, change, message",
        [
            pytest.param("predict-r1", ("motor", "speed", "1e300"),
                         "overflow: speed**2 overflows at speed = 1e+300", id="predict-r1"),
            pytest.param("classify", ("motor", "speed", "1e300"),
                         "overflow: lift_ratio is inf", id="classify"),
            *(
                pytest.param(command, ("brush", key, value), f"underflow: {message}",
                             id=f"{command}-{key}")
                for command in ("predict-r1", "classify")
                for key, value, message in (
                    ("length", "1e-200", "length**2*cos(inclination) is 0 at length = 1e-200"),
                    ("young_modulus", "5e-324",
                     "k_theta/I_theta = 0.0/2.0000000000000002e-07 is 0 or undefined"),
                )
            ),
        ],
    )
    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["table", "json"])
    def test_overflowing_result_exits_2(self, tmp_path, capsys, command, change, message, form):
        section, key, value = change
        path = write_config(tmp_path, {**FULL, section: {**FULL[section], key: value}})
        code, out, err = run_cli(capsys, [command, "--config", path, *form])
        assert (code, out, err) == (2, "", f"error: arithmetic {message}\n")

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
    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["table", "json"])
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


class TestFailureTable:
    """One input per error class in sweep.FAILURES, run as a one-point sweep
    and, where a command can raise it, as a single CLI command: the row
    status, the exit code and the stderr label are the documented ones."""

    OMEGA_N = repr(regime1.natural_frequency(BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)))
    # class -> (row status, exit code, stderr label), the command and the
    # (section, key, value) of the single run, and the sweep parameter, grid
    # value and objective of the same input. No command raises
    # NoCompletedCycleError: simulate-r2 reports zero cycles.
    CASES = {
        ResonanceError: (("resonance_guard", 3, "resonance: "),
                         "predict-r1", ("motor", "speed", OMEGA_N),
                         ("omega", OMEGA_N, "forced_amplitude_abs")),
        ModelDomainError: (("model_domain", 4, "model domain: "),
                           "predict-r1", ("motor", "speed", "3500.0"),
                           ("omega", "3500.0", "v_r_regime1")),
        NoCompletedCycleError: (("no_cycles", 2, ""), None, None,
                                ("omega", "100.0", "v_r_regime2")),
        ValidationError: (("invalid", 2, ""),
                          "predict-r1", ("brush", "young_modulus", "1e312"),
                          ("EI", "1e300", "k_theta")),
        OverflowError: (("invalid", 2, "arithmetic overflow: "),
                        "predict-r1", ("motor", "speed", "1e300"),
                        ("omega", "1e300", "forced_amplitude_abs")),
        ArithmeticError: (("invalid", 2, "arithmetic underflow: "),
                          "predict-r1", ("brush", "length", "1e-200"),
                          ("l", "1e-200", "k_theta")),
    }
    LABELS = [label for (_, _, label), *_ in CASES.values() if label]

    def test_cases_cover_every_class_and_its_entry(self):
        assert {cls: expected for cls, (expected, *_) in self.CASES.items()} == FAILURES

    @pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
    def test_sweep_row_status(self, tmp_path, cls):
        (status, _, _), _, _, (parameter, grid, objective) = self.CASES[cls]
        sweep = dict(parameter=parameter, objective=objective, grid=grid)
        path = write_config(tmp_path, {**FULL, "sweep": sweep})
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--out", str(out_path)]) == 0
        rows = out_path.read_text(encoding="utf-8").splitlines()[1:-1]
        assert [row.rsplit(",", 1)[1] for row in rows] == [status]

    @pytest.mark.parametrize("cls", [cls for cls, case in CASES.items() if case[1]],
                             ids=lambda cls: cls.__name__)
    def test_single_run_exit_code_and_label(self, tmp_path, capsys, cls):
        (_, code, label), command, (section, key, value), _ = self.CASES[cls]
        path = write_config(tmp_path, {**FULL, section: {**FULL[section], key: value}})
        exit_code, out, err = run_cli(capsys, [command, "--config", path])
        message = err.removeprefix("error: ")
        seen = next((known for known in self.LABELS if message.startswith(known)), "")
        assert (exit_code, out, seen, err.count("\n")) == (code, "", label, 1)


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
        path = tmp_path / "fuzz.cfg"
        out = str(tmp_path / "out.txt")
        codes = []
        for index, config in enumerate(self.corpus()):
            path.write_bytes(config)
            for command in ("predict-r1", "classify", "simulate-r2", "sweep"):
                argv = [command, "--config", str(path)]
                if command in ("simulate-r2", "sweep"):
                    argv += ["--out", out]
                code = main(argv)
                assert code in (0, 2, 3, 4), (index, command, path.read_bytes())
                codes.append(code)
            capsys.readouterr()
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
                if command in ("simulate-r2", "sweep"):
                    argv += ["--out", out]
                signal.setitimer(signal.ITIMER_REAL, self.SECONDS)
                code = main(argv)
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                assert code in (0, 2, 3, 4), command
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        capsys.readouterr()
