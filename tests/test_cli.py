"""Command surface: output formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from brushdyn import (
    BrushParams,
    MotorParams,
    RobotParams,
    SimConfig,
    load_config,
    regime1,
    regime2,
)
from brushdyn.cli import main
from brushdyn.config import ConfigError

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


ROOT = Path(__file__).resolve().parent.parent
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
            schema = fields(cls)
            assert [key for key, _ in table[section]] == [f.name for f in schema]
            for (_, stated), f in zip(table[section], schema):
                if f.default is MISSING:
                    assert stated is None, f.name
                else:
                    assert float(stated) == f.default, f.name


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

    def test_missing_out_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, FULL)
        code, _, err = run_cli(capsys, ["simulate-r2", "--config", path])
        assert code == 2
        assert "--out" in err

    def test_model_domain_exits_4(self, tmp_path, capsys):
        sections = {
            **FULL,
            "robot": {**ROBOT_SECTION, "pivot_inertia": "1e-6", "gravity_arm": "0"},
            "motor": dict(eccentric_mass="0.01", eccentricity="0.01", speed="300"),
        }
        path = write_config(tmp_path, sections)
        code, _, err = run_cli(
            capsys, ["simulate-r2", "--config", path, "--out", str(tmp_path / "t.txt")]
        )
        assert code == 4
        assert "model domain" in err


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


class TestEntryPoint:
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

    @pytest.mark.parametrize("command", ["predict-r1", "classify"])
    def test_out_rejected_where_unused(self, tmp_path, capsys, command):
        path = write_config(tmp_path, FULL)
        out = tmp_path / "unused.txt"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--out", str(out)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert not out.exists()


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
        code, out, err = run_cli(
            capsys, ["simulate-r2", "--config", path, "--out", str(out_path)]
        )
        assert code == 2
        assert out == ""
        assert err == "error: t_end / dt exceeds 1e+07 grid steps\n"
        assert not out_path.exists()

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

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(config_text(FULL).replace("300.0", "300.0\xb0").encode("latin-1"))
        code, out, err = run_cli(capsys, ["classify", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read config file {str(path)!r}: ")
        assert "can't decode byte 0xb0" in err

    # speed = 1e300 is finite but omega**2 overflows: predict-r1 raises in
    # regime1, classify computes lift_ratio = inf
    @pytest.mark.parametrize("command", ["predict-r1", "classify"])
    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["table", "json"])
    def test_overflowing_result_exits_2(self, tmp_path, capsys, command, form):
        sections = {**FULL, "motor": {**MOTOR_SECTION, "speed": "1e300"}}
        path = write_config(tmp_path, sections)
        code, out, err = run_cli(capsys, [command, "--config", path, *form])
        assert code == 2
        assert out == ""
        assert err.startswith("error: arithmetic overflow: ")
        assert err.count("\n") == 1
        if command == "classify":
            assert err == "error: arithmetic overflow: lift_ratio is inf\n"


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

    @pytest.mark.filterwarnings("ignore::brushdyn.regime1.BrushGeometryWarning")
    def test_malformed_configs_end_in_documented_exit_codes(self, tmp_path, capsys):
        rng = np.random.default_rng(2024)
        path = tmp_path / "fuzz.cfg"
        out = str(tmp_path / "out.txt")
        codes = []
        for index in range(160):
            path.write_bytes(self.malformed(rng))
            for command in ("predict-r1", "classify", "simulate-r2", "sweep"):
                argv = [command, "--config", str(path)]
                if command in ("simulate-r2", "sweep"):
                    argv += ["--out", out]
                code = main(argv)
                assert code in (0, 2, 3, 4), (index, command, path.read_bytes())
                codes.append(code)
            capsys.readouterr()
        assert {0, 2} <= set(codes)
