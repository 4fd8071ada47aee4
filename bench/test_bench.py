"""Fast tests of the benchmark itself.

    python3 -m pytest bench -q

They check that every metric the benchmark prints is declared in
BENCHMARK.json, and that corrupted outputs are counted as failed ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
STATUSES = frozenset(run.STATUSES)


def declared(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_printed_metrics_are_declared(workload, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    expected = declared("per_layer" if trace else "end_to_end")
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    table = {
        line.split()[0]: line.split()[2]
        for line in lines[:-1] if not line.startswith("#")
    }
    for names in (printed, table):
        assert names == expected
        assert all(NAME.fullmatch(name) for name in names)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_missing_source_exits_without_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8"
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "r2_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def failed_ops(verify) -> int:
    """Run one op whose output check is ``verify`` and return the failures."""
    tally = run.Tally()
    tally.run(lambda index: verify, 0)
    assert tally.attempted == 1
    return tally.failed


def cli(*args: str) -> str:
    from brushdyn import cli as brushdyn_cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert brushdyn_cli.main(list(args)) == 0
    return stdout.getvalue()


@pytest.fixture(scope="module")
def trajectory(tmp_path_factory):
    """A short reference simulate-r2 run: (file text, stdout, steps)."""
    work = tmp_path_factory.mktemp("trajectory")
    reference = run.reference_values()
    config = work / "run.cfg"
    config.write_text(
        "[robot]\n" + "".join(f"{k} = {v!r}\n" for k, v in reference["robot"].items())
        + "[motor]\n" + "".join(f"{k} = {v!r}\n" for k, v in reference["motor"].items())
        + "[sim]\nt_end = 0.11\ndt = 1e-4\n",
        encoding="utf-8",
    )
    out = work / "traj.txt"
    stdout = cli("simulate-r2", "--config", str(config), "--out", str(out))
    return out.read_text(encoding="utf-8"), stdout, 1100


def check_trajectory(tmp_path, text: str, stdout: str, steps: int):
    path = tmp_path / "traj.txt"
    path.write_text(text, encoding="utf-8")
    return lambda: checks.check_trajectory(str(path), stdout, False, steps, 1, True)


def test_trajectory_fixture_passes(tmp_path, trajectory):
    text, stdout, steps = trajectory
    assert failed_ops(check_trajectory(tmp_path, text, stdout, steps)) == 0


def _swap_first_samples(text: str) -> str:
    lines = text.splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    return "".join(lines)


def _scale_peak(stdout: str, factor: float) -> str:
    lines = stdout.splitlines(keepends=True)
    name, value = lines[1].split()
    return "".join(lines[:1] + [f"{name} {float(value) * factor!r}\n"] + lines[2:])


@pytest.mark.parametrize(
    "corrupt_text, corrupt_stdout",
    [
        (lambda text: text.split("\n", 1)[1], None),  # header gone
        (lambda text: text[: text.rindex("\n", 0, -1) + 1], None),  # last line gone
        (_swap_first_samples, None),  # t not increasing
        (lambda text: text.replace(" 0.0 0.0 0.0 ", " 0.0 0.0 ", 1), None),  # short line
        (None, lambda out: out.replace("cycles ", "cycles 1", 1)),  # wrong cycle count
        (None, lambda out: _scale_peak(out, 1.01)),  # peak disagrees with file
        (None, lambda out: out.replace("mean_v_r ", "mean_v_r 1", 1)),
        (None, lambda out: out.replace("out ", "path ", 1)),  # wrong key
    ],
)
def test_corrupted_trajectory_is_a_failed_op(tmp_path, trajectory, corrupt_text, corrupt_stdout):
    text, stdout, steps = trajectory
    text = corrupt_text(text) if corrupt_text else text
    stdout = corrupt_stdout(stdout) if corrupt_stdout else stdout
    assert failed_ops(check_trajectory(tmp_path, text, stdout, steps)) == 1


def test_reference_peak_is_held(tmp_path, trajectory):
    text, stdout, steps = trajectory
    check = check_trajectory(tmp_path, text, stdout, steps)
    assert failed_ops(check) == 0
    path = tmp_path / "traj.txt"
    # Peak and file scaled together: they agree, but miss the reference.
    scaled = "".join(
        line if i == 0 else " ".join(
            [line.split()[0], repr(float(line.split()[1]) * 1.001)] + line.split()[2:]
        ) + "\n"
        for i, line in enumerate(text.splitlines())
    )
    path.write_text(scaled, encoding="utf-8")
    assert failed_ops(
        lambda: checks.check_trajectory(str(path), _scale_peak(stdout, 1.001),
                                        False, steps, 1, True)
    ) == 1


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    stdout = cli("sweep", "--config", str(ROOT / run.ALPHA_SWEEP_CFG), "--out", str(out))
    return out.read_text(encoding="utf-8"), stdout


def check_csv(tmp_path, text: str, stdout: str, as_json: bool = False):
    path = tmp_path / "sweep.csv"
    path.write_text(text, encoding="utf-8")
    return lambda: checks.check_sweep_csv(str(path), stdout, as_json, "alpha", 20, STATUSES)


def test_csv_fixture_passes(tmp_path, sweep_csv):
    assert failed_ops(check_csv(tmp_path, *sweep_csv)) == 0


@pytest.mark.parametrize(
    "corrupt_text, corrupt_stdout",
    [
        (lambda text: text.replace("param,", "name,", 1), None),  # header
        (lambda text: text.replace(",ok\n", ",bogus\n", 1), None),  # status
        (lambda text: "\n".join(text.split("\n")[:1] + text.split("\n")[2:]), None),  # row gone
        (lambda text: text.replace("# argmax=", "# argmax=1", 1), None),
        (lambda text: text.rstrip("\n"), None),  # truncated
        (None, lambda out: out.replace("rows 20", "rows 19", 1)),
        (None, lambda out: out.replace("argmax ", "argmax 9", 1)),
    ],
)
def test_corrupted_csv_is_a_failed_op(tmp_path, sweep_csv, corrupt_text, corrupt_stdout):
    text, stdout = sweep_csv
    text = corrupt_text(text) if corrupt_text else text
    stdout = corrupt_stdout(stdout) if corrupt_stdout else stdout
    assert failed_ops(check_csv(tmp_path, text, stdout)) == 1


@pytest.mark.parametrize("as_json", [False, True])
def test_corrupted_stdout_is_a_failed_op(as_json):
    flag = ["--json"] if as_json else []
    config = str(ROOT / run.REFERENCE_CFG)
    predict = cli("predict-r1", "--config", config, *flag)
    report = cli("classify", "--config", config, *flag)
    assert failed_ops(lambda: checks.check_predict_r1(predict, as_json)) == 0
    assert failed_ops(lambda: checks.check_classify(report, as_json)) == 0
    for bad in (
        predict.replace("v_r", "vr", 1),
        predict.replace("k_theta", "k_theta\n", 1),
        predict[: predict.index("margin")],
    ):
        assert failed_ops(lambda: checks.check_predict_r1(bad, as_json)) == 1
    for bad in (
        report.replace("Regime", "Mode", 1),
        report.replace("lift_ratio", "ratio", 1),
        report + "extra\n",
    ):
        assert failed_ops(lambda: checks.check_classify(bad, as_json)) == 1


def test_corrupted_sweep_result_is_a_failed_op():
    from brushdyn import sweep

    rows = (
        sweep.SweepRow(1.0, None, "no_cycles"),
        sweep.SweepRow(2.0, 0.5, "ok"),
        sweep.SweepRow(3.0, 0.7, "ok"),
    )
    grid = (1.0, 2.0, 3.0)
    good = sweep.SweepResult("omega", "v_r_regime2", rows, 3.0)
    assert failed_ops(lambda: checks.check_sweep_result(good, grid, STATUSES)) == 0
    for bad in (
        sweep.SweepResult("omega", "v_r_regime2", rows[:2], 2.0),
        sweep.SweepResult("omega", "v_r_regime2", rows, 2.0),
        sweep.SweepResult("omega", "v_r_regime2",
                          rows[:2] + (sweep.SweepRow(3.0, 0.7, "bogus"),), 2.0),
        sweep.SweepResult("omega", "v_r_regime2",
                          (sweep.SweepRow(1.0, 0.1, "ok"),) + rows[1:], 3.0),
    ):
        assert failed_ops(lambda: checks.check_sweep_result(bad, grid, STATUSES)) == 1


def test_exception_in_op_is_a_failed_op():
    def op(index):
        raise RuntimeError("solver blew up")

    tally = run.Tally()
    tally.run(op, 0)
    tally.run(lambda index: (lambda: None), 1)
    assert (tally.attempted, tally.failed) == (2, 1)
    # Only the successful op's time counts towards latency.
    assert tally.successful(tally.durations) == [tally.durations[1]]


def test_scaled_times_take_out_host_load(monkeypatch):
    # A kernel twice as slow as on the reference host means the op ran
    # under load that doubled its time, so its scaled time is half.
    monkeypatch.setattr(run, "kernel_seconds", lambda: 2.0 * run.KERNEL_REFERENCE_S)
    tally = run.Tally(calibrated=True)
    tally.run(lambda index: (lambda: None), 0)
    assert tally.scaled() == [pytest.approx(tally.durations[0] / 2.0)]
