"""Output checks for benchmark ops.

Each check reads what one op produced (stdout text, an --out file, or an
in-process result) and raises CheckError when it is wrong. The checks take
their own route: they parse files and text with the standard library and do
not call back into brushdyn.
"""

from __future__ import annotations

import json
import math

TRAJECTORY_HEADER = "t th thdot thddot x"
SWEEP_HEADER = "param,value,objective,status"

# Sampled trajectory maxima sit below the flight peak the solver reports by
# at most ~4e-5 relative at dt = T/209 (the shipped reference config); the
# file and stdout must agree to this tolerance.
PEAK_FILE_RTOL = 1e-3
# Steady peak angle of the reference robot and motor from a dt=1e-6 run,
# rad. Copied from REFERENCE_PEAK in tests/helpers.py, where it was frozen.
REFERENCE_PEAK = 0.008650108980828084
REFERENCE_PEAK_RTOL = 1e-4

PREDICT_R1_KEYS = (
    "k_theta", "I_theta", "omega_n", "t_bar", "omega_star",
    "theta_hat", "delta", "v_r", "regime1_valid", "margin",
)
CLASSIFY_KEYS = ("regime", "lift_ratio", "stiffness_score", "alpha_margin")
CLASSIFY_REGIMES = ("RegimeI", "RegimeII", "Transitional")
SIMULATE_KEYS = ("cycles", "peak_angle", "mean_v_r", "out")
SWEEP_KEYS = ("rows", "argmax", "out")


class CheckError(Exception):
    """An op's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _float(raw: str, what: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise CheckError(f"{what}: {raw!r} is not a number") from None


def _int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise CheckError(f"{what}: {raw!r} is not an integer") from None


def parse_pairs(text: str, keys: tuple[str, ...], as_json: bool) -> dict:
    """Read a `name value` table or a JSON object with exactly ``keys``.

    Table values stay strings, except `nan`, which becomes None like a JSON
    null.
    """
    if as_json:
        try:
            fields = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckError(f"stdout is not JSON: {exc}") from None
        _require(isinstance(fields, dict), "stdout JSON is not an object")
        _require(text.endswith("}\n") and text.count("\n") == 1,
                 "stdout JSON is not one line")
    else:
        fields = {}
        for line in text.splitlines():
            name, _, value = line.partition(" ")
            _require(value != "", f"stdout line {line!r} has no value")
            fields[name] = None if value == "nan" else value
    _require(tuple(fields) == keys, f"stdout keys {tuple(fields)} != {keys}")
    return fields


def check_predict_r1(text: str, as_json: bool) -> None:
    fields = parse_pairs(text, PREDICT_R1_KEYS, as_json)
    for key in PREDICT_R1_KEYS:
        value = fields[key]
        if key == "regime1_valid":
            _require(value in (True, False, "true", "false"),
                     f"regime1_valid {value!r} is not a boolean")
        else:
            number = value if as_json else _float(value, key)
            _require(isinstance(number, (int, float)) and math.isfinite(number),
                     f"{key} {value!r} is not a finite number")


def check_classify(text: str, as_json: bool) -> None:
    if as_json:
        fields = parse_pairs(text, CLASSIFY_KEYS + ("rationale",), True)
        rationale = fields["rationale"]
        _require(isinstance(rationale, list) and rationale,
                 "rationale is not a non-empty list")
    else:
        lines = text.splitlines()
        _require(len(lines) > 5 and lines[4] == "rationale:",
                 "classify table has no rationale block")
        fields = {}
        for line in lines[:4]:
            name, sep, value = line.partition(": ")
            _require(sep != "", f"classify line {line!r} is not `name: value`")
            fields[name] = value
        _require(tuple(fields) == CLASSIFY_KEYS,
                 f"classify keys {tuple(fields)} != {CLASSIFY_KEYS}")
        _require(all(line.startswith("  ") for line in lines[5:]),
                 "rationale lines are not indented")
    _require(fields["regime"] in CLASSIFY_REGIMES,
             f"unknown regime {fields['regime']!r}")
    for key in CLASSIFY_KEYS[1:]:
        value = fields[key] if as_json else _float(fields[key], key)
        _require(isinstance(value, (int, float)) and math.isfinite(value),
                 f"{key} {fields[key]!r} is not a finite number")


def check_trajectory(
    path: str,
    stdout: str,
    as_json: bool,
    steps: int,
    stride: int,
    reference: bool,
) -> None:
    """Check a simulate-r2 trajectory file against its stdout summary.

    The file has the header, strictly increasing t, non-decreasing x, and
    1 + steps // stride + touchdowns sample lines. Touchdowns are the
    samples where theta returns to exactly 0 after a flight; their number
    must equal stdout `cycles`, and the sampled peak over the last half of
    the cycles must agree with stdout `peak_angle`. ``reference`` also holds
    the peak to REFERENCE_PEAK.
    """
    fields = parse_pairs(stdout, SIMULATE_KEYS, as_json)
    cycle_peaks: list[float] = []
    lines = 0
    t = x = -math.inf
    theta_prev = 0.0
    flight_peak = 0.0
    with open(path, encoding="utf-8") as handle:
        _require(handle.readline() == TRAJECTORY_HEADER + "\n",
                 "trajectory header missing")
        for line in handle:
            parts = line.split(" ")
            _require(len(parts) == 5 and line.endswith("\n"),
                     f"trajectory line {lines + 2} does not have 5 fields")
            t_new = _float(parts[0], "t")
            theta = _float(parts[1], "th")
            x_new = _float(parts[4], "x")
            _require(t_new > t, f"t does not increase at line {lines + 2}")
            _require(x_new >= x, f"x decreases at line {lines + 2}")
            if theta > 0.0:
                flight_peak = max(flight_peak, theta)
            elif theta_prev > 0.0:
                cycle_peaks.append(flight_peak)
                flight_peak = 0.0
            t, x, theta_prev = t_new, x_new, theta
            lines += 1

    expected = 1 + steps // stride + len(cycle_peaks)
    _require(lines == expected,
             f"{lines} sample lines, expected 1 + {steps // stride} steps "
             f"+ {len(cycle_peaks)} touchdowns = {expected}")
    cycles = fields["cycles"] if as_json else _int(fields["cycles"], "cycles")
    _require(cycles == len(cycle_peaks),
             f"stdout cycles {cycles} != {len(cycle_peaks)} touchdowns in file")
    peak = fields["peak_angle"]
    if cycle_peaks:
        peak = peak if as_json else _float(peak, "peak_angle")
        _require(isinstance(peak, float), f"peak_angle {peak!r} missing")
        sampled = max(cycle_peaks[len(cycle_peaks) // 2:])
        _require(peak * (1.0 - PEAK_FILE_RTOL) <= sampled <= peak,
                 f"file peak {sampled!r} disagrees with stdout {peak!r}")
        if reference:
            _require(abs(peak / REFERENCE_PEAK - 1.0) <= REFERENCE_PEAK_RTOL,
                     f"reference peak {peak!r} is not within "
                     f"{REFERENCE_PEAK_RTOL} of {REFERENCE_PEAK!r}")
    else:
        _require(peak is None, f"peak_angle {peak!r} without any cycle")
        _require(not reference, "reference run has no cycle")
    mean_v_r = fields["mean_v_r"] if as_json else _float(fields["mean_v_r"], "mean_v_r")
    _require(mean_v_r == (x / t if t > 0.0 else 0.0),
             f"stdout mean_v_r {mean_v_r!r} != last x / t in file")


def check_sweep_csv(
    path: str,
    stdout: str,
    as_json: bool,
    parameter: str,
    points: int,
    statuses: frozenset[str],
) -> None:
    """Check a sweep CSV file against its stdout summary.

    One row per grid point in increasing order, statuses from the sweep
    status set, an objective exactly on `ok` rows, and a final argmax line
    that names the first best ok row and matches stdout.
    """
    fields = parse_pairs(stdout, SWEEP_KEYS, as_json)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    _require(lines[0] == SWEEP_HEADER, "sweep CSV header missing")
    _require(lines[-1] == "", "sweep CSV does not end in a newline")
    rows = lines[1:-2]
    _require(len(rows) == points, f"{len(rows)} CSV rows for {points} grid points")
    best_value = None
    best_objective = -math.inf
    previous = -math.inf
    for row in rows:
        parts = row.split(",")
        _require(len(parts) == 4, f"CSV row {row!r} does not have 4 fields")
        name, value, objective, status = parts
        _require(name == parameter, f"CSV row parameter {name!r} != {parameter!r}")
        value_f = _float(value, "value")
        _require(value_f > previous, "CSV grid values do not increase")
        previous = value_f
        _require(status in statuses, f"unknown sweep status {status!r}")
        _require((objective != "") == (status == "ok"),
                 f"objective {objective!r} does not fit status {status!r}")
        if status == "ok":
            objective_f = _float(objective, "objective")
            if objective_f > best_objective:
                best_objective, best_value = objective_f, value
    argmax_line = lines[-2]
    _require(argmax_line == f"# argmax={best_value or 'nan'}",
             f"argmax line {argmax_line!r} does not name the best ok row")
    reported_rows = fields["rows"] if as_json else _int(fields["rows"], "rows")
    _require(reported_rows == points, f"stdout rows {reported_rows} != {points}")
    argmax = fields["argmax"]
    if as_json and argmax is not None:
        argmax = repr(argmax)
    _require(argmax == best_value,
             f"stdout argmax {argmax!r} != CSV argmax {best_value!r}")


def check_sweep_result(result, grid: tuple[float, ...], statuses: frozenset[str]) -> None:
    """Check an in-process SweepResult for a grid whose first point is below
    lift-off, so it must read `no_cycles`."""
    rows = result.rows
    _require(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} grid points")
    _require(tuple(row.value for row in rows) == tuple(grid),
             "row values are not the grid in order")
    best = None
    for row in rows:
        _require(row.status in statuses, f"unknown sweep status {row.status!r}")
        if row.status == "ok":
            _require(isinstance(row.objective, float) and math.isfinite(row.objective)
                     and row.objective > 0.0,
                     f"ok row objective {row.objective!r} is not a positive number")
            if best is None or row.objective > best.objective:
                best = row
        else:
            _require(row.objective is None, f"{row.status} row has an objective")
    _require(rows[0].status == "no_cycles",
             f"grid point below lift-off reads {rows[0].status!r}")
    _require(best is not None, "no ok row")
    _require(result.argmax == best.value,
             f"argmax {result.argmax!r} is not the best ok row {best.value!r}")
