"""Benchmark of brushdyn, measured from outside the package.

Run from the repository root with the standard library only:

    python3 bench/run.py --workload r2_sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5

The package is reached through its public functions (imported from src/)
and through `python -m brushdyn`; nothing under src/ is changed. Load comes
from this one process, closed loop, one op in flight, and never more than
one child process at a time, all on one CPU. One op is the unit of work a
user waits for: one sweep in r2_sweep, one command in r2_trajectory and
cli_reference. Untraced times are scaled to the reference host's unloaded
speed by a calibration kernel timed beside each op (see kernel_seconds).

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run (see
bench/README.md for what each layer metric should move). Every op's output
is checked; a failed check, an exception or a non-zero exit is a failed op.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_CFG = "configs/reference.cfg"
ALPHA_SWEEP_CFG = "configs/alpha_sweep.cfg"

WORKLOADS = ("r2_sweep", "r2_trajectory", "cli_reference")
# Set-up is repeated at even intervals through an untraced run and the
# median reported, so one slow import does not decide setup_s.
SETUP_REPEATS = 20
# Steps of the calibration kernel (see kernel_seconds), and its time on the
# unloaded reference host (2.0 GHz Xeon vCPU, Python 3.11.7). Times are
# reported at that host's speed.
KERNEL_STEPS = 4000
KERNEL_REFERENCE_S = 0.008
# Failure messages printed to stderr per run; the rest are only counted.
MAX_REPORTED_FAILURES = 5
# Sweep statuses reported as per-layer counts (brushdyn.sweep STATUS_*).
STATUSES = ("ok", "resonance_guard", "model_domain", "no_cycles", "invalid")
HOST_NOTE = (
    "reference host: 2 shared cores whose speed drifts with other tenants' "
    "load; only this benchmark's own processes are measured"
)


def kernel_seconds() -> float:
    """Seconds a fixed pure-Python kernel takes now: the float arithmetic,
    math calls and float formatting that make up the solver and writer.

    Other tenants of a shared host slow this process by up to ~2x for
    seconds to minutes at a time, and slow the kernel alike. Timing the
    kernel beside the work and scaling the work's time by the kernel's
    reference time over its measured time takes that load out, while any
    change in the program's own cost still shows in full.
    """
    start = time.perf_counter()
    x, v, lines = 0.1, 0.0, []
    for k in range(KERNEL_STEPS):
        v += (math.sin(1e-3 * k) - 3.0 * x) * 1e-3
        x += v * 1e-3
        lines.append(f"{k * 1e-5!r} {x!r} {v!r}\n")
    "".join(lines)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work scaled to the reference host's unloaded speed, from
    the kernel times taken just before and just after the work."""
    return seconds * KERNEL_REFERENCE_S * 2.0 / (before + after)


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so that the
    kernel and cli_reference's child processes run under the same load."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    """Environment for `python -m brushdyn`: the package is not installed,
    so it is found on PYTHONPATH=src."""
    return {**os.environ, "PYTHONPATH": "src"}


def import_package() -> dict:
    """Import the layer modules afresh, dropping any earlier import, so each
    set-up pays the package's import cost."""
    for name in [n for n in sys.modules if n == "brushdyn" or n.startswith("brushdyn.")]:
        del sys.modules[name]
    return {
        name: importlib.import_module(f"brushdyn.{name}")
        for name in spans.LAYERS + ("params",)
    }


def sweep_statuses(pkg: dict) -> frozenset[str]:
    """The row statuses brushdyn.sweep defines (its STATUS_* constants)."""
    sweep = pkg["sweep"]
    return frozenset(getattr(sweep, attr) for attr in dir(sweep) if attr.startswith("STATUS_"))


def reference_values() -> dict[str, dict[str, float]]:
    """The [brush], [robot] and [motor] sections of the shipped reference
    config."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(ROOT / REFERENCE_CFG, encoding="utf-8")
    return {
        section: {key: float(value) for key, value in parser.items(section)}
        for section in ("brush", "robot", "motor")
    }


def lift_off_speed(robot: dict[str, float], motor: dict[str, float]) -> float:
    """Motor speed above which the pivot moment m w^2 r w - M g w_G turns
    positive, so the rigid body can leave the ground, rad/s."""
    return math.sqrt(
        robot["body_mass"] * robot.get("gravity", 9.81) * robot["gravity_arm"]
        / (motor["eccentric_mass"] * motor["eccentricity"] * robot["forcing_arm"])
    )


def jitter(values: dict[str, float], rng: random.Random, spread: float,
           keys: tuple[str, ...]) -> dict[str, float]:
    return {
        key: value * rng.uniform(1.0 - spread, 1.0 + spread) if key in keys else value
        for key, value in values.items()
    }


ROBOT_DRAWN = ("body_mass", "pivot_inertia", "forcing_arm", "gravity_arm", "step_height")


class InProcess:
    """A workload whose ops call the package in this process.

    ``cycle`` ops make one pass over the inputs. ``last_bytes`` is what the
    last op wrote. Tracing wraps the package in this process.
    """

    cycle = 1
    last_bytes = 0

    def trace_begin(self, tracer: spans.Tracer) -> None:
        tracer.install()

    def trace_end(self, tracer: spans.Tracer) -> None:
        tracer.uninstall()

    def traced_work(self) -> tuple[list[list[spans.Span]], Counter, dict[str, list[float]]]:
        """Spans and counts recorded outside ``tracer``, and probe timings."""
        return [], Counter(), {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class R2Sweep(InProcess):
    """Frequency sweeps of the regime-2 ground speed, in process.

    Each draw jitters the reference robot and motor and sweeps v_r_regime2
    over a log omega grid from LOW to HIGH times the draw's lift-off speed,
    so the first rows are `no_cycles` and the rest `ok`. t_end and dt follow
    the grid ends, so every grid point passes the t_end >= 5T and
    dt <= T/200 guards. Fixing the grid relative to lift-off fixes the
    dimensionless problem, so every draw costs the same number of steps and
    the op time does not depend on the seed.
    """

    name = "r2_sweep"
    DRAWS = 6
    cycle = DRAWS
    POINTS = 10
    LOW, HIGH = 0.8, 2.5
    # Forcing periods covered at the lowest grid speed, and samples per
    # period at the highest.
    PERIODS = 8
    SAMPLES_PER_PERIOD = 250

    def __init__(self, pkg: dict, seed: int):
        self.pkg = pkg
        self.statuses = sweep_statuses(pkg)
        rng = random.Random(seed)
        reference = reference_values()
        params = pkg["params"]
        regime2 = pkg["regime2"]
        self.brush = params.BrushParams(**reference["brush"])
        self.draws = []
        for _ in range(self.DRAWS):
            robot = jitter(reference["robot"], rng, 0.2, ROBOT_DRAWN)
            motor = jitter(reference["motor"], rng, 0.2, ("eccentric_mass", "eccentricity"))
            lift = lift_off_speed(robot, motor)
            low, high = self.LOW * lift, self.HIGH * lift
            spec = pkg["sweep"].SweepSpec.from_range(
                "omega", "v_r_regime2", low, high, self.POINTS, "log"
            )
            sim = regime2.SimConfig(
                t_end=self.PERIODS * 2.0 * math.pi / low,
                dt=2.0 * math.pi / high / self.SAMPLES_PER_PERIOD,
            )
            self.draws.append(
                (spec, params.RobotParams(**robot), params.MotorParams(**motor), sim)
            )

    def op(self, index: int):
        spec, robot, motor, sim = self.draws[index % len(self.draws)]
        result = self.pkg["sweep"].run_sweep(spec, self.brush, motor, robot, sim)
        return lambda: checks.check_sweep_result(result, spec.grid, self.statuses)


class R2Trajectory(InProcess):
    """Dense regime-2 trajectories written by the CLI, in process.

    Draw 0 is the reference robot and motor; the others jitter them and set
    the motor speed to the same multiple of lift-off speed as the reference,
    which keeps the share of time in flight (and so the digits written) the
    same. Each run covers PERIODS forcing periods at SAMPLES_PER_PERIOD
    steps per period (dt ~1e-5 s at the reference speed), every step
    recorded, so every draw writes ~20k lines.
    """

    name = "r2_trajectory"
    DRAWS = 6
    cycle = DRAWS
    PERIODS = 10
    SAMPLES_PER_PERIOD = 2000

    def __init__(self, pkg: dict, seed: int):
        self.pkg = pkg
        rng = random.Random(seed)
        reference = reference_values()
        speed_over_lift = reference["motor"]["speed"] / lift_off_speed(
            reference["robot"], reference["motor"]
        )
        self.dir = WORK / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.out = str(self.dir / "trajectory.txt")
        self.draws = []
        for index in range(self.DRAWS):
            robot, motor = reference["robot"], reference["motor"]
            if index:
                robot = jitter(robot, rng, 0.15, ROBOT_DRAWN)
                motor = jitter(motor, rng, 0.15, ("eccentric_mass", "eccentricity"))
                motor["speed"] = speed_over_lift * lift_off_speed(robot, motor)
            dt = 2.0 * math.pi / motor["speed"] / self.SAMPLES_PER_PERIOD
            t_end = self.PERIODS * self.SAMPLES_PER_PERIOD * dt
            path = self.dir / f"draw{index}.cfg"
            sections = {"robot": robot, "motor": motor, "sim": {"t_end": t_end, "dt": dt}}
            path.write_text(
                "".join(
                    f"[{section}]\n" + "".join(f"{k} = {v!r}\n" for k, v in values.items())
                    for section, values in sections.items()
                ),
                encoding="utf-8",
            )
            steps = math.floor(t_end / dt + 1e-9)
            self.draws.append((str(path), steps, index == 0))

    def op(self, index: int):
        path, steps, reference = self.draws[index % len(self.draws)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.pkg["cli"].main(["simulate-r2", "--config", path, "--out", self.out])

        def verify() -> None:
            text = stdout.getvalue()
            self.last_bytes = len(text.encode()) + os.path.getsize(self.out)
            if code != 0:
                raise checks.CheckError(f"simulate-r2 exited {code}")
            checks.check_trajectory(self.out, text, False, steps, 1, reference)

        return verify


class CliReference:
    """The four CLI commands on the shipped configs, one subprocess each.

    Ops cycle through the commands in a fixed order, so every set-up's
    warm-up op is the same command whatever the seed; the seed decides
    whether each op passes --json. The first output
    of each distinct command line is checked and kept; every repeat must
    match it byte for byte, stdout and --out file alike.
    """

    name = "cli_reference"
    COMMANDS = ("predict-r1", "classify", "simulate-r2", "sweep")
    cycle = len(COMMANDS)

    def __init__(self, pkg: dict, seed: int):
        self.rng = random.Random(seed)
        self.statuses = sweep_statuses(pkg)
        sweep_cfg = configparser.ConfigParser(interpolation=None)
        sweep_cfg.read(ROOT / ALPHA_SWEEP_CFG, encoding="utf-8")
        self.sweep_parameter = sweep_cfg.get("sweep", "parameter")
        self.sweep_points = sweep_cfg.getint("sweep", "points")
        sim_cfg = configparser.ConfigParser(interpolation=None)
        sim_cfg.read(ROOT / REFERENCE_CFG, encoding="utf-8")
        t_end, dt = sim_cfg.getfloat("sim", "t_end"), sim_cfg.getfloat("sim", "dt")
        self.steps = math.floor(t_end / dt + 1e-9)
        self.stride = sim_cfg.getint("sim", "record_stride")
        work = WORK / self.name
        work.mkdir(parents=True, exist_ok=True)
        rel = work.relative_to(ROOT)
        self.outs = {
            "simulate-r2": str(rel / "trajectory.txt"),
            "sweep": str(rel / "sweep.csv"),
        }
        self.spans_path = str(rel / "spans.json")
        self.as_json: list[bool] = []
        self.expected: dict[tuple[str, bool], tuple[bytes, bytes]] = {}
        self.traced = False
        self.child_spans: list[list[spans.Span]] = []
        self.child_counts: Counter = Counter()
        self.probes: dict[str, list[float]] = {"bare": [], "import": []}
        self.last_bytes = 0

    def _command(self, index: int) -> tuple[str, bool]:
        while len(self.as_json) <= index:
            self.as_json.append(self.rng.random() < 0.5)
        return self.COMMANDS[index % self.cycle], self.as_json[index]

    def args(self, command: str, as_json: bool) -> list[str]:
        config = ALPHA_SWEEP_CFG if command == "sweep" else REFERENCE_CFG
        args = [command, "--config", config]
        if command in self.outs:
            args += ["--out", self.outs[command]]
        return args + (["--json"] if as_json else [])

    def op(self, index: int):
        key = self._command(index)
        command, as_json = key
        if self.traced:
            (ROOT / self.spans_path).unlink(missing_ok=True)
            head = [sys.executable, str(Path(__file__).with_name("spans.py")), self.spans_path]
        else:
            head = [sys.executable, "-m", "brushdyn"]
        done = subprocess.run(
            head + self.args(command, as_json),
            cwd=ROOT, env=child_env(), capture_output=True, check=False,
        )

        def verify() -> None:
            out = self.outs.get(command)
            out_bytes = (ROOT / out).read_bytes() if out else b""
            self.last_bytes = len(done.stdout) + len(out_bytes)
            if self.traced:
                with open(ROOT / self.spans_path, encoding="utf-8") as handle:
                    dumped = json.load(handle)
                self.child_spans.append([spans.Span(*item) for item in dumped["spans"]])
                self.child_counts.update(dumped["counts"])
            if done.returncode != 0:
                raise checks.CheckError(
                    f"{command} exited {done.returncode}: {done.stderr.decode(errors='replace')}"
                )
            if key in self.expected:
                if self.expected[key] != (done.stdout, out_bytes):
                    raise checks.CheckError(f"{command} output differs from its first run")
                return
            text = done.stdout.decode("utf-8")
            if command == "predict-r1":
                checks.check_predict_r1(text, as_json)
            elif command == "classify":
                checks.check_classify(text, as_json)
            elif command == "simulate-r2":
                checks.check_trajectory(str(ROOT / out), text, as_json,
                                        self.steps, self.stride, True)
            else:
                checks.check_sweep_csv(str(ROOT / out), text, as_json,
                                       self.sweep_parameter, self.sweep_points,
                                       self.statuses)
            self.expected[key] = (done.stdout, out_bytes)

        return verify

    def trace_begin(self, tracer: spans.Tracer) -> None:
        """Time a bare interpreter and one that imports brushdyn.cli, then
        send the next ops through bench/spans.py."""
        for code, key in (("pass", "bare"), ("import brushdyn.cli", "import")):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                           check=True)
            self.probes[key].append(time.perf_counter() - start)
        self.traced = True

    def trace_end(self, tracer: spans.Tracer) -> None:
        self.traced = False

    def traced_work(self):
        return self.child_spans, self.child_counts, self.probes

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOAD_TYPES = {cls.name: cls for cls in (R2Sweep, R2Trajectory, CliReference)}


class Tally:
    """Runs ops and keeps their times and failures.

    An op is ``op(index)``, which does the work and returns a verify
    callable; only the work is timed. An exception from either counts the
    op as failed and the run goes on. A calibrated tally times the kernel
    before each op, for ``scaled``.
    """

    def __init__(self, calibrated: bool = False):
        self.durations: list[float] = []
        self.ok: list[bool] = []
        self.messages: list[str] = []
        self.kernel: list[float] | None = [] if calibrated else None

    def run(self, op, index: int) -> None:
        if self.kernel is not None:
            self.kernel.append(kernel_seconds())
        start = time.perf_counter()
        try:
            verify = op(index)
            self.durations.append(time.perf_counter() - start)
            verify()
        except Exception as exc:  # noqa: BLE001 - a failed op must not end the run
            if len(self.durations) == len(self.ok):
                self.durations.append(time.perf_counter() - start)
            self.ok.append(False)
            if len(self.messages) < MAX_REPORTED_FAILURES:
                self.messages.append(f"op {index}: {type(exc).__name__}: {exc}")
            return
        self.ok.append(True)

    def merge(self, other: "Tally") -> None:
        self.durations += other.durations
        self.ok += other.ok
        self.messages = (self.messages + other.messages)[:MAX_REPORTED_FAILURES]

    def scaled(self) -> list[float]:
        """Op times at the reference host's speed, from the kernel times
        taken before each op and after the last."""
        kernel = self.kernel + [kernel_seconds()]
        return [at_reference_speed(d, kernel[i], kernel[i + 1])
                for i, d in enumerate(self.durations)]

    def successful(self, durations: list[float]) -> list[float]:
        """The times of the successful ops only, so an op that fails early
        cannot pass for a fast one."""
        return [d for d, ok in zip(durations, self.ok) if ok]

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


class RunError(Exception):
    """The workload could not be set up, or no op succeeded; the run gives
    no result."""


def set_up(name: str, seed: int):
    """Import the package, generate the inputs and run one warm-up op.

    Returns the workload and the seconds this took.
    """
    start = time.perf_counter()
    try:
        pkg = import_package()
        workload = WORKLOAD_TYPES[name](pkg, seed)
    except Exception as exc:  # noqa: BLE001 - reported as a set-up failure
        raise RunError(f"set-up failed: {type(exc).__name__}: {exc}") from exc
    warm_up = Tally()
    warm_up.run(workload.op, 0)
    if warm_up.failed:
        raise RunError(f"set-up failed: warm-up op failed: {warm_up.messages[0]}")
    return workload, time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it,
    and that percentile; the maximum when there are ten samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(name: str, seed: int, seconds: float):
    """Run ops closed loop for ``seconds``, setting up again between cycles
    of ops at even intervals; the extra set-ups are only timed, and the ops
    keep using the first one's workload."""
    setup_wall, setup_times = [], []

    def timed_set_up():
        before = kernel_seconds()
        workload, setup_s = set_up(name, seed)
        setup_wall.append(setup_s)
        setup_times.append(at_reference_speed(setup_s, before, kernel_seconds()))
        return workload

    workload = timed_set_up()
    tally = Tally(calibrated=True)
    index = 0
    start = time.perf_counter()
    deadline = start + seconds
    while index == 0 or time.perf_counter() < deadline:
        due = start + len(setup_times) * seconds / SETUP_REPEATS
        if index % workload.cycle == 0 and time.perf_counter() >= due:
            timed_set_up()
        tally.run(workload.op, index)
        index += 1
    scaled = tally.scaled()
    latencies = tally.successful(scaled)
    if not latencies:
        raise RunError(f"no op succeeded: {tally.messages[0]}")
    ok = tally.attempted - tally.failed
    tail_s, percentile = tail(latencies)
    wall = tally.successful(tally.durations)
    op_s = sum(scaled)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ok / op_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_ratio": (ok / tally.attempted, "ratio"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups; "
                   f"wall clock {statistics.median(setup_wall):.4g} s",
        "ops_per_s": f"{ok} successful ops over {op_s:.1f} s of op time; "
                     f"wall clock {ok / sum(tally.durations):.4g}/s",
        "op_p50_ms": f"median of {len(latencies)} successful ops; "
                     f"wall clock {statistics.median(wall) * 1e3:.4g} ms",
        "op_tail_ms": f"p{percentile:.1f} of {len(latencies)} successful ops; "
                      f"wall clock {tail(wall)[0] * 1e3:.4g} ms",
        "ok_ratio": f"{tally.failed} failed of {tally.attempted} attempted",
    }
    return tally, metrics, notes


def traced(workload, seconds: float):
    """Alternate untraced and traced passes over the same cycle of ops until
    ``seconds`` have passed (at least one pair). The untraced passes give
    the tracing overhead; the traced ones the per-layer metrics, per op."""
    untraced_tally, traced_tally = Tally(), Tally()
    tracer = spans.Tracer()
    bytes_written = 0
    cycles = 0
    deadline = time.perf_counter() + seconds
    while cycles == 0 or time.perf_counter() < deadline:
        first = cycles * workload.cycle
        indices = range(first, first + workload.cycle)
        for index in indices:
            untraced_tally.run(workload.op, index)
        workload.trace_begin(tracer)
        try:
            for index in indices:
                traced_tally.run(workload.op, index)
                bytes_written += workload.last_bytes
        finally:
            workload.trace_end(tracer)
        cycles += 1

    ops = traced_tally.attempted
    child_spans, child_counts, probes = workload.traced_work()
    span_lists = [tracer.spans, *child_spans]
    counts = tracer.counts + child_counts
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for span_list in span_lists:
        for span, own in zip(span_list, spans.self_times(span_list)):
            self_s[span.name] += own
            calls[span.name] += 1
    layer_s = sum(self_s.values())
    op_s = sum(traced_tally.durations)

    process_start = import_s = 0.0
    if probes:
        process_start = statistics.median(probes["bare"])
        import_s = statistics.median(probes["import"]) - process_start
        layer_s += ops * (process_start + import_s)

    def regime1(table: Counter) -> float:
        return sum(v for name, v in table.items() if name.startswith("regime1."))

    rows = counts["sweep.rows"]
    metrics = {
        "regime2.simulate.self_s": (self_s["regime2.simulate"] / ops, "s/op"),
        "regime2.simulate.calls": (calls["regime2.simulate"] / ops, "count/op"),
        "regime2.simulate.samples": (counts["regime2.simulate.samples"] / ops, "count/op"),
        "regime2.simulate.cycles": (counts["regime2.simulate.cycles"] / ops, "count/op"),
        "regime2.simulate.steps": (counts["regime2.simulate.steps"] / ops, "count/op"),
        "sweep.run_sweep.self_s": (self_s["sweep.run_sweep"] / ops, "s/op"),
        "sweep.rows": (rows / ops, "count/op"),
    }
    for status in STATUSES:
        metrics[f"sweep.status.{status}"] = (counts[f"sweep.status.{status}"] / ops, "count/op")
    metrics.update({
        "sweep.ok_ratio": (counts["sweep.status.ok"] / rows if rows else 0.0, "ratio"),
        "cli.main.self_s": (self_s["cli.main"] / ops, "s/op"),
        "cli.bytes_written": (bytes_written / ops, "B/op"),
        "cli.process_start_s": (process_start, "s/op"),
        "cli.import_s": (import_s, "s/op"),
        "config.load_config.self_s": (self_s["config.load_config"] / ops, "s/op"),
        "config.load_config.calls": (calls["config.load_config"] / ops, "count/op"),
        "regime1.self_s": (regime1(self_s) / ops, "s/op"),
        "regime1.calls": (regime1(calls) / ops, "count/op"),
        "classify.classify.self_s": (self_s["classify.classify"] / ops, "s/op"),
        "classify.classify.calls": (calls["classify.classify"] / ops, "count/op"),
        "trace.overhead_ratio": (op_s / sum(untraced_tally.durations), "ratio"),
        "trace.accounted_ratio": (layer_s / op_s, "ratio"),
    })
    notes = {
        "trace.overhead_ratio": f"{cycles} cycles of {workload.cycle} ops, traced over untraced",
        "trace.accounted_ratio": "layer self time (plus process start and import) over op time",
    }
    untraced_tally.merge(traced_tally)
    return untraced_tally, metrics, notes


def run_metadata(seed: int) -> dict:
    meta = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_rev": "unknown",
        "git_dirty": None,
        "seed": seed,
        "note": HOST_NOTE,
    }
    if (ROOT / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout
        try:
            meta["git_rev"] = git("rev-parse", "HEAD").strip()
            meta["git_dirty"] = bool(git("status", "--porcelain").strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return meta


def run_all(args: argparse.Namespace) -> int:
    """Run every workload untraced and traced, each in its own process."""
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, check=False,
            )
            worst = max(worst, done.returncode)
    return worst


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "brushdyn", ROOT / REFERENCE_CFG, ROOT / ALPHA_SWEEP_CFG)
               if not p.exists()]
    if missing:
        print(f"error: {missing[0]} not found; run from a brushdyn checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    try:
        if args.trace:
            tally, metrics, notes = traced(set_up(args.workload, args.seed)[0], args.seconds)
        else:
            tally, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for message in tally.messages:
        print(f"failed {message}", file=sys.stderr)
    print(f"# brushdyn benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# meta {json.dumps(run_metadata(args.seed))}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
