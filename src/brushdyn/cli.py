"""Command-line surface.

Four subcommands over a shared config file. Exit codes: 0 success,
2 usage, config or validation problem (a value past the float range
included), 3 resonance guard, 4 model-domain abort; `sweep.FAILURES` maps
each library error to its code. All output is deterministic: the same
config produces byte-identical results on every run.

`main` runs every command in one order: load the config, compute (a
`cmd_*` handler reads only the config and prints nothing), refuse a
result that overflowed, write `--out` if the command takes it, print to
stdout. Every failure comes before the write, so a run that fails leaves
`--out` untouched. A stdout closed by its reader is no failure: exit 0.
`simulate-r2` writes each block of at most
`regime2._BLOCK` samples as `regime2.stream`, the one regime-2 sampler,
yields it, and reports the last cycle's peak as `peak_angle`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import classify as classify_mod
from . import regime1, regime2, sweep as sweep_mod
from .config import ConfigError, RunConfig, load_config

EXIT_OK = 0
EXIT_CONFIG = 2

TRAJECTORY_HEADER = "t th thdot thddot x"
SWEEP_HEADER = "param,value,objective,status"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    return repr(value)


def _emit(pairs: list[tuple[str, object]], as_json: bool, separator: str) -> None:
    """Print `name<separator>value` lines, a list as indented lines under its
    name, or one JSON object."""
    if as_json:
        import json  # here, not at the top: every CLI start would pay for it
        print(json.dumps(dict(pairs), allow_nan=False))
        return
    for name, value in pairs:
        if isinstance(value, list):
            print(f"{name}{separator}".rstrip())
            for line in value:
                print(f"  {line}")
        else:
            print(f"{name}{separator}{_fmt(value)}")


def cmd_predict_r1(cfg: RunConfig) -> tuple:
    pairs = list(regime1.predict(cfg.brush, cfg.motor)._asdict().items())
    validity = regime1.regime1_validity(cfg.motor, cfg.robot)
    return pairs + [("regime1_valid", validity.valid), ("margin", validity.margin)], None


def cmd_simulate_r2(cfg: RunConfig) -> tuple:
    traj = regime2.stream(cfg.robot, cfg.motor, cfg.sim)  # raises before --out opens
    t, x = traj.end  # the last sample's

    def write(handle) -> None:
        handle.write(TRAJECTORY_HEADER + "\n")
        for t, theta, theta_dot, theta_ddot, x in traj.samples:  # one write per block
            if theta is None:  # at rest
                end = f" 0.0 0.0 0.0 {x!r}\n"
                handle.write(end.join(map(repr, t)) + end)
            else:
                end = f" {x!r}\n"
                handle.write("".join([f"{a!r} {b!r} {c!r} {d!r}{end}"
                                      for a, b, c, d in zip(t, theta, theta_dot, theta_ddot)]))

    # the steady peak, the last cycle's: flights from rest share one peak, and
    # a first flight from theta0 > 0 is the last cycle only when alone
    peak = traj.cycles[-1].peak if traj.cycles else None
    return [("cycles", len(traj.cycles)), ("peak_angle", peak),
            ("mean_v_r", x / t if t > 0.0 else 0.0)], write


def cmd_classify(cfg: RunConfig) -> tuple:
    report = classify_mod.classify(cfg.brush, cfg.motor, cfg.robot)
    pairs = report._asdict()
    pairs.update(regime=report.regime.value, rationale=list(report.rationale))
    return list(pairs.items()), None


def cmd_sweep(cfg: RunConfig) -> tuple:
    result = sweep_mod.run_sweep(cfg.sweep, cfg.brush, cfg.motor, cfg.robot)

    def write(handle) -> None:
        handle.write(SWEEP_HEADER + "\n")
        for row in result.rows:
            objective = "" if row.objective is None else repr(row.objective)
            handle.write(f"{result.parameter},{row.value!r},{objective},{row.status}\n")
        handle.write(f"# argmax={_fmt(result.argmax)}\n")

    return [("rows", len(result.rows)), ("argmax", result.argmax)], write


# Command -> (handler, config sections it needs, what --out holds or None
# when it writes no file, table separator between name and value, help text).
# A handler returns its (name, value) pairs and, when --out is taken, the
# function that writes the file body to an open handle.
_COMMANDS = {
    "predict-r1": (cmd_predict_r1, ("brush", "motor", "robot"), None, " ",
                   "flexible-brush closed-form prediction table"),
    "simulate-r2": (cmd_simulate_r2, ("robot", "motor", "sim"), "trajectory", " ",
                    "rigid-pivot hybrid simulation to a trajectory file"),
    "classify": (cmd_classify, ("brush", "motor", "robot"), None, ": ",
                 "operating-regime report"),
    "sweep": (cmd_sweep, ("sweep", "brush", "motor"), "CSV", " ",
              "parameter sweep to a CSV file"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brushdyn",
        description="Vibration-driven brushbot locomotion predictions.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, _, writes, _, help_text) in _COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        command.add_argument("--config", required=True, metavar="PATH",
                             help="run configuration file")
        command.add_argument("--json", action="store_true",
                             help="emit a single JSON object instead of a table")
        if writes is not None:
            command.add_argument("--out", required=True, metavar="PATH",
                                 help=f"output {writes} file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, sections, _, separator, _ = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        for name in sections:
            if getattr(cfg, name) is None:
                raise ConfigError(f"missing [{name}] section in config")
        pairs, write = handler(cfg)
        for name, value in pairs:  # JSON cannot carry inf or nan; the table exits alike
            if isinstance(value, float) and not math.isfinite(value):
                raise OverflowError(f"{name} is {value!r}")
        if write is not None:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                write(handle)
            pairs.append(("out", args.out))
        try:
            _emit(pairs, args.json, separator)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader left; the exit-time flush goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_OK
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except sweep_mod.FAILURE_TYPES as exc:
        _, code, label = sweep_mod.failure(exc)
        print(f"error: {label}{exc.args[-1]}", file=sys.stderr)  # not an errno tuple
        return code
    return EXIT_OK
