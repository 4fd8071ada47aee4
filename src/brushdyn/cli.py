"""Command-line surface.

Four subcommands over a shared config file. Exit codes: 0 success,
2 config or validation problem (arithmetic overflow included), 3 resonance
guard, 4 model-domain abort.
All output is deterministic: the same config produces byte-identical
results on every run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import classify as classify_mod
from . import regime1, regime2, sweep as sweep_mod
from .config import ConfigError, RunConfig, load_config
from .params import ModelDomainError, ValidationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESONANCE = 3
EXIT_MODEL_DOMAIN = 4

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


def _require_sections(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"missing [{name}] section in config")


def _require_finite(pairs: list[tuple[str, object]]) -> None:
    """Refuse a result that overflowed to inf or nan before printing any of
    it: JSON cannot carry one, and the table form exits the same way."""
    for name, value in pairs:
        if isinstance(value, float) and not math.isfinite(value):
            raise OverflowError(f"{name} is {value!r}")


def _emit(pairs: list[tuple[str, object]], as_json: bool) -> None:
    _require_finite(pairs)
    if as_json:
        print(json.dumps(dict(pairs), allow_nan=False))
    else:
        for name, value in pairs:
            print(f"{name} {_fmt(value)}")


def cmd_predict_r1(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    _require_sections(cfg, "brush", "motor", "robot")
    prediction = regime1.predict(cfg.brush, cfg.motor)
    validity = regime1.regime1_validity(cfg.motor, cfg.robot)
    pairs = [
        ("k_theta", prediction.k_theta),
        ("I_theta", prediction.I_theta),
        ("omega_n", prediction.omega_n),
        ("t_bar", prediction.t_bar),
        ("omega_star", regime1.optimal_motor_speed(cfg.brush)),
        ("theta_hat", prediction.theta_hat),
        ("delta", prediction.delta),
        ("v_r", prediction.v_r),
        ("regime1_valid", validity.valid),
        ("margin", validity.margin),
    ]
    _emit(pairs, args.json)
    return EXIT_OK


def cmd_simulate_r2(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ConfigError("simulate-r2 needs --out PATH for the trajectory file")
    cfg = load_config(args.config)
    _require_sections(cfg, "robot", "motor", "sim")
    traj = regime2.simulate(cfg.robot, cfg.motor, cfg.sim)

    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(TRAJECTORY_HEADER + "\n")
        # x changes only at touchdowns (simulate reuses one float object
        # between them), so its text is formatted once per cycle.
        last_x = x_text = None
        for t, theta, theta_dot, theta_ddot, x in traj.samples:
            if x is not last_x:
                last_x, x_text = x, repr(x)
            handle.write(f"{t!r} {theta!r} {theta_dot!r} {theta_ddot!r} {x_text}\n")

    cycles = len(traj.cycle_peaks)
    peak = regime2.peak_angle(traj) if cycles else None
    last = traj.samples[-1]
    mean_v_r = last.x / last.t if last.t > 0.0 else 0.0
    _emit(
        [
            ("cycles", cycles),
            ("peak_angle", peak),
            ("mean_v_r", mean_v_r),
            ("out", args.out),
        ],
        args.json,
    )
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    _require_sections(cfg, "brush", "motor", "robot")
    report = classify_mod.classify(cfg.brush, cfg.motor, cfg.robot)
    scores = [
        ("lift_ratio", report.lift_ratio),
        ("stiffness_score", report.stiffness_score),
        ("alpha_margin", report.alpha_margin),
    ]
    _require_finite(scores)
    if args.json:
        payload = {"regime": report.regime.value, **dict(scores),
                   "rationale": list(report.rationale)}
        print(json.dumps(payload, allow_nan=False))
    else:
        print(f"regime: {report.regime.value}")
        for name, value in scores:
            print(f"{name}: {value!r}")
        print("rationale:")
        for line in report.rationale:
            print(f"  {line}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ConfigError("sweep needs --out PATH for the CSV file")
    cfg = load_config(args.config)
    _require_sections(cfg, "sweep", "brush", "motor")
    if cfg.sweep.objective == "v_r_regime2":
        _require_sections(cfg, "robot", "sim")
    result = sweep_mod.run_sweep(cfg.sweep, cfg.brush, cfg.motor, cfg.robot, cfg.sim)

    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(SWEEP_HEADER + "\n")
        for row in result.rows:
            objective = "" if row.objective is None else repr(row.objective)
            handle.write(f"{result.parameter},{row.value!r},{objective},{row.status}\n")
        handle.write(f"# argmax={_fmt(result.argmax)}\n")

    _emit(
        [
            ("rows", len(result.rows)),
            ("argmax", result.argmax),
            ("out", args.out),
        ],
        args.json,
    )
    return EXIT_OK


_COMMANDS = {
    "predict-r1": cmd_predict_r1,
    "simulate-r2": cmd_simulate_r2,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="run configuration file")
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON object instead of a table")
    writes_file = argparse.ArgumentParser(add_help=False)
    writes_file.add_argument("--out", metavar="PATH", default=None,
                             help="output file (simulate-r2 trajectory, sweep CSV)")

    parser = argparse.ArgumentParser(
        prog="brushdyn",
        description="Vibration-driven brushbot locomotion predictions.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    commands.add_parser("predict-r1", parents=[common],
                        help="flexible-brush closed-form prediction table")
    commands.add_parser("simulate-r2", parents=[common, writes_file],
                        help="rigid-pivot hybrid simulation to a trajectory file")
    commands.add_parser("classify", parents=[common],
                        help="operating-regime report")
    commands.add_parser("sweep", parents=[common, writes_file],
                        help="parameter sweep to a CSV file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        print(f"error: arithmetic overflow: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except regime1.ResonanceError as exc:
        print(f"error: resonance: {exc}", file=sys.stderr)
        return EXIT_RESONANCE
    except ModelDomainError as exc:
        print(f"error: model domain: {exc}", file=sys.stderr)
        return EXIT_MODEL_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
