"""Run configuration files.

Flat sectioned key=value text (configparser syntax). Every key is checked
against the schema and unknown keys are fatal: a silently ignored typo in a
physics parameter is worse than a hard error. The keys of [brush], [motor],
[robot] and [sim] are the fields of their parameter types: fields without a
default are required, the others optional.
"""

from __future__ import annotations

import configparser
from typing import NamedTuple

from .params import BrushParams, MotorParams, RobotParams
from .regime2 import SimConfig
from .sweep import SweepSpec


class ConfigError(ValueError):
    """The configuration file is structurally broken."""


# Parameter sections and the type each builds; [sweep] is parsed on its own.
_SECTIONS = {
    "brush": BrushParams,
    "motor": MotorParams,
    "robot": RobotParams,
    "sim": SimConfig,
}


class RunConfig(NamedTuple):
    brush: BrushParams | None = None
    motor: MotorParams | None = None
    robot: RobotParams | None = None
    sim: SimConfig | None = None
    sweep: SweepSpec | None = None


def _check_keys(section: str, present: set[str], required: set[str], optional: set[str]) -> None:
    unknown = present - required - optional
    if unknown:
        raise ConfigError(
            f"unknown key {sorted(unknown)[0]!r} in [{section}]"
        )
    missing = required - present
    if missing:
        raise ConfigError(
            f"missing key {sorted(missing)[0]!r} in [{section}]"
        )


def _number(section: str, key: str, raw: str, integer: bool = False) -> float | int:
    try:
        return int(raw) if integer else float(raw)
    except ValueError:
        kind = "an integer" if integer else "a number"
        raise ConfigError(
            f"value {raw!r} for {key!r} in [{section}] is not {kind}"
        ) from None


def _build(section: str, cls: type, items: dict[str, str]):
    """An instance of cls from its section's items, converted in field order:
    a field with an int default takes an integer, every other a float (the
    annotations are unevaluated ForwardRefs)."""
    defaults = cls._field_defaults
    _check_keys(section, set(items), set(cls._fields) - set(defaults), set(defaults))
    return cls(**{
        name: _number(section, name, items[name], type(defaults.get(name)) is int)
        for name in cls._fields
        if name in items
    })


def _build_sweep(items: dict[str, str]) -> SweepSpec:
    _check_keys(
        "sweep",
        set(items),
        {"parameter", "objective"},
        {"grid", "start", "stop", "points", "spacing"},
    )
    parameter = items["parameter"]
    objective = items["objective"]
    range_keys = {"start", "stop", "points"} & set(items)
    if "grid" in items:
        if range_keys or "spacing" in items:
            raise ConfigError(
                "[sweep] takes either grid= or start/stop/points, not both"
            )
        values = [
            _number("sweep", "grid", part)
            for part in items["grid"].split(",")
            if part.strip()
        ]
        return SweepSpec(parameter=parameter, objective=objective, grid=tuple(values))
    if range_keys != {"start", "stop", "points"}:
        raise ConfigError(
            "[sweep] needs grid= or all of start=, stop=, points="
        )
    return SweepSpec.from_range(
        parameter=parameter,
        objective=objective,
        start=_number("sweep", "start", items["start"]),
        stop=_number("sweep", "stop", items["stop"]),
        points=_number("sweep", "points", items["points"], integer=True),
        spacing=items.get("spacing", "linear"),
    )


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file; every present section is built."""
    # no default section: a [DEFAULT] header is an ordinary section, keys or not
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from None

    if parser.has_section("DEFAULT"):
        raise ConfigError("[DEFAULT] section is not supported")
    for section in parser.sections():
        if section not in _SECTIONS and section != "sweep":
            raise ConfigError(f"unknown section [{section}]")

    def items(section: str) -> dict[str, str]:
        return {key: value.strip() for key, value in parser.items(section)}

    built = {
        section: _build(section, cls, items(section))
        for section, cls in _SECTIONS.items()
        if parser.has_section(section)
    }
    if parser.has_section("sweep"):
        built["sweep"] = _build_sweep(items("sweep"))
    return RunConfig(**built)
