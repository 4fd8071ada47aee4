"""Design and frequency sweeps of one objective over a grid of one parameter.

A sweep evaluates one objective over a grid of one parameter while holding
everything else fixed. A point that raises an error in `FAILURES` (resonance
guard, model domain, no completed cycles, invalid parameters, overflow,
underflow) or gives a non-finite objective becomes a status-flagged row
instead of aborting the whole sweep: sweeps cross those boundaries on purpose.
The parameter must enter the objective: v_r_regime1 takes omega, alpha, l and
EI; v_r_regime2 omega; forced_amplitude_abs all five; k_theta alpha, l and EI.
Any other pair would give a constant column, and is a ValidationError.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import regime1, regime2
from .params import BrushParams, ModelDomainError, MotorParams, RobotParams
from .params import ValidationError, validated

STATUS_OK = "ok"
STATUS_RESONANCE = "resonance_guard"
STATUS_MODEL_DOMAIN = "model_domain"
STATUS_NO_CYCLES = "no_cycles"
STATUS_INVALID = "invalid"

# Error class -> (sweep row status, CLI exit code, stderr label). An error
# takes the entry of its most specific class here, so an OverflowError is not
# read as an underflow.
FAILURES: dict[type[Exception], tuple[str, int, str]] = {
    regime1.ResonanceError: (STATUS_RESONANCE, 3, "resonance: "),
    ModelDomainError: (STATUS_MODEL_DOMAIN, 4, "model domain: "),
    regime2.NoCompletedCycleError: (STATUS_NO_CYCLES, 2, ""),
    ValidationError: (STATUS_INVALID, 2, ""),
    OverflowError: (STATUS_INVALID, 2, "arithmetic overflow: "),
    ArithmeticError: (STATUS_INVALID, 2, "arithmetic underflow: "),
}
FAILURE_TYPES = tuple(FAILURES)

# Most points a start/stop/points range may ask for: the grid is built in
# memory before any point is checked.
MAX_POINTS = 10**6


def failure(exc: Exception) -> tuple[str, int, str]:
    """The FAILURES entry of an error that is an instance of FAILURE_TYPES."""
    return next(FAILURES[cls] for cls in type(exc).__mro__ if cls in FAILURES)


def _positive(value: float) -> bool:
    return 0.0 < value < math.inf


# Sweep parameter name -> (grid domain, apply(value, brush, motor) giving the
# brush and motor at that grid value).
PARAMETERS: dict[str, tuple[Callable[[float], bool], Callable]] = {
    # unchecked: _positive is MotorParams' speed check, and m's other fields are valid
    "omega": (_positive, lambda v, b, m: (
        b, tuple.__new__(MotorParams, (m.eccentric_mass, m.eccentricity, v)))),
    "alpha": (lambda v: 0.0 < v < math.pi / 2.0, lambda v, b, m: (b._replace(inclination=v), m)),
    "l": (_positive, lambda v, b, m: (b._replace(length=v), m)),
    "EI": (_positive, lambda v, b, m: (b._replace(young_modulus=v / b.second_area_moment), m)),
    "M_b": (_positive, lambda v, b, m: (b._replace(brush_mass=v), m)),
}


# Objective name -> (f(brush, motor, robot), the sweep parameters that enter f).
OBJECTIVES: dict[str, tuple[Callable[..., float], tuple[str, ...]]] = {
    "v_r_regime1": (lambda b, m, _: regime1.ground_speed(b, m), ("omega", "alpha", "l", "EI")),
    "v_r_regime2": (lambda b, m, r: regime2.steady_speed(r, m), ("omega",)),
    "forced_amplitude_abs": (lambda b, m, _: abs(regime1.forced_amplitude(b, m)),
                             ("omega", "alpha", "l", "EI", "M_b")),
    "k_theta": (lambda b, m, _: regime1.lumped_stiffness(b), ("alpha", "l", "EI")),
}


@validated
class SweepSpec(NamedTuple):
    """One swept parameter, its grid and the objective to evaluate."""

    parameter: str
    objective: str
    grid: tuple[float, ...]

    def _check(self) -> None:
        for kind, name, known in (("parameter", self.parameter, PARAMETERS),
                                  ("objective", self.objective, OBJECTIVES)):
            if name not in known:
                raise ValidationError(
                    f"unknown sweep {kind} {name!r}; expected one of {', '.join(known)}"
                )
        if len(self.grid) < 1:
            raise ValidationError("sweep grid must contain at least one value")
        domain, _ = PARAMETERS[self.parameter]
        for value in self.grid:
            if not domain(value):
                raise ValidationError(
                    f"grid value {value!r} out of domain for parameter "
                    f"{self.parameter!r}"
                )
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValidationError("sweep grid must be strictly increasing")
        if self.parameter not in OBJECTIVES[self.objective][1]:  # a constant column
            raise ValidationError(f"sweep parameter {self.parameter!r} does not enter "
                                  f"objective {self.objective!r}")

    @classmethod
    def from_range(cls, parameter: str, objective: str, start: float, stop: float,
                   points: int, spacing: str = "linear") -> "SweepSpec":
        """Build a grid of >= 2 points with linear or log spacing."""
        if points < 2:
            raise ValidationError("sweep range needs at least 2 points")
        if points > MAX_POINTS:
            raise ValidationError(f"sweep range needs at most {MAX_POINTS:g} points")
        if not stop > start:
            raise ValidationError("sweep range needs stop > start")
        if spacing == "linear":
            step = (stop - start) / (points - 1)
            grid = [start + i * step for i in range(points)]
        elif spacing == "log":
            if start <= 0.0:
                raise ValidationError("log spacing needs start > 0")
            if math.isinf(stop / start):
                cls(parameter, objective, (start, stop))  # an end out of domain is named first
                raise ValidationError(
                    f"log spacing from {start!r} to {stop!r} overflows: "
                    "stop / start exceeds the float range"
                )
            ratio = (stop / start) ** (1.0 / (points - 1))
            grid = [start * ratio**i for i in range(points)]
        else:
            raise ValidationError(
                f"unknown spacing {spacing!r}; expected linear or log"
            )
        grid[0], grid[-1] = start, stop  # as written: an inf step made grid[0] nan
        return cls(parameter=parameter, objective=objective, grid=tuple(grid))


class SweepRow(NamedTuple):
    value: float
    objective: float | None
    status: str


class SweepResult(NamedTuple):
    parameter: str
    objective: str
    rows: tuple[SweepRow, ...]
    argmax: float | None


def run_sweep(
    spec: SweepSpec,
    brush: BrushParams,
    motor: MotorParams,
    robot: RobotParams | None = None,
    sim: regime2.SimConfig | None = None,
) -> SweepResult:
    """Evaluate the objective at every grid point, flagging failed points.

    Rows come back in grid order; grid points are independent, so the result
    does not depend on evaluation order. argmax is the parameter value of the
    best ok row (the first of equal best rows), or None if no point evaluated.
    No objective reads sim: it stays only for bench/run.py's five-argument call.
    """
    if spec.objective == "v_r_regime2" and robot is None:
        raise ValidationError("objective v_r_regime2 needs robot parameters")
    _, apply = PARAMETERS[spec.parameter]
    # tuple.__new__ builds each SweepRow without its Python-level __new__
    evaluate, new = OBJECTIVES[spec.objective][0], tuple.__new__
    rows = []
    for value in spec.grid:
        try:
            objective = evaluate(*apply(value, brush, motor), robot)
            if not math.isfinite(objective):
                raise OverflowError(f"{spec.objective} is {objective!r}")
            rows.append(new(SweepRow, (value, objective, STATUS_OK)))
        except FAILURE_TYPES as exc:
            rows.append(new(SweepRow, (value, None, failure(exc)[0])))
    best = max((row for row in rows if row.status == STATUS_OK),
               key=lambda row: row.objective, default=None)
    return SweepResult(spec.parameter, spec.objective, tuple(rows),
                       None if best is None else best.value)
