"""Parameter validation and the rotating-mass force amplitude."""

import inspect
import math
from fractions import Fraction

import pytest

from brushdyn import (
    BrushParams,
    MotorParams,
    RobotParams,
    SimConfig,
    SweepSpec,
    ValidationError,
)


class TestBrushValidation:
    def test_interior_point_accepted(self):
        b = BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)
        assert b.flexural_rigidity == 2e9 * 1e-12

    def test_alpha_vertical_rejected(self):
        with pytest.raises(ValidationError, match=r"alpha out of \(0, pi/2\)"):
            BrushParams(2e9, 1e-12, 0.02, math.pi / 2, 1e-3)

    def test_alpha_horizontal_rejected(self):
        with pytest.raises(ValidationError, match=r"alpha out of \(0, pi/2\)"):
            BrushParams(2e9, 1e-12, 0.02, 0.0, 1e-3)

    @pytest.mark.parametrize(
        "field", ["young_modulus", "second_area_moment", "length", "brush_mass"]
    )
    def test_nonpositive_fields_rejected(self, field):
        good = dict(
            young_modulus=2e9,
            second_area_moment=1e-12,
            length=0.02,
            inclination=0.6,
            brush_mass=1e-3,
        )
        for bad in (0.0, -1.0):
            with pytest.raises(ValidationError, match=field):
                BrushParams(**{**good, field: bad})

    def test_immutable(self):
        b = BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3)
        with pytest.raises(AttributeError):
            b.length = 0.05


class TestEveryConstructionValidates:
    """A record is checked however it is built: by its constructor, by
    _replace from a valid record, or by _make from an iterable."""

    @pytest.mark.parametrize(
        "good, field, bad, message",
        [
            (BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3), "length", -1.0,
             "length must be > 0"),
            (MotorParams(1e-3, 2e-3, 300.0), "speed", 0.0, "speed must be > 0"),
            (RobotParams(0.05, 2e-5, 0.03, 0.003, 0.04), "gravity", -9.81,
             "gravity must be > 0"),
            (SimConfig(0.5, 1e-4), "record_stride", 0,
             "record_stride must be a positive integer"),
            (SweepSpec("alpha", "k_theta", (0.3, 0.6)), "grid", (0.6, 0.3),
             "sweep grid must be strictly increasing"),
            (SweepSpec("alpha", "k_theta", (0.3, 0.6)), "parameter", "M_b",
             "sweep parameter 'M_b' does not enter objective 'k_theta'"),
            (BrushParams(2e9, 1e-12, 0.02, 0.6, 1e-3), "young_modulus", math.inf,
             "young_modulus must be finite"),
            (MotorParams(1e-3, 2e-3, 300.0), "eccentricity", math.nan,
             "eccentricity must be finite"),
            (RobotParams(0.05, 2e-5, 0.03, 0.003, 0.04), "gravity_arm", -math.inf,
             "gravity_arm must be finite"),
            (SimConfig(0.5, 1e-4), "t_end", math.inf, "t_end must be finite"),
        ],
        ids=lambda value: type(value).__name__ if hasattr(value, "_fields") else None,
    )
    def test_bad_value_raises_on_every_path(self, good, field, bad, message):
        cls = type(good)
        values = [bad if name == field else value for name, value in zip(cls._fields, good)]
        builds = {
            "positional": lambda: cls(*values),
            "keyword": lambda: cls(**dict(zip(cls._fields, values))),
            "_replace": lambda: good._replace(**{field: bad}),
            "_make": lambda: cls._make(values),
        }
        for path, build in builds.items():
            with pytest.raises(ValidationError, match=message):
                build()
                pytest.fail(f"{path} accepted {field}={bad!r}")
        # the valid record still round-trips through both
        assert type(good._replace()) is cls and good._replace() == good
        assert type(cls._make(good)) is cls and cls._make(good) == good

    @pytest.mark.parametrize(
        "cls", [BrushParams, MotorParams, RobotParams, SimConfig, SweepSpec],
        ids=lambda cls: cls.__name__,
    )
    def test_constructor_signature_names_the_fields(self, cls):
        params = inspect.signature(cls).parameters
        assert list(params) == list(cls._fields)
        assert {name: p.default for name, p in params.items()
                if p.default is not inspect.Parameter.empty} == cls._field_defaults


class TestFiniteValues:
    @pytest.mark.parametrize(
        "cls, good",
        [
            (BrushParams, dict(young_modulus=2e9, second_area_moment=1e-12,
                               length=0.02, inclination=0.6, brush_mass=1e-3)),
            (MotorParams, dict(eccentric_mass=1e-3, eccentricity=2e-3, speed=300.0)),
            (RobotParams, dict(body_mass=0.05, pivot_inertia=2e-5, forcing_arm=0.03,
                               gravity_arm=0.003, step_height=0.04, gravity=9.81)),
            (SimConfig, dict(t_end=0.5, dt=1e-4, theta0=0.0)),
        ],
    )
    def test_inf_and_nan_rejected_in_every_field(self, cls, good):
        cls(**good)
        for field in good:
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValidationError, match=f"{field} must be finite"):
                    cls(**{**good, field: bad})


class TestMotorValidation:
    def test_zero_mass_and_eccentricity_allowed(self):
        m = MotorParams(0.0, 0.0, 100.0)
        assert m.force_amplitude == 0.0

    def test_zero_speed_rejected(self):
        with pytest.raises(ValidationError, match="speed"):
            MotorParams(1e-3, 2e-3, 0.0)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError, match="eccentric_mass"):
            MotorParams(-1e-3, 2e-3, 100.0)

    def test_period(self):
        assert MotorParams(0.0, 0.0, 2 * math.pi).period == pytest.approx(1.0)


class TestRobotValidation:
    def test_gravity_arm_zero_allowed(self):
        r = RobotParams(0.05, 2e-5, 0.03, 0.0, 0.04)
        assert r.gravity == 9.81
        assert r.weight == pytest.approx(0.05 * 9.81)

    def test_gravity_override(self):
        r = RobotParams(0.05, 2e-5, 0.03, 0.003, 0.04, gravity=1.62)
        assert r.weight == pytest.approx(0.05 * 1.62)

    @pytest.mark.parametrize(
        "field",
        ["body_mass", "pivot_inertia", "forcing_arm", "step_height", "gravity"],
    )
    def test_nonpositive_fields_rejected(self, field):
        good = dict(
            body_mass=0.05,
            pivot_inertia=2e-5,
            forcing_arm=0.03,
            gravity_arm=0.003,
            step_height=0.04,
            gravity=9.81,
        )
        with pytest.raises(ValidationError, match=field):
            RobotParams(**{**good, field: 0.0})

    def test_negative_gravity_arm_rejected(self):
        with pytest.raises(ValidationError, match="gravity_arm"):
            RobotParams(0.05, 2e-5, 0.03, -1e-3, 0.04)


class TestForcing:
    def test_zero_mass_gives_zero_force(self):
        assert MotorParams(0.0, 0.5, 123.0).force_amplitude == 0.0

    def test_amplitude_is_m_omega_squared_r(self):
        # 0.001 * 100^2 * 0.002 = 0.02 N, cross-checked in exact rationals
        motor = MotorParams(0.001, 0.002, 100.0)
        exact = Fraction(0.001) * Fraction(100.0) ** 2 * Fraction(0.002)
        assert motor.force_amplitude == pytest.approx(0.02, rel=1e-12)
        assert motor.force_amplitude == pytest.approx(float(exact), rel=1e-15)
