import pytest

from brushdyn import BrushParams, MotorParams, RobotParams, SimConfig, regime2

from helpers import REFERENCE_MOTOR, REFERENCE_ROBOT, rows


@pytest.fixture
def brush():
    # the standard interior-point brush: E = 2 GPa, I = 1e-12 m^4, l = 2 cm
    return BrushParams(
        young_modulus=2e9,
        second_area_moment=1e-12,
        length=0.02,
        inclination=0.6,
        brush_mass=1e-3,
    )


@pytest.fixture
def reference_robot():
    return RobotParams(**REFERENCE_ROBOT)


@pytest.fixture
def reference_motor():
    return MotorParams(**REFERENCE_MOTOR)


@pytest.fixture(scope="session")
def reference_trajectory():
    robot = RobotParams(**REFERENCE_ROBOT)
    motor = MotorParams(**REFERENCE_MOTOR)
    traj = regime2.stream(robot, motor, SimConfig(t_end=0.5, dt=1e-4))
    # its samples flattened once into a tuple of Rows, which every test can read
    return traj._replace(samples=tuple(rows(traj.samples)))
