"""Tests for joint limits, the clutch predicates, and forward kinematics."""

import math

import numpy as np
import pytest

from homeowheel import executor, mechanism, rotations, scaling, tegument
from homeowheel.errors import InvalidParameter, ValidationFailure
from homeowheel.executor import (
    DisengagedShaftMotion,
    EmptyTrajectory,
    RateViolation,
    SimTrace,
    TimeOrderViolation,
    TraceEvent,
    TraceSample,
    Waypoint,
    WaypointRangeViolation,
    analyse,
    build_rotate_wheel_2n,
)
from homeowheel.mechanism import (
    DEFAULT_GEOMETRY,
    DEFAULT_LIMITS,
    ENGAGE_TOL,
    HOME_STATE,
    MechanismGeometry,
    RangeViolation,
    ServoLimits,
    ServoState,
    drive_sign,
    engaged,
    forward_kinematics,
    gimbal_lock_risk,
    validate_state,
)
from homeowheel.rotations import IDENTITY_QUATERNION
from homeowheel.scaling import ScalingModel, scale
from homeowheel.tegument import IntegrityViolation, TwistLedger
from reference import quat_to_matrix


def mat_x(deg):
    r = math.radians(deg)
    c, s = math.cos(r), math.sin(r)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def mat_z(deg):
    r = math.radians(deg)
    c, s = math.cos(r), math.sin(r)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestValidateState:
    def test_home_is_valid(self):
        assert validate_state(ServoState(0.0, 0.0, 0.0)) == []

    def test_bounds_are_closed(self):
        assert validate_state(ServoState(360.0, 90.0, -90.0)) == []
        assert validate_state(ServoState(0.0, -90.0, 90.0)) == []

    def test_one_past_the_bound_fails(self):
        violations = validate_state(ServoState(361.0, 0.0, 0.0))
        assert len(violations) == 1
        assert violations[0].servo == "servo1"
        assert "RangeViolation servo1" in str(violations[0])

    def test_all_three_can_fail(self):
        violations = validate_state(ServoState(-1.0, 91.0, -91.0))
        assert [v.servo for v in violations] == ["servo1", "servo2", "servo3"]

    def test_nan_fails(self):
        assert len(validate_state(ServoState(float("nan"), 0.0, 0.0))) == 1

    def test_custom_limits(self):
        limits = ServoLimits(s1_range=(0.0, 180.0))
        assert validate_state(ServoState(181.0, 0.0, 0.0), limits)


class TestEngaged:
    def test_two_driving_configurations(self):
        assert engaged(ServoState(123.0, 90.0, -90.0))
        assert engaged(ServoState(0.0, -90.0, 90.0))

    def test_rest_is_disengaged(self):
        assert not engaged(ServoState(0.0, 0.0, 0.0))
        assert not engaged(ServoState(0.0, 90.0, 90.0))
        assert not engaged(ServoState(0.0, -90.0, -90.0))

    def test_tolerance(self):
        assert engaged(ServoState(0.0, 90.0 - 1e-10, -90.0 + 1e-10))
        assert not engaged(ServoState(0.0, 89.0, -89.0))

    def test_implies_mirror_configuration(self):
        rng = np.random.default_rng(21)
        tol = ENGAGE_TOL
        for _ in range(2000):
            s2 = float(rng.choice([-90.0, 90.0]) + rng.uniform(-2 * tol, 2 * tol))
            s3 = float(rng.choice([-90.0, 90.0]) + rng.uniform(-2 * tol, 2 * tol))
            state = ServoState(0.0, s2, s3)
            if engaged(state):
                assert abs(abs(state.s2) - 90.0) <= tol
                assert abs(abs(state.s3) - 90.0) <= tol
                assert abs(state.s3 + state.s2) <= 2.0 * tol


class TestDriveSign:
    def test_forward_configuration(self):
        assert drive_sign(ServoState(0.0, 90.0, -90.0)) == 1

    def test_backward_configuration(self):
        assert drive_sign(ServoState(360.0, -90.0, 90.0)) == -1

    def test_disengaged_is_zero(self):
        assert drive_sign(ServoState(0.0, 0.0, 0.0)) == 0

    def test_exhaustive_one_degree_grid(self):
        for s2 in range(-90, 91):
            for s3 in range(-90, 91):
                state = ServoState(0.0, float(s2), float(s3))
                sign = drive_sign(state)
                if engaged(state):
                    assert sign == (1 if s2 > 0 else -1)
                    assert (s2, s3) in ((90, -90), (-90, 90))
                else:
                    assert sign == 0


class TestGimbalLockRisk:
    def test_turning_shaft_at_rest_pose(self):
        assert gimbal_lock_risk(ServoState(0.0, 0.0, 0.0), s1_rate=10.0)

    def test_still_shaft_is_safe(self):
        assert not gimbal_lock_risk(ServoState(0.0, 0.0, 0.0), s1_rate=0.0)

    def test_engaged_configuration_is_safe(self):
        assert not gimbal_lock_risk(ServoState(0.0, 90.0, -90.0), s1_rate=10.0)

    def test_tolerance(self):
        assert gimbal_lock_risk(ServoState(0.0, 1e-7, -1e-7), s1_rate=1.0)
        assert not gimbal_lock_risk(ServoState(0.0, 1e-3, 0.0), s1_rate=1.0)


class TestForwardKinematics:
    def test_zero_state_reference_poses(self):
        geometry = DEFAULT_GEOMETRY
        poses = forward_kinematics(geometry, ServoState(0.0, 0.0, 0.0))
        for pose in (poses.body, poses.gantry, poses.center_shaft_tip,
                     poses.elbow, poses.wrist, poses.wheel_hub):
            assert (pose.rotation.w, pose.rotation.x, pose.rotation.y,
                    pose.rotation.z) == (1.0, 0.0, 0.0, 0.0)
        assert poses.body.translation == (0.0, 0.0, 0.0)
        assert poses.gantry.translation == (0.0, 0.0, geometry.gantry_offset)
        tip_z = geometry.gantry_offset + geometry.upper_link_length
        assert poses.center_shaft_tip.translation == (0.0, 0.0, tip_z)
        assert poses.elbow == poses.center_shaft_tip
        assert poses.wheel_hub.translation == (geometry.lower_link_length, 0.0, tip_z)
        assert poses.wheel_hub == poses.wrist

    def test_engaged_configuration_matches_hand_product(self):
        # Hub rotation is gantry swing times wrist pivot; multiply the two
        # matrices by hand and compare.
        poses = forward_kinematics(DEFAULT_GEOMETRY, ServoState(0.0, 90.0, -90.0))
        expected = mat_x(90.0) @ mat_x(-90.0)
        hub = quat_to_matrix(poses.wheel_hub.rotation)
        assert np.abs(hub - expected).max() < 1e-12
        assert np.abs(hub - np.eye(3)).max() < 1e-12

    def test_half_shaft_turn_advances_hub_about_the_axle(self):
        before = forward_kinematics(DEFAULT_GEOMETRY, ServoState(0.0, 90.0, -90.0))
        after = forward_kinematics(DEFAULT_GEOMETRY, ServoState(180.0, 90.0, -90.0))
        hub_before = quat_to_matrix(before.wheel_hub.rotation)
        hub_after = quat_to_matrix(after.wheel_hub.rotation)
        expected = mat_x(90.0) @ mat_z(180.0) @ mat_x(-90.0)
        assert np.abs(hub_after - expected).max() < 1e-12
        # The relative rotation is a half turn about the lateral hub axle.
        relative = hub_after @ hub_before.T
        assert np.abs(relative - np.diag([-1.0, 1.0, -1.0])).max() < 1e-12

    def test_out_of_range_state_raises(self):
        with pytest.raises(ValidationFailure) as excinfo:
            forward_kinematics(DEFAULT_GEOMETRY, ServoState(400.0, 0.0, 0.0))
        assert any("servo1" in str(v) for v in excinfo.value.violations)

    def test_deterministic_bit_for_bit(self):
        state = ServoState(123.456, 45.678, -12.345)
        assert forward_kinematics(DEFAULT_GEOMETRY, state) == \
            forward_kinematics(DEFAULT_GEOMETRY, state)

    def test_translations_match_the_matrix_chain(self):
        # Each link is a vector fixed in its parent frame: p = p_parent + R v.
        geometry = MechanismGeometry(0.1, 0.3, 0.7, 1.1)
        rng = np.random.default_rng(23)
        for _ in range(2000):
            state = ServoState(float(rng.uniform(0.0, 360.0)),
                               float(rng.uniform(-90.0, 90.0)),
                               float(rng.uniform(-90.0, 90.0)))
            poses = forward_kinematics(geometry, state)
            gantry = np.array([0.0, 0.0, geometry.gantry_offset])
            tip = gantry + quat_to_matrix(poses.gantry.rotation) @ np.array(
                [0.0, 0.0, geometry.upper_link_length])
            wrist = tip + quat_to_matrix(poses.center_shaft_tip.rotation) @ np.array(
                [geometry.lower_link_length, 0.0, 0.0])
            assert poses.gantry.translation == tuple(gantry)
            assert np.abs(np.array(poses.center_shaft_tip.translation) - tip).max() < 1e-12
            assert np.abs(np.array(poses.wheel_hub.translation) - wrist).max() < 1e-12
            assert all(type(c) is float for c in poses.wheel_hub.translation)

    def test_rotations_stay_orthonormal_over_random_states(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        eye = np.eye(3)
        for _ in range(100_000):
            state = ServoState(float(rng.uniform(0.0, 360.0)),
                               float(rng.uniform(-90.0, 90.0)),
                               float(rng.uniform(-90.0, 90.0)))
            poses = forward_kinematics(DEFAULT_GEOMETRY, state)
            for pose in (poses.gantry, poses.center_shaft_tip, poses.wheel_hub):
                mat = quat_to_matrix(pose.rotation)
                err = float(np.abs(mat.T @ mat - eye).max())
                if err > worst:
                    worst = err
        assert worst < 1e-10


class TestGeometryAndLimits:
    def test_geometry_rejects_bad_radius(self):
        from homeowheel.errors import InvalidParameter
        with pytest.raises(InvalidParameter):
            MechanismGeometry(wheel_radius=0.0)
        with pytest.raises(InvalidParameter):
            MechanismGeometry(wheel_radius=-1.0)
        for field in ("wheel_radius", "gantry_offset", "upper_link_length",
                      "lower_link_length"):
            for bad in (math.inf, math.nan):
                with pytest.raises(InvalidParameter):
                    MechanismGeometry(**{field: bad})

    def test_limits_reject_inverted_range(self):
        from homeowheel.errors import InvalidParameter
        with pytest.raises(InvalidParameter):
            ServoLimits(s2_range=(90.0, -90.0))
        with pytest.raises(InvalidParameter):
            ServoLimits(s1_max_rate=0.0)
        for servo in ("s1", "s2", "s3"):
            for bad in ((-math.inf, 90.0), (-90.0, math.inf), (math.nan, 90.0)):
                with pytest.raises(InvalidParameter):
                    ServoLimits(**{f"{servo}_range": bad})
            for bad in (math.inf, math.nan):
                with pytest.raises(InvalidParameter):
                    ServoLimits(**{f"{servo}_max_rate": bad})

    def test_default_limits_match_the_mechanism_ranges(self):
        assert DEFAULT_LIMITS.s1_range == (0.0, 360.0)
        assert DEFAULT_LIMITS.s2_range == (-90.0, 90.0)
        assert DEFAULT_LIMITS.s3_range == (-90.0, 90.0)


# One instance of every record type in the package.
_MOTION = analyse(build_rotate_wheel_2n(1))
_POSES = forward_kinematics(DEFAULT_GEOMETRY, HOME_STATE)
RECORDS = [
    ServoState(1.0, 2.0, 3.0), DEFAULT_LIMITS, DEFAULT_GEOMETRY, _POSES, _POSES.wrist,
    RangeViolation("servo1", 361.0, 0.0, 360.0), Waypoint(0.5, HOME_STATE),
    _MOTION.trajectory, TraceSample(0.0, HOME_STATE, 0.0, 0.0, False, 0),
    TraceEvent(0.0, "GimbalLockRisk", "segment 0"), SimTrace((), ()), _MOTION,
    EmptyTrajectory(), TimeOrderViolation(1, 0.0),
    WaypointRangeViolation(0, "servo1", 361.0, 0.0, 360.0), RateViolation(0, "servo1", 1e3, 360.0),
    DisengagedShaftMotion(0, 0.0, 1.0, 90.0), IDENTITY_QUATERNION, ScalingModel(),
    scale(ScalingModel(), 0.5), TwistLedger(), IntegrityViolation(0.0, "seg_wrist", 91.0),
    _MOTION.integrity,
]


class TestRecords:
    def test_every_record_type_is_covered(self):
        modules = (executor, mechanism, rotations, scaling, tegument)
        defined = {obj for module in modules for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")}
        assert {type(r) for r in RECORDS} == defined

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_are_read_only(self, record):
        for name in record._fields + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_equal_only_to_the_same_type_and_hashed_alike(self, record):
        copy = type(record)(*record)
        assert copy == record and not copy != record and hash(copy) == hash(record)
        assert record != tuple(record) and tuple(record) != record
        assert not record == tuple(record) and not tuple(record) == record
        for other in RECORDS:
            if type(other) is not type(record):
                assert record != other and not record == other

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_truthy_even_without_fields(self, record):
        assert bool(record) is True

    def test_equal_fields_of_another_type_are_not_equal(self):
        ledger, state = TwistLedger(0.0, 0.0, 0.0), ServoState(0.0, 0.0, 0.0)
        assert ledger != state and state != ledger and not ledger == state
        assert len({ledger, state, (0.0, 0.0, 0.0)}) == 3

    @pytest.mark.parametrize("record, text", [
        (ServoState(1.0, 2.0, 3.0), "ServoState(s1=1.0, s2=2.0, s3=3.0)"),
        (EmptyTrajectory(), "EmptyTrajectory()"),
        (Waypoint(0.5, HOME_STATE), "Waypoint(t=0.5, state=ServoState(s1=0.0, s2=0.0, s3=0.0))"),
        (DEFAULT_LIMITS, "ServoLimits(s1_range=(0.0, 360.0), s2_range=(-90.0, 90.0), "
                         "s3_range=(-90.0, 90.0), s1_max_rate=360.0, s2_max_rate=360.0, "
                         "s3_max_rate=360.0)"),
    ])
    def test_repr(self, record, text):
        assert repr(record) == text

    @pytest.mark.parametrize("make, message", [
        (lambda: ServoLimits(s2_range=(90.0, -90.0)),
         "s2_range must have finite min < max, got (90.0, -90.0)"),
        (lambda: ServoLimits((0.0, 360.0), (1.0, 1.0)),
         "s2_range must have finite min < max, got (1.0, 1.0)"),
        (lambda: ServoLimits(s3_max_rate=0.0), "s3_max_rate must be positive and finite"),
        (lambda: DEFAULT_LIMITS._replace(s1_range=(math.nan, 1.0)),
         "s1_range must have finite min < max, got (nan, 1.0)"),
        (lambda: MechanismGeometry(wheel_radius=0.0), "wheel_radius must be in (0, inf), got 0.0"),
        (lambda: MechanismGeometry(0.1, -1.0), "gantry_offset must be non-negative and finite"),
        (lambda: MechanismGeometry(lower_link_length=math.inf),
         "lower_link_length must be non-negative and finite"),
        (lambda: ScalingModel(mass_ref=0.0), "mass_ref must be positive and finite, got 0.0"),
        (lambda: ScalingModel(1.0, 1.0, math.nan), "force_ref must be positive and finite, got nan"),
    ])
    def test_validating_records_reject_bad_fields(self, make, message):
        with pytest.raises(InvalidParameter) as excinfo:
            make()
        assert str(excinfo.value) == message
