"""Kinematic simulator, constraint verifier, and motion planner for the
homeostatic wheel: a three-servo articulated wheel that turns without bound
while the twist of its continuous tegument stays bounded, by rectifying
bounded servo oscillations through a side-swapping clutch."""

from .errors import (
    InvalidAxis,
    InvalidParameter,
    RateInfeasible,
    TrajectoryParseError,
    ValidationFailure,
    ZeroDistance,
)
from .executor import (
    Motion,
    Policy,
    SimTrace,
    TraceEvent,
    TraceSample,
    Trajectory,
    Waypoint,
    analyse,
    build_rotate_wheel_2n,
    parse_config,
    parse_trajectory,
    read_trajectory_file,
    segment_drive,
    simulate,
    trajectory_to_json,
    validate_trajectory,
    write_trace_file,
    write_trajectory_file,
)
from .mechanism import (
    DEFAULT_GEOMETRY,
    DEFAULT_LIMITS,
    FramePoses,
    HOME_STATE,
    MechanismGeometry,
    Pose,
    RangeViolation,
    ServoLimits,
    ServoState,
    drive_sign,
    engaged,
    forward_kinematics,
    gimbal_lock_risk,
    validate_state,
)
from .planner import (
    count_engaged_sweeps,
    generate_gait,
    plan_distance,
    plan_rotation,
)
from .rotations import (
    IDENTITY_QUATERNION,
    UnitQuaternion,
    quat_compose,
    quat_conjugate,
    quat_from_axis_angle,
    quat_rotate,
    rot_x,
    rot_z,
    unwrap_angle,
)
from .scaling import ScalingModel, ScaledQuantities, cost_of_transport, scale
from .tegument import (
    IntegrityReport,
    IntegrityViolation,
    TwistLedger,
    check_integrity,
    ledger_history,
)

__version__ = "0.1.0"
