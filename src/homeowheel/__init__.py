"""Kinematic simulator, constraint verifier, and motion planner for the
homeostatic wheel: a three-servo articulated wheel that turns without bound
while the twist of its continuous tegument stays bounded, by rectifying
bounded servo oscillations through a side-swapping clutch.

The public names below load their module on first use (PEP 562), so a
command compiles only the modules it runs."""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("InvalidAxis", "InvalidParameter", "RateInfeasible", "TrajectoryParseError",
               "ValidationFailure", "ZeroDistance"),
    "executor": ("Motion", "TraceEvent", "Trajectory", "Waypoint", "analyse",
                 "build_rotate_wheel_2n", "segment_drive", "validate_trajectory"),
    "fileformat": ("parse_config", "parse_trajectory", "read_trajectory_file",
                   "trajectory_to_json", "write_trajectory_file"),
    "mechanism": ("DEFAULT_GEOMETRY", "DEFAULT_LIMITS", "FramePoses", "HOME_STATE",
                  "MechanismGeometry", "Pose", "RangeViolation", "ServoLimits", "ServoState",
                  "drive_sign", "engaged", "forward_kinematics", "gimbal_lock_risk",
                  "validate_state"),
    "planner": ("count_engaged_sweeps", "generate_gait", "plan_distance", "plan_rotation"),
    "rotations": ("IDENTITY_QUATERNION", "UnitQuaternion", "quat_compose", "quat_conjugate",
                  "quat_from_axis_angle", "quat_rotate", "rot_x", "rot_z", "unwrap_angle"),
    "scaling": ("ScalingModel", "ScaledQuantities", "cost_of_transport", "scale"),
    "tegument": ("IntegrityReport", "IntegrityViolation", "TwistLedger", "check_integrity",
                 "ledger_history"),
    "trace": ("SimTrace", "TraceSample", "simulate", "write_trace_file"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
