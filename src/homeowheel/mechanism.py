"""Kinematic model of the three-servo homeostatic wheel.

The mechanism is a serial chain: the body carries a gantry swung by Servo 2,
the gantry carries the center shaft twisted by Servo 1, and Servo 3 pivots
the wheel assembly at the wrist. The wheel is driven through a clutch-like
engagement: only in the two mirror configurations (s2, s3) = (+90, -90) and
(-90, +90) does Servo 1 torque reach the wheel, and the sign of the coupling
flips with the side of the gantry, which is what rectifies back-and-forth
shaft twists into one-directional rolling. The tests check this clutch rule
(:func:`drive_sign`) against the chain: in either driving configuration,
:func:`forward_kinematics` turns the hub about body +y by ``-drive_sign * ds1``.

Frame conventions (nothing about the mechanism pins the axes down, so these
are package conventions; swap them here if a physical build requires it):

* body: x = travel direction, y = lateral toward the engaged axle, z = up.
* Servo 2 swings the gantry about body x, carrying the shaft from one side
  of the wheel, over the top, to the other side.
* Servo 1 twists the center shaft about its own gantry-fixed axis (gantry
  local z), which is vertical at s2 = 0 and aligns with -+y at s2 = +-90.
* The elbow is a fixed bend: the lower link leaves the center-shaft tip
  along the shaft frame's local x, so it sweeps like a crank as s1 turns.
  The elbow frame coincides with the center-shaft tip frame.
* Servo 3 pivots the wheel about the lower-link axis (shaft-frame local x).
  The wheel hub frame coincides with the wrist frame; the wheel spins about
  the hub frame's y axis via the clutch, not via a fourth servo.

Link lengths are display constants only: wheel angle, odometry, and twist
accounting never depend on them.

All types are immutable values and all functions are pure, so everything
here is safe to share across threads or processes.
"""

from __future__ import annotations

import math
from operator import add

from .errors import InvalidParameter, ValidationFailure
from .records import record

#: Tolerance of the engagement predicate, degrees.
ENGAGE_TOL = 1e-9

#: Tolerance of the gimbal-lock predicate, degrees.
GIMBAL_TOL = 1e-6


class ServoState(record("ServoState", "s1 s2 s3")):
    """The three joint angles (degrees) defining a mechanism configuration:
    ``s1`` center-shaft twist ([0, 360], no wraparound), ``s2`` gantry swing
    ([-90, +90]), ``s3`` wrist pivot ([-90, +90])."""

    __slots__ = ()


HOME_STATE = ServoState(0.0, 0.0, 0.0)


class ServoLimits(record("ServoLimits",
                         "s1_range s2_range s3_range s1_max_rate s2_max_rate s3_max_rate",
                         defaults=((0.0, 360.0), (-90.0, 90.0), (-90.0, 90.0),
                                   360.0, 360.0, 360.0))):
    """Closed angle ranges (degrees, ``(min, max)`` pairs) and rate limits
    (degrees/second)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("s1", "s2", "s3"):
            lo, hi = getattr(self, f"{name}_range")
            if not -math.inf < lo < hi < math.inf:
                raise InvalidParameter(f"{name}_range must have finite min < max, got ({lo}, {hi})")
            if not 0.0 < getattr(self, f"{name}_max_rate") < math.inf:
                raise InvalidParameter(f"{name}_max_rate must be positive and finite")
        return self

    def range_of(self, servo: str) -> tuple[float, float]:
        return getattr(self, f"{servo}_range")

    def rate_of(self, servo: str) -> float:
        return getattr(self, f"{servo}_max_rate")

    def move_time(self, a: ServoState, b: ServoState) -> float:
        """Least time in which a linear move from ``a`` to ``b`` keeps every
        servo within its rate limit."""
        return max(abs(b.s1 - a.s1) / self.s1_max_rate, abs(b.s2 - a.s2) / self.s2_max_rate,
                   abs(b.s3 - a.s3) / self.s3_max_rate)


DEFAULT_LIMITS = ServoLimits()


def check_reachable(limits: ServoLimits, *, full_sweep: bool = False) -> None:
    """Raise InvalidParameter unless ``limits`` admit both driving
    configurations, (s2, s3) = (+90, -90) and (-90, +90), and, with
    ``full_sweep``, an s1 range that includes the 0 -> 360 shaft sweep of the
    canonical routine and the gait. Called before any waypoint is built."""
    for value, (lo, hi), name in ((90.0, limits.s2_range, "s2"),
                                  (-90.0, limits.s2_range, "s2"),
                                  (90.0, limits.s3_range, "s3"),
                                  (-90.0, limits.s3_range, "s3")):
        if not lo <= value <= hi:
            raise InvalidParameter(
                f"limits exclude {name}={value}, so the driving configurations "
                "are unreachable and no wheel motion can be planned")
    lo, hi = limits.s1_range
    if full_sweep and not (lo <= 0.0 and 360.0 <= hi):
        raise InvalidParameter(f"s1 range ({lo}, {hi}) excludes the 0 -> 360 shaft sweep")


class MechanismGeometry(record("MechanismGeometry",
                               "wheel_radius gantry_offset upper_link_length lower_link_length",
                               defaults=(0.10, 0.10, 0.20, 0.15))):
    """Wheel radius (drives odometry) plus display-only link lengths, meters."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.wheel_radius < math.inf:
            raise InvalidParameter(f"wheel_radius must be in (0, inf), got {self.wheel_radius!r}")
        for name in ("gantry_offset", "upper_link_length", "lower_link_length"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InvalidParameter(f"{name} must be non-negative and finite")
        return self


DEFAULT_GEOMETRY = MechanismGeometry()


class Pose(record("Pose", "rotation translation")):
    """Rigid pose: unit-quaternion rotation plus an (x, y, z) translation in
    meters."""

    __slots__ = ()


class FramePoses(record("FramePoses",
                        "body gantry center_shaft_tip elbow wrist wheel_hub")):
    """Poses of the named frames along the chain, in body coordinates."""

    __slots__ = ()


class RangeViolation(record("RangeViolation", "servo value lo hi")):
    """A servo angle outside its closed range."""

    __slots__ = ()

    def __str__(self) -> str:
        return (f"RangeViolation {self.servo}: {self.value!r} "
                f"outside [{self.lo}, {self.hi}]")


def validate_state(state: ServoState, limits: ServoLimits = DEFAULT_LIMITS) -> list[RangeViolation]:
    """Check each angle against its closed range; empty list means valid.

    Comparisons are exact (no tolerance): waypoints are authored values, and
    the range endpoints are exact binary floats.
    """
    violations = []
    for servo, value, (lo, hi) in (("servo1", state.s1, limits.s1_range),
                                   ("servo2", state.s2, limits.s2_range),
                                   ("servo3", state.s3, limits.s3_range)):
        if not lo <= value <= hi:
            violations.append(RangeViolation(servo, value, lo, hi))
    return violations


def engaged(state: ServoState) -> bool:
    """True iff the shaft is clutched to the wheel.

    The two driving configurations are (s2, s3) = (+90, -90) and (-90, +90),
    compared within :data:`ENGAGE_TOL` because interpolated samples may sit
    near +-90.
    """
    return ((abs(state.s2 - 90.0) <= ENGAGE_TOL and abs(state.s3 + 90.0) <= ENGAGE_TOL)
            or (abs(state.s2 + 90.0) <= ENGAGE_TOL and abs(state.s3 - 90.0) <= ENGAGE_TOL))


def drive_sign(state: ServoState) -> int:
    """Sign coupling shaft motion to wheel rotation: dTheta_wheel = sign * ds1.

    +1 in the (s2, s3) = (+90, -90) configuration, -1 in (-90, +90), 0 when
    disengaged. Either configuration therefore turns the wheel forward for
    the s1 travel direction it allows, which is the rectification rule.
    """
    if not engaged(state):
        return 0
    return 1 if state.s2 > 0.0 else -1


def gimbal_lock_risk(state: ServoState, s1_rate: float) -> bool:
    """True iff the shaft is turning through the degenerate s2 = s3 = 0 pose,
    both servos within :data:`GIMBAL_TOL` of it.

    This is a warning condition, not an error: the clutch model already
    yields zero wheel motion there, but a physical build would need extra
    articulation to avoid the lock.
    """
    return abs(state.s2) <= GIMBAL_TOL and abs(state.s3) <= GIMBAL_TOL and abs(s1_rate) > 0.0


def forward_kinematics(geometry: MechanismGeometry, state: ServoState,
                       limits: ServoLimits = DEFAULT_LIMITS) -> FramePoses:
    """Evaluate the rigid chain at ``state`` using the module conventions.

    Raises :class:`ValidationFailure` carrying the range violations when the
    state is out of range. At the zero state every frame equals its
    reference pose (identity rotations, links stacked along +z then +x).
    """
    from .rotations import IDENTITY_QUATERNION, quat_compose, quat_rotate, rot_x, rot_z

    violations = validate_state(state, limits)
    if violations:
        raise ValidationFailure(violations)

    q_gantry = rot_x(state.s2)
    q_shaft = quat_compose(q_gantry, rot_z(state.s1))
    q_wrist = quat_compose(q_shaft, rot_x(state.s3))
    p_gantry = (0.0, 0.0, geometry.gantry_offset)
    p_tip = tuple(map(add, p_gantry, quat_rotate(q_gantry, (0.0, 0.0, geometry.upper_link_length))))
    p_wrist = tuple(map(add, p_tip, quat_rotate(q_shaft, (geometry.lower_link_length, 0.0, 0.0))))
    return FramePoses(
        body=Pose(IDENTITY_QUATERNION, (0.0, 0.0, 0.0)),
        gantry=Pose(q_gantry, p_gantry),
        center_shaft_tip=Pose(q_shaft, p_tip),
        elbow=Pose(q_shaft, p_tip),  # fixed bend: same frame, redirects the lower link
        wrist=Pose(q_wrist, p_wrist),
        wheel_hub=Pose(q_wrist, p_wrist),  # hub sits on the wrist; wheel spin is the clutch DOF
    )
