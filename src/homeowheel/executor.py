"""Trajectory construction and analysis.

A trajectory is an ordered list of timed waypoints with piecewise-linear
interpolation per servo. Everything that is a property of that path is
computed once per segment from the waypoints by :func:`analyse`: a segment
turns the wheel iff both endpoints sit in the same driving configuration,
and then by exactly ``drive_sign * delta_s1``; its events are decided
analytically; its range, rate and time-order violations are found in the
same walk, whose range test of the waypoints, where a linear path reaches its
extremes, also gives the twist certificate. This keeps the canonical even-turn
routine exact (720 deg per loop iteration) and makes every result independent
of any sample rate. While disengaged the wheel is held, not freewheeling: the
reconfiguration steps must not move it or the whole bookkeeping collapses.

The trajectory file format is in :mod:`homeowheel.fileformat`, and the
sampled trace and its export in :mod:`homeowheel.trace`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import chain
from operator import attrgetter, lt

from .errors import InvalidParameter
from .mechanism import (
    DEFAULT_GEOMETRY,
    DEFAULT_LIMITS,
    GIMBAL_TOL,
    MechanismGeometry,
    ServoLimits,
    ServoState,
    check_reachable,
    drive_sign,
    validate_state,
)
from .records import record
from .tegument import SEGMENT_OF_SERVO, IntegrityReport, IntegrityViolation

EVENT_GIMBAL_LOCK_RISK = "GimbalLockRisk"
EVENT_DISENGAGED_SHAFT_MOTION = "DisengagedShaftMotion"
EVENT_RANGE_VIOLATION = "RangeViolation"

FLAG_GIMBAL_LOCK_RISK = 1
FLAG_DISENGAGED_SHAFT_MOTION = 2
FLAG_RANGE_VIOLATION = 4

# Relative guard on rate checks: durations derived as angle / max_rate can
# round so that angle / duration lands one ulp above max_rate.
_RATE_GUARD = 1e-12

# Work bounds. Each size is computed in closed form from the inputs, and a
# size over its bound raises InvalidParameter before any of the work is done.

#: Most waypoints :func:`build_rotate_wheel_2n` (6n + 5),
#: :func:`homeowheel.planner.generate_gait` (4 cycles + 1) and a plan build,
#: and that a trajectory file may hold.
MAX_WAYPOINTS = 300_000
#: Most engaged sweeps :func:`homeowheel.planner.plan_rotation` plans (about
#: 3.6e7 deg at the default span): a plan has at most 3 waypoints per sweep
#: and 3 more, so it stays within MAX_WAYPOINTS.
MAX_PLAN_SWEEPS = (MAX_WAYPOINTS - 3) // 3
#: Least duration of a servo move of the canonical routine and of a plan, s.
MOVE_S = 1.0


class Waypoint(record("Waypoint", "t state")):
    """A :class:`ServoState` at time ``t`` (seconds)."""

    __slots__ = ()


class Trajectory(record("Trajectory", "geometry limits waypoints")):
    """Timed servo waypoints plus the geometry and limits they assume;
    ``waypoints`` is stored as a tuple, and no waypoints raise
    InvalidParameter: a path without a waypoint is not a motion."""

    __slots__ = ()

    def __new__(cls, geometry: MechanismGeometry = DEFAULT_GEOMETRY,
                limits: ServoLimits = DEFAULT_LIMITS, waypoints: Iterable[Waypoint] = ()):
        waypoints = tuple(waypoints)
        if not waypoints:
            raise InvalidParameter("a trajectory needs at least one waypoint")
        return super().__new__(cls, geometry, limits, waypoints)

    @classmethod
    def from_states(cls, states: Iterable[ServoState], segment_duration: float = 1.0,
                    geometry: MechanismGeometry = DEFAULT_GEOMETRY,
                    limits: ServoLimits = DEFAULT_LIMITS) -> "Trajectory":
        """Equal-duration waypoints at t = k * segment_duration."""
        if not (math.isfinite(segment_duration) and segment_duration > 0.0):
            raise InvalidParameter(f"segment_duration must be positive, got {segment_duration!r}")
        waypoints = tuple(Waypoint(k * segment_duration, s) for k, s in enumerate(states))
        return cls(geometry=geometry, limits=limits, waypoints=waypoints)

    def segments(self) -> Iterator[tuple[int, Waypoint, Waypoint]]:
        for i in range(len(self.waypoints) - 1):
            yield i, self.waypoints[i], self.waypoints[i + 1]

    @property
    def final_state(self) -> ServoState:
        return self.waypoints[-1].state


class TraceEvent(record("TraceEvent", "t kind detail")):
    """An event of ``kind`` at time ``t``, with a human-readable ``detail``."""

    __slots__ = ()


class Motion(record("Motion", "trajectory theta_deg drives flags events integrity "
                    "violations")):
    """What a trajectory does, computed once per segment from its waypoints.

    ``theta_deg[k]`` is the wheel angle at waypoint k (0 at the first);
    ``drives[i]`` and ``flags[i]`` are segment i's wheel coupling (see
    :func:`segment_drive`) and event flags. ``integrity`` certifies the
    twist of every tegument segment over the whole path. ``violations`` are
    all the trajectory's constraint violations, disengaged shaft motion
    included; none of them raises. The sequences are tuples.
    """

    __slots__ = ()

    @property
    def final_theta_deg(self) -> float:
        return self.theta_deg[-1]

    @property
    def final_x_m(self) -> float:
        """Odometry at the last waypoint; the wheel starts at x = 0."""
        return self.trajectory.geometry.wheel_radius * math.radians(self.theta_deg[-1])


# --------------------------------------------------------------------------
# Violations


class TimeOrderViolation(record("TimeOrderViolation", "index t")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"TimeOrderViolation at waypoint {self.index}: t={self.t!r} does not increase"


class WaypointRangeViolation(record("WaypointRangeViolation", "index servo value lo hi")):
    __slots__ = ()

    def __str__(self) -> str:
        return (f"RangeViolation {self.servo} at waypoint {self.index}: "
                f"{self.value!r} outside [{self.lo}, {self.hi}]")


class RateViolation(record("RateViolation", "segment servo rate max_rate")):
    __slots__ = ()

    def __str__(self) -> str:
        return (f"RateViolation {self.servo} on segment {self.segment}: "
                f"{self.rate!r} deg/s exceeds {self.max_rate!r} deg/s")


class DisengagedShaftMotion(record("DisengagedShaftMotion", "segment t_start t_end shaft_delta")):
    __slots__ = ()

    def __str__(self) -> str:
        return (f"DisengagedShaftMotion on segment {self.segment} "
                f"[{self.t_start!r}, {self.t_end!r}]: shaft moves "
                f"{self.shaft_delta!r} deg with the clutch open")


Violation = TimeOrderViolation | WaypointRangeViolation | RateViolation | DisengagedShaftMotion


# --------------------------------------------------------------------------
# Construction


def segment_drive(start: ServoState, end: ServoState) -> int:
    """Wheel coupling over a linear segment: the common drive sign of both
    endpoints, or 0.

    Endpoints engaged in opposite configurations also yield 0: the clutch
    opens mid-segment, so any shaft motion there leaves the wheel held.
    """
    sign = drive_sign(start)
    if sign != 0 and sign == drive_sign(end):
        return sign
    return 0


def timed_waypoints(states: list[ServoState], limits: ServoLimits) -> list[Waypoint]:
    """Waypoints through ``states`` from t = 0, each move taking :data:`MOVE_S`
    or, where a servo would exceed its rate limit, the least time within it.

    A time rounded so that its move takes less than that is raised to the
    next float until the move fits; a move lost to rounding entirely is left
    to :func:`check_times`."""
    t = 0.0
    times = [t]
    for prev, state in zip(states, states[1:]):
        least = max(MOVE_S, limits.move_time(prev, state))
        start, t = t, t + least
        while start < t and t - start < least:
            t = math.nextafter(t, math.inf)
        times.append(t)
    check_times(times)
    return list(map(Waypoint, times, states))


def check_times(times: list[float]) -> None:
    """Raise InvalidParameter unless built waypoint times are finite and increasing:
    extreme limits or periods can overflow a time or lose a step to rounding."""
    if all(map(lt, times, times[1:])) and times[-1] < math.inf:
        return
    k = next(k for k in range(1, len(times)) if not times[k - 1] < times[k] < math.inf)
    raise InvalidParameter(f"waypoint {k} would be at t={times[k]!r} after t={times[k - 1]!r}: "
                           "waypoint times must be finite and increasing")


def build_rotate_wheel_2n(n: int, geometry: MechanismGeometry = DEFAULT_GEOMETRY,
                          limits: ServoLimits = DEFAULT_LIMITS) -> Trajectory:
    """The canonical even-turn routine: 2n forward wheel revolutions.

    From rest, engage (s3 to -90, then s2 to +90); each of the n loop
    iterations sweeps the shaft up (wheel +360), swaps sides (s3, then s2),
    sweeps the shaft back down (wheel +360 again), and swaps back; finally
    return s3 and s2 to rest. One waypoint per servo move, in that exact
    order: 6n + 4 segments, ending at the home state with every twist back
    at zero, timed by :func:`timed_waypoints` (1 s per move under the default
    limits). The loop states repeat one cycle and are shared, as the gait's
    are. More than :data:`MAX_WAYPOINTS` waypoints, limits that exclude
    the driving configurations or s1 = 0 or 360, or times that stop
    increasing raise InvalidParameter.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidParameter(f"n must be a positive integer, got {n!r}")
    if 6 * n + 5 > MAX_WAYPOINTS:
        raise InvalidParameter(f"n={n} needs {6 * n + 5} waypoints, "
                               f"more than MAX_WAYPOINTS ({MAX_WAYPOINTS})")
    check_reachable(limits, full_sweep=True)
    cycle = [
        ServoState(360.0, 90.0, -90.0),   # shaft up: wheel +360
        ServoState(360.0, 90.0, 90.0),
        ServoState(360.0, -90.0, 90.0),
        ServoState(0.0, -90.0, 90.0),     # shaft down: wheel +360 again
        ServoState(0.0, -90.0, -90.0),
        ServoState(0.0, 90.0, -90.0),
    ]
    states = [ServoState(0.0, 0.0, 0.0), ServoState(0.0, 0.0, -90.0), ServoState(0.0, 90.0, -90.0),
              *cycle * n, ServoState(0.0, 90.0, 0.0), ServoState(0.0, 0.0, 0.0)]
    return Trajectory(geometry, limits, timed_waypoints(states, limits))


# --------------------------------------------------------------------------
# Simulation


def _gimbal_entry(a: ServoState, b: ServoState) -> float | None:
    """First alpha in [0, 1] at which the linear (s2, s3) path from ``a`` to
    ``b`` lies within :data:`GIMBAL_TOL` of (0, 0) in both servos, or None if
    it never does: the intersection of the two servos' alpha-intervals."""
    lo, hi = 0.0, 1.0
    for start, delta in ((a.s2, b.s2 - a.s2), (a.s3, b.s3 - a.s3)):
        if delta == 0.0:
            if not abs(start) <= GIMBAL_TOL:
                return None
            continue
        enter, leave = (-GIMBAL_TOL - start) / delta, (GIMBAL_TOL - start) / delta
        if delta < 0.0:
            enter, leave = leave, enter
        lo, hi = max(lo, enter), min(hi, leave)
    return lo if lo <= hi else None


def analyse(trajectory: Trajectory) -> Motion:
    """Wheel angle, events, constraint violations and twist certificate of a
    trajectory, in one pass over its waypoints and one over its segments.

    Each segment turns the wheel by ``segment_drive * delta_s1``. Events
    record disengaged shaft motion and gimbal-lock risk (the shaft turning
    while the segment's (s2, s3) line passes within :data:`GIMBAL_TOL` of
    (0, 0), timed at the entry into that zone), one of each per offending
    segment, and every out-of-range waypoint; they are ordered by time, then
    kind, then waypoint, servo and segment. The twist certificate comes from
    the range test of each waypoint servo, since a linear path reaches its
    extremes at the waypoints and a tegument segment's twist is its servo's angle.

    ``violations`` lists every out-of-range waypoint servo, then per segment
    either a time-order violation or its rate excesses and its shaft motion
    with the clutch open (a :class:`DisengagedShaftMotion`, which is also an
    event). Interpolation is linear on the authored values, so the shaft's
    lifted angle along a segment stays between its in-range endpoints by
    convexity; in particular a 350 -> 10 segment is the -340 sweep, never a
    +20 wraparound, and is legal only if the rate limit admits it.

    Every segment that moves the shaft with the clutch open is tested for the
    gimbal zone, whatever its duration; a segment without duration quotes an
    infinite rate. A segment that does not drive leaves the wheel angle as it
    is, even where its shaft delta overflows.

    Nothing raises: callers read ``violations``.
    """
    waypoints = trajectory.waypoints
    limits = trajectory.limits
    rate_limits = (("servo1", limits.s1_max_rate), ("servo2", limits.s2_max_rate),
                   ("servo3", limits.s3_max_rate))

    events: list[TraceEvent] = []
    violations: list[Violation] = []
    twist_violations: list[IntegrityViolation] = []
    out_of_range = []
    for index, wp in enumerate(waypoints):
        bad = validate_state(wp.state, limits)
        out_of_range.append(bool(bad))
        for v in bad:
            events.append(TraceEvent(wp.t, EVENT_RANGE_VIOLATION, f"waypoint {index}: {v}"))
            violations.append(WaypointRangeViolation(index, v.servo, v.value, v.lo, v.hi))
        if bad:  # the twist of a segment is its servo's angle
            value_of = {v.servo: v.value for v in bad}
            twist_violations += [IntegrityViolation(wp.t, segment, value_of[servo])
                                 for servo, segment in SEGMENT_OF_SERVO.items()
                                 if servo in value_of]

    theta = [0.0]
    drives: list[int] = []
    flags: list[int] = []
    for i, a, b in trajectory.segments():
        seg_dt = b.t - a.t
        d_s1 = b.state.s1 - a.state.s1
        drive = segment_drive(a.state, b.state)
        disengaged = drive == 0 and d_s1 != 0.0
        seg_flags = FLAG_RANGE_VIOLATION if out_of_range[i] or out_of_range[i + 1] else 0
        if disengaged:
            seg_flags |= FLAG_DISENGAGED_SHAFT_MOTION
            events.append(TraceEvent(a.t, EVENT_DISENGAGED_SHAFT_MOTION,
                                     f"segment {i}: shaft delta {d_s1!r} deg with the clutch open"))
        if not b.t > a.t:
            violations.append(TimeOrderViolation(i + 1, b.t))
        else:
            for (servo, max_rate), delta in zip(
                    rate_limits, (d_s1, b.state.s2 - a.state.s2, b.state.s3 - a.state.s3)):
                rate = abs(delta) / seg_dt
                if rate > max_rate * (1.0 + _RATE_GUARD):
                    violations.append(RateViolation(i, servo, rate, max_rate))
            if disengaged:
                violations.append(DisengagedShaftMotion(i, a.t, b.t, d_s1))
        # Only a disengaged segment can reach s2 = s3 = 0.
        entry = _gimbal_entry(a.state, b.state) if disengaged else None
        if entry is not None:
            s1_rate = d_s1 / seg_dt if seg_dt else math.copysign(math.inf, d_s1)
            # A duration past the float range is interpolated from both ends.
            t_entry = (a.t + seg_dt * entry if math.isfinite(seg_dt)
                       else a.t * (1.0 - entry) + b.t * entry)
            seg_flags |= FLAG_GIMBAL_LOCK_RISK
            events.append(TraceEvent(
                t_entry, EVENT_GIMBAL_LOCK_RISK,
                f"segment {i}: shaft turning at {s1_rate!r} deg/s through s2=s3=0"))
        theta.append(theta[-1] + drive * d_s1 if drive else theta[-1])
        drives.append(drive)
        flags.append(seg_flags)

    events.sort(key=lambda e: (e.t, e.kind))  # stable: emission order breaks ties
    # As check_integrity: maxima from 0.0, never raised by a NaN, ints kept.
    angle = {"servo1": attrgetter("state.s1"), "servo2": attrgetter("state.s2"),
             "servo3": attrgetter("state.s3")}
    integrity = IntegrityReport(tuple(max(chain((0.0,), map(abs, map(angle[servo], waypoints))))
                                      for servo in SEGMENT_OF_SERVO), tuple(twist_violations))
    return Motion(trajectory, tuple(theta), tuple(drives), tuple(flags), tuple(events),
                  integrity, tuple(violations))


def validate_trajectory(trajectory: Trajectory) -> list[Violation]:
    """Every constraint violation of the trajectory: the ``violations`` of
    ``analyse(trajectory)``."""
    return list(analyse(trajectory).violations)


# perfbench/traced.py wraps these four by their names in this module; they
# are defined in the trace and file-format modules, and commands call them
# through those.
def __getattr__(name: str):
    if name in ("simulate", "write_trace_file"):
        from . import trace as module
    elif name in ("write_trajectory_file", "read_trajectory_file"):
        from . import fileformat as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
