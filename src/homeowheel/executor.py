"""Trajectory construction, simulation, validation, and file exchange.

A trajectory is an ordered list of timed waypoints with piecewise-linear
interpolation per servo. Everything that is a property of that path is
computed once per segment from the waypoints by :func:`analyse`: a segment
turns the wheel iff both endpoints sit in the same driving configuration,
and then by exactly ``drive_sign * delta_s1``; its events are decided
analytically; its range, rate and time-order violations are found in the
same walk; and the twist certificate is read off the waypoints, where a
linear path reaches its extremes. This keeps the canonical even-turn routine
exact (720 deg per loop iteration) and makes every result independent of any
sample rate. While disengaged the wheel is held, not freewheeling: the
reconfiguration steps must not move it or the whole bookkeeping collapses.
Dense samples exist only for the trace export: one sampling loop yields
plain rows, which :func:`write_trace_file` streams to disk in chunks and
:func:`simulate` wraps into :class:`TraceSample` objects.

File formats (versioned, deterministic byte output):

* Trajectory file: JSON with a header (format_version, wheel radius, link
  lengths, servo ranges, max rates) and a ``waypoints`` array of
  ``{t, s1, s2, s3}`` objects. Angles in degrees, time in seconds, exact
  decimal text, every number finite.
* Config (:func:`parse_config`): any subset of the header keys, same parser.
* Trace export: comma-delimited text, one row per sample
  ``t,s1,s2,s3,theta_wheel_deg,x_m,engaged,event_flags`` with a mandatory
  header row and values printed to 9 significant digits.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path

from .errors import InvalidParameter, TrajectoryParseError, ValidationFailure
from .mechanism import (
    DEFAULT_GEOMETRY,
    DEFAULT_LIMITS,
    ENGAGE_TOL,
    GIMBAL_TOL,
    MechanismGeometry,
    ServoLimits,
    ServoState,
    check_reachable,
    drive_sign,
    engaged,
    validate_state,
)
from .records import record
from .tegument import check_integrity, ledger_from_state

TRAJECTORY_FORMAT_VERSION = 1

EVENT_GIMBAL_LOCK_RISK = "GimbalLockRisk"
EVENT_DISENGAGED_SHAFT_MOTION = "DisengagedShaftMotion"
EVENT_RANGE_VIOLATION = "RangeViolation"

FLAG_GIMBAL_LOCK_RISK = 1
FLAG_DISENGAGED_SHAFT_MOTION = 2
FLAG_RANGE_VIOLATION = 4

# Relative guard on rate checks: durations derived as angle / max_rate can
# round so that angle / duration lands one ulp above max_rate.
_RATE_GUARD = 1e-12

# Exported samples never step the shaft by more than this, so a reader that
# unwraps the sampled angles sees a continuous path at any sample rate.
_MAX_SHAFT_STEP = 90.0

# Work bounds. Each size is computed in closed form from the inputs, and a
# size over its bound raises InvalidParameter before any of the work is done.

#: Most engaged sweeps :func:`homeowheel.planner.plan_rotation` plans
#: (3.6e7 deg at the default span; about 3 waypoints per sweep).
MAX_PLAN_SWEEPS = 100_000
#: Most waypoints :func:`build_rotate_wheel_2n` (6n + 5) and
#: :func:`homeowheel.planner.generate_gait` (4 cycles + 1) build: about the
#: size of the largest plan.
MAX_WAYPOINTS = 300_000
#: Most rows of the trace export (13x the 150,201 of ``simulate --n 500`` at
#: 50 Hz). :func:`write_trace_file` streams them in O(segments) memory, about
#: 41 bytes of file per row (about 83 MB at the cap); :func:`simulate` holds
#: them all.
MAX_TRACE_SAMPLES = 2_000_000


class Policy(enum.Enum):
    """Validation policy: strict rejects disengaged shaft motion, lenient
    downgrades it to a trace warning."""

    STRICT = "strict"
    LENIENT = "lenient"


class Waypoint(record("Waypoint", "t state")):
    """A :class:`ServoState` at time ``t`` (seconds)."""

    __slots__ = ()


class Trajectory(record("Trajectory", "geometry limits waypoints")):
    """Timed servo waypoints plus the geometry and limits they assume;
    ``waypoints`` is stored as a tuple."""

    __slots__ = ()

    def __new__(cls, geometry: MechanismGeometry = DEFAULT_GEOMETRY,
                limits: ServoLimits = DEFAULT_LIMITS, waypoints: Iterable[Waypoint] = ()):
        return super().__new__(cls, geometry, limits, tuple(waypoints))

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


class TraceSample(record("TraceSample", "t state theta_wheel_deg x_m engaged event_flags")):
    """One row of the trace export."""

    __slots__ = ()


class TraceEvent(record("TraceEvent", "t kind detail")):
    """An event of ``kind`` at time ``t``, with a human-readable ``detail``."""

    __slots__ = ()


class SimTrace(record("SimTrace", "samples events")):
    """Time-sampled simulation output plus recorded events (both tuples)."""

    __slots__ = ()

    @property
    def final_theta_deg(self) -> float:
        return self.samples[-1].theta_wheel_deg

    @property
    def final_x_m(self) -> float:
        return self.samples[-1].x_m

    def states(self) -> list[ServoState]:
        return [s.state for s in self.samples]

    def times(self) -> list[float]:
        return [s.t for s in self.samples]


class Motion(record("Motion", "trajectory theta_deg drives flags events integrity "
                    "engage_tol violations", defaults=(ENGAGE_TOL, ()))):
    """What a trajectory does, computed once per segment from its waypoints.

    ``theta_deg[k]`` is the wheel angle at waypoint k (0 at the first);
    ``drives[i]`` and ``flags[i]`` are segment i's wheel coupling (see
    :func:`segment_drive`) and event flags. ``integrity`` certifies the
    twist of every tegument segment over the whole path. ``engage_tol`` is
    the clutch tolerance the drives were computed with, which the trace
    export also uses for the ``engaged`` column. ``violations`` are the
    trajectory's constraint violations under the policy it was analysed with.
    The sequences are tuples.
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


class EmptyTrajectory(record("EmptyTrajectory", "")):
    __slots__ = ()

    def __str__(self) -> str:
        return "EmptyTrajectory: trajectory has no waypoints"


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


Violation = (EmptyTrajectory | TimeOrderViolation | WaypointRangeViolation
             | RateViolation | DisengagedShaftMotion)


# --------------------------------------------------------------------------
# Construction


def segment_drive(start: ServoState, end: ServoState, tol: float = ENGAGE_TOL) -> int:
    """Wheel coupling over a linear segment: the common drive sign of both
    endpoints, or 0.

    Endpoints engaged in opposite configurations also yield 0: the clutch
    opens mid-segment, so any shaft motion there leaves the wheel held.
    """
    sign = drive_sign(start, tol)
    if sign != 0 and sign == drive_sign(end, tol):
        return sign
    return 0


def build_rotate_wheel_2n(n: int, segment_duration: float = 1.0,
                          geometry: MechanismGeometry = DEFAULT_GEOMETRY,
                          limits: ServoLimits = DEFAULT_LIMITS) -> Trajectory:
    """The canonical even-turn routine: 2n forward wheel revolutions.

    From rest, engage (s3 to -90, then s2 to +90); each of the n loop
    iterations sweeps the shaft up (wheel +360), swaps sides (s3, then s2),
    sweeps the shaft back down (wheel +360 again), and swaps back; finally
    return s3 and s2 to rest. One waypoint per servo move, in that exact
    order: 6n + 4 segments, ending at the home state with every twist back
    at zero. More than :data:`MAX_WAYPOINTS` waypoints, or limits that exclude
    the driving configurations or s1 = 0 or 360, raise InvalidParameter.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidParameter(f"n must be a positive integer, got {n!r}")
    if 6 * n + 5 > MAX_WAYPOINTS:
        raise InvalidParameter(f"n={n} needs {6 * n + 5} waypoints, "
                               f"more than MAX_WAYPOINTS ({MAX_WAYPOINTS})")
    check_reachable(limits, full_sweep=True)
    states = [
        ServoState(0.0, 0.0, 0.0),
        ServoState(0.0, 0.0, -90.0),
        ServoState(0.0, 90.0, -90.0),
    ]
    for _ in range(n):
        states += [
            ServoState(360.0, 90.0, -90.0),   # shaft up: wheel +360
            ServoState(360.0, 90.0, 90.0),
            ServoState(360.0, -90.0, 90.0),
            ServoState(0.0, -90.0, 90.0),     # shaft down: wheel +360 again
            ServoState(0.0, -90.0, -90.0),
            ServoState(0.0, 90.0, -90.0),
        ]
    states += [
        ServoState(0.0, 90.0, 0.0),
        ServoState(0.0, 0.0, 0.0),
    ]
    return Trajectory.from_states(states, segment_duration, geometry, limits)


# --------------------------------------------------------------------------
# Simulation


def _gimbal_entry(a: ServoState, b: ServoState, tol: float) -> float | None:
    """First alpha in [0, 1] at which the linear (s2, s3) path from ``a`` to
    ``b`` lies within ``tol`` of (0, 0) in both servos, or None if it never
    does: the intersection of the two servos' alpha-intervals."""
    lo, hi = 0.0, 1.0
    for start, delta in ((a.s2, b.s2 - a.s2), (a.s3, b.s3 - a.s3)):
        if delta == 0.0:
            if not abs(start) <= tol:
                return None
            continue
        enter, leave = (-tol - start) / delta, (tol - start) / delta
        if delta < 0.0:
            enter, leave = leave, enter
        lo, hi = max(lo, enter), min(hi, leave)
    return lo if lo <= hi else None


def analyse(trajectory: Trajectory, policy: Policy = Policy.STRICT, *, check: bool = True,
            engage_tol: float = ENGAGE_TOL, gimbal_tol: float = GIMBAL_TOL) -> Motion:
    """Wheel angle, events, constraint violations and twist certificate of a
    trajectory, in one pass over its waypoints and one over its segments.

    Each segment turns the wheel by ``segment_drive * delta_s1``. Events
    record disengaged shaft motion and gimbal-lock risk (the shaft turning
    while the segment's (s2, s3) line passes within ``gimbal_tol`` of (0, 0),
    timed at the entry into that zone), one of each per offending segment,
    and every out-of-range waypoint; they are ordered by time, then kind,
    then waypoint, servo and segment. The twist certificate checks the
    waypoints only: a linear path reaches its extremes there.

    ``violations`` lists every out-of-range waypoint servo, then per segment
    either a time-order violation or its rate excesses and, under the strict
    ``policy``, its shaft motion with the clutch open (the lenient policy
    leaves that as an event). Interpolation is linear on the authored values,
    so the shaft's lifted angle along a segment stays between its in-range
    endpoints by convexity; in particular a 350 -> 10 segment is the -340
    sweep, never a +20 wraparound, and is legal only if the rate limit
    admits it.

    With ``check`` (the default), the violations other than
    :class:`DisengagedShaftMotion` raise :class:`ValidationFailure`. With
    ``check=False`` the trajectory is analysed as-is, which lets diagnostic
    tools report on broken files. A trajectory without waypoints raises
    either way.
    """
    waypoints = trajectory.waypoints
    if not waypoints:
        raise ValidationFailure([EmptyTrajectory()])
    limits = trajectory.limits
    strict = policy is Policy.STRICT
    rate_limits = (("servo1", limits.s1_max_rate), ("servo2", limits.s2_max_rate),
                   ("servo3", limits.s3_max_rate))

    events: list[TraceEvent] = []
    violations: list[Violation] = []
    out_of_range = []
    for index, wp in enumerate(waypoints):
        bad = validate_state(wp.state, limits)
        out_of_range.append(bool(bad))
        for v in bad:
            events.append(TraceEvent(wp.t, EVENT_RANGE_VIOLATION, f"waypoint {index}: {v}"))
            violations.append(WaypointRangeViolation(index, v.servo, v.value, v.lo, v.hi))

    theta = [0.0]
    drives: list[int] = []
    flags: list[int] = []
    for i, a, b in trajectory.segments():
        seg_dt = b.t - a.t
        d_s1 = b.state.s1 - a.state.s1
        drive = segment_drive(a.state, b.state, engage_tol)
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
            if strict and disengaged:
                violations.append(DisengagedShaftMotion(i, a.t, b.t, d_s1))
        s1_rate = d_s1 / seg_dt if seg_dt > 0.0 else 0.0
        entry = _gimbal_entry(a.state, b.state, gimbal_tol) if s1_rate != 0.0 else None
        if entry is not None:
            seg_flags |= FLAG_GIMBAL_LOCK_RISK
            events.append(TraceEvent(
                a.t + seg_dt * entry, EVENT_GIMBAL_LOCK_RISK,
                f"segment {i}: shaft turning at {s1_rate!r} deg/s through s2=s3=0"))
        theta.append(theta[-1] + drive * d_s1)
        drives.append(drive)
        flags.append(seg_flags)

    if check:
        hard = [v for v in violations if not isinstance(v, DisengagedShaftMotion)]
        if hard:
            raise ValidationFailure(hard)
    events.sort(key=lambda e: (e.t, e.kind))  # stable: emission order breaks ties
    integrity = check_integrity([ledger_from_state(wp.state) for wp in waypoints],
                                limits, [wp.t for wp in waypoints])
    return Motion(trajectory, tuple(theta), tuple(drives), tuple(flags), tuple(events),
                  integrity, engage_tol, tuple(violations))


def validate_trajectory(trajectory: Trajectory, policy: Policy = Policy.STRICT,
                        engage_tol: float = ENGAGE_TOL) -> list[Violation]:
    """Every constraint violation of the trajectory under ``policy``: the
    ``violations`` of ``analyse(trajectory, policy, check=False)``, or
    ``[EmptyTrajectory()]`` when it has no waypoints."""
    if not trajectory.waypoints:
        return [EmptyTrajectory()]
    return list(analyse(trajectory, policy, check=False, engage_tol=engage_tol).violations)


def _subdivisions(seg_dt: float, d_s1: float, sample_rate: float) -> int:
    """Samples one segment contributes to the trace (its end excluded):
    ``sample_rate`` per second and one per ``_MAX_SHAFT_STEP`` of shaft
    travel, at least one. Clamped just above MAX_TRACE_SAMPLES, so an
    overflowing product still reads as too many."""
    if not seg_dt > 0.0:
        return 1
    count = max(seg_dt * sample_rate, abs(d_s1) / _MAX_SHAFT_STEP, 1.0)
    return math.ceil(min(count, MAX_TRACE_SAMPLES + 1.0))


def _sample_counts(trajectory: Trajectory, sample_rate: float) -> list[int]:
    """Per-segment :func:`_subdivisions` of the trace at ``sample_rate``,
    computed before any sampling or file access; a bad rate or more than
    :data:`MAX_TRACE_SAMPLES` rows raise InvalidParameter."""
    if not (math.isfinite(sample_rate) and sample_rate > 0.0):
        raise InvalidParameter(f"sample_rate must be positive, got {sample_rate!r}")
    counts = [_subdivisions(b.t - a.t, b.state.s1 - a.state.s1, sample_rate)
              for _, a, b in trajectory.segments()]
    if sum(counts) + 1 > MAX_TRACE_SAMPLES:
        raise InvalidParameter(f"sample rate {sample_rate!r} Hz gives more than "
                               f"MAX_TRACE_SAMPLES ({MAX_TRACE_SAMPLES}) trace samples")
    return counts


def _trace_rows(motion: Motion, counts: list[int]) -> Iterator[tuple]:
    """The trace rows ``(t, s1, s2, s3, theta_wheel_deg, x_m, engaged,
    event_flags)``, ``counts[i]`` of them on segment i, then the last
    waypoint's. The one sampling loop behind :func:`simulate` and
    :func:`write_trace_file`."""
    trajectory, engage_tol = motion.trajectory, motion.engage_tol
    radius = trajectory.geometry.wheel_radius
    for (i, a, b), subdivisions in zip(trajectory.segments(), counts):
        t0, a1, a2, a3 = a.t, a.state.s1, a.state.s2, a.state.s3
        seg_dt = b.t - t0
        d_s1, d_s2, d_s3 = b.state.s1 - a1, b.state.s2 - a2, b.state.s3 - a3
        drive, flags, theta = motion.drives[i], motion.flags[i], motion.theta_deg[i]
        driving = drive != 0
        yield (t0, a1, a2, a3, theta, radius * math.radians(theta),
               engaged(a.state, engage_tol), flags)
        for j in range(1, subdivisions):
            alpha = j / subdivisions
            s1 = a1 + d_s1 * alpha
            theta_now = theta + drive * (s1 - a1) if drive else theta
            yield (t0 + seg_dt * alpha, s1, a2 + d_s2 * alpha, a3 + d_s3 * alpha,
                   theta_now, radius * math.radians(theta_now), driving, flags)
    last = trajectory.waypoints[-1]
    yield (last.t, last.state.s1, last.state.s2, last.state.s3, motion.final_theta_deg,
           motion.final_x_m, engaged(last.state, engage_tol),
           motion.flags[-1] if motion.flags else 0)


def simulate(trajectory: Trajectory, sample_rate: float = 50.0, *,
             check: bool = True, engage_tol: float = ENGAGE_TOL,
             gimbal_tol: float = GIMBAL_TOL) -> SimTrace:
    """:func:`analyse` the trajectory, then sample it for the trace export.

    Samples interpolate each segment linearly; results are exact at
    waypoints. Odometry is the rolling relation x = radius * theta in
    radians at every sample. A sample carries its segment's event flags
    (the last sample those of the last segment), and is engaged at a
    waypoint iff that waypoint is, between waypoints iff its segment turns
    the wheel. The keywords are those of :func:`analyse`.

    The sample count is computed first; more than :data:`MAX_TRACE_SAMPLES`
    raise InvalidParameter. :func:`write_trace_file` streams the same rows
    to a file without building them here.
    """
    counts = _sample_counts(trajectory, sample_rate)
    motion = analyse(trajectory, check=check, engage_tol=engage_tol, gimbal_tol=gimbal_tol)
    samples = tuple(TraceSample(t, ServoState(s1, s2, s3), theta, x, is_engaged, flags)
                    for t, s1, s2, s3, theta, x, is_engaged, flags
                    in _trace_rows(motion, counts))
    return SimTrace(samples, motion.events)


# --------------------------------------------------------------------------
# Trajectory file format


# Header key of each MechanismGeometry field, in file order.
_GEOMETRY_KEYS = {"wheel_radius": "wheel_radius_m", "gantry_offset": "gantry_offset_m",
                  "upper_link_length": "upper_link_length_m",
                  "lower_link_length": "lower_link_length_m"}
_SERVOS = ("s1", "s2", "s3")
_FLOAT_MAX = sys.float_info.max


def _header(geometry: MechanismGeometry, limits: ServoLimits) -> dict:
    """The header of the trajectory file format, in file order."""
    return {
        "format_version": TRAJECTORY_FORMAT_VERSION,
        **{key: getattr(geometry, field) for field, key in _GEOMETRY_KEYS.items()},
        "servo_ranges_deg": {s: list(limits.range_of(s)) for s in _SERVOS},
        "max_rates_deg_per_s": {s: limits.rate_of(s) for s in _SERVOS},
    }


def trajectory_to_json(trajectory: Trajectory) -> str:
    """Serialize to the versioned trajectory file format (deterministic bytes)."""
    doc = _header(trajectory.geometry, trajectory.limits)
    doc["waypoints"] = [{"t": wp.t, "s1": wp.state.s1, "s2": wp.state.s2, "s3": wp.state.s3}
                        for wp in trajectory.waypoints]
    return json.dumps(doc, indent=2) + "\n"


def write_trajectory_file(trajectory: Trajectory, path) -> None:
    Path(path).write_text(trajectory_to_json(trajectory), encoding="utf-8")


def _load_object(text: str | bytes) -> dict:
    """The lexical layer shared by trajectory files and configs: a UTF-8 JSON
    object without NaN or Infinity."""
    def reject_constant(name: str):
        raise TrajectoryParseError(f"non-finite number {name!r} is not allowed")

    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text,
                         parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise TrajectoryParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, huge integer, deep nesting
        raise TrajectoryParseError(f"unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TrajectoryParseError("top level must be an object", location="$")
    return doc


def _number(value, key: str, location: str) -> float:
    # abs(value) <= max also rejects inf, NaN and integers beyond the float range.
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and abs(value) <= _FLOAT_MAX):
        raise TrajectoryParseError(f"field {key!r} must be a finite number",
                                   location=f"{location}.{key}")
    return float(value)


def _require(obj: dict, key: str, kind, location: str):
    if key not in obj:
        raise TrajectoryParseError(f"missing required field {key!r}", location=location)
    value = obj[key]
    if kind is float:
        return _number(value, key, location)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TrajectoryParseError(f"field {key!r} has the wrong type",
                                   location=f"{location}.{key}")
    return value


def _pair(obj: dict, key: str, location: str) -> tuple[float, float]:
    value = _require(obj, key, list, location)
    if len(value) != 2:
        raise TrajectoryParseError(f"field {key!r} must be a [min, max] pair",
                                   location=f"{location}.{key}")
    return (_number(value[0], key, location), _number(value[1], key, location))


def _parse_header(doc: dict, location: str) -> tuple[MechanismGeometry, ServoLimits]:
    """Geometry and limits from the header keys of ``doc``, all required."""
    try:
        geometry = MechanismGeometry(**{field: _require(doc, key, float, location)
                                        for field, key in _GEOMETRY_KEYS.items()})
        ranges = _require(doc, "servo_ranges_deg", dict, location)
        rates = _require(doc, "max_rates_deg_per_s", dict, location)
        limits = ServoLimits(
            *(_pair(ranges, s, f"{location}.servo_ranges_deg") for s in _SERVOS),
            *(_require(rates, s, float, f"{location}.max_rates_deg_per_s") for s in _SERVOS))
    except InvalidParameter as exc:
        raise TrajectoryParseError(f"invalid header value: {exc}", location=location) from exc
    return geometry, limits


def parse_trajectory(text: str | bytes) -> Trajectory:
    """Parse the trajectory file format; raises :class:`TrajectoryParseError`
    with line/column (lexical) or location (schema) diagnostics."""
    doc = _load_object(text)
    version = _require(doc, "format_version", int, "$")
    if version != TRAJECTORY_FORMAT_VERSION:
        raise TrajectoryParseError(
            f"unsupported format_version {version!r} "
            f"(expected {TRAJECTORY_FORMAT_VERSION})", location="$.format_version")
    geometry, limits = _parse_header(doc, "$")
    raw_waypoints = _require(doc, "waypoints", list, "$")
    if not raw_waypoints:
        raise TrajectoryParseError("waypoints must be non-empty", location="$.waypoints")
    waypoints = []
    for idx, entry in enumerate(raw_waypoints):
        location = f"$.waypoints[{idx}]"
        if not isinstance(entry, dict):
            raise TrajectoryParseError("waypoint must be an object", location=location)
        waypoints.append(Waypoint(
            _require(entry, "t", float, location),
            ServoState(_require(entry, "s1", float, location),
                       _require(entry, "s2", float, location),
                       _require(entry, "s3", float, location)),
        ))
    return Trajectory(geometry=geometry, limits=limits, waypoints=tuple(waypoints))


def parse_config(text: str | bytes, overrides: dict | None = None
                 ) -> tuple[MechanismGeometry, ServoLimits]:
    """Geometry and limits from a config: any of the trajectory header keys,
    laid over the defaults' header (per servo for ranges and rates), then the
    non-None ``overrides``, keyed by geometry field (``{"wheel_radius": 0.5}``),
    on top; parsed as strictly as a trajectory file header."""
    doc = _header(DEFAULT_GEOMETRY, DEFAULT_LIMITS)
    for key, value in _load_object(text).items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            value = {**doc[key], **value}
        doc[key] = value
    doc.update({_GEOMETRY_KEYS[f]: v for f, v in (overrides or {}).items() if v is not None})
    return _parse_header(doc, "$")


def read_trajectory_file(path) -> Trajectory:
    return parse_trajectory(Path(path).read_bytes())


# --------------------------------------------------------------------------
# Trace export

TRACE_HEADER = "t,s1,s2,s3,theta_wheel_deg,x_m,engaged,event_flags"
_TRACE_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%d,%d\n"
# Rows per write() in write_trace_file: its memory is one chunk, its calls few.
_CHUNK_ROWS = 4096


def trace_to_csv(trace: SimTrace) -> str:
    """Delimited trace text: mandatory header, 9 significant digits."""
    return TRACE_HEADER + "\n" + "".join(
        _TRACE_ROW % (s.t, s.state.s1, s.state.s2, s.state.s3, s.theta_wheel_deg, s.x_m,
                      s.engaged, s.event_flags) for s in trace.samples)


def write_trace_file(motion: Motion, path, sample_rate: float = 50.0) -> None:
    """Write the trace of ``motion`` at ``sample_rate``, the bytes of
    ``trace_to_csv(simulate(...))``, streaming rows to the file in chunks:
    memory stays O(segments) at any sample count. The sample count is
    checked before the file is opened, so a rejected trace leaves ``path``
    untouched."""
    counts = _sample_counts(motion.trajectory, sample_rate)
    rows = _trace_rows(motion, counts)
    with Path(path).open("w", encoding="utf-8") as out:
        out.write(TRACE_HEADER + "\n")
        while chunk := "".join(map(_TRACE_ROW.__mod__, islice(rows, _CHUNK_ROWS))):
            out.write(chunk)
