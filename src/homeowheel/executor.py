"""Trajectory construction, simulation, validation, and file exchange.

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
Dense samples exist only for the trace export: one sampling loop yields
each segment's waypoint row and then its inner rows in column blocks, where
a column the segment holds still is one value. A routine repeats a few servo
moves, so the loop keeps, per call, what a repeated segment shape gives
besides its start time and wheel angle (the interpolated servo columns with
their text, and the time and wheel-angle offsets), for shapes of one block
and up to one block of rows in all. :func:`write_trace_file` formats only the
time and wheel columns per row and streams the rows to disk, a long trace in
contiguous ranges of segments, one per usable CPU: forked workers format the
later ranges into anonymous memory files, appended in order, so the bytes are
those of one process. :func:`simulate` expands the blocks into
:class:`TraceSample` objects.

File formats (versioned, deterministic byte output):

* Trajectory file: JSON with a header (format_version, wheel radius, link
  lengths, servo ranges, max rates) and a ``waypoints`` array of
  ``{t, s1, s2, s3}`` objects. Angles in degrees, time in seconds, exact
  decimal text, every number finite.
* Config (:func:`parse_config`): any subset of the header keys, same parser.
  A key outside the format is an error in either.
* Trace export: comma-delimited text, one row per sample
  ``t,s1,s2,s3,theta_wheel_deg,x_m,engaged,event_flags`` with a mandatory
  header row and values printed to 9 significant digits.
"""

from __future__ import annotations

import enum
import json
import math
import os
import sys
import threading
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, repeat
from operator import attrgetter, lt
from pathlib import Path

from .errors import InvalidParameter, TrajectoryParseError, ValidationFailure
from .mechanism import (
    DEFAULT_GEOMETRY,
    DEFAULT_LIMITS,
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
from .tegument import SEGMENT_OF_SERVO, IntegrityReport, IntegrityViolation

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
#: Least duration of a servo move of the canonical routine and of a plan, s.
MOVE_S = 1.0
#: Most waypoints :func:`build_rotate_wheel_2n` (6n + 5) and
#: :func:`homeowheel.planner.generate_gait` (4 cycles + 1) build: about the
#: size of the largest plan.
MAX_WAYPOINTS = 300_000
#: Most rows of the trace export (13x the 150,201 of ``simulate --n 500`` at
#: 50 Hz). :func:`write_trace_file` streams them in column blocks of at most
#: ``_CHUNK_ROWS`` rows, keeping at most ``_CHUNK_ROWS`` more of repeated
#: segment shapes, in O(segments) memory per process, about 41 bytes of file
#: per row (about 83 MB at the cap). The text of its forked workers waits in
#: anonymous memory files until it is appended: the file less the first
#: part, about half of it on two CPUs (about 41 MB at the cap).
#: :func:`simulate` holds every row.
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
                    "violations", defaults=((),))):
    """What a trajectory does, computed once per segment from its waypoints.

    ``theta_deg[k]`` is the wheel angle at waypoint k (0 at the first);
    ``drives[i]`` and ``flags[i]`` are segment i's wheel coupling (see
    :func:`segment_drive`) and event flags. ``integrity`` certifies the
    twist of every tegument segment over the whole path. ``violations`` are
    the trajectory's constraint violations under the policy it was analysed
    with. The sequences are tuples.
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
    or, where a servo would exceed its rate limit, the least time within it."""
    times = [0.0]
    for prev, state in zip(states, states[1:]):
        times.append(times[-1] + max(MOVE_S, limits.move_time(prev, state)))
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
    limits). More than :data:`MAX_WAYPOINTS` waypoints, limits that exclude
    the driving configurations or s1 = 0 or 360, or times that stop
    increasing raise InvalidParameter.
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


def analyse(trajectory: Trajectory, policy: Policy = Policy.STRICT, *,
            check: bool = True) -> Motion:
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
            if strict and disengaged:
                violations.append(DisengagedShaftMotion(i, a.t, b.t, d_s1))
        s1_rate = d_s1 / seg_dt if seg_dt > 0.0 else 0.0
        entry = _gimbal_entry(a.state, b.state) if s1_rate != 0.0 else None
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
    # As check_integrity: maxima from 0.0, never raised by a NaN, ints kept.
    angle = {"servo1": attrgetter("state.s1"), "servo2": attrgetter("state.s2"),
             "servo3": attrgetter("state.s3")}
    integrity = IntegrityReport(tuple(max(chain((0.0,), map(abs, map(angle[servo], waypoints))))
                                      for servo in SEGMENT_OF_SERVO), tuple(twist_violations))
    return Motion(trajectory, tuple(theta), tuple(drives), tuple(flags), tuple(events),
                  integrity, tuple(violations))


def validate_trajectory(trajectory: Trajectory,
                        policy: Policy = Policy.STRICT) -> list[Violation]:
    """Every constraint violation of the trajectory under ``policy``: the
    ``violations`` of ``analyse(trajectory, policy, check=False)``, or
    ``[EmptyTrajectory()]`` when it has no waypoints."""
    if not trajectory.waypoints:
        return [EmptyTrajectory()]
    return list(analyse(trajectory, policy, check=False).violations)


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


def _shape_rows(subdivisions: int, first: int, stop: int, seg_dt: float, drive: int,
                a1: float, d_s1: float, a2: float, d_s2: float, a3: float, d_s3: float
                ) -> tuple:
    """Inner rows ``first`` to ``stop - 1`` of a segment, relative to its start
    time and wheel angle: what the rows depend on besides those two.

    Returns the ``seg_dt * alpha`` offsets of ``t``; the three servo columns,
    each a list where the servo moves and else its one value; the
    ``drive * (s1 - a1)`` offsets of the wheel angle, or None where the wheel
    holds; and the servo columns' ``"%.9g,%.9g,%.9g"`` text, one string per row.
    """
    alphas = [j / subdivisions for j in range(first, stop)]
    # delta * alpha is float(delta), a zero of delta's sign, for every
    # alpha > 0, so a constant column holds the value the varying expression gives.
    servos = [[start + delta * alpha for alpha in alphas] if delta else start + float(delta)
              for start, delta in ((a1, d_s1), (a2, d_s2), (a3, d_s3))]
    moving = [column for column in servos if type(column) is list]
    template = ",".join(["%.9g" if type(column) is list else "%.9g" % column
                         for column in servos])
    text = map(template.__mod__, zip(*moving)) if moving else repeat(template, len(alphas))
    turns = [drive * (s - a1) for s in servos[0]] if drive and d_s1 else None
    return ([seg_dt * alpha for alpha in alphas], *servos, turns, text)


def _trace_blocks(motion: Motion, counts: list[int], start: int, stop: int
                  ) -> Iterator[tuple]:
    """The trace of segments ``start`` to ``stop - 1`` of ``motion``,
    ``counts[i]`` rows on segment i, then, if ``stop`` is the last segment's
    end, the last waypoint's row. The one sampling loop behind
    :func:`simulate` and each part of :func:`write_trace_file`.

    Each segment gives its waypoint row ``(t, s1, s2, s3, theta_wheel_deg,
    x_m, engaged, event_flags)``, then its inner rows in column blocks of at
    most ``_CHUNK_ROWS`` rows: the same eight columns, each a list holding
    the column's value on every row of the block, or one value shared by all
    of them where the column is constant over the segment; a ninth, read
    once, gives each row's ``s1,s2,s3`` text. The ``t`` column of a block is
    always a list, which tells a block from a row. Constant columns hold the
    value the varying expression gives, so a -0.0 servo angle reads -0.0 on
    its waypoint row and 0.0 on the inner rows.

    A routine repeats a few servo moves, so :func:`_shape_rows` runs once per
    segment shape (sample count, duration, wheel coupling, servo starts and
    deltas) and only the start time and wheel angle are added per row. The
    shapes are keyed by the ``float.hex`` of each value, which tells -0.0
    from 0.0 and takes ints. Only segments of one block are kept, up to
    ``_CHUNK_ROWS`` rows in all, and only for this call, so memory stays
    O(one block).
    """
    trajectory = motion.trajectory
    waypoints = trajectory.waypoints
    radius = trajectory.geometry.wheel_radius
    radians = math.radians
    shapes: dict[tuple, tuple] = {}
    room = _CHUNK_ROWS
    for i, a, b, subdivisions in zip(range(start, stop), waypoints[start:],
                                     waypoints[start + 1:stop + 1], counts[start:stop]):
        t0, a1, a2, a3 = a.t, a.state.s1, a.state.s2, a.state.s3
        seg_dt = b.t - t0
        d_s1, d_s2, d_s3 = b.state.s1 - a1, b.state.s2 - a2, b.state.s3 - a3
        drive, flags, theta = motion.drives[i], motion.flags[i], motion.theta_deg[i]
        driving = drive != 0
        yield (t0, a1, a2, a3, theta, radius * radians(theta),
               engaged(a.state), flags)
        shape = (seg_dt, drive, a1, d_s1, a2, d_s2, a3, d_s3)
        if 1 < subdivisions <= _CHUNK_ROWS + 1:
            key = (subdivisions, *map(float.hex, map(float, shape)))
            rows = shapes.get(key)
            if rows is None:
                rows = _shape_rows(subdivisions, 1, subdivisions, *shape)
                if subdivisions - 1 <= room:
                    rows = shapes[key] = (*rows[:-1], list(rows[-1]))
                    room -= subdivisions - 1
            blocks = (rows,)
        else:
            blocks = (_shape_rows(subdivisions, first,
                                  min(first + _CHUNK_ROWS, subdivisions), *shape)
                      for first in range(1, subdivisions, _CHUNK_ROWS))
        for offsets, s1, s2, s3, turns, text in blocks:
            if turns is None:  # theta + drive * 0.0 is theta, which is never -0.0
                theta_now, x = theta, radius * radians(theta)
            else:
                theta_now = [theta + turn for turn in turns]
                x = [radius * radians(th) for th in theta_now]
            yield ([t0 + offset for offset in offsets], s1, s2, s3, theta_now, x,
                   driving, flags, text)
    if stop == len(counts):
        last = waypoints[-1]
        yield (last.t, last.state.s1, last.state.s2, last.state.s3, motion.final_theta_deg,
               motion.final_x_m, engaged(last.state),
               motion.flags[-1] if motion.flags else 0)


def _block_rows(block: tuple) -> Iterable[tuple]:
    """The rows of one item of :func:`_trace_blocks`: a waypoint row as it
    is, a block expanded with its constant columns repeated."""
    if type(block[0]) is not list:
        return (block,)
    n = len(block[0])
    return zip(*(column if type(column) is list else repeat(column, n)
                 for column in block[:8]))


def simulate(trajectory: Trajectory, sample_rate: float = 50.0, *,
             check: bool = True) -> SimTrace:
    """:func:`analyse` the trajectory, then sample it for the trace export.

    Samples interpolate each segment linearly; results are exact at
    waypoints. Odometry is the rolling relation x = radius * theta in
    radians at every sample. A sample carries its segment's event flags
    (the last sample those of the last segment), and is engaged at a
    waypoint iff that waypoint is, between waypoints iff its segment turns
    the wheel. ``check`` is that of :func:`analyse`.

    The sample count is computed first; more than :data:`MAX_TRACE_SAMPLES`
    raise InvalidParameter. :func:`write_trace_file` streams the same rows
    to a file without building them here.
    """
    counts = _sample_counts(trajectory, sample_rate)
    motion = analyse(trajectory, check=check)
    rows = chain.from_iterable(map(_block_rows, _trace_blocks(motion, counts, 0, len(counts))))
    samples = tuple(TraceSample(t, ServoState(s1, s2, s3), theta, x, is_engaged, flags)
                    for t, s1, s2, s3, theta, x, is_engaged, flags in rows)
    return SimTrace(samples, motion.events)


# --------------------------------------------------------------------------
# Trajectory file format


# Header key of each MechanismGeometry field, in file order.
_GEOMETRY_KEYS = {"wheel_radius": "wheel_radius_m", "gantry_offset": "gantry_offset_m",
                  "upper_link_length": "upper_link_length_m",
                  "lower_link_length": "lower_link_length_m"}
_SERVOS = ("s1", "s2", "s3")
_WAYPOINT_KEYS = frozenset(("t", *_SERVOS))
# Top-level keys of the trajectory file format; a config may hold any of them.
_FORMAT_KEYS = frozenset(("format_version", *_GEOMETRY_KEYS.values(), "servo_ranges_deg",
                          "max_rates_deg_per_s", "waypoints"))
_FLOAT_MAX = sys.float_info.max


def _header(geometry: MechanismGeometry, limits: ServoLimits) -> dict:
    """The header of the trajectory file format, in file order."""
    return {
        "format_version": TRAJECTORY_FORMAT_VERSION,
        **{key: getattr(geometry, field) for field, key in _GEOMETRY_KEYS.items()},
        "servo_ranges_deg": {s: list(limits.range_of(s)) for s in _SERVOS},
        "max_rates_deg_per_s": {s: limits.rate_of(s) for s in _SERVOS},
    }


# One waypoint of the trajectory file as ``json.dumps(..., indent=2)`` lays it
# out, for finite floats, which json writes as their repr.
_WAYPOINT_JSON = '\n    {\n      "t": %r,\n      "s1": %r,\n      "s2": %r,\n      "s3": %r\n    }'


def trajectory_to_json(trajectory: Trajectory) -> str:
    """Serialize to the versioned trajectory file format (deterministic bytes):
    ``json.dumps`` of the header and the waypoints with ``indent=2``."""
    doc = _header(trajectory.geometry, trajectory.limits)
    rows = [(t, *state) for t, state in trajectory.waypoints]
    values = list(chain.from_iterable(rows))
    if rows and set(map(type, values)) == {float} and all(map(math.isfinite, values)):
        frame = json.dumps(doc, indent=2)
        return (frame[:-2] + ',\n  "waypoints": ['
                + ",".join(map(_WAYPOINT_JSON.__mod__, rows)) + "\n  ]\n}\n")
    # json writes ints, bools and non-finite floats in its own way.
    doc["waypoints"] = [{"t": t, "s1": s1, "s2": s2, "s3": s3} for t, s1, s2, s3 in rows]
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


def _known_keys(obj: dict, keys, location: str) -> dict:
    """``obj``, once every key of it is one of ``keys``."""
    for key in obj:
        if key not in keys:
            raise TrajectoryParseError(f"unknown field {key!r}", location=f"{location}.{key}")
    return obj


def _pair(obj: dict, key: str, location: str) -> tuple[float, float]:
    value = _require(obj, key, list, location)
    if len(value) != 2:
        raise TrajectoryParseError(f"field {key!r} must be a [min, max] pair",
                                   location=f"{location}.{key}")
    return (_number(value[0], key, location), _number(value[1], key, location))


def _parse_header(doc: dict, location: str) -> tuple[MechanismGeometry, ServoLimits]:
    """Geometry and limits from the header keys of ``doc``, all required.
    A key outside the format, at the top level or per servo, is an error."""
    _known_keys(doc, _FORMAT_KEYS, location)
    try:
        geometry = MechanismGeometry(**{field: _require(doc, key, float, location)
                                        for field, key in _GEOMETRY_KEYS.items()})
        ranges = _known_keys(_require(doc, "servo_ranges_deg", dict, location), _SERVOS,
                             f"{location}.servo_ranges_deg")
        rates = _known_keys(_require(doc, "max_rates_deg_per_s", dict, location), _SERVOS,
                            f"{location}.max_rates_deg_per_s")
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
        _known_keys(entry, _WAYPOINT_KEYS, location)
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
# Most inner rows in one column block of _trace_blocks, and most rows of the
# segment shapes it keeps: the memory of a trace export is about two blocks
# per process, and it makes about two write() calls per segment.
_CHUNK_ROWS = 4096
# Most processes that format one trace export: the caller and up to three
# forked workers, one per usable CPU.
_EXPORT_PROCESSES = 4
# Fewest rows in each part of a split trace export; a part this size takes
# about 20 ms to format, against about 1 ms to fork a worker for it.
_MIN_PART_ROWS = 4 * _CHUNK_ROWS
_CAN_SPLIT = all(hasattr(os, name) for name in ("fork", "memfd_create", "sendfile",
                                                 "sched_getaffinity", "sched_setaffinity"))


def _export_cpus() -> list[int]:
    """The usable CPUs a trace export may be formatted on, or none: on a
    platform that cannot fork a worker that writes to an anonymous memory
    file, or while a second thread is alive, since a forked copy of this
    process would hold whatever locks that thread held."""
    if not _CAN_SPLIT or threading.active_count() > 1:
        return []
    return sorted(os.sched_getaffinity(0))


def _export_parts(motion: Motion, counts: list[int], processes: int) -> list[int]:
    """Segment bounds of the parts a trace export is formatted in: part k
    holds segments ``bounds[k]`` to ``bounds[k + 1] - 1``.

    There is one part per process, at most :data:`_EXPORT_PROCESSES`, of
    about equal formatting cost: a row where the wheel turns formats three
    floats (``t``, ``theta_wheel_deg`` and ``x_m``) and any other row one.
    There are fewer parts where one would hold fewer than ``_MIN_PART_ROWS``
    rows, and one, ``[0, len(counts)]``, where no two parts would."""
    whole = [0, len(counts)]
    wanted = min(processes, _EXPORT_PROCESSES, (sum(counts) + 1) // _MIN_PART_ROWS)
    if wanted < 2:
        return whole
    waypoints = motion.trajectory.waypoints
    rows = [0, *accumulate(counts)]
    rows[-1] += 1  # the last waypoint's row
    cost = [0, *accumulate(n * 3 if drive and a.state.s1 != b.state.s1 else n
                           for n, drive, a, b in zip(counts, motion.drives, waypoints,
                                                     waypoints[1:]))]
    for parts in range(wanted, 1, -1):
        bounds = [0, *(bisect_left(cost, cost[-1] * k / parts) for k in range(1, parts)),
                  len(counts)]
        if all(rows[stop] - rows[start] >= _MIN_PART_ROWS
               for start, stop in zip(bounds, bounds[1:])):
            return bounds
    return whole


def _write_rows(out, motion: Motion, counts: list[int], start: int, stop: int) -> None:
    """Write the rows :func:`_trace_blocks` gives for segments ``start`` to
    ``stop - 1`` to the text file ``out``, each formatted by ``_TRACE_ROW``.
    The servo columns come formatted, once per repeated segment shape; each
    block's constant wheel columns are formatted once, into the row template
    of the block, so only ``t``, and ``theta_wheel_deg`` and ``x_m`` where
    the wheel turns, are formatted per row."""
    for block in _trace_blocks(motion, counts, start, stop):
        if type(block[0]) is not list:
            out.write(_TRACE_ROW % block)
            continue
        t, _, _, _, theta, x, driving, flags, servos = block
        if type(theta) is list:
            template, columns = "%.9g,%s,%.9g,%.9g,", (t, servos, theta, x)
        else:
            template, columns = "%%.9g,%%s,%.9g,%.9g," % (theta, x), (t, servos)
        template += "%d,%d\n" % (driving, flags)
        out.write("".join(map(template.__mod__, zip(*columns))))


def _fork_part(part: int, cpu: int, motion: Motion, counts: list[int], start: int,
               stop: int) -> int:
    """Fork a worker that runs on ``cpu`` only and writes the rows of
    segments ``start`` to ``stop - 1`` to the file descriptor ``part``;
    returns its pid. The worker leaves only through ``os._exit``, with
    status 0 once every row is written, so it never flushes the caller's
    buffers or runs its exit handlers, and an exception in it never returns
    into the caller's code."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.sched_setaffinity(0, (cpu,))
            with open(part, "w", encoding="utf-8", closefd=False) as text:
                _write_rows(text, motion, counts, start, stop)
            status = 0
        finally:
            os._exit(status)
    return pid


def write_trace_file(motion: Motion, path, sample_rate: float = 50.0) -> None:
    """Write the trace of ``motion`` at ``sample_rate``: the header row, then
    each row of :func:`simulate`'s samples formatted by ``_TRACE_ROW``,
    streamed to the file a column block at a time, so memory stays
    O(segments) at any sample count.

    A long trace is formatted in parts, one per usable CPU (see
    :func:`_export_parts`): this process streams the first part to the file
    while a forked worker per later part writes it to an anonymous memory
    file, which is appended in order once the worker has exited with status
    0. The bytes are those of the serial export. Each process runs on a CPU
    of its own until the export ends: left to the scheduler, a worker can
    share its parent's CPU for the whole export. A worker that fails raises
    OSError; on any error every worker still running is killed, and every
    worker is reaped before this returns or raises.

    The sample count is checked before the file is opened, and the file is
    opened before any worker starts, so a rejected trace leaves ``path``
    untouched and an unwritable path starts no worker."""
    counts = _sample_counts(motion.trajectory, sample_rate)
    cpus = _export_cpus()
    bounds = _export_parts(motion, counts, len(cpus))
    pinned = len(bounds) > 2
    with Path(path).open("w", encoding="utf-8") as out:
        out.write(TRACE_HEADER + "\n")
        parts: list[int] = []
        running: list[int] = []
        try:
            if pinned:
                os.sched_setaffinity(0, cpus[:1])
            for cpu, start, stop in zip(cpus[1:], bounds[1:], bounds[2:]):
                parts.append(os.memfd_create("trace-part", os.MFD_CLOEXEC))
                running.append(_fork_part(parts[-1], cpu, motion, counts, start, stop))
            _write_rows(out, motion, counts, bounds[0], bounds[1])
            out.flush()
            for part in parts:
                _, status = os.waitpid(running[0], 0)
                del running[0]
                if status:
                    raise OSError(f"trace export worker failed with exit status "
                                  f"{os.waitstatus_to_exitcode(status)}")
                size = os.fstat(part).st_size
                sent = 0
                while sent < size:
                    sent += os.sendfile(out.fileno(), part, sent, size - sent)
        finally:
            if running:
                from signal import SIGKILL  # only on this error path: its import takes 1 ms
                for pid in running:
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)
            for part in parts:
                os.close(part)
            if pinned:
                os.sched_setaffinity(0, cpus)
