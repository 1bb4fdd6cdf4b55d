"""Property tests: results are properties of the piecewise-linear path, so
they hold for any waypoints, limits and sample rate."""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from collections import Counter
from functools import partial
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from homeowheel import fileformat
from homeowheel.cli import run
from homeowheel.errors import InvalidParameter, RateInfeasible, TrajectoryParseError
from homeowheel.executor import (
    _RATE_GUARD,
    FLAG_GIMBAL_LOCK_RISK,
    DisengagedShaftMotion,
    RateViolation,
    TimeOrderViolation,
    Trajectory,
    Violation,
    Waypoint,
    WaypointRangeViolation,
    analyse,
    build_rotate_wheel_2n,
    segment_drive,
    validate_trajectory,
)
from homeowheel.fileformat import (
    _header,
    parse_config,
    parse_trajectory,
    trajectory_to_json,
    write_trajectory_file,
)
from homeowheel.mechanism import (
    DEFAULT_GEOMETRY,
    GIMBAL_TOL,
    MechanismGeometry,
    ServoLimits,
    ServoState,
    drive_sign,
    forward_kinematics,
    validate_state,
)
from homeowheel.planner import count_engaged_sweeps, generate_gait, plan_rotation
from homeowheel.tegument import TwistLedger, check_integrity
from homeowheel.trace import _CHUNK_ROWS, _time_fractions, simulate, write_trace_file
from reference import (
    quat_to_matrix,
    reference_parse_trajectory,
    reference_trace_csv,
    reference_trace_rows,
    sample_rows,
)

# Angles on a 1/8 deg grid: differences of grid values are exact, so an
# interpolated sample never rounds past the segment's endpoints.
grid = st.integers(-3200, 3200).map(lambda k: k / 8.0)
# s2 and s3 favour the clutch and gimbal-lock poses.
joint = st.one_of(st.sampled_from([-90.0, 0.0, 90.0]), grid)
sample_rates = st.sampled_from([0.001, 0.3, 1.0, 7.0, 49.0, 50.0])


@st.composite
def limits(draw):
    def span():
        lo = draw(grid)
        return (lo, lo + draw(st.integers(1, 6400)) / 8.0)
    rate = st.integers(1, 4000).map(lambda k: k / 4.0)
    return ServoLimits(span(), span(), span(), draw(rate), draw(rate), draw(rate))


# Limits that admit every angle and rate the strategies draw, so that some
# trajectories have no violation but disengaged shaft motion.
WIDE_LIMITS = ServoLimits((-400.0, 400.0), (-400.0, 400.0), (-400.0, 400.0),
                          4000.0, 4000.0, 4000.0)


@st.composite
def trajectories(draw, joint=joint):
    """Waypoints on the grid, s2 and s3 drawn from ``joint``, under random
    limits, which they almost always leave, or under :data:`WIDE_LIMITS`,
    which they always keep."""
    n = draw(st.integers(1, 8))
    t = 0.0
    waypoints = []
    for _ in range(n):
        waypoints.append(Waypoint(t, ServoState(draw(grid), draw(joint), draw(joint))))
        t += draw(st.integers(0, 8)) / 4.0
    return Trajectory(limits=draw(st.one_of(limits(), st.just(WIDE_LIMITS))),
                      waypoints=tuple(waypoints))


@settings(max_examples=300, deadline=None)
@given(trajectories())
def test_lenient_clean_trajectories_pass_the_integrity_certificate(trajectory):
    motion = analyse(trajectory)
    violations = [v for v in validate_trajectory(trajectory)
                  if not isinstance(v, DisengagedShaftMotion)]
    if not violations:
        event("lenient-clean")
        assert motion.integrity.ok
    out_of_range = any(isinstance(v, WaypointRangeViolation) for v in violations)
    assert motion.integrity.ok == (not out_of_range)


@settings(max_examples=200, deadline=None)
@given(trajectories(), sample_rates, sample_rates)
def test_simulate_agrees_with_analyse_at_any_sample_rate(trajectory, rate_a, rate_b):
    motion = analyse(trajectory)
    for rate in (rate_a, rate_b):
        trace = simulate(trajectory, rate)
        assert trace.events == motion.events
        assert trace.final_theta_deg == motion.final_theta_deg
        sampled = check_integrity([TwistLedger(s.s2, s.s1, s.s3) for s in trace.states()],
                                  trajectory.limits, trace.times())
        assert sampled.max_abs_twist == motion.integrity.max_abs_twist
        assert sampled.ok == motion.integrity.ok


@settings(max_examples=200, deadline=None)
@given(trajectories(), sample_rates)
def test_final_sample_angle_is_the_segment_sum(trajectory, rate):
    motion = analyse(trajectory)
    trace = simulate(trajectory, rate)
    expected = 0.0
    for _, a, b in trajectory.segments():
        expected += segment_drive(a.state, b.state) * (b.state.s1 - a.state.s1)
    assert trace.samples[-1].theta_wheel_deg == motion.final_theta_deg == expected


def _closest_approach(a, b) -> float:
    """min over alpha in [0, 1] of max(|s2|, |s3|) along the segment. The
    function is convex and piecewise linear, so the minimum sits at an end
    or where two of its pieces meet."""
    d2, d3 = b.s2 - a.s2, b.s3 - a.s3
    alphas = [0.0, 1.0]
    for num, den in ((-a.s2, d2), (-a.s3, d3), (a.s3 - a.s2, d2 - d3), (-a.s2 - a.s3, d2 + d3)):
        if den != 0.0:
            alphas.append(num / den)
    return min(max(abs(a.s2 + d2 * x), abs(a.s3 + d3 * x)) for x in alphas if 0.0 <= x <= 1.0)


# s2 and s3 also just inside and just outside the gimbal-lock tolerance.
near_gimbal_joint = st.one_of(joint, st.sampled_from(
    [k * GIMBAL_TOL for k in (-2.0, -1.5, -0.5, 0.5, 1.5, 2.0)]))


@settings(max_examples=300, deadline=None)
@given(trajectories(near_gimbal_joint))
def test_gimbal_risk_flags_segments_that_pass_the_degenerate_pose(trajectory):
    motion = analyse(trajectory)
    for i, a, b in trajectory.segments():
        flagged = bool(motion.flags[i] & FLAG_GIMBAL_LOCK_RISK)
        if b.state.s1 == a.state.s1:
            assert not flagged
            continue
        closest = _closest_approach(a.state, b.state)
        if closest < GIMBAL_TOL - 1e-9:
            assert flagged
        elif closest > GIMBAL_TOL + 1e-9:
            assert not flagged


@st.composite
def geometries(draw):
    length = st.integers(0, 4000).map(lambda k: k / 1000.0)
    return MechanismGeometry(draw(length.filter(lambda x: x > 0.0)), draw(length),
                             draw(length), draw(length))


@settings(max_examples=200, deadline=None)
@given(trajectories(), geometries())
def test_trajectory_files_round_trip(trajectory, geometry):
    trajectory = Trajectory(geometry, trajectory.limits, trajectory.waypoints)
    text = trajectory_to_json(trajectory)
    assert parse_trajectory(text) == trajectory
    assert parse_config(text) == (trajectory.geometry, trajectory.limits)


# Finite floats, with the edges of their text forms, and values the parser
# would not read back or reads as floats: ints (within and beyond the float
# range), bools and non-finite floats.
json_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308]))
json_odd_values = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.booleans(),
                            st.sampled_from([math.inf, -math.inf, math.nan,
                                             2 ** 1024, -2 ** 1024]))


@st.composite
def json_waypoints(draw):
    rows = draw(st.lists(st.lists(json_floats, min_size=4, max_size=4), max_size=6))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 3))] = draw(json_odd_values)
    return tuple(Waypoint(t, ServoState(s1, s2, s3)) for t, s1, s2, s3 in rows)


def writable(waypoints, bound: int) -> bool:
    """Whether the file format holds ``waypoints``: at most ``bound`` of
    them, every value a finite int or float."""
    return len(waypoints) <= bound and all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max
        for wp in waypoints for v in (wp.t, *wp.state))


def as_floats(waypoints) -> tuple:
    return tuple(Waypoint(float(wp.t), ServoState(*map(float, wp.state))) for wp in waypoints)


@settings(max_examples=300, deadline=None)
@given(json_waypoints(), geometries(), st.integers(1, 6))
def test_trajectory_writer_is_json_dumps(waypoints, geometry, bound):
    # Under a small MAX_WAYPOINTS, what the writer takes it writes as
    # json.dumps writes the values as floats, and the parser reads it back;
    # the rest raises InvalidParameter, and no waypoints make no trajectory.
    if not waypoints:
        event("no waypoints")
        with pytest.raises(InvalidParameter, match="at least one waypoint"):
            Trajectory(geometry, WIDE_LIMITS, waypoints)
        return
    trajectory = Trajectory(geometry, WIDE_LIMITS, waypoints)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileformat, "MAX_WAYPOINTS", bound)
        if not writable(waypoints, bound):
            event("rejected")
            with pytest.raises(InvalidParameter):
                trajectory_to_json(trajectory)
            return
        event("written")
        text = trajectory_to_json(trajectory)
        loaded = parse_trajectory(text)
    doc = _header(geometry, WIDE_LIMITS)
    doc["waypoints"] = [{"t": wp.t, "s1": wp.state.s1, "s2": wp.state.s2, "s3": wp.state.s3}
                        for wp in as_floats(waypoints)]
    assert text == json.dumps(doc, indent=2) + "\n"
    assert repr(loaded) == repr(trajectory._replace(waypoints=as_floats(waypoints)))


@st.composite
def unchecked_trajectories(draw):
    """:func:`trajectories` with some angles replaced by -0.0 and some times
    stepping back, under any geometry."""
    trajectory = draw(trajectories())
    waypoints = []
    for wp in trajectory.waypoints:
        s1, s2, s3 = (-0.0 if draw(st.integers(0, 4)) == 0 else v
                      for v in (wp.state.s1, wp.state.s2, wp.state.s3))
        t = wp.t - draw(st.sampled_from([0.0, 0.0, 0.0, 0.5, 3.0]))
        waypoints.append(Waypoint(t, ServoState(s1, s2, s3)))
    return Trajectory(draw(geometries()), trajectory.limits, tuple(waypoints))


# Move starts, with both zeros and an int zero, and deltas, tiny ones too.
move_starts = st.sampled_from([0.0, -0.0, 0, 90.0, -90.0, 360.0])
move_deltas = st.sampled_from([0.0, 5e-324, -5e-324, 90.0, -90.0, 360.0])
durations = st.sampled_from([0.5, 1, 1.5])


def zero_twin(state: ServoState) -> ServoState:
    """``state`` with each zero of the other sign: equal under ``==``."""
    return ServoState(*(v if v != 0 else 0.0 if math.copysign(1.0, v) < 0 else -0.0
                        for v in state))


@st.composite
def repeated_moves(draw):
    """A trajectory that repeats a few moves, and a sample rate. Each move of
    the small alphabet also comes from its :func:`zero_twin`, so starts at
    0.0, -0.0 and int 0 meet tiny deltas such as -5e-324 on equal-looking
    segments. The trajectory walks the alphabet from t = 0.0, -0.0 or 0; at
    the higher rates one segment spans several column blocks, or the
    repeated shapes outgrow what the sampling loop keeps of them."""
    moves = []
    for _ in range(draw(st.integers(1, 2))):
        start = ServoState(*(draw(move_starts) for _ in range(3)))
        end = ServoState(*(a + d for a, d in zip(start, (draw(move_deltas) for _ in start))))
        duration = draw(durations)
        moves += [(start, end, duration), (zero_twin(start), end, duration)]
    rate = draw(st.sampled_from([0.3, 7.0, 50.0, 2000.0, 4100.0]))
    t = draw(st.sampled_from([0.0, -0.0, 0]))
    waypoints = []
    for _ in range(draw(st.integers(1, 2 if rate > 1000.0 else 6))):
        start, end, duration = draw(st.sampled_from(moves))
        waypoints += [Waypoint(t, start), Waypoint(t + duration, end)]
        t += duration + draw(durations)
    return Trajectory(waypoints=tuple(waypoints)), rate


@st.composite
def whole_starts_and_offsets(draw):
    """A whole second ``T`` in [1, 10**9) and an offset: any in [0, 3], or
    within 1e-16 to 3e-7 of a last-place unit of ``T + offset`` from a
    rounding tie, or just under a whole second."""
    start = draw(st.integers(1, 10 ** 9 - 1))
    unit = 10.0 ** (len(str(start)) - 9)
    kind = draw(st.sampled_from(["any", "tie", "under"]))
    if kind == "any":
        offset = draw(st.floats(0.0, 3.0))
    elif kind == "tie":
        tie = (draw(st.integers(0, round(3 / unit))) + 0.5) * unit
        offset = tie + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-16, 3e-7)) * unit
    else:
        offset = (math.nextafter(float(draw(st.integers(1, 3))), 0.0)
                  - draw(st.sampled_from([0.0, 1e-12, 1e-9, 0.5 * unit])))
    event(kind)
    return start, max(offset, 0.0)


def at_digit_edges(test):
    """``@example`` cases at ``T = 10**k - 1`` and ``10**k`` for each digit
    count: carries into the next digit, halves and a quarter."""
    for k in range(1, 10):
        for case in ((10 ** k - 1, 0.999999996), (10 ** k - 1, 0.5), (10 ** k - 1, 0.6),
                     (10 ** k, 0.25)):
            if case[0] < 10 ** 9:
                test = example(case)(test)
    return test


@settings(max_examples=1000, deadline=None)
@given(whole_starts_and_offsets())
@at_digit_edges
def test_time_fractions_are_the_formatted_time(case):
    # The one rule behind the joined trace rows: the whole seconds and the
    # fraction it gives are "%.9g" of the float sum, for an int or a float
    # start, or it declines.
    start, offset = case
    digits = len(str(start))
    k, fractions = _time_fractions([offset], digits)
    if k is None or start + k >= 10 ** digits:
        event("declined")
        return
    (fraction,) = fractions
    for t0 in (start, float(start)):
        assert str(start + k) + fraction == "%.9g" % (t0 + offset)


def with_times(trajectory: Trajectory, times) -> Trajectory:
    return trajectory._replace(waypoints=tuple(
        Waypoint(t, wp.state) for t, wp in zip(times, trajectory.waypoints)))


# The routine under 70 deg/s limits for s2 and s3, which starts no segment
# after t = 0 on a whole second; from t = 999,999,998.0 in 1.5 s steps,
# which crosses 10**9 and %g's exponent form (at 1 Hz its first row after
# t0 = 999,999,998 rounds to 999,999,999, and after t0 = 999,999,999 to
# 1e+09); with int times.
SLOW_SWAP_ROUTINE = (build_rotate_wheel_2n(2, limits=ServoLimits(s2_max_rate=70.0,
                                                                   s3_max_rate=70.0)), 50.0)
ROUTINE_PAST_1E9 = (with_times(build_rotate_wheel_2n(1),
                               [999_999_998.0 + 1.5 * i for i in range(11)]), 1.0)
ROUTINE_INTO_1E9 = (with_times(build_rotate_wheel_2n(1),
                               [999_999_999.0 + 1.5 * i for i in range(11)]), 1.0)
ROUTINE_IN_INT_SECONDS = (with_times(build_rotate_wheel_2n(2), range(3, 20)), 50.0)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.tuples(unchecked_trajectories(),
              st.one_of(sample_rates, st.floats(min_value=0.01, max_value=200.0))),
    repeated_moves()))
@example((build_rotate_wheel_2n(1), 4100.0))
@example(SLOW_SWAP_ROUTINE)
@example(ROUTINE_PAST_1E9)
@example(ROUTINE_INTO_1E9)
@example(ROUTINE_IN_INT_SECONDS)
def test_streamed_trace_file_is_the_simulated_trace(case):
    # Both consumers of the one sampling loop, each against the row-at-a-time
    # reference.
    trajectory, rate = case
    motion = analyse(trajectory)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_file(motion, path, rate)
        written = path.read_bytes()
    assert written == reference_trace_csv(motion, rate)
    trace = simulate(trajectory, rate)
    assert repr(sample_rows(trace)) == repr(list(reference_trace_rows(motion, rate)))


def test_long_segment_with_negative_zero_columns_matches_the_reference(tmp_path):
    # 5,000 rows on one segment, more than one block; s1 and s3 hold -0.0,
    # which the waypoint row prints as -0 and the inner rows as 0.
    trajectory = Trajectory(waypoints=(Waypoint(0.0, ServoState(-0.0, 0.0, -0.0)),
                                       Waypoint(100.0, ServoState(-0.0, 90.0, -0.0))))
    motion = analyse(trajectory)
    assert 5000 > _CHUNK_ROWS
    path = tmp_path / "trace.csv"
    write_trace_file(motion, path, 50.0)
    written = path.read_bytes()
    assert written == reference_trace_csv(motion, 50.0)
    lines = written.decode().splitlines()
    assert len(lines) == 1 + 5000 + 1
    assert lines[1] == "0,-0,0,-0,0,0,0,0"
    assert lines[2] == "0.02,0,0.018,0,0,0,0,0"
    assert lines[-1] == "100,-0,90,-0,0,0,0,0"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(trajectories(), sample_rates), repeated_moves()))
@example((Trajectory(waypoints=(Waypoint(0.0, ServoState(0.0, 90.0, -90.0)),
                                Waypoint(400.0, ServoState(360.0, 90.0, -90.0)))), 50.0))
@example((build_rotate_wheel_2n(1), 4100.0))
@example(SLOW_SWAP_ROUTINE)
@example(ROUTINE_PAST_1E9)
@example(ROUTINE_INTO_1E9)
@example(ROUTINE_IN_INT_SECONDS)
def test_split_trace_file_is_the_serial_trace(split_export, case):
    # The export on 1, 2 and 3 CPUs, in parts of as few as one row, the later
    # ones written by forked workers, against the row-at-a-time reference.
    # Parts are whole segments, so one long segment stays serial.
    trajectory, rate = case
    motion = analyse(trajectory)
    expected = reference_trace_csv(motion, rate)
    segments = len(trajectory.waypoints) - 1
    for cpus in (1, 2, 3):
        with split_export(cpus) as seen, tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            write_trace_file(motion, path, rate)
            written = path.read_bytes()
        event(f"{cpus} CPUs: {len(seen.forked) + 1} parts")
        assert written == expected
        assert len(seen.forked) < max(min(cpus, segments), 1)
        with pytest.raises(ChildProcessError):  # every worker reaped
            os.waitpid(-1, os.WNOHANG)


def with_odd_angles(trajectory: Trajectory, draw) -> Trajectory:
    """``trajectory`` with some whole angles as ints and some angles
    non-finite, which only a library caller can pass."""
    def odd(v):
        choice = draw(st.integers(0, 9))
        if choice == 0 and v == int(v):
            return int(v)
        return draw(st.sampled_from([math.nan, math.inf, -math.inf])) if choice == 1 else v
    return trajectory._replace(waypoints=tuple(
        Waypoint(wp.t, ServoState(*map(odd, wp.state))) for wp in trajectory.waypoints))


@settings(max_examples=300, deadline=None)
@given(st.one_of(trajectories(), unchecked_trajectories()), st.data())
def test_certificate_is_check_integrity_over_the_waypoints(trajectory, data):
    # analyse's certificate, read off its range test, equals the sampled
    # certificate of the raw-angle ledgers at the waypoints: the same
    # violations in the same order, and maxima of the same values and types.
    if data.draw(st.booleans()):
        trajectory = with_odd_angles(trajectory, data.draw)
    waypoints = trajectory.waypoints
    reference = check_integrity([TwistLedger(wp.state.s2, wp.state.s1, wp.state.s3)
                                 for wp in waypoints],
                                trajectory.limits, [wp.t for wp in waypoints])
    integrity = analyse(trajectory).integrity
    assert integrity == reference
    assert repr(integrity) == repr(reference)


def reference_validate_trajectory(trajectory: Trajectory) -> list[Violation]:
    """The standalone validator that analyse replaced, kept as the reference."""
    violations: list[Violation] = []
    for index, wp in enumerate(trajectory.waypoints):
        for v in validate_state(wp.state, trajectory.limits):
            violations.append(WaypointRangeViolation(index, v.servo, v.value, v.lo, v.hi))
    for i, a, b in trajectory.segments():
        if not b.t > a.t:
            violations.append(TimeOrderViolation(i + 1, b.t))
            continue
        dt = b.t - a.t
        for servo, delta in (("s1", b.state.s1 - a.state.s1),
                             ("s2", b.state.s2 - a.state.s2),
                             ("s3", b.state.s3 - a.state.s3)):
            rate = abs(delta) / dt
            max_rate = trajectory.limits.rate_of(servo)
            if rate > max_rate * (1.0 + _RATE_GUARD):
                violations.append(RateViolation(i, f"servo{servo[-1]}", rate, max_rate))
        d_s1 = b.state.s1 - a.state.s1
        if d_s1 != 0.0 and segment_drive(a.state, b.state) == 0:
            violations.append(DisengagedShaftMotion(i, a.t, b.t, d_s1))
    return violations


@settings(max_examples=300, deadline=None)
@given(st.one_of(unchecked_trajectories(), unchecked_trajectories().map(
           lambda t: Trajectory(t.geometry, WIDE_LIMITS, t.waypoints))))
def test_analyse_reports_the_reference_violations(trajectory):
    expected = reference_validate_trajectory(trajectory)
    assert validate_trajectory(trajectory) == expected
    assert list(analyse(trajectory).violations) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(0, 64), st.integers(-2000, 2000))
def test_plan_sweep_count_is_bounded_by_the_s1_span(span_eighths, start_eighths, target_eighths):
    span, target = span_eighths / 8.0, target_eighths / 8.0
    start = ServoState(min(start_eighths, span_eighths) / 8.0, 0.0, 0.0)
    trajectory = plan_rotation(target, start=start, limits=ServoLimits(s1_range=(0.0, span)))
    first = max(span - start.s1, start.s1)
    expected = 0 if target == 0 else 1 + math.ceil(max(abs(target) - first, 0.0) / span)
    assert count_engaged_sweeps(trajectory) == expected <= math.ceil(abs(target) / span) + 1
    assert analyse(trajectory).final_theta_deg == target


# Range ends that sometimes exclude the home angle 0, the clutch angles +-90
# or the sweep end 360, and rates over eleven decades.
range_los = st.sampled_from([-400.0, -360.0, -90.0, -45.0, 0.0, 10.0])
range_his = st.sampled_from([45.0, 90.0, 100.0, 359.5, 360.0, 400.0])
servo_rates = st.floats(-7.0, 4.0).map(lambda e: 10.0 ** e)


@st.composite
def builder_limits(draw):
    ranges = (draw(st.one_of(st.just(default), st.tuples(range_los, range_his)))
              for default in ((0.0, 360.0), (-90.0, 90.0), (-90.0, 90.0)))
    return ServoLimits(*ranges, draw(servo_rates), draw(servo_rates), draw(servo_rates))


@st.composite
def builder_calls(draw):
    """A call of one of the builders under drawn limits, the gait at and just
    above its least period."""
    limits = draw(builder_limits())
    builder = draw(st.sampled_from(["simulate", "plan", "gait"]))
    if builder == "simulate":
        return partial(build_rotate_wheel_2n, draw(st.integers(1, 20)), limits=limits)
    if builder == "plan":
        return partial(plan_rotation, draw(st.floats(-2000.0, 2000.0)), limits=limits)
    period = 2.0 * (360.0 / limits.s1_max_rate
                    + max(180.0 / limits.s2_max_rate, 180.0 / limits.s3_max_rate))
    steps = draw(st.sampled_from([0, 1, 3, 100, 10 ** 6]))
    for _ in range(min(steps, 3)):
        period = math.nextafter(period, math.inf)
    if steps > 3:
        period *= 1.0 + steps * 2.0 ** -52
    return partial(generate_gait, period, draw(st.integers(1, 50)), limits=limits)


@settings(max_examples=400, deadline=None)
@given(builder_calls())
def test_builders_emit_only_trajectories_that_pass_their_own_analysis(build):
    # Each builder rejects its inputs, or keeps every servo in its range and
    # within its rate, in time order, with the clutch closed on every shaft move.
    try:
        trajectory = build()
    except (InvalidParameter, RateInfeasible) as exc:
        event(type(exc).__name__)
        return
    event("built")
    motion = analyse(trajectory)
    assert motion.violations == ()
    assert motion.events == ()
    assert motion.integrity.ok


# --------------------------------------------------------------------------
# Fuzzing: no input file, config or command line ends in a traceback.

VALID_FILES = [trajectory_to_json(t) for t in (
    build_rotate_wheel_2n(1), generate_gait(8.0, 2), plan_rotation(-450.0),
    Trajectory(waypoints=(Waypoint(0.0, ServoState(0.0, 0.0, 0.0)),)))]
MAX_FUZZ_WAYPOINTS = 50

# Numbers near the edges the parser and the clutch care about.
edge_numbers = st.sampled_from([0, 1, -1, 90, -90.0, 360.0, 1e-300, 5e-324, 1e308, -1e308,
                                10 ** 308 * 2, 2 ** 63, True, False])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | edge_numbers,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8)


@st.composite
def mutated_documents(draw):
    """A valid trajectory document with a few values replaced, deleted or
    duplicated at random depths, as JSON text."""
    doc = json.loads(draw(st.sampled_from(VALID_FILES)))
    for _ in range(draw(st.integers(1, 4))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
            if action == "replace":
                node[key] = draw(json_values)
            elif action == "delete":
                del node[key]
            elif isinstance(node, list) and len(node) < MAX_FUZZ_WAYPOINTS:
                node.insert(key, json.loads(json.dumps(child)))
            break
    return json.dumps(doc, indent=draw(st.sampled_from([None, 2])))


@st.composite
def corrupted_bytes(draw):
    """Raw bytes, or a valid file with bytes spliced in or cut off."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    data = draw(st.sampled_from(VALID_FILES)).encode()
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 40)))
    return data[:start] + draw(st.binary(max_size=8)) + data[end:]


def parsed_or_rejected(parse, data) -> bool:
    """True if ``parse`` accepts ``data``; False if it raises the documented
    TrajectoryParseError. Any other exception fails the property."""
    try:
        parse(data)
    except TrajectoryParseError:
        return False
    return True


# JSON literals for a waypoint field: ints, non-numbers, non-finite values
# and sums that overflow, which a faster waypoint parse could get wrong.
WAYPOINT_LITERALS = ["0", "-0.0", "1", "true", "null", '"1.5"', "[]", "1e400", "-1e400",
                     "5e-324", "1e308", "-1e308"]


@st.composite
def edited_waypoint_documents(draw):
    """A valid trajectory document with waypoint objects edited in place: a
    field set to one of :data:`WAYPOINT_LITERALS`, a key added or a field
    dropped, as JSON text."""
    doc = json.loads(draw(st.sampled_from(VALID_FILES)))
    literals = []
    for _ in range(draw(st.integers(0, 3))):
        entry = draw(st.sampled_from(doc["waypoints"]))
        action = draw(st.sampled_from(["set", "add", "drop"]))
        if action == "drop" and entry:
            del entry[draw(st.sampled_from(sorted(entry)))]
            continue
        key = draw(st.sampled_from(["t", "s1", "s2", "s3"] if action == "set"
                                   else ["s4", "T", "t ", ""]))
        entry[key] = f"@{len(literals)}@"
        literals.append(draw(st.sampled_from(WAYPOINT_LITERALS)))
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])))
    for k, literal in enumerate(literals):
        text = text.replace(f'"@{k}@"', literal)
    return text


def parse_outcome(parse, data):
    """What ``parse`` makes of ``data``: the ``repr`` of the trajectory (it
    tells -0.0 from 0.0 and 1 from 1.0), or the error's text and place."""
    try:
        return repr(parse(data))
    except TrajectoryParseError as exc:
        return (str(exc), exc.location, exc.line, exc.column)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated_documents(), edited_waypoint_documents(), corrupted_bytes()))
def test_parser_matches_the_per_field_reference(data):
    outcome = parse_outcome(parse_trajectory, data)
    event("parsed" if isinstance(outcome, str) else "rejected")
    assert outcome == parse_outcome(reference_parse_trajectory, data)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated_documents().map(str.encode), corrupted_bytes()))
def test_fuzzed_files_parse_or_raise_the_parse_error(data):
    parsed_or_rejected(parse_trajectory, data)
    parsed_or_rejected(parse_config, data)


@settings(max_examples=200, deadline=None)
@given(st.one_of(mutated_documents().map(str.encode), corrupted_bytes()))
def test_check_on_fuzzed_files_exits_with_a_documented_code(fuzz_dir, data):
    path = fuzz_dir / "fuzzed.json"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(["check", str(path)])
    assert code in ((0, 1) if parsed_or_rejected(parse_trajectory, data) else (3,))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(VALID_FILES), st.data(), st.sampled_from([None, 2]),
       st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]))
def test_check_on_files_at_the_size_bounds(fuzz_dir, text, data, indent, byte_step, waypoint_step):
    # Under bounds drawn around a valid file's size, one byte or one waypoint
    # past either bound is one parse error line; at or under both, the file
    # is checked.
    doc = json.loads(text)
    doc["waypoints"] = doc["waypoints"][:data.draw(st.integers(1, len(doc["waypoints"])))]
    encoded = json.dumps(doc, indent=indent).encode()
    path = fuzz_dir / "bounded.json"
    path.write_bytes(encoded)
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileformat, "MAX_FILE_BYTES", len(encoded) + byte_step)
        patch.setattr(fileformat, "MAX_WAYPOINTS", len(doc["waypoints"]) + waypoint_step)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(["check", str(path)])
    if byte_step < 0 or waypoint_step < 0:
        event("past a bound")
        assert code == 3 and stdout.getvalue() == ""
        line, = stderr.getvalue().splitlines()
        assert line.startswith("parse error: ")
        assert ("MAX_FILE_BYTES" if byte_step < 0 else "MAX_WAYPOINTS") in line
    else:
        event("within both")
        assert code in (0, 1) and stderr.getvalue() == ""


# Option values that keep every command small even where a work cap were
# missing; the caps have tests of their own that stop before any work.
# int and float strip blanks and take underscores; neither takes hex.
ODD_NUMBERS = [" 7 ", "1_000", "0x10", "-0", "1e999", ""]
ARGV_VALUES = {
    "--n": ["1", "2", "0", "-3", "x", "1e9", *ODD_NUMBERS],
    "--sample-rate-hz": ["0.5", "50", "nan", "inf", "0", "-1"],
    "--target-deg": ["450", "-1e4", "1e19", "nan", "0", "x", *ODD_NUMBERS],
    "--distance-m": ["1", "-2", "1e300", "inf"],
    "--period-s": ["8", "2.9", "0", "inf", "1e300", "1e-300", *ODD_NUMBERS],
    "--cycles": ["1", "3", "0", "-1", *ODD_NUMBERS],
    "--lengths-m": ["1,0.1", "0", "1,,2", "x", "1e308,1e-308"],
    "--ref-length-m": ["1", "0", "1e-308"],
    "--radius-m": ["0.5", "0", "-1", "inf", "1e-308", *ODD_NUMBERS],
    "--policy": ["strict", "lenient", "bogus"],
    "--config": ["{good}", "{bad}", "{missing}", "{traj}"],
    "--out": ["{out}"],
    "--out-traj": ["{out}", "{out_traj}"],
}


@st.composite
def command_lines(draw):
    argv = [draw(st.sampled_from(["simulate", "plan", "gait", "check", "scale", "bogus"]))]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["{traj}", "{bad}", "{missing}"])))
    for _ in range(draw(st.integers(0, 6))):
        option = draw(st.sampled_from(sorted(ARGV_VALUES)))
        argv += [option, draw(st.sampled_from(ARGV_VALUES[option]))]
    return argv


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_fuzzed_command_lines_exit_with_a_documented_code(fuzz_dir, argv):
    paths = {"good": fuzz_dir / "good.json", "bad": fuzz_dir / "bad.json",
             "traj": fuzz_dir / "traj.json", "missing": fuzz_dir / "missing.json",
             "out": fuzz_dir / "out", "out_traj": fuzz_dir / "out_traj"}
    paths["good"].write_text('{"wheel_radius_m": 0.2, "max_rates_deg_per_s": {"s1": 90}}')
    paths["bad"].write_text('{"servo_ranges_deg": [1, 2]')
    paths["traj"].write_text(VALID_FILES[0])
    argv = [a.format(**paths) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2, 3)


# --------------------------------------------------------------------------
# Differential properties against the benchmark's analytic model of a
# trajectory (perfbench/workloads.py) and its output oracle
# (perfbench/oracle.py), both read-only.

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402
import workloads  # noqa: E402

policies = st.sampled_from(["strict", "lenient"])
any_trajectory = st.one_of(trajectories(), unchecked_trajectories(),
                           repeated_moves().map(lambda case: case[0]))


def model_analysis(trajectory: Trajectory, policy: str) -> dict:
    """The benchmark model's expected ``check`` summary of ``trajectory``."""
    limits = trajectory.limits
    return workloads.analyse([(wp.t, *wp.state) for wp in trajectory.waypoints],
                             {s: limits.range_of(s) for s in ("s1", "s2", "s3")},
                             {s: limits.rate_of(s) for s in ("s1", "s2", "s3")}, policy)


@settings(max_examples=500, deadline=None)
@given(any_trajectory, policies)
def test_analyse_agrees_with_the_benchmark_model(trajectory, policy):
    expected = model_analysis(trajectory, policy)
    motion = analyse(trajectory)
    violations = [v for v in motion.violations
                  if policy == "strict" or not isinstance(v, DisengagedShaftMotion)]
    event(f"ok={expected['ok']}")
    assert int(not violations and motion.integrity.ok) == expected["ok"]
    assert int(motion.integrity.ok) == expected["integrity_ok"]
    assert Counter(str(v).split(" ", 1)[0] for v in violations) == Counter(expected["violations"])
    assert Counter(e.kind for e in motion.events) == Counter(expected["events"])
    assert oracle._close(motion.final_theta_deg, expected["theta"])
    assert all(map(oracle._close, motion.integrity.max_abs_twist, expected["max_twist"]))


def run_command(argv) -> oracle.Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return oracle.Result(code, out.getvalue(), err.getvalue())


@settings(max_examples=300, deadline=None)
@given(any_trajectory, policies)
def test_check_passes_the_benchmark_oracle(fuzz_dir, trajectory, policy):
    path = fuzz_dir / "drawn.json"
    write_trajectory_file(trajectory, path)
    result = run_command(["check", str(path), "--policy", policy])
    assert oracle.judge("check", model_analysis(trajectory, policy), result, fuzz_dir) == []


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.floats(-1e5, 1e5).map(lambda x: ("plan", x)),
    st.tuples(st.just("gait"), st.one_of(st.just(3.0), st.floats(3.0, 20.0)),
              st.integers(1, 200))))
def test_commands_turn_the_wheel_with_bounded_twist(fuzz_dir, command):
    # The paper's claim: plans and gaits turn the wheel as far as asked
    # while every twist stays within its servo's range, and check accepts
    # the file each one wrote.
    name = "command.json"
    if command[0] == "plan":
        argv = ["plan", f"--target-deg={command[1]!r}"]
        expect = {"target": command[1], "radius": 0.1, "out": name}
    else:
        _, period, cycles = command
        argv = ["gait", "--period-s", repr(period), "--cycles", str(cycles)]
        expect = {"period": period, "cycles": cycles, "out": name}
    result = run_command([*argv, "--out", str(fuzz_dir / name)])
    assert oracle.judge(command[0], expect, result, fuzz_dir) == []
    doc = json.loads((fuzz_dir / name).read_text())
    expected = workloads.analyse([(w["t"], w["s1"], w["s2"], w["s3"]) for w in doc["waypoints"]],
                                 workloads.DEFAULT_RANGES, workloads.DEFAULT_RATES)
    assert expected["ok"] == 1
    result = run_command(["check", str(fuzz_dir / name)])
    assert oracle.judge("check", expected, result, fuzz_dir) == []


# --------------------------------------------------------------------------
# The skeleton as the check of the clutch rule: the hub's rotation along the
# chain of forward_kinematics, which no command runs, against drive_sign,
# from which every wheel angle the package reports follows.

driving_configs = st.sampled_from([(90.0, -90.0), (-90.0, 90.0)])
shaft_angles = st.floats(0.0, 360.0)


def hub_matrix(state: ServoState) -> np.ndarray:
    return quat_to_matrix(forward_kinematics(DEFAULT_GEOMETRY, state).wheel_hub.rotation)


@settings(max_examples=500, deadline=None)
@given(driving_configs, shaft_angles, shaft_angles)
def test_the_chain_turns_the_hub_about_the_axle_by_the_drive_sign(config, a, b):
    # Both configurations turn the hub about the same body axis, +y, the
    # same way for the shaft travel each allows: the paper's "rotate
    # continuously in the same direction" as a fact of the chain.
    start, end = ServoState(a, *config), ServoState(b, *config)
    turn = math.radians(-drive_sign(start) * (b - a))
    cos, sin = math.cos(turn), math.sin(turn)
    about_y = np.array([[cos, 0.0, sin], [0.0, 1.0, 0.0], [-sin, 0.0, cos]])
    assert np.abs(hub_matrix(end) @ hub_matrix(start).T - about_y).max() < 1e-12


@st.composite
def builder_outputs(draw):
    """A trajectory of one of the builders under the default limits."""
    builder = draw(st.sampled_from(["simulate", "plan", "gait"]))
    if builder == "simulate":
        return build_rotate_wheel_2n(draw(st.integers(1, 4)))
    if builder == "plan":
        return plan_rotation(draw(st.floats(-3000.0, 3000.0)))
    return generate_gait(draw(st.floats(3.0, 30.0)), draw(st.integers(1, 3)))


@settings(max_examples=500, deadline=None)
@example(build_rotate_wheel_2n(2))
@example(generate_gait(8.0, 2))
@example(plan_rotation(-450.0))
@example(plan_rotation(7.3))
@example(plan_rotation(1234.5))
@given(builder_outputs())
def test_the_chain_sums_the_hub_rotation_to_the_wheel_angle(trajectory):
    # Along every driving segment, in shaft steps of at most 90 deg so that
    # each step's angle about +y is unambiguous; segments that do not drive
    # add nothing to the wheel angle, so they are skipped.
    turned = 0.0
    for _, a, b in trajectory.segments():
        if segment_drive(a.state, b.state) == 0:
            continue
        start, end = a.state, b.state
        steps = math.ceil(abs(end.s1 - start.s1) / 90.0)
        shaft = [start.s1 + (end.s1 - start.s1) * k / steps for k in range(steps)]
        for s1, next_s1 in pairwise([*shaft, end.s1]):
            step = hub_matrix(start._replace(s1=next_s1)) @ hub_matrix(start._replace(s1=s1)).T
            turned += math.degrees(math.atan2(step[0, 2], step[0, 0]))
    assert abs(turned + analyse(trajectory).final_theta_deg) <= 1e-9
