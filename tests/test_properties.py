"""Property tests: results are properties of the piecewise-linear path, so
they hold for any waypoints, limits, tolerances and sample rate."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from homeowheel.executor import (
    FLAG_GIMBAL_LOCK_RISK,
    Policy,
    Trajectory,
    Waypoint,
    WaypointRangeViolation,
    analyse,
    parse_config,
    parse_trajectory,
    segment_drive,
    simulate,
    trajectory_to_json,
    validate_trajectory,
)
from homeowheel.mechanism import MechanismGeometry, ServoLimits, ServoState
from homeowheel.planner import count_engaged_sweeps, plan_rotation
from homeowheel.tegument import check_integrity, ledger_from_state

# Angles on a 1/8 deg grid: differences of grid values are exact, so an
# interpolated sample never rounds past the segment's endpoints.
grid = st.integers(-3200, 3200).map(lambda k: k / 8.0)
# s2 and s3 favour the clutch and gimbal-lock poses so tolerances matter.
joint = st.one_of(st.sampled_from([-90.0, 0.0, 90.0]), grid)
tolerances = st.floats(min_value=0.0, max_value=2.0)
sample_rates = st.sampled_from([0.001, 0.3, 1.0, 7.0, 49.0, 50.0])


@st.composite
def limits(draw):
    def span():
        lo = draw(grid)
        return (lo, lo + draw(st.integers(1, 6400)) / 8.0)
    rate = st.integers(1, 4000).map(lambda k: k / 4.0)
    return ServoLimits(span(), span(), span(), draw(rate), draw(rate), draw(rate))


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 8))
    t = 0.0
    waypoints = []
    for _ in range(n):
        waypoints.append(Waypoint(t, ServoState(draw(grid), draw(joint), draw(joint))))
        t += draw(st.integers(0, 8)) / 4.0
    return Trajectory(limits=draw(limits()), waypoints=tuple(waypoints))


@settings(max_examples=300, deadline=None)
@given(trajectories(), tolerances, tolerances)
def test_lenient_clean_trajectories_pass_the_integrity_certificate(trajectory, engage_tol,
                                                                    gimbal_tol):
    motion = analyse(trajectory, check=False, engage_tol=engage_tol, gimbal_tol=gimbal_tol)
    violations = validate_trajectory(trajectory, policy=Policy.LENIENT)
    if not violations:
        assert motion.integrity.ok
    out_of_range = any(isinstance(v, WaypointRangeViolation) for v in violations)
    assert motion.integrity.ok == (not out_of_range)


@settings(max_examples=200, deadline=None)
@given(trajectories(), tolerances, tolerances, sample_rates, sample_rates)
def test_simulate_agrees_with_analyse_at_any_sample_rate(trajectory, engage_tol, gimbal_tol,
                                                         rate_a, rate_b):
    motion = analyse(trajectory, check=False, engage_tol=engage_tol, gimbal_tol=gimbal_tol)
    for rate in (rate_a, rate_b):
        trace = simulate(trajectory, rate, check=False, engage_tol=engage_tol,
                         gimbal_tol=gimbal_tol)
        assert trace.events == motion.events
        assert trace.final_theta_deg == motion.final_theta_deg
        sampled = check_integrity([ledger_from_state(s) for s in trace.states()],
                                  trajectory.limits, trace.times())
        assert sampled.max_abs_twist == motion.integrity.max_abs_twist
        assert sampled.ok == motion.integrity.ok


@settings(max_examples=200, deadline=None)
@given(trajectories(), tolerances, sample_rates)
def test_final_sample_angle_is_the_segment_sum(trajectory, engage_tol, rate):
    motion = analyse(trajectory, check=False, engage_tol=engage_tol)
    trace = simulate(trajectory, rate, check=False, engage_tol=engage_tol)
    expected = 0.0
    for _, a, b in trajectory.segments():
        expected += segment_drive(a.state, b.state, engage_tol) * (b.state.s1 - a.state.s1)
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


@settings(max_examples=300, deadline=None)
@given(trajectories(), tolerances)
def test_gimbal_risk_flags_segments_that_pass_the_degenerate_pose(trajectory, gimbal_tol):
    motion = analyse(trajectory, check=False, gimbal_tol=gimbal_tol)
    for i, a, b in trajectory.segments():
        flagged = bool(motion.flags[i] & FLAG_GIMBAL_LOCK_RISK)
        if not (b.t > a.t and b.state.s1 != a.state.s1):
            assert not flagged
            continue
        closest = _closest_approach(a.state, b.state)
        if closest < gimbal_tol - 1e-9:
            assert flagged
        elif closest > gimbal_tol + 1e-9:
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
