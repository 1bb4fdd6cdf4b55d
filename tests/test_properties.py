"""Property tests: results are properties of the piecewise-linear path, so
they hold for any waypoints, limits, tolerances and sample rate."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from homeowheel.cli import run
from homeowheel.errors import TrajectoryParseError, ValidationFailure
from homeowheel.executor import (
    _RATE_GUARD,
    FLAG_GIMBAL_LOCK_RISK,
    DisengagedShaftMotion,
    EmptyTrajectory,
    Policy,
    RateViolation,
    TimeOrderViolation,
    Trajectory,
    Violation,
    Waypoint,
    WaypointRangeViolation,
    analyse,
    build_rotate_wheel_2n,
    parse_config,
    parse_trajectory,
    segment_drive,
    simulate,
    trace_to_csv,
    trajectory_to_json,
    validate_trajectory,
    write_trace_file,
)
from homeowheel.mechanism import (
    ENGAGE_TOL,
    MechanismGeometry,
    ServoLimits,
    ServoState,
    validate_state,
)
from homeowheel.planner import count_engaged_sweeps, generate_gait, plan_rotation
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


# Limits that admit every angle and rate the strategies draw, so that some
# trajectories pass the lenient policy.
WIDE_LIMITS = ServoLimits((-400.0, 400.0), (-400.0, 400.0), (-400.0, 400.0),
                          4000.0, 4000.0, 4000.0)


@st.composite
def trajectories(draw):
    """Waypoints on the grid under random limits, which they almost always
    leave, or under :data:`WIDE_LIMITS`, which they always keep."""
    n = draw(st.integers(1, 8))
    t = 0.0
    waypoints = []
    for _ in range(n):
        waypoints.append(Waypoint(t, ServoState(draw(grid), draw(joint), draw(joint))))
        t += draw(st.integers(0, 8)) / 4.0
    return Trajectory(limits=draw(st.one_of(limits(), st.just(WIDE_LIMITS))),
                      waypoints=tuple(waypoints))


@settings(max_examples=300, deadline=None)
@given(trajectories(), tolerances, tolerances)
def test_lenient_clean_trajectories_pass_the_integrity_certificate(trajectory, engage_tol,
                                                                    gimbal_tol):
    motion = analyse(trajectory, check=False, engage_tol=engage_tol, gimbal_tol=gimbal_tol)
    violations = validate_trajectory(trajectory, policy=Policy.LENIENT)
    if not violations:
        event("lenient-clean")
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


@st.composite
def unchecked_trajectories(draw):
    """:func:`trajectories` with some angles replaced by -0.0 and some times
    stepping back, under any geometry: inputs only ``check=False`` accepts."""
    trajectory = draw(trajectories())
    waypoints = []
    for wp in trajectory.waypoints:
        s1, s2, s3 = (-0.0 if draw(st.integers(0, 4)) == 0 else v
                      for v in (wp.state.s1, wp.state.s2, wp.state.s3))
        t = wp.t - draw(st.sampled_from([0.0, 0.0, 0.0, 0.5, 3.0]))
        waypoints.append(Waypoint(t, ServoState(s1, s2, s3)))
    return Trajectory(draw(geometries()), trajectory.limits, tuple(waypoints))


@settings(max_examples=200, deadline=None)
@given(unchecked_trajectories(),
       st.one_of(sample_rates, st.floats(min_value=0.01, max_value=200.0)),
       st.one_of(st.just(ENGAGE_TOL), tolerances))
def test_streamed_trace_file_is_the_simulated_trace(trajectory, rate, engage_tol):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_file(analyse(trajectory, check=False, engage_tol=engage_tol), path, rate)
        written = path.read_bytes()
    trace = simulate(trajectory, rate, check=False, engage_tol=engage_tol)
    assert written == trace_to_csv(trace).encode("utf-8")


def reference_validate_trajectory(trajectory: Trajectory, policy: Policy = Policy.STRICT,
                                  engage_tol: float = ENGAGE_TOL) -> list[Violation]:
    """The standalone validator that analyse replaced, kept as the reference."""
    waypoints = trajectory.waypoints
    if not waypoints:
        return [EmptyTrajectory()]
    violations: list[Violation] = []
    for index, wp in enumerate(waypoints):
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
        if policy is Policy.STRICT:
            d_s1 = b.state.s1 - a.state.s1
            if d_s1 != 0.0 and segment_drive(a.state, b.state, engage_tol) == 0:
                violations.append(DisengagedShaftMotion(i, a.t, b.t, d_s1))
    return violations


@settings(max_examples=300, deadline=None)
@given(st.one_of(unchecked_trajectories(), unchecked_trajectories().map(
           lambda t: Trajectory(t.geometry, WIDE_LIMITS, t.waypoints))),
       st.sampled_from(list(Policy)), st.one_of(st.just(ENGAGE_TOL), tolerances))
def test_analyse_reports_the_reference_violations(trajectory, policy, engage_tol):
    expected = reference_validate_trajectory(trajectory, policy, engage_tol)
    assert validate_trajectory(trajectory, policy, engage_tol) == expected
    motion = analyse(trajectory, policy, check=False, engage_tol=engage_tol)
    assert list(motion.violations) == expected
    lenient = reference_validate_trajectory(trajectory, Policy.LENIENT)
    if lenient:
        with pytest.raises(ValidationFailure) as failure:
            analyse(trajectory, policy, engage_tol=engage_tol)
        assert failure.value.violations == lenient
    else:
        assert analyse(trajectory, policy, engage_tol=engage_tol) == motion


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


# Option values that keep every command small even where a work cap were
# missing; the caps have tests of their own that stop before any work.
ARGV_VALUES = {
    "--n": ["1", "2", "0", "-3", "x", "1e9"],
    "--sample-rate-hz": ["0.5", "50", "nan", "inf", "0", "-1"],
    "--target-deg": ["450", "-1e4", "1e19", "nan", "0", "x"],
    "--distance-m": ["1", "-2", "1e300", "inf"],
    "--period-s": ["8", "2.9", "0", "inf", "1e300", "1e-300"],
    "--cycles": ["1", "3", "0", "-1"],
    "--lengths-m": ["1,0.1", "0", "1,,2", "x", "1e308,1e-308"],
    "--ref-length-m": ["1", "0", "1e-308"],
    "--radius-m": ["0.5", "0", "-1", "inf", "1e-308"],
    "--policy": ["strict", "lenient", "bogus"],
    "--config": ["{good}", "{bad}", "{missing}", "{traj}"],
    "--out": ["{out}"],
    "--out-traj": ["{out}"],
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
             "out": fuzz_dir / "out"}
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
