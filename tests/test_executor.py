"""Tests for trajectory construction, simulation, validation, and files."""

import json
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from homeowheel import executor, tegument
from homeowheel.cli import run
from homeowheel.errors import InvalidParameter, TrajectoryParseError, ValidationFailure
from homeowheel.executor import (
    EVENT_DISENGAGED_SHAFT_MOTION,
    EVENT_GIMBAL_LOCK_RISK,
    EVENT_RANGE_VIOLATION,
    FLAG_DISENGAGED_SHAFT_MOTION,
    FLAG_GIMBAL_LOCK_RISK,
    MAX_TRACE_SAMPLES,
    MAX_WAYPOINTS,
    DisengagedShaftMotion,
    Policy,
    RateViolation,
    TimeOrderViolation,
    Trajectory,
    Waypoint,
    WaypointRangeViolation,
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
from homeowheel.mechanism import (
    DEFAULT_GEOMETRY,
    DEFAULT_LIMITS,
    GIMBAL_TOL,
    MechanismGeometry,
    ServoLimits,
    ServoState,
)
from reference import reference_trace_csv, reference_trace_rows, sample_rows

S = ServoState


def make_trajectory(states, duration=1.0, **kwargs):
    return Trajectory.from_states([S(*s) for s in states], duration, **kwargs)


class TestBuildRotateWheel2n:
    def test_exact_waypoint_sequence_for_one_iteration(self):
        trajectory = build_rotate_wheel_2n(1)
        expected = [
            (0.0, 0.0, 0.0),
            (0.0, 0.0, -90.0),
            (0.0, 90.0, -90.0),
            (360.0, 90.0, -90.0),
            (360.0, 90.0, 90.0),
            (360.0, -90.0, 90.0),
            (0.0, -90.0, 90.0),
            (0.0, -90.0, -90.0),
            (0.0, 90.0, -90.0),
            (0.0, 90.0, 0.0),
            (0.0, 0.0, 0.0),
        ]
        got = [(wp.state.s1, wp.state.s2, wp.state.s3) for wp in trajectory.waypoints]
        assert got == expected
        assert [wp.t for wp in trajectory.waypoints] == [float(i) for i in range(11)]

    def test_segment_count_scales_with_n(self):
        assert len(build_rotate_wheel_2n(1).waypoints) == 11   # 10 segments
        assert len(build_rotate_wheel_2n(3).waypoints) == 23   # 6n + 4 segments

    def test_final_state_is_home(self):
        assert build_rotate_wheel_2n(4).final_state == S(0.0, 0.0, 0.0)

    def test_rejects_bad_n(self):
        for bad in (0, -1, 1.5, "2", True):
            with pytest.raises(InvalidParameter):
                build_rotate_wheel_2n(bad)

    def test_waypoint_cap_is_checked_in_closed_form(self, monkeypatch):
        # 6n + 5 waypoints: with the cap at 23, n = 3 is the largest routine.
        monkeypatch.setattr(executor, "MAX_WAYPOINTS", 23)
        assert len(build_rotate_wheel_2n(3).waypoints) == 23
        with pytest.raises(InvalidParameter, match="MAX_WAYPOINTS"):
            build_rotate_wheel_2n(4)

    def test_rejects_n_over_the_waypoint_cap(self, forbid):
        forbid(executor, "ServoState")
        with pytest.raises(InvalidParameter, match="MAX_WAYPOINTS"):
            build_rotate_wheel_2n((MAX_WAYPOINTS - 5) // 6 + 1)


@pytest.mark.parametrize("make", [
    lambda wps: Trajectory(waypoints=wps),
    lambda wps: Trajectory(DEFAULT_GEOMETRY, DEFAULT_LIMITS, wps),
    lambda wps: Trajectory(waypoints=iter(wps)),
    lambda wps: Trajectory()._replace(waypoints=wps),
], ids=["keyword", "positional", "iterator", "replace"])
def test_trajectory_stores_its_waypoints_as_a_tuple(make):
    waypoints = [Waypoint(0.0, S(0.0, 0.0, 0.0)), Waypoint(1.0, S(0.0, 0.0, -90.0))]
    stored = make(waypoints).waypoints
    assert type(stored) is tuple and stored == tuple(waypoints)


class TestSegmentDrive:
    def test_same_configuration_keeps_its_sign(self):
        assert segment_drive(S(0, 90, -90), S(360, 90, -90)) == 1
        assert segment_drive(S(360, -90, 90), S(0, -90, 90)) == -1

    def test_any_disengaged_endpoint_opens_the_clutch(self):
        assert segment_drive(S(0, 90, -90), S(0, 90, 90)) == 0
        assert segment_drive(S(0, 0, 0), S(90, 0, 0)) == 0

    def test_opposite_configurations_open_the_clutch(self):
        # Both endpoints engaged, but the gantry must sweep through the
        # disengaged zone in between.
        assert segment_drive(S(0, 90, -90), S(90, -90, 90)) == 0


class TestSimulate:
    def test_two_revolutions_half_meter_wheel(self):
        trajectory = build_rotate_wheel_2n(1, geometry=MechanismGeometry(wheel_radius=0.5))
        trace = simulate(trajectory)
        assert trace.final_theta_deg == 720.0
        assert abs(trace.final_x_m - 2.0 * 2.0 * math.pi * 0.5) < 1e-12

    def test_constant_trajectory_is_inert(self):
        trajectory = make_trajectory([(0, 0, 0), (0, 0, 0), (0, 0, 0)])
        trace = simulate(trajectory)
        assert trace.final_theta_deg == 0.0
        assert trace.events == ()

    def test_disengaged_shaft_motion_is_held_and_flagged(self):
        trajectory = make_trajectory([(0, 0, 0), (90, 0, 0)])
        trace = simulate(trajectory)
        assert trace.final_theta_deg == 0.0
        disengaged = [e for e in trace.events if e.kind == EVENT_DISENGAGED_SHAFT_MOTION]
        assert len(disengaged) == 1
        assert any(s.event_flags & FLAG_DISENGAGED_SHAFT_MOTION for s in trace.samples)
        assert all(not s.engaged for s in trace.samples)

    def test_gimbal_lock_risk_reported_once_per_segment(self):
        trajectory = make_trajectory([(0, 0, 0), (90, 0, 0)])
        trace = simulate(trajectory)
        risky = [e for e in trace.events if e.kind == EVENT_GIMBAL_LOCK_RISK]
        assert len(risky) == 1
        flagged = [s for s in trace.samples if s.event_flags & FLAG_GIMBAL_LOCK_RISK]
        assert flagged

    @pytest.mark.parametrize("sample_rate", [49.0, 50.0, 0.001])
    def test_gimbal_crossing_found_at_any_sample_rate(self, sample_rate):
        # (s2, s3) crosses (0, 0) only at alpha = 1/2, which no sample hits
        # when the segment gets an odd number of subdivisions.
        trajectory = make_trajectory([(0, -90, 90), (10, 90, -90)])
        trace = simulate(trajectory, sample_rate=sample_rate)
        risky = [e for e in trace.events if e.kind == EVENT_GIMBAL_LOCK_RISK]
        assert len(risky) == 1
        # Timed where both servos enter the tolerance zone around zero.
        assert risky[0].t == pytest.approx((90.0 - GIMBAL_TOL) / 180.0, rel=0.0, abs=1e-12)

    def test_mixed_configuration_segment_holds_the_wheel(self):
        trajectory = make_trajectory([(0, 90, -90), (90, -90, 90)])
        trace = simulate(trajectory)
        assert trace.final_theta_deg == 0.0
        assert any(e.kind == EVENT_DISENGAGED_SHAFT_MOTION for e in trace.events)

    def test_downhill_shaft_segment_is_the_long_way_round(self):
        # 350 -> 10 is the in-range -340 sweep; there is no +20 wraparound.
        trajectory = make_trajectory([(350, 90, -90), (10, 90, -90)])
        trace = simulate(trajectory)
        assert trace.final_theta_deg == -340.0

    def test_odometry_locked_to_wheel_angle(self):
        trajectory = build_rotate_wheel_2n(2, geometry=MechanismGeometry(wheel_radius=0.37))
        trace = simulate(trajectory)
        for sample in trace.samples:
            expected = 0.37 * math.radians(sample.theta_wheel_deg)
            assert sample.x_m == expected

    def test_theta_is_continuous(self):
        trajectory = build_rotate_wheel_2n(3)
        trace = simulate(trajectory, sample_rate=5.0)
        thetas = [s.theta_wheel_deg for s in trace.samples]
        for a, b in zip(thetas, thetas[1:]):
            assert abs(b - a) < 180.0

    def test_shaft_step_guard_kicks_in_at_low_sample_rates(self):
        trajectory = make_trajectory([(0, 90, -90), (360, 90, -90)])
        trace = simulate(trajectory, sample_rate=0.001)
        s1_values = [s.state.s1 for s in trace.samples]
        for a, b in zip(s1_values, s1_values[1:]):
            assert abs(b - a) <= 90.0

    def test_clutch_soundness_on_random_trajectories(self):
        rng = np.random.default_rng(41)
        corners = [(90.0, -90.0), (-90.0, 90.0), (0.0, 0.0), (90.0, 90.0)]
        for _ in range(30):
            states = [S(0.0, 0.0, 0.0)]
            for _ in range(15):
                s2, s3 = corners[rng.integers(len(corners))]
                s1 = float(rng.integers(0, 13) * 30.0)
                prev = states[-1]
                # keep each move rate-feasible at 1 s per segment
                if abs(s1 - prev.s1) > 360.0:
                    s1 = prev.s1
                states.append(S(s1, s2, s3))
            trajectory = Trajectory.from_states(states, 1.0)
            trace = simulate(trajectory)
            thetas = [s.theta_wheel_deg for s in trace.samples]
            engaged_flags = [s.engaged for s in trace.samples]
            total_theta = 0.0
            for k in range(1, len(thetas)):
                step = thetas[k] - thetas[k - 1]
                total_theta += abs(step)
                if step != 0.0:
                    assert engaged_flags[k - 1] and engaged_flags[k]
            total_shaft = sum(abs(b.state.s1 - a.state.s1)
                              for _, a, b in trajectory.segments())
            assert total_theta <= total_shaft + 1e-9

    def test_deterministic_trace(self, tmp_path):
        trajectory = build_rotate_wheel_2n(2)
        first = simulate(trajectory)
        second = simulate(trajectory)
        assert first == second
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        for path in paths:
            write_trace_file(analyse(trajectory), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_invalid_trajectory_raises(self):
        trajectory = make_trajectory([(0, 0, 0), (400, 0, 0)])
        with pytest.raises(ValidationFailure):
            simulate(trajectory)

    def test_tolerant_mode_reports_instead_of_raising(self):
        trajectory = make_trajectory([(0, 0, 0), (400, 0, 0)])
        trace = simulate(trajectory, check=False)
        assert any(e.kind == EVENT_RANGE_VIOLATION for e in trace.events)

    def test_rejects_bad_sample_rate(self):
        trajectory = build_rotate_wheel_2n(1)
        with pytest.raises(InvalidParameter):
            simulate(trajectory, sample_rate=0.0)

    def test_empty_trajectory_raises(self):
        with pytest.raises(ValidationFailure):
            simulate(Trajectory(waypoints=()))

    @staticmethod
    def closed_form_samples(trajectory, rate):
        total = 1
        for _, a, b in trajectory.segments():
            dt, d_s1 = b.t - a.t, b.state.s1 - a.state.s1
            total += max(math.ceil(dt * rate), math.ceil(abs(d_s1) / 90.0), 1) if dt > 0 else 1
        return total

    @pytest.mark.parametrize("rate", [0.001, 0.7, 1.0, 37.0, 50.0])
    def test_sample_count_is_the_closed_form(self, rate):
        trajectory = make_trajectory([(0, 0, -90), (0, 90, -90), (360, 90, -90), (360, 90, -90),
                                      (100, 90, -90)], duration=0.25)
        trajectory = Trajectory(waypoints=trajectory.waypoints + (
            Waypoint(0.75, S(100.0, 90.0, -90.0)),))  # a time-order violation
        trace = simulate(trajectory, rate, check=False)
        assert len(trace.samples) == self.closed_form_samples(trajectory, rate)

    def test_sample_cap_is_checked_before_sampling(self, monkeypatch):
        trajectory = build_rotate_wheel_2n(2)
        size = self.closed_form_samples(trajectory, 7.0)
        monkeypatch.setattr(executor, "MAX_TRACE_SAMPLES", size)
        assert len(simulate(trajectory, 7.0).samples) == size
        monkeypatch.setattr(executor, "MAX_TRACE_SAMPLES", size - 1)
        with pytest.raises(InvalidParameter, match="MAX_TRACE_SAMPLES"):
            simulate(trajectory, 7.0)

    @pytest.mark.parametrize("rate", [1e9, 1e308])
    def test_rejects_traces_over_the_sample_cap(self, rate, forbid):
        # 10 one-second segments: 1e10 samples at 1e9 Hz; 1e308 Hz overflows
        # the per-segment product and still reads as too many. Sampling
        # starts after analyse.
        trajectory = build_rotate_wheel_2n(1)
        assert self.closed_form_samples(trajectory, 1e9) > MAX_TRACE_SAMPLES
        forbid(executor, "analyse")
        with pytest.raises(InvalidParameter, match="MAX_TRACE_SAMPLES"):
            simulate(trajectory, rate)

    def test_single_waypoint_trajectory(self):
        trajectory = Trajectory(waypoints=(Waypoint(0.0, S(0.0, 0.0, 0.0)),))
        trace = simulate(trajectory)
        assert len(trace.samples) == 1
        assert trace.final_theta_deg == 0.0


class TestValidateTrajectory:
    def test_canonical_routine_is_clean(self):
        assert validate_trajectory(build_rotate_wheel_2n(1)) == []

    def test_duplicate_timestamps(self):
        trajectory = Trajectory(waypoints=(
            Waypoint(0.0, S(0, 0, 0)), Waypoint(0.0, S(0, 0, -10))))
        violations = validate_trajectory(trajectory)
        assert any(isinstance(v, TimeOrderViolation) for v in violations)

    def test_decreasing_timestamps(self):
        trajectory = Trajectory(waypoints=(
            Waypoint(1.0, S(0, 0, 0)), Waypoint(0.5, S(0, 0, -10))))
        violations = validate_trajectory(trajectory)
        assert any(isinstance(v, TimeOrderViolation) for v in violations)

    def test_out_of_range_waypoint(self):
        trajectory = make_trajectory([(0, 0, 0), (400, 0, 0)])
        violations = validate_trajectory(trajectory)
        range_violations = [v for v in violations if isinstance(v, WaypointRangeViolation)]
        assert len(range_violations) == 1
        assert "RangeViolation servo1" in str(range_violations[0])

    def test_wraparound_shortcut_is_rejected_by_rate(self):
        # A 350 -> 10 segment means sweeping -340 inside the range. At 0.5 s
        # that needs 680 deg/s: rejected. Wraparound is never an option.
        trajectory = make_trajectory([(350, 90, -90), (10, 90, -90)], duration=0.5)
        violations = validate_trajectory(trajectory)
        assert len(violations) == 1
        assert isinstance(violations[0], RateViolation)
        assert violations[0].rate == 680.0

    def test_rate_exactly_at_the_limit_is_legal(self):
        trajectory = make_trajectory([(0, 90, -90), (360, 90, -90)], duration=1.0)
        assert validate_trajectory(trajectory) == []

    def test_disengaged_shaft_motion_policy(self):
        trajectory = make_trajectory([(0, 0, 0), (90, 0, 0)])
        strict = validate_trajectory(trajectory, policy=Policy.STRICT)
        assert any(isinstance(v, DisengagedShaftMotion) for v in strict)
        lenient = validate_trajectory(trajectory, policy=Policy.LENIENT)
        assert lenient == []

    def test_empty_trajectory(self):
        violations = validate_trajectory(Trajectory(waypoints=()))
        assert len(violations) == 1
        assert "EmptyTrajectory" in str(violations[0])

    def test_reports_every_violation_with_location(self):
        trajectory = Trajectory(waypoints=(
            Waypoint(0.0, S(0, 0, 0)),
            Waypoint(0.0, S(400, 95, 0)),
            Waypoint(0.5, S(0, 0, 0)),
        ))
        violations = validate_trajectory(trajectory)
        kinds = {type(v) for v in violations}
        assert WaypointRangeViolation in kinds
        assert TimeOrderViolation in kinds

    def test_analyse_walks_each_waypoint_and_segment_once(self, monkeypatch):
        # Validation is part of analyse's walk, checked or not, strict or
        # lenient: one range check per waypoint, one clutch test per segment.
        calls = []
        for name in ("validate_state", "segment_drive"):
            def counted(*args, _fn=getattr(executor, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(executor, name, counted)
        trajectory = build_rotate_wheel_2n(3)
        runs = [lambda: analyse(trajectory), lambda: analyse(trajectory, check=False),
                lambda: analyse(trajectory, Policy.LENIENT),
                lambda: validate_trajectory(trajectory)]
        for walk in runs:
            calls.clear()
            walk()
            assert calls.count("validate_state") == len(trajectory.waypoints)
            assert calls.count("segment_drive") == len(trajectory.waypoints) - 1

    def test_twist_certificate_comes_from_the_range_test(self, forbid):
        # analyse certifies the twist from its own range test of each
        # waypoint servo: with check_integrity and TwistLedger forbidden in
        # every module that binds them, it returns what it did before.
        routine = build_rotate_wheel_2n(2)
        bad = make_trajectory([(0, 0, 0), (400, 95, -95), (-1, 0, 91), (0, 0, 0)])
        runs = [lambda: analyse(routine), lambda: analyse(routine, check=False),
                lambda: analyse(routine, Policy.LENIENT),
                lambda: analyse(bad, check=False),
                lambda: analyse(bad, Policy.LENIENT, check=False)]
        expected = [walk() for walk in runs]
        assert not expected[3].integrity.ok
        for name in ("check_integrity", "TwistLedger"):
            target = getattr(tegument, name)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("homeowheel")
                        and getattr(module, name, None) is target):
                    forbid(module, name)
        assert [walk() for walk in runs] == expected
        with pytest.raises(ValidationFailure):
            analyse(bad)


class TestTrajectoryFiles:
    def test_round_trip_preserves_everything(self, tmp_path):
        trajectory = build_rotate_wheel_2n(
            2, geometry=MechanismGeometry(wheel_radius=0.123, gantry_offset=0.05),
            limits=ServoLimits(s1_max_rate=400.0))
        path = tmp_path / "routine.json"
        write_trajectory_file(trajectory, path)
        loaded = read_trajectory_file(path)
        assert loaded == trajectory

    def test_serialization_is_deterministic(self):
        trajectory = build_rotate_wheel_2n(1)
        assert trajectory_to_json(trajectory) == trajectory_to_json(trajectory)

    def test_truncated_file_reports_line_and_column(self):
        text = '{\n  "format_version": 1,\n  "wheel_radius_m":'
        with pytest.raises(TrajectoryParseError) as excinfo:
            parse_trajectory(text)
        assert excinfo.value.line is not None
        assert excinfo.value.column is not None

    def test_unsupported_version(self):
        text = trajectory_to_json(build_rotate_wheel_2n(1)).replace(
            '"format_version": 1', '"format_version": 99')
        with pytest.raises(TrajectoryParseError) as excinfo:
            parse_trajectory(text)
        assert "format_version" in str(excinfo.value)

    @pytest.mark.parametrize("version", ["true", "false", "1.0", '"1"'])
    def test_format_version_must_be_an_integer(self, version):
        text = trajectory_to_json(build_rotate_wheel_2n(1)).replace(
            '"format_version": 1', f'"format_version": {version}')
        with pytest.raises(TrajectoryParseError) as excinfo:
            parse_trajectory(text)
        assert excinfo.value.location == "$.format_version"

    def test_missing_field_names_its_location(self):
        import json
        doc = json.loads(trajectory_to_json(build_rotate_wheel_2n(1)))
        del doc["wheel_radius_m"]
        with pytest.raises(TrajectoryParseError) as excinfo:
            parse_trajectory(json.dumps(doc))
        assert "wheel_radius_m" in str(excinfo.value)

    def test_unknown_header_field_names_its_location(self):
        import json
        doc = json.loads(trajectory_to_json(build_rotate_wheel_2n(1)))
        doc["wheel_radius"] = doc.pop("wheel_radius_m")
        with pytest.raises(TrajectoryParseError) as excinfo:
            parse_trajectory(json.dumps(doc))
        assert excinfo.value.location == "$.wheel_radius"

    def test_bad_waypoint_field_names_its_location(self):
        import json
        doc = json.loads(trajectory_to_json(build_rotate_wheel_2n(1)))
        doc["waypoints"][3]["s1"] = "not a number"
        with pytest.raises(TrajectoryParseError) as excinfo:
            parse_trajectory(json.dumps(doc))
        assert "waypoints[3]" in str(excinfo.value)

    def test_non_finite_numbers_are_rejected(self):
        text = trajectory_to_json(build_rotate_wheel_2n(1)).replace(
            '"t": 0.0', '"t": NaN', 1)
        with pytest.raises(TrajectoryParseError):
            parse_trajectory(text)

    @pytest.mark.parametrize("old, new, location", [
        ('"t": 0.0', '"t": 1e309', "$.waypoints[0].t"),
        ('"s2": 0.0', '"s2": -1e400', "$.waypoints[0].s2"),
        ('"wheel_radius_m": 0.1', '"wheel_radius_m": 1e309', "$.wheel_radius_m"),
        ('"wheel_radius_m": 0.1', '"wheel_radius_m": 1' + "0" * 400, "$.wheel_radius_m"),
        ('"s1": 360.0', '"s1": 1e309', "$.max_rates_deg_per_s.s1"),
    ])
    def test_overflowing_numbers_are_rejected_with_their_location(self, old, new, location):
        text = trajectory_to_json(build_rotate_wheel_2n(1)).replace(old, new, 1)
        assert new in text
        with pytest.raises(TrajectoryParseError) as excinfo:
            parse_trajectory(text)
        assert excinfo.value.location == location

    def test_overflowing_range_endpoint_is_rejected_with_its_location(self):
        import json
        doc = json.loads(trajectory_to_json(build_rotate_wheel_2n(1)))
        doc["servo_ranges_deg"]["s3"] = [-90.0, 10 ** 400]
        with pytest.raises(TrajectoryParseError) as excinfo:
            parse_trajectory(json.dumps(doc))
        assert excinfo.value.location == "$.servo_ranges_deg.s3"

    @pytest.mark.parametrize("data", [
        b"\xff\xfe not utf-8",
        b"[" * 100_000,
        b'{"format_version": 1' + b"0" * 5000 + b"}",
    ])
    def test_unreadable_bytes_are_parse_errors(self, data):
        with pytest.raises(TrajectoryParseError):
            parse_trajectory(data)
        with pytest.raises(TrajectoryParseError):
            parse_config(data)

    def test_empty_waypoints_are_rejected(self):
        import json
        doc = json.loads(trajectory_to_json(build_rotate_wheel_2n(1)))
        doc["waypoints"] = []
        with pytest.raises(TrajectoryParseError):
            parse_trajectory(json.dumps(doc))

    def test_header_carries_geometry_and_limits(self):
        geometry = MechanismGeometry(wheel_radius=0.25)
        limits = ServoLimits(s2_max_rate=180.0)
        trajectory = build_rotate_wheel_2n(1, geometry=geometry, limits=limits)
        loaded = parse_trajectory(trajectory_to_json(trajectory))
        assert loaded.geometry == geometry
        assert loaded.limits == limits


def routine_with(index: int, **fields) -> str:
    """The one-iteration routine's file with ``fields`` set on waypoint ``index``."""
    doc = json.loads(trajectory_to_json(build_rotate_wheel_2n(1)))
    doc["waypoints"][index].update(fields)
    return json.dumps(doc, indent=2)


class TestConfig:
    def test_every_key_is_optional(self):
        assert parse_config("{}") == (DEFAULT_GEOMETRY, DEFAULT_LIMITS)

    def test_ranges_and_rates_merge_per_servo(self):
        geometry, limits = parse_config(
            '{"gantry_offset_m": 0, "servo_ranges_deg": {"s1": [10, 20]},'
            ' "max_rates_deg_per_s": {"s3": 45}}')
        assert geometry == MechanismGeometry(gantry_offset=0.0)
        assert limits == ServoLimits(s1_range=(10.0, 20.0), s3_max_rate=45.0)
        assert isinstance(geometry.gantry_offset, float)

    def test_overrides_beat_the_config(self):
        geometry, _ = parse_config('{"wheel_radius_m": 0.5, "gantry_offset_m": 0.3}',
                                   {"wheel_radius": 2.0})
        assert geometry == MechanismGeometry(wheel_radius=2.0, gantry_offset=0.3)
        # an override also hides a bad config value for the same field
        geometry, _ = parse_config('{"wheel_radius_m": "big"}', {"wheel_radius": 2.0})
        assert geometry.wheel_radius == 2.0

    def test_a_trajectory_file_is_a_config_for_its_header(self):
        # Limits the routine leaves: the header is parsed, the waypoints are not.
        trajectory = Trajectory(
            MechanismGeometry(0.3, 0.0, 0.5, 0.25),
            ServoLimits((10.0, 100.0), (-95.0, 95.0), (-100.0, 90.0), 50.0, 60.0, 70.0),
            build_rotate_wheel_2n(1).waypoints)
        assert parse_config(trajectory_to_json(trajectory)) == (trajectory.geometry,
                                                                trajectory.limits)

    @pytest.mark.parametrize("text, location", [
        ('[]', "$"),
        ('{"servo_ranges_deg": [1, 2]}', "$.servo_ranges_deg"),
        ('{"servo_ranges_deg": {"s2": [1]}}', "$.servo_ranges_deg.s2"),
        ('{"servo_ranges_deg": {"s2": [1, "2"]}}', "$.servo_ranges_deg.s2"),
        ('{"max_rates_deg_per_s": {"s1": 1e309}}', "$.max_rates_deg_per_s.s1"),
        ('{"max_rates_deg_per_s": {"s1": true}}', "$.max_rates_deg_per_s.s1"),
        ('{"wheel_radius_m": null}', "$.wheel_radius_m"),
        ('{"wheel_radius_m": -1}', "$"),
        ('{"servo_ranges_deg": {"s1": [5, 5]}}', "$"),
        ('{"wheel_radius": 0.5}', "$.wheel_radius"),
        ('{"max_rates_deg_per_s": {"s4": 5}}', "$.max_rates_deg_per_s.s4"),
        ('{"servo_ranges_deg": {"S1": [0, 1]}}', "$.servo_ranges_deg.S1"),
        pytest.param(routine_with(0, s4=5), "$.waypoints[0].s4", id="waypoint-s4"),
        pytest.param(routine_with(1, T=9), "$.waypoints[1].T", id="waypoint-T"),
        pytest.param(routine_with(2, t=2, s1=0, x=None), "$.waypoints[2].x",
                     id="int-waypoint-x"),
    ])
    def test_bad_values_are_parse_errors_with_their_location(self, text, location):
        # A config ignores waypoints; the documents holding them are trajectory files.
        parse = parse_trajectory if '"waypoints"' in text else parse_config
        with pytest.raises(TrajectoryParseError) as excinfo:
            parse(text)
        assert excinfo.value.location == location
        if location.startswith("$.waypoints"):
            assert str(excinfo.value).startswith(f"unknown field {location.split('.')[-1]!r}")

    def test_non_finite_constants_are_rejected(self):
        with pytest.raises(TrajectoryParseError, match="Infinity"):
            parse_config('{"max_rates_deg_per_s": {"s1": Infinity}}')


def trace_lines(trajectory, tmp_path, sample_rate=50.0) -> list[str]:
    path = tmp_path / "trace.csv"
    write_trace_file(analyse(trajectory), path, sample_rate)
    return path.read_text().splitlines()


class TestTraceExport:
    def test_header_and_shape(self, tmp_path):
        trajectory = build_rotate_wheel_2n(1)
        lines = trace_lines(trajectory, tmp_path, 2.0)
        assert lines[0] == "t,s1,s2,s3,theta_wheel_deg,x_m,engaged,event_flags"
        assert len(lines) == len(simulate(trajectory, sample_rate=2.0).samples) + 1
        for line in lines[1:]:
            assert len(line.split(",")) == 8

    def test_nine_significant_digits(self, tmp_path):
        trajectory = build_rotate_wheel_2n(1, geometry=MechanismGeometry(wheel_radius=0.5))
        fields = trace_lines(trajectory, tmp_path)[-1].split(",")
        assert fields[4] == "720"
        assert fields[5] == "6.28318531"

    def test_engaged_column_is_binary(self, tmp_path):
        for line in trace_lines(build_rotate_wheel_2n(1), tmp_path)[1:]:
            assert line.split(",")[6] in ("0", "1")

    def test_written_file_is_the_simulated_trace(self, tmp_path):
        # 124 one-second segments at 37 Hz: 4,589 rows, more than one chunk.
        trajectory = build_rotate_wheel_2n(20, geometry=MechanismGeometry(wheel_radius=0.37))
        motion = analyse(trajectory)
        path = tmp_path / "trace.csv"
        write_trace_file(motion, path, 37.0)
        assert path.read_bytes() == reference_trace_csv(motion, 37.0)
        rows = sample_rows(simulate(trajectory, 37.0))
        assert len(rows) == 4589
        assert repr(rows) == repr(list(reference_trace_rows(motion, 37.0)))

    def test_rejected_rate_leaves_the_file_alone(self, tmp_path, forbid):
        path = tmp_path / "trace.csv"
        path.write_text("kept\n")
        motion = analyse(build_rotate_wheel_2n(1))
        forbid(executor, "_trace_blocks")
        for rate in (0.0, -1.0, math.inf, math.nan, 1e9):
            with pytest.raises(InvalidParameter):
                write_trace_file(motion, path, rate)
        assert path.read_text() == "kept\n"

    @staticmethod
    def peak_writing(motion, path) -> int:
        tracemalloc.start()
        try:
            write_trace_file(motion, path, 50.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_writing_streams_in_bounded_memory(self, tmp_path):
        # 30,201 rows: building them all, or the whole CSV text, took
        # about 13 MB; streaming keeps one block of rows alive.
        path = tmp_path / "trace.csv"
        peak = self.peak_writing(analyse(build_rotate_wheel_2n(100)), path)
        assert path.read_bytes().count(b"\n") == 30_201 + 1
        assert peak < 2 * 1024 * 1024

    def test_one_long_segment_streams_in_bounded_memory(self, tmp_path):
        # One engaged 400 s sweep: 20,001 rows, about five blocks, with the
        # shaft, wheel angle and x_m varying; a block as long as the segment
        # took about 7 MB.
        trajectory = make_trajectory([(0, 90, -90), (360, 90, -90)], duration=400.0)
        path = tmp_path / "trace.csv"
        peak = self.peak_writing(analyse(trajectory), path)
        assert path.read_bytes().count(b"\n") == 20_001 + 1
        assert peak < 2 * 1024 * 1024

    def test_distinct_segment_shapes_stream_in_bounded_memory(self, tmp_path):
        # 2,000 swaps of s3, each to a target of its own: no segment shape
        # repeats, so the trace keeps at most one block of rows of them.
        states = [(0, 0, 0 if k % 2 == 0 else 90 - k * 0.04) for k in range(2001)]
        path = tmp_path / "trace.csv"
        peak = self.peak_writing(analyse(make_trajectory(states)), path)
        assert path.read_bytes().count(b"\n") == 2000 * 50 + 1 + 1
        assert peak < 2 * 1024 * 1024

    def test_a_repeated_long_segment_streams_in_bounded_memory(self, tmp_path):
        # Two identical 400 s sweeps of 20,000 rows: a shape longer than a
        # block is not kept; keeping it whole took about 7 MB.
        W, S = Waypoint, ServoState
        trajectory = Trajectory(waypoints=(
            W(0.0, S(0.0, 90.0, -90.0)), W(400.0, S(360.0, 90.0, -90.0)),
            W(401.0, S(360.0, 90.0, 90.0)), W(402.0, S(0.0, 90.0, 90.0)),
            W(403.0, S(0.0, 90.0, -90.0)), W(803.0, S(360.0, 90.0, -90.0))))
        path = tmp_path / "trace.csv"
        peak = self.peak_writing(analyse(trajectory, Policy.LENIENT), path)
        assert path.read_bytes().count(b"\n") == 2 * 20_000 + 3 * 50 + 1 + 1
        assert peak < 2 * 1024 * 1024


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitExport:
    """The trace export in parts, the later ones written by forked workers."""

    def test_the_37_hz_golden_export_is_split(self, tmp_path, split_export):
        # The routine of the 37 Hz export golden: 44,589 rows, two parts of
        # at least the package's least part size.
        motion = analyse(build_rotate_wheel_2n(200, MechanismGeometry(wheel_radius=0.37)))
        path = tmp_path / "trace.csv"
        with split_export(2, None) as seen:
            write_trace_file(motion, path, 37.0)
        assert len(seen.forked) == 1
        assert path.read_bytes() == reference_trace_csv(motion, 37.0)
        assert_no_children()

    def test_the_caller_keeps_its_cpus(self, tmp_path):
        # On a machine with two usable CPUs or more the export pins this
        # process to one of them while its workers run.
        cpus = os.sched_getaffinity(0)
        write_trace_file(analyse(build_rotate_wheel_2n(200)), tmp_path / "trace.csv", 37.0)
        assert os.sched_getaffinity(0) == cpus
        assert_no_children()

    @pytest.mark.parametrize("cpus, parts", [(2, 2), (3, 3), (4, 4), (8, 4)])
    def test_one_part_per_usable_cpu_up_to_the_cap(self, tmp_path, split_export, cpus, parts):
        motion = analyse(build_rotate_wheel_2n(3))
        path = tmp_path / "trace.csv"
        with split_export(cpus) as seen:
            write_trace_file(motion, path, 50.0)
        assert len(seen.forked) == parts - 1
        # Pinned to the first CPU while the workers run, then unpinned.
        assert seen.pins == [{0}, set(range(cpus))]
        assert path.read_bytes() == reference_trace_csv(motion, 50.0)
        assert_no_children()

    @staticmethod
    def worker_does(monkeypatch, action):
        """Make each worker call ``action()`` before it writes its part."""
        write_rows = executor._write_rows

        def write(out, motion, counts, start, stop):
            if start > 0:
                action()
            write_rows(out, motion, counts, start, stop)
        monkeypatch.setattr(executor, "_write_rows", write)

    def test_a_failing_worker_is_an_oserror_and_a_usage_error(
            self, capsys, tmp_path, monkeypatch, split_export):
        def fail():
            raise RuntimeError("worker fault")
        self.worker_does(monkeypatch, fail)
        with split_export(2) as seen:
            with pytest.raises(OSError, match="worker failed with exit status 1"):
                write_trace_file(analyse(build_rotate_wheel_2n(3)), tmp_path / "a.csv")
            code = run(["simulate", "--n", "3", "--out", str(tmp_path / "b.csv")])
        assert len(seen.forked) == 2
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            "homeowheel: error: trace export worker failed with exit status 1"]
        assert_no_children()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_write_error_kills_and_reaps_the_worker(self, capsys, monkeypatch, split_export):
        # The worker would take a minute; writing the first part to a full
        # device fails, and the export ends at once, its worker killed.
        self.worker_does(monkeypatch, lambda: time.sleep(60))
        began = time.monotonic()
        with split_export(2) as seen:
            code = run(["simulate", "--n", "20", "--out", "/dev/full"])
        assert time.monotonic() - began < 30
        assert len(seen.forked) == 1
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "No space left" in captured.err
        assert_no_children()

    def test_one_cpu_or_a_second_thread_never_forks(self, tmp_path, split_export, forbid):
        motion = analyse(build_rotate_wheel_2n(3))
        path = tmp_path / "trace.csv"
        forbid(os, "fork")
        with split_export(1):
            write_trace_file(motion, path, 50.0)
        assert path.read_bytes() == reference_trace_csv(motion, 50.0)
        path.unlink()
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with split_export(4):
                write_trace_file(motion, path, 50.0)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert path.read_bytes() == reference_trace_csv(motion, 50.0)
        assert_no_children()

    def test_rejected_traces_fork_nothing(self, tmp_path, split_export, forbid):
        # Over the sample cap the file is left alone; an unwritable path
        # fails when it is opened, before any worker would start.
        motion = analyse(build_rotate_wheel_2n(3))
        path = tmp_path / "trace.csv"
        path.write_text("kept\n")
        forbid(os, "fork")
        with split_export(4):
            with pytest.raises(InvalidParameter, match="MAX_TRACE_SAMPLES"):
                write_trace_file(motion, path, 1e9)
            with pytest.raises(FileNotFoundError):
                write_trace_file(motion, tmp_path / "missing" / "trace.csv", 50.0)
        assert path.read_text() == "kept\n"
        assert_no_children()
