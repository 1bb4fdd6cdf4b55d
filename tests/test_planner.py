"""Tests for rotation/distance planning and the rectification gait."""

import math

import numpy as np
import pytest

from homeowheel import planner
from homeowheel.errors import InvalidParameter, RateInfeasible
from homeowheel.executor import validate_trajectory
from homeowheel.mechanism import MechanismGeometry, ServoLimits, ServoState
from homeowheel.planner import (
    BACKWARD_CONFIG,
    FORWARD_CONFIG,
    MAX_PLAN_SWEEPS,
    MAX_WAYPOINTS,
    count_engaged_sweeps,
    generate_gait,
    plan_distance,
    plan_rotation,
)
from homeowheel.trace import simulate


def replay(trajectory, sample_rate=50.0):
    return simulate(trajectory, sample_rate=sample_rate)


class TestPlanRotation:
    def test_two_full_turns_matches_the_canonical_routine(self):
        trajectory = plan_rotation(720.0)
        trace = replay(trajectory)
        assert abs(trace.final_theta_deg - 720.0) < 1e-9
        assert validate_trajectory(trajectory) == []
        assert count_engaged_sweeps(trajectory) == 2
        assert trajectory.final_state.s2 == 0.0 and trajectory.final_state.s3 == 0.0

    def test_zero_target_moves_nothing(self):
        trajectory = plan_rotation(0.0)
        assert len(trajectory.waypoints) == 1
        trace = replay(trajectory)
        assert trace.final_theta_deg == 0.0
        assert count_engaged_sweeps(trajectory) == 0

    def test_backward_turn_uses_the_mirror_configuration(self):
        trajectory = plan_rotation(-360.0)
        configs = [(wp.state.s2, wp.state.s3) for wp in trajectory.waypoints]
        assert BACKWARD_CONFIG in configs
        assert FORWARD_CONFIG not in configs
        sweep = [wp.state.s1 for wp in trajectory.waypoints]
        assert max(sweep) == 360.0  # drives backward by sweeping the shaft up
        trace = replay(trajectory)
        assert abs(trace.final_theta_deg + 360.0) < 1e-9

    def test_partial_turn_after_reconfiguration(self):
        trajectory = plan_rotation(450.0)
        trace = replay(trajectory)
        assert abs(trace.final_theta_deg - 450.0) < 1e-9
        assert count_engaged_sweeps(trajectory) == 2

    def test_round_trip_drives_random_targets(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            target = float(rng.uniform(-3600.0, 3600.0))
            trajectory = plan_rotation(target)
            trace = replay(trajectory, sample_rate=10.0)
            assert abs(trace.final_theta_deg - target) < 1e-9
            assert validate_trajectory(trajectory) == []
            bound = math.ceil(abs(target) / 360.0) + 1
            assert count_engaged_sweeps(trajectory) <= bound

    def test_arbitrary_valid_start_states(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            start = ServoState(float(rng.uniform(0.0, 360.0)),
                               float(rng.uniform(-90.0, 90.0)),
                               float(rng.uniform(-90.0, 90.0)))
            target = float(rng.uniform(-1000.0, 1000.0))
            trajectory = plan_rotation(target, start=start)
            assert trajectory.waypoints[0].state == start
            trace = replay(trajectory, sample_rate=10.0)
            assert abs(trace.final_theta_deg - target) < 1e-9
            assert validate_trajectory(trajectory) == []

    def test_slow_servos_stretch_the_segments(self):
        limits = ServoLimits(s1_max_rate=36.0, s2_max_rate=45.0, s3_max_rate=45.0)
        trajectory = plan_rotation(720.0, limits=limits)
        assert validate_trajectory(trajectory) == []
        durations = [b.t - a.t for _, a, b in trajectory.segments()]
        assert max(durations) >= 10.0  # 360 deg at 36 deg/s

    def test_rejects_non_finite_target(self):
        with pytest.raises(InvalidParameter):
            plan_rotation(float("nan"))
        with pytest.raises(InvalidParameter):
            plan_rotation(float("inf"))

    def test_sweep_count_follows_the_s1_span(self):
        # 1 deg span, start at its middle: the first sweep travels 0.5 deg,
        # every later one the whole span.
        limits = ServoLimits(s1_range=(0.0, 1.0))
        start = ServoState(0.5, 0.0, 0.0)
        for target, sweeps in ((0.5, 1), (0.75, 2), (1.5, 2), (-2.25, 3), (100.5, 101)):
            trajectory = plan_rotation(target, start=start, limits=limits)
            assert count_engaged_sweeps(trajectory) == sweeps
            assert sweeps <= math.ceil(abs(target) / 1.0) + 1

    def test_rejects_targets_over_the_sweep_cap_before_planning(self):
        # With a 1 deg span the target below needs MAX_PLAN_SWEEPS + 1 sweeps,
        # so a missing guard costs seconds of planning, never a hang.
        limits = ServoLimits(s1_range=(0.0, 1.0))
        with pytest.raises(InvalidParameter, match="sweeps"):
            plan_rotation(MAX_PLAN_SWEEPS + 0.5, limits=limits)
        with pytest.raises(InvalidParameter, match="sweeps"):
            plan_rotation(-(MAX_PLAN_SWEEPS + 0.5), limits=limits)
        assert count_engaged_sweeps(plan_rotation(4000.0, limits=limits)) == 4000

    def test_the_largest_plan_is_a_file_that_check_reads(self):
        # A plan has at most 3 waypoints per sweep and 3 more, and a file
        # of more than MAX_WAYPOINTS is a parse error.
        largest = plan_rotation(360.0 * MAX_PLAN_SWEEPS)
        assert count_engaged_sweeps(largest) == MAX_PLAN_SWEEPS
        assert len(largest.waypoints) == MAX_WAYPOINTS

    def test_rejects_out_of_range_start(self):
        with pytest.raises(InvalidParameter, match=r"start ServoState\(s1=400.0, s2=0.0, "
                           r"s3=0.0\) is outside the limits: RangeViolation servo1: 400.0 "
                           r"outside \[0.0, 360.0\]"):
            plan_rotation(90.0, start=ServoState(400.0, 0.0, 0.0))

    def test_rejects_limits_without_driving_configurations(self):
        limits = ServoLimits(s2_range=(-45.0, 45.0))
        with pytest.raises(InvalidParameter):
            plan_rotation(90.0, limits=limits)
        # a zero target needs no engagement, so it stays legal
        assert plan_rotation(0.0, limits=limits).waypoints


class TestPlanDistance:
    def test_one_circumference(self):
        geometry = MechanismGeometry(wheel_radius=0.1)
        trajectory = plan_distance(2.0 * math.pi * 0.1, geometry=geometry)
        trace = replay(trajectory)
        assert abs(trace.final_theta_deg - 360.0) < 1e-9
        assert abs(trace.final_x_m - 2.0 * math.pi * 0.1) < 1e-9

    def test_zero_distance(self):
        trajectory = plan_distance(0.0)
        assert len(trajectory.waypoints) == 1

    def test_backward_meter_with_small_wheel(self):
        geometry = MechanismGeometry(wheel_radius=0.1)
        trajectory = plan_distance(-1.0, geometry=geometry)
        trace = replay(trajectory)
        assert abs(trace.final_x_m + 1.0) < 1e-9
        # about -572.9578 degrees of wheel
        assert abs(trace.final_theta_deg + math.degrees(10.0)) < 1e-6

    def test_rejects_non_finite_distance(self):
        with pytest.raises(InvalidParameter):
            plan_distance(float("inf"))


class TestGenerateGait:
    def test_one_period_advances_two_turns(self):
        trajectory = generate_gait(8.0, 1)
        trace = replay(trajectory)
        assert trace.final_theta_deg == 720.0
        assert trajectory.waypoints[0].state == trajectory.waypoints[-1].state
        assert validate_trajectory(trajectory) == []

    def test_three_periods_are_exactly_periodic_and_monotone(self):
        period = 8.0
        trajectory = generate_gait(period, 3)
        trace = replay(trajectory)
        assert trace.final_theta_deg == 3.0 * 720.0
        start_state = trajectory.waypoints[0].state
        for k in range(4):
            t = k * period
            matching = [wp for wp in trajectory.waypoints if wp.t == t]
            assert matching and matching[0].state == start_state
            theta_at = [s.theta_wheel_deg for s in trace.samples if s.t == t]
            assert theta_at and theta_at[0] == k * 720.0
        thetas = [s.theta_wheel_deg for s in trace.samples]
        assert all(b >= a for a, b in zip(thetas, thetas[1:]))

    def test_every_servo_oscillates_with_bounded_amplitude(self):
        trajectory = generate_gait(8.0, 2)
        s1 = [wp.state.s1 for wp in trajectory.waypoints]
        s2 = [wp.state.s2 for wp in trajectory.waypoints]
        s3 = [wp.state.s3 for wp in trajectory.waypoints]
        assert min(s1) == 0.0 and max(s1) == 360.0
        assert set(s2) == {90.0, -90.0}
        assert set(s3) == {-90.0, 90.0}

    def test_period_at_the_feasibility_bound(self):
        # default rates: 1 s sweep + 0.5 s dwell per half-period
        trajectory = generate_gait(3.0, 1)
        assert validate_trajectory(trajectory) == []
        trace = replay(trajectory)
        assert trace.final_theta_deg == 720.0

    def test_infeasible_period_is_rejected(self):
        with pytest.raises(RateInfeasible):
            generate_gait(2.9, 1)

    def test_custom_rates_move_the_bound(self):
        limits = ServoLimits(s1_max_rate=180.0)  # sweep needs 2 s
        with pytest.raises(RateInfeasible):
            generate_gait(4.9, 1, limits=limits)
        trajectory = generate_gait(5.0, 1, limits=limits)
        assert validate_trajectory(trajectory) == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            generate_gait(8.0, 0)
        with pytest.raises(InvalidParameter):
            generate_gait(-1.0, 1)
        with pytest.raises(InvalidParameter):
            generate_gait(float("nan"), 1)
        with pytest.raises(InvalidParameter):
            generate_gait(8.0, True)

    @pytest.mark.parametrize("s1_range", [(0.0, 180.0), (10.0, 360.0)])
    def test_rejects_limits_excluding_the_shaft_sweep(self, forbid, s1_range):
        forbid(planner, "ServoState")
        with pytest.raises(InvalidParameter, match="0 -> 360"):
            generate_gait(8.0, 1, limits=ServoLimits(s1_range=s1_range))

    def test_wider_shaft_range_keeps_the_gait(self):
        limits = ServoLimits(s1_range=(-10.0, 370.0))
        assert generate_gait(8.0, 2, limits=limits).waypoints == generate_gait(8.0, 2).waypoints

    def test_waypoint_cap_is_checked_in_closed_form(self, monkeypatch):
        # 4 cycles + 1 waypoints: with the cap at 9, two cycles is the longest gait.
        monkeypatch.setattr(planner, "MAX_WAYPOINTS", 9)
        assert len(generate_gait(8.0, 2).waypoints) == 9
        with pytest.raises(InvalidParameter, match="MAX_WAYPOINTS"):
            generate_gait(8.0, 3)

    def test_rejects_cycles_over_the_waypoint_cap(self, forbid):
        forbid(planner, "ServoState")
        with pytest.raises(InvalidParameter, match="MAX_WAYPOINTS"):
            generate_gait(8.0, (MAX_WAYPOINTS - 1) // 4 + 1)
