"""Tests for the command-line front end: summaries, files, exit codes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homeowheel import executor, planner, tegument
from homeowheel.cli import run
from homeowheel.executor import (
    MAX_TRACE_SAMPLES,
    MAX_WAYPOINTS,
    Trajectory,
    Waypoint,
    build_rotate_wheel_2n,
    read_trajectory_file,
    write_trajectory_file,
)
from homeowheel.mechanism import MechanismGeometry, ServoLimits, ServoState
from homeowheel.planner import MAX_PLAN_SWEEPS, count_engaged_sweeps


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulateCommand:
    def test_summary_and_exit_code(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, stdout, _ = invoke(capsys, "simulate", "--n", "1",
                                 "--radius-m", "0.5", "--out", str(out))
        assert code == 0
        assert "theta_wheel_deg=720.000000000" in stdout
        assert "x_m=6.283185307" in stdout
        assert "max_twist_shaft_axial_deg=360.000000000" in stdout
        assert "violations=0" in stdout
        assert out.read_text().startswith("t,s1,s2,s3,")

    def test_two_iterations(self, capsys):
        code, stdout, _ = invoke(capsys, "simulate", "--n", "2")
        assert code == 0
        assert "theta_wheel_deg=1440.000000000" in stdout

    def test_zero_n_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["simulate", "--n", "0"])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_trace_over_the_sample_cap_is_a_usage_error(self, capsys, tmp_path, forbid):
        # 10 one-second segments at 1e9 Hz ask for 1e10 samples; the count
        # is checked before any row is made.
        assert 10 * 10 ** 9 + 1 > MAX_TRACE_SAMPLES
        forbid(executor, "analyse")
        forbid(executor, "_trace_blocks")
        out = tmp_path / "x.csv"
        code, stdout, stderr = invoke(capsys, "simulate", "--n", "1",
                                      "--sample-rate-hz", "1e9", "--out", str(out))
        assert code == 2
        assert stdout == "" and "MAX_TRACE_SAMPLES" in stderr
        assert not out.exists()

    def test_rejected_trace_leaves_an_existing_file_unchanged(self, capsys, tmp_path):
        # The count is checked before the file is opened, so a rejected
        # trace never truncates what is already there.
        out = tmp_path / "x.csv"
        out.write_bytes(b"previous,contents\n1,2\n")
        code, stdout, stderr = invoke(capsys, "simulate", "--n", "1",
                                      "--sample-rate-hz", "1e9", "--out", str(out))
        assert code == 2
        assert stdout == "" and "MAX_TRACE_SAMPLES" in stderr
        assert out.read_bytes() == b"previous,contents\n1,2\n"

    def test_n_over_the_waypoint_cap_is_a_usage_error(self, capsys, forbid):
        forbid(executor, "ServoState")
        n = (MAX_WAYPOINTS - 5) // 6 + 1
        code, stdout, stderr = invoke(capsys, "simulate", "--n", str(n))
        assert code == 2
        assert stdout == "" and "MAX_WAYPOINTS" in stderr

    def test_writes_the_trajectory_too(self, capsys, tmp_path):
        traj_path = tmp_path / "routine.json"
        code, _, _ = invoke(capsys, "simulate", "--n", "1", "--out-traj", str(traj_path))
        assert code == 0
        trajectory = read_trajectory_file(traj_path)
        assert len(trajectory.waypoints) == 11


class TestPlanCommand:
    def test_plan_rotation_writes_a_valid_file(self, capsys, tmp_path):
        out = tmp_path / "plan.json"
        code, stdout, _ = invoke(capsys, "plan", "--target-deg", "450", "--out", str(out))
        assert code == 0
        assert "predicted_theta_wheel_deg=450.000000000" in stdout
        assert "segments=" in stdout
        trajectory = read_trajectory_file(out)
        assert count_engaged_sweeps(trajectory) >= 2

    def test_zero_target(self, capsys, tmp_path):
        out = tmp_path / "plan.json"
        code, stdout, _ = invoke(capsys, "plan", "--target-deg", "0", "--out", str(out))
        assert code == 0
        assert "predicted_theta_wheel_deg=0.000000000" in stdout
        assert out.exists()

    def test_distance_goal(self, capsys, tmp_path):
        out = tmp_path / "plan.json"
        code, stdout, _ = invoke(capsys, "plan", "--distance-m", "-1.0",
                                 "--radius-m", "0.1", "--out", str(out))
        assert code == 0
        assert "predicted_x_m=-1.000000000" in stdout

    def test_target_and_distance_are_mutually_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["plan", "--target-deg", "90", "--distance-m", "1.0",
                 "--out", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2

    def test_one_goal_is_required(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["plan", "--out", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2

    def test_target_over_the_sweep_cap_is_a_usage_error(self, capsys, tmp_path):
        # A 1 deg s1 span keeps the cost of a missing guard to seconds.
        config = tmp_path / "config.json"
        config.write_text('{"servo_ranges_deg": {"s1": [0, 1]}}')
        out = tmp_path / "plan.json"
        code, _, stderr = invoke(capsys, "plan", "--target-deg", str(MAX_PLAN_SWEEPS + 0.5),
                                 "--config", str(config), "--out", str(out))
        assert code == 2
        assert "sweeps" in stderr
        assert not out.exists()

    def test_non_finite_target_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["plan", "--target-deg", "nan", "--out", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2


class TestGaitCommand:
    def test_two_cycles(self, capsys, tmp_path):
        out = tmp_path / "gait.json"
        code, stdout, _ = invoke(capsys, "gait", "--period-s", "8",
                                 "--cycles", "2", "--out", str(out))
        assert code == 0
        assert "theta_wheel_deg=1440.000000000" in stdout
        assert out.exists()

    def test_infeasible_period(self, capsys, tmp_path):
        code, stdout, _ = invoke(capsys, "gait", "--period-s", "2.9",
                                 "--cycles", "1", "--out", str(tmp_path / "g.json"))
        assert code == 1
        assert "RateInfeasible" in stdout

    def test_cycles_over_the_waypoint_cap_is_a_usage_error(self, capsys, tmp_path, forbid):
        forbid(planner, "ServoState")
        out = tmp_path / "g.json"
        code, stdout, stderr = invoke(capsys, "gait", "--period-s", "8", "--cycles",
                                      str((MAX_WAYPOINTS - 1) // 4 + 1), "--out", str(out))
        assert code == 2
        assert stdout == "" and "MAX_WAYPOINTS" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("ranges", [{"s1": [0, 180]}, {"s1": [10, 360]},
                                        {"s2": [-45, 90]}, {"s3": [-90, 45]}])
    @pytest.mark.parametrize("module, argv", [
        (planner, ("gait", "--period-s", "8", "--cycles", "20000")),
        (executor, ("simulate", "--n", "10")),
    ], ids=["gait", "simulate"])
    def test_limits_excluding_the_sweeps_are_a_usage_error(self, capsys, tmp_path, forbid,
                                                          ranges, module, argv):
        # The gait and the canonical routine sweep s1 over 0..360 in both
        # clutch configurations, so limits that exclude any of those values
        # are rejected with one usage line before a waypoint is built.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"servo_ranges_deg": ranges}))
        forbid(module, "ServoState")
        out = tmp_path / "g.json"
        code, stdout, stderr = invoke(capsys, *argv, "--config", str(config), "--out", str(out))
        assert code == 2
        assert stdout == "" and len(stderr.splitlines()) == 1
        assert not out.exists()

    def test_zero_cycles_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["gait", "--period-s", "8", "--cycles", "0",
                 "--out", str(tmp_path / "g.json")])
        assert excinfo.value.code == 2


@pytest.mark.parametrize("rates, argv", [
    ({"s2": 1e-308}, ("simulate", "--n", "1")),       # t overflows to inf
    ({"s2": 1e-300}, ("plan", "--target-deg", "10")),  # 1 s moves absorbed at t=9e+301
    ({"s1": 1e300}, ("gait", "--period-s", "400", "--cycles", "2")),  # sweep absorbed at t=200
    ({}, ("gait", "--period-s", "1e308", "--cycles", "2")),  # the last period overflows
], ids=["simulate", "plan", "gait-sweep", "gait-period"])
def test_waypoint_times_that_stop_increasing_are_a_usage_error(capsys, tmp_path, rates, argv):
    # Accepted but extreme limits or periods make the builders' times stop
    # increasing; the command says so in one line and writes nothing.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_rates_deg_per_s": rates}))
    out = tmp_path / "out"
    code, stdout, stderr = invoke(capsys, *argv, "--config", str(config), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert "waypoint times must be finite and increasing" in stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, peak_deg", [
    (("simulate", "--n", "1", "--radius-m", "1e308"), 720.0),
    (("simulate", "--n", "1", "--config", "CONFIG"), 720.0),
    (("gait", "--period-s", "4", "--cycles", "2", "--radius-m", "1e308"), 1440.0),
    (("plan", "--target-deg", "7200", "--radius-m", "1e308"), 7200.0),
], ids=["simulate", "simulate-config", "gait", "plan"])
def test_odometry_outside_the_float_range_is_a_usage_error(capsys, tmp_path, argv, peak_deg):
    # 1e308 m * radians(720) overflows: the command printed x_m=inf, wrote
    # inf into the trace and exited 0. Now it says so and writes nothing.
    config = tmp_path / "config.json"
    config.write_text('{"wheel_radius_m": 1e308}')
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    out, traj = tmp_path / "out", tmp_path / "traj.json"
    if argv[0] == "simulate":
        argv += ["--out-traj", str(traj)]
    code, stdout, stderr = invoke(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr.splitlines() == [
        "homeowheel: error: wheel radius 1e+308 m puts x_m outside the float range "
        f"at theta_wheel_deg={peak_deg!r}"]
    assert not out.exists() and not traj.exists()


def test_check_prints_no_odometry_so_any_radius_passes(capsys, tmp_path):
    trajectory = build_rotate_wheel_2n(1, MechanismGeometry(wheel_radius=1e308))
    path = tmp_path / "routine.json"
    write_trajectory_file(trajectory, path)
    code, stdout, stderr = invoke(capsys, "check", str(path))
    assert code == 0 and stderr == "" and "ok=1" in stdout


class TestCheckCommand:
    def _write(self, tmp_path, states, name="traj.json"):
        trajectory = Trajectory.from_states([ServoState(*s) for s in states])
        path = tmp_path / name
        write_trajectory_file(trajectory, path)
        return path

    def test_accepts_the_canonical_routine(self, capsys, tmp_path):
        traj_path = tmp_path / "routine.json"
        invoke(capsys, "simulate", "--n", "1", "--out-traj", str(traj_path))
        code, stdout, _ = invoke(capsys, "check", str(traj_path))
        assert code == 0
        assert "ok=1" in stdout

    def test_accepts_every_produced_file(self, capsys, tmp_path):
        produced = []
        invoke(capsys, "simulate", "--n", "2", "--out-traj", str(tmp_path / "a.json"))
        produced.append(tmp_path / "a.json")
        invoke(capsys, "plan", "--target-deg", "-540", "--out", str(tmp_path / "b.json"))
        produced.append(tmp_path / "b.json")
        invoke(capsys, "gait", "--period-s", "6", "--cycles", "1",
               "--out", str(tmp_path / "c.json"))
        produced.append(tmp_path / "c.json")
        for path in produced:
            code, stdout, _ = invoke(capsys, "check", str(path))
            assert code == 0, path
            assert "ok=1" in stdout

    def test_range_violation_exits_one(self, capsys, tmp_path):
        path = self._write(tmp_path, [(0, 0, 0), (400, 0, 0), (0, 0, 0)])
        code, stdout, _ = invoke(capsys, "check", str(path))
        assert code == 1
        assert "RangeViolation servo1" in stdout

    def test_fast_full_range_s2_sweep_is_clean(self, capsys, tmp_path):
        # One 0.01 s segment from s2 = -170 to +170: valid, and its twist
        # peaks at the waypoints, never at a wrapped -190.
        limits = ServoLimits(s2_range=(-170.0, 170.0), s1_max_rate=1e5,
                             s2_max_rate=1e5, s3_max_rate=1e5)
        trajectory = Trajectory(limits=limits, waypoints=(
            Waypoint(0.0, ServoState(0.0, -170.0, 0.0)),
            Waypoint(0.01, ServoState(0.0, 170.0, 0.0))))
        path = tmp_path / "s2_wrap.json"
        write_trajectory_file(trajectory, path)
        code, stdout, _ = invoke(capsys, "check", str(path))
        assert code == 0
        assert "ok=1" in stdout.splitlines()
        assert "integrity_ok=1" in stdout.splitlines()
        assert "max_twist_body_gantry_deg=170.000000000" in stdout.splitlines()

    def test_truncated_file_exits_three(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "format_version": 1,\n')
        code, _, stderr = invoke(capsys, "check", str(path))
        assert code == 3
        assert "line" in stderr and "column" in stderr

    @pytest.mark.parametrize("index, field", [(0, {"s4": 5}), (1, {"T": 9})])
    def test_unknown_waypoint_field_exits_three(self, capsys, tmp_path, index, field):
        path = self._write(tmp_path, [(0.0, 0.0, 0.0), (0.0, 0.0, -90.0), (0.0, 90.0, -90.0)])
        doc = json.loads(path.read_text())
        doc["waypoints"][index].update(field)
        path.write_text(json.dumps(doc, indent=2))
        code, stdout, stderr = invoke(capsys, "check", str(path))
        (key,) = field
        assert code == 3
        assert stdout == ""
        assert f"unknown field {key!r} at $.waypoints[{index}].{key}" in stderr

    @pytest.mark.parametrize("policy", ["strict", "lenient"])
    def test_integrity_violations_print_in_chain_order(self, capsys, tmp_path, policy):
        # Per waypoint: servo2's body-gantry segment, then servo1's shaft,
        # then servo3's wrist, whatever order the servos are tested in.
        path = self._write(tmp_path, [(0, 0, 0), (400, 95, -95), (-1, 0, 91), (0, 0, 0)])
        code, stdout, _ = invoke(capsys, "check", str(path), "--policy", policy)
        assert code == 1
        assert [line for line in stdout.splitlines() if line.startswith("integrity_")] == [
            "integrity_ok=0",
            "integrity_violation=IntegrityViolation seg_body_gantry at t=1.0: twist 95.0 deg",
            "integrity_violation=IntegrityViolation seg_shaft_axial at t=1.0: twist 400.0 deg",
            "integrity_violation=IntegrityViolation seg_wrist at t=1.0: twist -95.0 deg",
            "integrity_violation=IntegrityViolation seg_shaft_axial at t=2.0: twist -1.0 deg",
            "integrity_violation=IntegrityViolation seg_wrist at t=2.0: twist 91.0 deg",
        ]
        assert "max_twist_shaft_axial_deg=400.000000000" in stdout.splitlines()

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, _, stderr = invoke(capsys, "check", str(tmp_path / "nope.json"))
        assert code == 2

    def test_policy_gates_disengaged_motion(self, capsys, tmp_path):
        path = self._write(tmp_path, [(0, 0, 0), (90, 0, 0)])
        code_strict, stdout_strict, _ = invoke(capsys, "check", str(path))
        assert code_strict == 1
        assert "DisengagedShaftMotion" in stdout_strict
        code_lenient, stdout_lenient, _ = invoke(
            capsys, "check", str(path), "--policy", "lenient")
        assert code_lenient == 0
        assert "event=DisengagedShaftMotion" in stdout_lenient
        assert "event=GimbalLockRisk" in stdout_lenient

    def test_events_at_equal_times_keep_segment_order(self, capsys, tmp_path):
        # Segments 1..10 all start at t=1 and move the shaft with the clutch
        # open; their events print in segment order, not string order.
        trajectory = Trajectory(waypoints=tuple(
            Waypoint(min(k, 1) * 1.0, ServoState(10.0 * k, 0.0, 0.0)) for k in range(12)))
        path = tmp_path / "ties.json"
        write_trajectory_file(trajectory, path)
        code, stdout, _ = invoke(capsys, "check", str(path))
        assert code == 1
        events = [line.split(":")[0] for line in stdout.splitlines()
                  if line.startswith("event=")]
        assert events == ["event=DisengagedShaftMotion t=0 segment 0",
                          "event=GimbalLockRisk t=0 segment 0"] + [
            f"event=DisengagedShaftMotion t=1 segment {i}" for i in range(1, 11)]


class TestScaleCommand:
    def test_ratio_of_two_sizes(self, capsys):
        code, stdout, _ = invoke(capsys, "scale", "--lengths-m", "1,0.1")
        assert code == 0
        assert "accel_ratio=10.000000000" in stdout

    def test_identity_row_at_the_reference(self, capsys):
        code, stdout, _ = invoke(capsys, "scale", "--lengths-m", "1")
        assert code == 0
        assert "L_m=1.000000000 mass_kg=1.000000000 force_n=1.000000000 accel_m_s2=1.000000000" in stdout

    @pytest.mark.parametrize("lengths", ["1e308,1", "1,1e-200"])
    def test_length_beyond_the_float_range_is_a_usage_error(self, capsys, lengths):
        code, stdout, stderr = invoke(capsys, "scale", "--lengths-m", lengths)
        assert code == 2
        assert stdout == "" and "float range" in stderr

    def test_non_positive_length_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["scale", "--lengths-m", "0"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            run(["scale", "--lengths-m", "1,-2"])
        assert excinfo.value.code == 2


class TestConfigAndDeterminism:
    def test_config_overrides_geometry(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"wheel_radius_m": 0.5}))
        code, stdout, _ = invoke(capsys, "simulate", "--n", "1", "--config", str(config))
        assert code == 0
        assert "x_m=6.283185307" in stdout

    def test_flag_beats_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"wheel_radius_m": 0.5}))
        code, stdout, _ = invoke(capsys, "simulate", "--n", "1",
                                 "--config", str(config), "--radius-m", "1.0")
        assert code == 0
        assert "x_m=12.566370614" in stdout

    def test_config_rate_limits_stretch_the_routine(self, capsys, tmp_path):
        # 180 deg gantry swaps at 90 deg/s take 2 s, the routine's other
        # moves keep their 1 s, and the trajectory validates like a gait's.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_rates_deg_per_s": {"s2": 90}}))
        traj = tmp_path / "routine.json"
        code, stdout, _ = invoke(capsys, "simulate", "--n", "2", "--config", str(config),
                                 "--out-traj", str(traj))
        assert code == 0
        assert "violations=0" in stdout and "RateViolation" not in stdout
        assert "theta_wheel_deg=1440.000000000" in stdout
        times = [wp.t for wp in read_trajectory_file(traj).waypoints]
        assert [b - a for a, b in zip(times, times[1:])] == [1, 1, *[1, 1, 2, 1, 1, 2] * 2, 1, 1]

    def test_bad_config_is_a_usage_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code, _, stderr = invoke(capsys, "simulate", "--n", "1", "--config", str(config))
        assert code == 2
        assert "config" in stderr

    @pytest.mark.parametrize("text", [
        '{"servo_ranges_deg": [1, 2]}',
        '{"max_rates_deg_per_s": {"s1": Infinity}}',
        '{"max_rates_deg_per_s": {"s1": 1e309}}',
        '{"wheel_radius_m": "big"}',
        '[]',
        '{"wheel_radius": 0.5}',
        '{"max_rates_deg_per_s": {"s4": 5}}',
    ])
    def test_invalid_config_is_a_usage_error(self, capsys, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        for argv in (["gait", "--period-s", "4", "--cycles", "1"],
                     ["plan", "--target-deg", "90"]):
            code, stdout, stderr = invoke(capsys, *argv, "--out", str(tmp_path / "o.json"),
                                          "--config", str(config))
            assert code == 2
            assert stdout == ""
            assert "config" in stderr and "Traceback" not in stderr
        assert not (tmp_path / "o.json").exists()

    def test_missing_config_is_a_usage_error(self, capsys, tmp_path):
        code, _, stderr = invoke(capsys, "simulate", "--n", "1",
                                 "--config", str(tmp_path / "nope.json"))
        assert code == 2
        assert "config" in stderr

    def test_trajectory_header_as_config(self, capsys, tmp_path):
        source = Trajectory(
            geometry=MechanismGeometry(0.3, 0.0, 0.5, 0.25),
            limits=ServoLimits((0.0, 100.0), (-95.0, 95.0), (-100.0, 90.0),
                               50.0, 60.0, 70.0),
            waypoints=(Waypoint(0.0, ServoState(20.0, 0.0, 0.0)),))
        config = tmp_path / "header.json"
        write_trajectory_file(source, config)
        out = tmp_path / "plan.json"
        code, _, _ = invoke(capsys, "plan", "--target-deg", "200", "--out", str(out),
                            "--config", str(config))
        assert code == 0
        planned = read_trajectory_file(out)
        assert planned.geometry == source.geometry
        assert planned.limits == source.limits

    def test_config_merges_per_servo_and_flag_wins(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"wheel_radius_m": 1, "gantry_offset_m": 0,
                                      "max_rates_deg_per_s": {"s2": 90}}))
        out = tmp_path / "gait.json"
        code, _, _ = invoke(capsys, "gait", "--period-s", "10", "--cycles", "1",
                            "--out", str(out), "--config", str(config), "--radius-m", "0.25")
        assert code == 0
        written = json.loads(out.read_text())
        assert written["wheel_radius_m"] == 0.25
        assert written["max_rates_deg_per_s"] == {"s1": 360.0, "s2": 90.0, "s3": 360.0}
        # integer config values are written as floats, like any parsed header
        assert '"gantry_offset_m": 0.0,' in out.read_text()

    @pytest.mark.parametrize("argv", [
        ["check", "{traj}", "--config", "{traj}"],
        ["check", "{traj}", "--radius-m", "0.5"],
        ["check", "{traj}", "--sample-rate-hz", "5"],
        ["plan", "--target-deg", "90", "--out", "{out}", "--sample-rate-hz", "5"],
        ["gait", "--period-s", "8", "--cycles", "1", "--out", "{out}",
         "--sample-rate-hz", "5"],
    ])
    def test_options_a_command_never_reads_are_rejected(self, capsys, tmp_path, argv):
        traj = tmp_path / "routine.json"
        write_trajectory_file(Trajectory.from_states([ServoState(0.0, 0.0, 0.0)]), traj)
        argv = [a.format(traj=traj, out=tmp_path / "o.json") for a in argv]
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_every_command_writes_identical_bytes_twice(self, capsys, tmp_path):
        runs = {
            "trace.csv": ["simulate", "--n", "2", "--radius-m", "0.25", "--out"],
            "routine.json": ["simulate", "--n", "2", "--out-traj"],
            "plan.json": ["plan", "--target-deg", "765.4321", "--out"],
            "gait.json": ["gait", "--period-s", "7.7", "--cycles", "3", "--out"],
        }
        for filename, argv in runs.items():
            first = tmp_path / ("first_" + filename)
            second = tmp_path / ("second_" + filename)
            assert run(argv + [str(first)]) == 0
            assert run(argv + [str(second)]) == 0
            capsys.readouterr()
            assert first.read_bytes() == second.read_bytes()


def test_every_command_walks_the_trajectory_once(capsys, tmp_path, forbid):
    # analyse finds the violations and the twist certificate itself: with
    # validate_trajectory, check_integrity and TwistLedger forbidden in every
    # module that binds them, each command prints what it did before.
    plan, bad = str(tmp_path / "plan.json"), str(tmp_path / "bad.json")
    write_trajectory_file(Trajectory(waypoints=(
        Waypoint(0.0, ServoState(0.0, 0.0, 0.0)), Waypoint(0.5, ServoState(400.0, 0.0, 0.0)),
        Waypoint(0.5, ServoState(0.0, 0.0, 0.0)))), bad)
    commands = [
        ["simulate", "--n", "2", "--out-traj", str(tmp_path / "sim.json")],
        ["plan", "--target-deg", "-540", "--out", plan],
        ["gait", "--period-s", "6", "--cycles", "2", "--out", str(tmp_path / "gait.json")],
        ["check", plan],
        ["check", bad],
        ["check", bad, "--policy", "lenient"],
    ]
    expected = [invoke(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in expected] == [0, 0, 0, 0, 1, 1]
    for owner, name in ((executor, "validate_trajectory"), (tegument, "check_integrity"),
                        (tegument, "TwistLedger")):
        target = getattr(owner, name)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("homeowheel")
                    and getattr(module, name, None) is target):
                forbid(module, name)
    assert [invoke(capsys, *argv) for argv in commands] == expected


# Run under ``python -S``, so no site-packages ``.pth`` file can preload these.
IMPORT_PROBE = """
import json, sys
heavy = ("numpy", "dataclasses", "inspect", "typing")
import homeowheel.cli as cli
loaded = [[m for m in heavy if m in sys.modules]]
for argv in json.loads(sys.argv[1]):
    cli.run(argv)
    loaded.append([m for m in heavy if m in sys.modules])
print(json.dumps(loaded), file=sys.stderr)
"""


def test_no_command_imports_numpy_dataclasses_inspect_or_typing(tmp_path):
    plan = str(tmp_path / "plan.json")
    commands = [
        ["scale", "--lengths-m", "1,0.1"],
        ["plan", "--target-deg", "450", "--out", plan],
        ["gait", "--period-s", "8", "--cycles", "2", "--out", str(tmp_path / "gait.json")],
        ["simulate", "--n", "1", "--out", str(tmp_path / "trace.csv")],
        ["check", plan],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "ok=1" in done.stdout and "accel_ratio=" in done.stdout
    # After the import, then after each command: none of them loaded.
    assert json.loads(done.stderr.splitlines()[-1]) == [[]] * 6


def test_package_imports_only_the_standard_library():
    # Every import statement, including those inside functions.
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "homeowheel").glob("*.py"))
    assert sources
    foreign = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = ["homeowheel" if node.level else node.module.split(".")[0]]
            else:
                continue
            foreign += [(source.name, root) for root in roots
                        if root != "homeowheel" and root not in sys.stdlib_module_names]
    assert foreign == []
