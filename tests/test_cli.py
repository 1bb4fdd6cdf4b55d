"""Tests for the command-line front end: summaries, files, exit codes."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homeowheel import executor, fileformat, planner, tegument, trace
from homeowheel.cli import run
from homeowheel.executor import (
    MAX_WAYPOINTS,
    Trajectory,
    Waypoint,
    build_rotate_wheel_2n,
)
from homeowheel.fileformat import read_trajectory_file, write_trajectory_file
from homeowheel.mechanism import MechanismGeometry, ServoLimits, ServoState
from homeowheel.planner import MAX_PLAN_SWEEPS, count_engaged_sweeps
from homeowheel.trace import MAX_TRACE_SAMPLES


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
        forbid(trace, "_export_parts")
        forbid(trace, "_trace_blocks")
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

    @pytest.mark.parametrize("empty, other", [("--out", "--out-traj"), ("--out-traj", "--out")])
    def test_an_empty_output_path_is_a_usage_error(self, capsys, tmp_path, monkeypatch,
                                                   empty, other):
        # "" names no file, as for plan --out "": open's error, and the other
        # output keeps what it held.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "old").write_text("old")
        code, stdout, stderr = invoke(capsys, "simulate", "--n", "1", empty, "", other, "old")
        assert code == 2 and stdout == ""
        assert stderr == "homeowheel: error: [Errno 2] No such file or directory: ''\n"
        assert os.listdir(tmp_path) == ["old"]
        assert (tmp_path / "old").read_text() == "old"

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

    def test_a_distance_past_the_float_range_names_distance_and_radius(self, capsys,
                                                                       tmp_path):
        # Both values are finite; their wheel angle, 1e608 rad, is not.
        out = tmp_path / "plan.json"
        code, stdout, stderr = invoke(capsys, "plan", "--distance-m", "1e308",
                                      "--radius-m", "1e-300", "--out", str(out))
        assert code == 2 and stdout == ""
        assert stderr == ("homeowheel: error: distance 1e+308 m on a wheel of radius "
                          "1e-300 m gives a wheel angle that is not finite\n")
        assert not out.exists()


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


@pytest.mark.parametrize("rates, argv", [
    ({"s1": 1e-06, "s2": 7}, ("simulate", "--n", "1")),
    ({"s1": 1e-06, "s2": 7}, ("plan", "--target-deg", "10")),
    ({"s1": 13}, ("simulate", "--n", "10000")),
    ({"s1": 100}, ("gait", "--period-s", "8.2", "--cycles", "1")),  # its least period
], ids=["simulate", "plan", "simulate-long", "gait"])
def test_rate_limited_builders_pass_their_own_analysis(capsys, tmp_path, rates, argv):
    # Rounding a growing waypoint time cut some moves below their least time
    # by about ulp(t), past the rate test's guard: the builder exited 1 with
    # error=ValidationFailure and wrote nothing.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_rates_deg_per_s": rates}))
    out = tmp_path / "out.json"
    out_flag = "--out-traj" if argv[0] == "simulate" else "--out"
    code, stdout, stderr = invoke(capsys, *argv, "--config", str(config), out_flag, str(out))
    assert (code, stderr) == (0, "") and stdout.endswith("violations=0\n")
    code, stdout, _ = invoke(capsys, "check", str(out))
    assert code == 0 and stdout.endswith("ok=1\n")


def test_a_gait_whose_rounded_times_break_the_rates_is_rate_infeasible(capsys, tmp_path):
    # 8.2 s is the least period at an s1 rate of 100 deg/s; over 1000 cycles
    # the rounding of the times shortens moves past the rate limits.
    config = tmp_path / "config.json"
    config.write_text('{"max_rates_deg_per_s": {"s1": 100}}')
    out = tmp_path / "gait.json"
    code, stdout, stderr = invoke(capsys, "gait", "--period-s", "8.2", "--cycles", "1000",
                                  "--config", str(config), "--out", str(out))
    assert code == 1 and stderr == ""
    (line,) = stdout.splitlines()
    assert line.startswith("error=RateInfeasible detail=period 8.2 s over 1000 cycles "
                           "is infeasible: rounding the waypoint time t=")
    assert not out.exists()


def test_plan_from_a_home_state_outside_the_limits_is_a_usage_error(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"servo_ranges_deg": {"s1": [10, 100]}}')
    out = tmp_path / "plan.json"
    code, stdout, stderr = invoke(capsys, "plan", "--target-deg", "10",
                                  "--config", str(config), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.splitlines() == [
        "homeowheel: error: start ServoState(s1=0.0, s2=0.0, s3=0.0) is outside the limits: "
        "RangeViolation servo1: 0.0 outside [10.0, 100.0]"]
    assert not out.exists()


def test_a_builder_output_that_fails_analysis_is_reported_not_written(capsys, tmp_path,
                                                                      monkeypatch):
    # No builder emits such a trajectory; the builders' guard still keeps
    # the file from being written, listing every violation of the plan.
    bad = Trajectory(waypoints=(Waypoint(0.0, ServoState(0.0, 0.0, 0.0)),
                                Waypoint(1.0, ServoState(400.0, 0.0, 0.0))))
    monkeypatch.setattr(planner, "plan_rotation", lambda *args, **kwargs: bad)
    out = tmp_path / "plan.json"
    code, stdout, stderr = invoke(capsys, "plan", "--target-deg", "10", "--out", str(out))
    assert (code, stderr) == (1, "")
    assert stdout.splitlines() == [
        "error=ValidationFailure",
        "violation=RangeViolation servo1 at waypoint 1: 400.0 outside [0.0, 360.0]",
        "violation=RateViolation servo1 on segment 0: 400.0 deg/s exceeds 360.0 deg/s",
        "violation=DisengagedShaftMotion on segment 0 [0.0, 1.0]: shaft moves 400.0 deg "
        "with the clutch open"]
    assert not out.exists()


def test_a_builder_output_with_the_clutch_open_is_reported_not_written(capsys, tmp_path,
                                                                       monkeypatch):
    # Disengaged shaft motion is a violation for every builder: nothing is
    # written, not the trace nor the trajectory.
    held = Trajectory(waypoints=(Waypoint(0.0, ServoState(0.0, 0.0, 0.0)),
                                 Waypoint(1.0, ServoState(90.0, 0.0, 0.0))))
    monkeypatch.setattr(executor, "build_rotate_wheel_2n", lambda *args, **kwargs: held)
    csv, traj = tmp_path / "trace.csv", tmp_path / "traj.json"
    code, stdout, stderr = invoke(capsys, "simulate", "--n", "1", "--out", str(csv),
                                  "--out-traj", str(traj))
    assert (code, stderr) == (1, "")
    assert stdout.splitlines() == [
        "error=ValidationFailure",
        "violation=DisengagedShaftMotion on segment 0 [0.0, 1.0]: shaft moves 90.0 deg "
        "with the clutch open"]
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("argv, code, line", [
    (["check", "/dev/zero"], 3, "parse error: file is longer than MAX_FILE_BYTES"),
    (["simulate", "--n", "1", "--config", "/dev/zero"], 2,
     "homeowheel: error: invalid config '/dev/zero': file is longer than MAX_FILE_BYTES"),
], ids=["check", "config"])
def test_an_endless_input_is_read_only_to_its_bound(argv, code, line):
    # Reading the whole input grew until memory ran out. The child's address
    # space is limited, so a missing bound ends there in a MemoryError.
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 1024 * 1024,) * 2)
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-m", "homeowheel", *argv], capture_output=True,
                            text=True, timeout=120, preexec_fn=limit_memory,
                            env={**os.environ, "PYTHONPATH": src})
    assert (result.returncode, result.stdout) == (code, "")
    assert result.stderr.splitlines() == [f"{line} ({fileformat.MAX_FILE_BYTES} bytes)"]


def test_a_file_of_max_file_bytes_is_read_and_one_byte_more_is_not(capsys, tmp_path,
                                                                   monkeypatch):
    text = fileformat.trajectory_to_json(build_rotate_wheel_2n(1)).encode()
    monkeypatch.setattr(fileformat, "MAX_FILE_BYTES", len(text))
    path = tmp_path / "routine.json"
    out = str(tmp_path / "out.json")
    path.write_bytes(text)
    assert invoke(capsys, "check", str(path))[0] == 0
    assert invoke(capsys, "plan", "--target-deg", "1", "--config", str(path), "--out", out)[0] == 0
    path.write_bytes(text + b"\n")
    assert invoke(capsys, "check", str(path)) == (
        3, "", f"parse error: file is longer than MAX_FILE_BYTES ({len(text)} bytes)\n")
    assert invoke(capsys, "plan", "--target-deg", "1", "--config", str(path), "--out", out) == (
        2, "", f"homeowheel: error: invalid config {str(path)!r}: "
               f"file is longer than MAX_FILE_BYTES ({len(text)} bytes)\n")


def test_check_of_more_than_max_waypoints_is_a_parse_error(capsys, tmp_path, forbid):
    doc = json.loads(fileformat.trajectory_to_json(build_rotate_wheel_2n(1)))
    doc["waypoints"] *= MAX_WAYPOINTS // len(doc["waypoints"]) + 1
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    forbid(fileformat, "Waypoint")
    code, stdout, stderr = invoke(capsys, "check", str(path))
    assert (code, stdout) == (3, "")
    assert stderr == (f"parse error: {len(doc['waypoints'])} waypoints are more than "
                      f"MAX_WAYPOINTS ({MAX_WAYPOINTS}) at $.waypoints\n")


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
        # open through s2=s3=0 in no time; their events print in segment
        # order, not string order.
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
            f"event=DisengagedShaftMotion t=1 segment {i}" for i in range(1, 11)] + [
            f"event=GimbalLockRisk t=1 segment {i}" for i in range(1, 11)]

    def test_a_held_wheel_keeps_its_angle_when_the_shaft_delta_overflows(self, capsys, tmp_path):
        # s1 runs from 1e308 to -1e308 with the clutch open: the delta
        # overflows to -inf, and 0 * -inf once made the wheel angle NaN.
        limits = ServoLimits(s1_range=(-1e308, 1e308), s1_max_rate=sys.float_info.max)
        trajectory = Trajectory(limits=limits, waypoints=(
            Waypoint(0.0, ServoState(1e308, 45.0, 45.0)),
            Waypoint(2.0, ServoState(-1e308, 45.0, 45.0))))
        path = tmp_path / "held.json"
        write_trajectory_file(trajectory, path)
        code, stdout, _ = invoke(capsys, "check", str(path), "--policy", "lenient")
        assert code == 0
        assert "theta_wheel_deg=0.000000000" in stdout.splitlines()
        assert stdout.splitlines()[-3:] == [
            "events=1",
            "event=DisengagedShaftMotion t=0 segment 0: shaft delta -inf deg with the clutch open",
            "ok=1"]


@pytest.mark.parametrize("argv, line", [
    (["simulate", "--n", "x"], "argument --n: 'x' is not an integer"),
    (["simulate", "--n", "0"], "argument --n: '0' must be >= 1"),
    (["gait", "--period-s", "x", "--cycles", "1", "--out", "o.json"],
     "argument --period-s: 'x' is not a number"),
    (["gait", "--period-s", "0", "--cycles", "1", "--out", "o.json"],
     "argument --period-s: '0' must be positive and finite"),
    (["plan", "--target-deg", "inf", "--out", "o.json"],
     "argument --target-deg: 'inf' must be finite"),
], ids=["not-an-integer", "below-one", "not-a-number", "not-positive", "not-finite"])
def test_each_number_rule_has_its_own_usage_error(capsys, argv, line):
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == f"homeowheel {argv[0]}: error: {line}"


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

    @pytest.mark.parametrize("lengths, item", [("1,,2", ""), ("1,2,", ""), (",1", ""),
                                               ("", ""), ("1, ", " ")])
    def test_an_empty_length_is_a_usage_error(self, capsys, lengths, item):
        with pytest.raises(SystemExit) as excinfo:
            run(["scale", "--lengths-m", lengths])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"homeowheel scale: error: argument --lengths-m: {item!r} is not a number")

    def test_whitespace_around_a_length_is_allowed(self, capsys):
        code, stdout, _ = invoke(capsys, "scale", "--lengths-m", " 1 ,\t0.1\n")
        assert code == 0
        assert "accel_ratio=10.000000000" in stdout


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
        # No builder moves the shaft with the clutch open, so only check
        # takes a policy.
        ["simulate", "--n", "1", "--out-traj", "{out}", "--policy", "strict"],
        ["plan", "--target-deg", "90", "--out", "{out}", "--policy", "lenient"],
        ["gait", "--period-s", "8", "--cycles", "1", "--out", "{out}", "--policy", "strict"],
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


# sha256 of the --help output of the top-level parser and of each subcommand
# at 80 columns; the builders' were recorded once --policy became check's
# alone. argparse lays help out differently in other Python versions.
HELP_SHA256 = {
    (): "59640f6be6d994dcbfaea28a8a51514cacf6fc14bb937a63ea7943bd0d152503",
    ("simulate",): "790168a8b6b4ac891cc3a1770c97ce73ea7c4fc42f2fd0351899563799039a9b",
    ("plan",): "f2410ed8093bfd28b583342d7c3d1b2f44be4ab6a7eb8357ed233076b26f1f6d",
    ("gait",): "4be1971b3d49fc571969c393707242fedfea6da2c5dc13de0e9a997a9caf3323",
    ("check",): "4eea33bb10977a104bf1b016c9d3ebf16b87f7802e2645f8fc194ab8406dab02",
    ("scale",): "7c03c391366b9558a7c3b6f220f208301dad9ac4a20997ac134895f29ad4fa31",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help recorded on Python 3.11")
@pytest.mark.parametrize("command", HELP_SHA256, ids=lambda c: " ".join(c) or "homeowheel")
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        run([*command, "--help"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == HELP_SHA256[command]


def test_a_bad_policy_is_the_same_usage_error(capsys, monkeypatch):
    # strict and lenient are --policy's only values, and argparse says so.
    monkeypatch.setenv("COLUMNS", "80")
    for value in ("bogus", "STRICT", "Lenient", ""):
        with pytest.raises(SystemExit) as excinfo:
            run(["check", "f.json", "--policy", value])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == ""
        assert captured.err == (
            "usage: homeowheel check [-h] [--policy strict|lenient] trajectory\n"
            f"homeowheel check: error: argument --policy: invalid choice: {value!r} "
            "(choose from 'strict', 'lenient')\n")

