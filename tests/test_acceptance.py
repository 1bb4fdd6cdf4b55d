"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and asserts the criterion so the suite stays red until every box is ticked.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from homeowheel.cli import run as cli_run
from homeowheel.executor import (
    EVENT_GIMBAL_LOCK_RISK,
    RateViolation,
    Trajectory,
    build_rotate_wheel_2n,
    validate_trajectory,
)
from homeowheel.fileformat import write_trajectory_file
from homeowheel.mechanism import MechanismGeometry, ServoState
from homeowheel.planner import count_engaged_sweeps, generate_gait, plan_rotation
from homeowheel.rotations import quat_from_axis_angle
from homeowheel.scaling import ScalingModel, scale
from homeowheel.tegument import check_integrity, ledger_history
from homeowheel.trace import simulate
from reference import quat_to_matrix


def _report(name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_criterion_1_canonical_routine_contract():
    """n = 1..20: exactly n*720 deg, home state, zero twist, bounded lift,
    zero violations, under one second in total."""
    failures = []
    started = time.perf_counter()
    for n in range(1, 21):
        trajectory = build_rotate_wheel_2n(n)
        trace = simulate(trajectory, sample_rate=10.0)
        if abs(trace.final_theta_deg - n * 720.0) > 1e-9:
            failures.append(f"n={n}: theta {trace.final_theta_deg!r}")
        if trace.samples[-1].state != ServoState(0.0, 0.0, 0.0):
            failures.append(f"n={n}: final state {trace.samples[-1].state}")
        ledgers = ledger_history(trace.states())
        if tuple(ledgers[-1]) != (0.0, 0.0, 0.0):
            failures.append(f"n={n}: final ledger {ledgers[-1]}")
        if not all(0.0 <= lg.seg_shaft_axial <= 360.0 for lg in ledgers):
            failures.append(f"n={n}: shaft lift leaves [0, 360]")
        if validate_trajectory(trajectory):
            failures.append(f"n={n}: violations reported")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f} s >= 1 s")
    _report("criterion 1 (even-turn routine contract)", failures)


def test_criterion_2_bounded_twist_homeostasis():
    """500 randomized valid plans: integrity ok, twist within (90, 360, 90)."""
    failures = []
    rng = np.random.default_rng(2024)
    for i in range(500):
        target = float(rng.uniform(-3600.0, 3600.0))
        if i % 2:
            start = ServoState(float(rng.uniform(0.0, 360.0)),
                               float(rng.uniform(-90.0, 90.0)),
                               float(rng.uniform(-90.0, 90.0)))
        else:
            start = ServoState(0.0, 0.0, 0.0)
        trajectory = plan_rotation(target, start=start)
        trace = simulate(trajectory, sample_rate=5.0)
        report = check_integrity(ledger_history(trace.states()),
                                 trajectory.limits, trace.times())
        if not report.ok:
            failures.append(f"plan {i} (target {target:.3f}): integrity violations")
            continue
        caps = (90.0, 360.0, 90.0)
        if any(m > cap for m, cap in zip(report.max_abs_twist, caps)):
            failures.append(f"plan {i}: max twist {report.max_abs_twist}")
    _report("criterion 2 (bounded-twist homeostasis)", failures)


def test_criterion_3_planner_round_trip():
    """200 random targets achieved within 1e-9 deg, bounded reconfigurations,
    under five seconds."""
    failures = []
    rng = np.random.default_rng(2025)
    started = time.perf_counter()
    for i in range(200):
        target = float(rng.uniform(-3600.0, 3600.0))
        trajectory = plan_rotation(target)
        trace = simulate(trajectory, sample_rate=5.0)
        if abs(trace.final_theta_deg - target) > 1e-9:
            failures.append(f"target {target!r}: got {trace.final_theta_deg!r}")
        if validate_trajectory(trajectory):
            failures.append(f"target {target!r}: violations")
        bound = math.ceil(abs(target) / 360.0) + 1
        sweeps = count_engaged_sweeps(trajectory)
        if sweeps > bound:
            failures.append(f"target {target!r}: {sweeps} sweeps > {bound}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.3f} s >= 5 s")
    _report("criterion 3 (planner round trip)", failures)


def test_criterion_4_rectification_gait():
    """+720 deg per period, exactly periodic servo signals, monotone wheel
    angle across three periods."""
    failures = []
    period = 8.0
    trajectory = generate_gait(period, 3)
    trace = simulate(trajectory)
    start_state = trajectory.waypoints[0].state
    for k in range(4):
        t = k * period
        states_at = [wp.state for wp in trajectory.waypoints if wp.t == t]
        if not states_at or states_at[0] != start_state:
            failures.append(f"state at t={t} not periodic")
        theta_at = [s.theta_wheel_deg for s in trace.samples if s.t == t]
        if not theta_at or theta_at[0] != k * 720.0:
            failures.append(f"theta at t={t} is {theta_at}")
    thetas = [s.theta_wheel_deg for s in trace.samples]
    if not all(b >= a for a, b in zip(thetas, thetas[1:])):
        failures.append("wheel angle is not monotone nondecreasing")
    if validate_trajectory(trajectory):
        failures.append("gait fails validation")
    _report("criterion 4 (rectification gait)", failures)


def test_criterion_5_double_cover_belt_algebra():
    """1000 random axes: the 360 deg quaternion is the antipodal identity,
    the 720 deg quaternion is the identity."""
    failures = []
    rng = np.random.default_rng(2026)
    eye = np.eye(3)
    for i in range(1000):
        vec = rng.normal(size=3)
        axis = vec / np.linalg.norm(vec)
        full = quat_from_axis_angle(axis, 360.0)
        if abs(full.w + 1.0) >= 1e-12:
            failures.append(f"axis {i}: w = {full.w!r}")
        if float(np.linalg.norm(quat_to_matrix(full) - eye)) >= 1e-10:
            failures.append(f"axis {i}: matrix off identity")
        double = quat_from_axis_angle(axis, 720.0)
        if (abs(double.w - 1.0) >= 1e-10 or abs(double.x) >= 1e-10
                or abs(double.y) >= 1e-10 or abs(double.z) >= 1e-10):
            failures.append(f"axis {i}: 720 deg quaternion {double}")
    _report("criterion 5 (double cover)", failures)


def test_criterion_6_scaling_law():
    """accel * L constant to 1e-12 relative over four decades;
    a tenth of the size means ten times the acceleration."""
    failures = []
    model = ScalingModel(length_ref=0.8, mass_ref=2.5, force_ref=11.0)
    products = [scale(model, L).accel_m_s2 * L for L in (0.01, 0.1, 1.0, 10.0)]
    for product in products[1:]:
        if abs(product - products[0]) > 1e-12 * abs(products[0]):
            failures.append(f"accel*L drifts: {products}")
            break
    small = scale(model, model.length_ref / 10.0).accel_m_s2
    reference = scale(model, model.length_ref).accel_m_s2
    if abs(small / reference - 10.0) > 1e-12:
        failures.append(f"accel ratio {small / reference!r}")
    _report("criterion 6 (scaling law)", failures)


def test_criterion_7_odometry():
    """n=1 on a 0.5 m wheel rolls two circumferences: 6.283185307 m."""
    failures = []
    trajectory = build_rotate_wheel_2n(1, geometry=MechanismGeometry(wheel_radius=0.5))
    trace = simulate(trajectory)
    if abs(trace.final_x_m - 6.283185307) > 1e-9:
        failures.append(f"x = {trace.final_x_m!r}")
    _report("criterion 7 (odometry)", failures)


def test_criterion_8_validator_soundness(tmp_path, capsys):
    """Wraparound is rejected, gimbal lock warns, check exit codes hold."""
    failures = []

    # 350 -> 10 read as +20 through the wraparound would be a tiny move; the
    # validator must instead price it as the -340 in-range sweep and reject
    # it once the rate limit forbids that.
    fast = Trajectory.from_states(
        [ServoState(350.0, 90.0, -90.0), ServoState(10.0, 90.0, -90.0)], 0.5)
    violations = validate_trajectory(fast)
    if not any(isinstance(v, RateViolation) and v.rate == 680.0 for v in violations):
        failures.append("wraparound shortcut not rejected by rate")
    slow = Trajectory.from_states(
        [ServoState(350.0, 90.0, -90.0), ServoState(10.0, 90.0, -90.0)], 1.0)
    if simulate(slow).final_theta_deg != -340.0:
        failures.append("segment not simulated as the -340 sweep")

    risky = Trajectory.from_states([ServoState(0.0, 0.0, 0.0), ServoState(90.0, 0.0, 0.0)])
    trace = simulate(risky)
    if not any(e.kind == EVENT_GIMBAL_LOCK_RISK for e in trace.events):
        failures.append("no gimbal-lock warning event")

    clean_path = tmp_path / "clean.json"
    write_trajectory_file(build_rotate_wheel_2n(1), clean_path)
    if cli_run(["check", str(clean_path)]) != 0:
        failures.append("check exit for a clean file is not 0")
    bad_path = tmp_path / "bad.json"
    write_trajectory_file(Trajectory.from_states(
        [ServoState(0.0, 0.0, 0.0), ServoState(400.0, 0.0, 0.0)]), bad_path)
    if cli_run(["check", str(bad_path)]) != 1:
        failures.append("check exit for a violating file is not 1")
    out = capsys.readouterr().out
    if "RangeViolation servo1" not in out:
        failures.append("range violation not named in check output")
    with pytest.raises(SystemExit) as excinfo:
        cli_run(["simulate", "--n", "0"])
    if excinfo.value.code != 2:
        failures.append("usage error exit is not 2")
    broken_path = tmp_path / "broken.json"
    broken_path.write_text('{"format_version": 1,')
    if cli_run(["check", str(broken_path)]) != 3:
        failures.append("parse error exit is not 3")
    capsys.readouterr()
    _report("criterion 8 (validator soundness)", failures)


# Criterion-9 commands, each completed by the path of the file it writes.
CRITERION_9_COMMANDS = {
    "trace.csv": ["simulate", "--n", "3", "--radius-m", "0.5", "--out"],
    "routine.json": ["simulate", "--n", "3", "--out-traj"],
    "plan.json": ["plan", "--target-deg", "-1234.5", "--out"],
    "distance.json": ["plan", "--distance-m", "2.25", "--out"],
    "gait.json": ["gait", "--period-s", "9.5", "--cycles", "2", "--out"],
}


def test_criterion_9_cli_determinism(tmp_path, capsys):
    """Identical invocations of every command produce byte-identical files."""
    failures = []
    for filename, argv in CRITERION_9_COMMANDS.items():
        first = tmp_path / ("a_" + filename)
        second = tmp_path / ("b_" + filename)
        if cli_run(argv + [str(first)]) != 0 or cli_run(argv + [str(second)]) != 0:
            failures.append(f"{argv[0]} did not exit cleanly")
            continue
        if first.read_bytes() != second.read_bytes():
            failures.append(f"{filename} differs between runs")
    capsys.readouterr()
    _report("criterion 9 (deterministic output)", failures)


# sha256 of (stdout, artefact) for each criterion-9 command, recorded before
# simulation was split into per-segment analysis plus export sampling.
GOLDEN_SHA256 = {
    "trace.csv": ("cdede85bf3699e4bfcb01ae780561eb21ea28288c9ce2ee43558d1e15a24b7d7",
                  "fc9309bb64f8bca4243310f0f634e76aaf3e6082d3e83635068ef56d5a257f69"),
    "routine.json": ("2b0eb83455e4e918a588c0d03e344680b81575a521358f4514d9f6b374cc4508",
                     "7bfcf81b83dfd59f2b22c3c565d95fbe06470f4adcaffca36479a0995f80ec67"),
    "plan.json": ("c3196e9f94b0b0ee3273e52e24e33ae2cae4c9842bcb859d5bfea9f3d4e2d81b",
                  "5914cd2d002b8ed42f608e73047814fde7bb886065e62679452bab7ad5c43ce8"),
    "distance.json": ("7b415a6269ac8cfcd5fe8e35a39d6e50d4b601a08410c7326c2a1c2ac635af50",
                      "3c6c39ec0d349b4541649bb62106714c00d7d5ec81c50a229639809ba9d08fca"),
    "gait.json": ("a9efc8563ab580330da534e97e9168d0c3498d0098677c124c67470f3558dfa8",
                  "8823a6f3cb691d5fd93f13eeecae783454ce25f5560684ee02a508cec8851a74"),
}


def test_criterion_9_golden_bytes(tmp_path, capsys):
    """The criterion-9 commands print and write exactly the recorded bytes,
    so their output cannot drift between versions either."""
    failures = []
    for filename, argv in CRITERION_9_COMMANDS.items():
        path = tmp_path / filename
        capsys.readouterr()
        if cli_run(argv + [str(path)]) != 0:
            failures.append(f"{argv[0]} did not exit cleanly")
            continue
        stdout = capsys.readouterr().out.encode("utf-8")
        got = (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(path.read_bytes()).hexdigest())
        if got[0] != GOLDEN_SHA256[filename][0]:
            failures.append(f"{filename}: stdout differs from the recorded bytes")
        if got[1] != GOLDEN_SHA256[filename][1]:
            failures.append(f"{filename}: artefact differs from the recorded bytes")
    _report("criterion 9 (golden bytes)", failures)


# Trace exports at odd sample rates, each completed by the path of the CSV it
# writes, with the sha256 of (stdout, CSV) recorded before the export was
# streamed to the file.
EXPORT_GOLDEN_SHA256 = {
    ("simulate", "--n", "2", "--sample-rate-hz", "0.01", "--out"): (
        "ffd5b0747d64e17e86b86bf0709238aa5d29336f3087567a47d06c0bac11f003",
        "d66482b1a8fe36c6e1695dcdf8911bca95f79687cc8f3f3abef87b63ca949b84"),
    ("simulate", "--n", "200", "--sample-rate-hz", "37", "--radius-m", "0.37", "--out"): (
        "b5d9aca6dfa96261ebf6fb84a32b4f81705922497d8eeb8236cdbec74535d3c3",
        "e5c54f967c7a664d29d0c998a7e13f8fa5efc6f712735ca99483c62f6210d4a5"),
}


def test_trace_export_golden_bytes(tmp_path, capsys):
    """Trace exports print and write exactly the recorded bytes."""
    failures = []
    for argv, golden in EXPORT_GOLDEN_SHA256.items():
        path = tmp_path / "trace.csv"
        capsys.readouterr()
        if cli_run(list(argv) + [str(path)]) != 0:
            failures.append(f"{' '.join(argv)} did not exit cleanly")
            continue
        stdout = capsys.readouterr().out.encode("utf-8")
        got = (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(path.read_bytes()).hexdigest())
        if got[0] != golden[0]:
            failures.append(f"{' '.join(argv)}: stdout differs from the recorded bytes")
        if got[1] != golden[1]:
            failures.append(f"{' '.join(argv)}: CSV differs from the recorded bytes")
    _report("trace export (golden bytes)", failures)
