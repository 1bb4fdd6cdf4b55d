"""Each command loads only the modules it runs, and the package's public
names still resolve, loading their module on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homeowheel

# Every name ``homeowheel`` exported while ``__init__`` imported each module,
# less ``Policy``: only ``check`` takes a policy, as its own option.
PUBLIC_NAMES = (
    "DEFAULT_GEOMETRY", "DEFAULT_LIMITS", "FramePoses", "HOME_STATE", "IDENTITY_QUATERNION",
    "IntegrityReport", "IntegrityViolation", "InvalidAxis", "InvalidParameter",
    "MechanismGeometry", "Motion", "Pose", "RangeViolation", "RateInfeasible",
    "ScaledQuantities", "ScalingModel", "ServoLimits", "ServoState", "SimTrace", "TraceEvent",
    "TraceSample", "Trajectory", "TrajectoryParseError", "TwistLedger", "UnitQuaternion",
    "ValidationFailure", "Waypoint", "ZeroDistance", "analyse", "build_rotate_wheel_2n",
    "check_integrity", "cost_of_transport", "count_engaged_sweeps", "drive_sign", "engaged",
    "forward_kinematics", "generate_gait", "gimbal_lock_risk", "ledger_history",
    "parse_config", "parse_trajectory", "plan_distance", "plan_rotation", "quat_compose",
    "quat_conjugate", "quat_from_axis_angle", "quat_rotate", "read_trajectory_file", "rot_x",
    "rot_z", "scale", "segment_drive", "simulate", "trajectory_to_json", "unwrap_angle",
    "validate_state", "validate_trajectory", "write_trace_file", "write_trajectory_file",
)


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_names_resolve(name):
    namespace = {}
    exec(f"from homeowheel import {name}", namespace)
    assert namespace[name] is getattr(homeowheel, name)
    assert name in dir(homeowheel)


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from homeowheel import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        homeowheel.nope  # noqa: B018
    with pytest.raises(ImportError):
        exec("from homeowheel import nope", {})


def test_the_policy_is_no_public_name():
    from homeowheel import executor
    with pytest.raises(ImportError):
        exec("from homeowheel import Policy", {})
    assert "Policy" not in homeowheel.__all__ and not hasattr(executor, "Policy")


def test_the_executor_still_resolves_the_names_the_benchmark_wraps():
    # perfbench/traced.py binds these on homeowheel.executor by name.
    from homeowheel import executor, fileformat, trace
    assert executor.simulate is trace.simulate
    assert executor.write_trace_file is trace.write_trace_file
    assert executor.write_trajectory_file is fileformat.write_trajectory_file
    assert executor.read_trajectory_file is fileformat.read_trajectory_file
    with pytest.raises(AttributeError):
        executor.parse_trajectory  # noqa: B018


# Run under ``python -S``, so no site-packages ``.pth`` file can preload modules.
PROBE = """
import json, sys
import homeowheel.cli as cli
try:
    cli.run(sys.argv[2:])
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.startswith("homeowheel."))),
      file=sys.stderr)
"""


def loaded_by(argv, workdir) -> set[str]:
    """The ``homeowheel`` modules a fresh interpreter has loaded once
    ``argv`` has run in ``workdir``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-S", "-c", PROBE, "probe", *argv], cwd=workdir,
                          env=env, capture_output=True, text=True, timeout=120)
    return {name.removeprefix("homeowheel.")
            for name in json.loads(done.stderr.splitlines()[-1])}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("probe")
    loaded_by(["plan", "--target-deg", "450", "--out", "plan.json"], path)
    assert (path / "plan.json").is_file()
    return path


def test_check_loads_no_planner_scaling_rotations_or_trace(workdir):
    loaded = loaded_by(["check", "plan.json"], workdir)
    assert {"executor", "fileformat"} <= loaded
    assert loaded.isdisjoint({"planner", "scaling", "rotations", "trace"})


@pytest.mark.parametrize("argv", [
    ["scale", "--lengths-m", "1,0.1"],
    ["simulate", "--n", "0"],
    ["plan", "--out", "x.json"],
    ["plan", "--target-deg", "inf", "--out", "x.json"],
    ["scale", "--lengths-m", "0"],
], ids=" ".join)
def test_scale_and_usage_errors_load_no_executor_mechanism_or_planner(workdir, argv):
    loaded = loaded_by(argv, workdir)
    assert loaded.isdisjoint({"executor", "mechanism", "planner"})
    assert ("scaling" in loaded) == (argv == ["scale", "--lengths-m", "1,0.1"])


@pytest.mark.parametrize("argv", [
    ["plan", "--target-deg", "450", "--out", "p.json"],
    ["gait", "--period-s", "8", "--cycles", "2", "--out", "g.json"],
    ["simulate", "--n", "1", "--out-traj", "r.json"],
], ids=lambda argv: argv[0])
def test_commands_without_a_trace_load_no_trace_module(workdir, argv):
    loaded = loaded_by(argv, workdir)
    assert "executor" in loaded and "trace" not in loaded


def test_a_trace_export_loads_the_trace_module(workdir):
    assert "trace" in loaded_by(["simulate", "--n", "1", "--out", "t.csv"], workdir)
