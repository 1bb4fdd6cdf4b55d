"""Command-line front end.

Subcommands: ``simulate`` (canonical even-turn routine), ``plan`` (arbitrary
rotation or distance), ``gait`` (periodic rectification gait), ``check``
(trajectory file verification), ``scale`` (size scaling report).

Summaries go to standard output as ``key=value`` lines with 9 fixed decimal
places, so identical invocations produce byte-identical output, files
included. Exit codes: 0 clean, 1 constraint or feasibility failure, 2 usage
error, 3 file parse error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import (
    InvalidParameter,
    RateInfeasible,
    TrajectoryParseError,
    ValidationFailure,
)
from .executor import (
    Policy,
    analyse,
    build_rotate_wheel_2n,
    parse_config,
    read_trajectory_file,
    write_trace_file,
    write_trajectory_file,
)
from .mechanism import MechanismGeometry, ServoLimits
from .planner import count_engaged_sweeps, generate_gait, plan_distance, plan_rotation
from .scaling import ScalingModel, scale

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


def _fmt(value: float) -> str:
    return f"{value:.9f}"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 1")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} must be positive and finite")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} must be finite")
    return value


def _length_list(text: str) -> list[float]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list of lengths")
    return [_positive_float(piece.strip()) for piece in items]


def _resolve_setup(args) -> tuple[MechanismGeometry, ServoLimits]:
    """Defaults, overridden by --config, overridden by explicit flags."""
    try:
        text = b"{}" if args.config is None else Path(args.config).read_bytes()
        return parse_config(text, {"wheel_radius": args.radius_m})
    except (OSError, TrajectoryParseError) as exc:
        raise InvalidParameter(f"invalid config {args.config!r}: {exc}") from exc


def _analyse(trajectory, policy):
    """``analyse(trajectory, policy)``, whose odometry must stay in the float
    range: |x_m| peaks at a waypoint, where |theta_wheel_deg| does."""
    motion = analyse(trajectory, policy)
    radius = trajectory.geometry.wheel_radius
    peak = max(map(abs, motion.theta_deg))
    if not math.isfinite(radius * math.radians(peak)):
        raise InvalidParameter(f"wheel radius {radius!r} m puts x_m outside the float range "
                               f"at theta_wheel_deg={peak!r}")
    return motion


def _print_twist_maxima(report) -> None:
    body_gantry, shaft_axial, wrist = report.max_abs_twist
    print(f"max_twist_body_gantry_deg={_fmt(body_gantry)}")
    print(f"max_twist_shaft_axial_deg={_fmt(shaft_axial)}")
    print(f"max_twist_wrist_deg={_fmt(wrist)}")


def _print_motion_summary(motion) -> None:
    report = motion.integrity
    print(f"theta_wheel_deg={_fmt(motion.final_theta_deg)}")
    print(f"x_m={_fmt(motion.final_x_m)}")
    _print_twist_maxima(report)
    print(f"integrity_ok={int(report.ok)}")
    print(f"events={len(motion.events)}")


def _report_violations(violations) -> None:
    print(f"violations={len(violations)}")
    for violation in violations:
        print(f"violation={violation}")


def cmd_simulate(args) -> int:
    geometry, limits = _resolve_setup(args)
    trajectory = build_rotate_wheel_2n(args.n, geometry=geometry, limits=limits)
    motion = _analyse(trajectory, args.policy)
    if args.out:
        write_trace_file(motion, args.out, args.sample_rate_hz)
    if args.out_traj:
        write_trajectory_file(trajectory, args.out_traj)
    _print_motion_summary(motion)
    _report_violations(motion.violations)
    return EXIT_OK if not motion.violations else EXIT_VIOLATION


def cmd_plan(args) -> int:
    geometry, limits = _resolve_setup(args)
    if args.target_deg is not None:
        trajectory = plan_rotation(args.target_deg, limits=limits, geometry=geometry)
    else:
        trajectory = plan_distance(args.distance_m, geometry=geometry, limits=limits)
    motion = _analyse(trajectory, args.policy)
    write_trajectory_file(trajectory, args.out)
    print(f"waypoints={len(trajectory.waypoints)}")
    print(f"segments={max(len(trajectory.waypoints) - 1, 0)}")
    print(f"engaged_sweeps={count_engaged_sweeps(trajectory)}")
    print(f"predicted_theta_wheel_deg={_fmt(motion.final_theta_deg)}")
    print(f"predicted_x_m={_fmt(motion.final_x_m)}")
    _report_violations(motion.violations)
    return EXIT_OK if not motion.violations else EXIT_VIOLATION


def cmd_gait(args) -> int:
    geometry, limits = _resolve_setup(args)
    trajectory = generate_gait(args.period_s, args.cycles, limits=limits, geometry=geometry)
    motion = _analyse(trajectory, args.policy)
    write_trajectory_file(trajectory, args.out)
    print(f"waypoints={len(trajectory.waypoints)}")
    print(f"period_s={_fmt(args.period_s)}")
    print(f"cycles={args.cycles}")
    _print_motion_summary(motion)
    _report_violations(motion.violations)
    return EXIT_OK if not motion.violations else EXIT_VIOLATION


def cmd_check(args) -> int:
    trajectory = read_trajectory_file(args.trajectory)
    motion = analyse(trajectory, args.policy, check=False)
    report = motion.integrity
    _report_violations(motion.violations)
    print(f"integrity_ok={int(report.ok)}")
    for issue in report.violations:
        print(f"integrity_violation={issue}")
    _print_twist_maxima(report)
    print(f"theta_wheel_deg={_fmt(motion.final_theta_deg)}")
    print(f"events={len(motion.events)}")
    for event in motion.events:
        print(f"event={event.kind} t={event.t:.9g} {event.detail}")
    clean = not motion.violations and report.ok
    print(f"ok={int(clean)}")
    return EXIT_OK if clean else EXIT_VIOLATION


def cmd_scale(args) -> int:
    model = ScalingModel(length_ref=args.ref_length_m, mass_ref=args.ref_mass_kg,
                         force_ref=args.ref_force_n)
    rows = [(length, scale(model, length)) for length in args.lengths_m]
    for length, row in rows:
        print(f"L_m={_fmt(length)} mass_kg={_fmt(row.mass_kg)} "
              f"force_n={_fmt(row.force_n)} accel_m_s2={_fmt(row.accel_m_s2)}")
    if len(rows) >= 2:
        ratio = rows[-1][1].accel_m_s2 / rows[0][1].accel_m_s2
        print(f"accel_ratio={_fmt(ratio)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homeowheel",
        description="Simulate, plan, and verify motions of the homeostatic wheel mechanism.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_setup=True):
        p.add_argument("--policy", type=Policy, choices=list(Policy), default=Policy.STRICT,
                       metavar="strict|lenient",
                       help="strict rejects disengaged shaft motion (default strict)")
        if with_setup:
            p.add_argument("--config", default=None,
                           help="JSON file overriding geometry and servo limits")
            p.add_argument("--radius-m", type=_positive_float, default=None,
                           help="wheel radius in meters (default 0.10)")

    p_sim = sub.add_parser("simulate", help="run the canonical 2n-revolution routine")
    p_sim.add_argument("--n", type=_positive_int, required=True,
                       help="number of loop iterations (wheel turns 720 deg each)")
    p_sim.add_argument("--out", default=None, help="trace CSV output path")
    p_sim.add_argument("--out-traj", default=None, help="also write the trajectory file here")
    p_sim.add_argument("--sample-rate-hz", type=_positive_float, default=50.0,
                       help="trace sampling rate for --out (default 50)")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_plan = sub.add_parser("plan", help="plan a wheel rotation or rolling distance")
    goal = p_plan.add_mutually_exclusive_group(required=True)
    goal.add_argument("--target-deg", type=_finite_float, default=None,
                      help="signed net wheel rotation in degrees")
    goal.add_argument("--distance-m", type=_finite_float, default=None,
                      help="signed rolling distance in meters")
    p_plan.add_argument("--out", required=True, help="trajectory file output path")
    add_common(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_gait = sub.add_parser("gait", help="generate the periodic rectification gait")
    p_gait.add_argument("--period-s", type=_positive_float, required=True,
                        help="gait period in seconds")
    p_gait.add_argument("--cycles", type=_positive_int, required=True,
                        help="number of periods")
    p_gait.add_argument("--out", required=True, help="trajectory file output path")
    add_common(p_gait)
    p_gait.set_defaults(func=cmd_gait)

    p_check = sub.add_parser("check", help="verify a trajectory file")
    p_check.add_argument("trajectory", help="trajectory file to check")
    add_common(p_check, with_setup=False)
    p_check.set_defaults(func=cmd_check)

    p_scale = sub.add_parser("scale", help="report the size scaling laws")
    p_scale.add_argument("--lengths-m", type=_length_list, required=True,
                         help="comma-separated sizes in meters, e.g. 1,0.1")
    p_scale.add_argument("--ref-length-m", type=_positive_float, default=1.0)
    p_scale.add_argument("--ref-mass-kg", type=_positive_float, default=1.0)
    p_scale.add_argument("--ref-force-n", type=_positive_float, default=1.0)
    p_scale.set_defaults(func=cmd_scale)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrajectoryParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RateInfeasible as exc:
        print(f"error=RateInfeasible detail={exc}")
        return EXIT_VIOLATION
    except ValidationFailure as exc:
        print("error=ValidationFailure")
        for violation in exc.violations:
            print(f"violation={violation}")
        return EXIT_VIOLATION
    except (InvalidParameter, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
