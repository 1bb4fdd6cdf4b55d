"""Command-line front end.

Subcommands: ``simulate`` (canonical even-turn routine), ``plan`` (arbitrary
rotation or distance), ``gait`` (periodic rectification gait), ``check``
(trajectory file verification), ``scale`` (size scaling report).

Each command imports the modules it runs when it runs, and looks up the
functions it calls in the module that defines them, so a command compiles
none of the others and a function rebound there is the one called. The
three builder commands share one path, :func:`_build`: settings, build and
the guard, before any file is written.

Summaries go to standard output as ``key=value`` lines with 9 fixed decimal
places, so identical invocations produce byte-identical output, files
included. Exit codes: 0 clean, 1 constraint or feasibility failure, 2 usage
error, 3 file parse error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (
    InvalidParameter,
    RateInfeasible,
    TrajectoryParseError,
    ValidationFailure,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


def _fmt(value: float) -> str:
    return f"{value:.9f}"


def _number(parse, kind: str, test, rule: str):
    """An argparse type: ``parse`` of the text, which ``test`` must pass."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind}")
        if not test(value):
            raise argparse.ArgumentTypeError(f"{text!r} {rule}")
        return value
    return convert


_positive_int = _number(int, "an integer", lambda value: value >= 1, "must be >= 1")
_positive_float = _number(float, "a number", lambda value: math.isfinite(value) and value > 0.0,
                          "must be positive and finite")
_finite_float = _number(float, "a number", math.isfinite, "must be finite")


def _length_list(text: str) -> list[float]:
    return list(map(_positive_float, text.split(",")))


def _build(args, builder, *goal):
    """The trajectory ``builder(*goal)`` makes from the settings of ``args``
    (defaults, overridden by --config, overridden by explicit flags), and its
    motion. The builders' guard, before any file is written: ``analyse`` must
    find no violation (:class:`ValidationFailure` lists them) and x_m must
    stay in the float range: |x_m| peaks at a waypoint, where |theta| does."""
    from . import executor, fileformat

    try:
        text = b"{}" if args.config is None else fileformat.read_bounded(args.config)
        geometry, limits = fileformat.parse_config(text, {"wheel_radius": args.radius_m})
    except (OSError, TrajectoryParseError) as exc:
        raise InvalidParameter(f"invalid config {args.config!r}: {exc}") from exc
    trajectory = builder(*goal, geometry=geometry, limits=limits)
    motion = executor.analyse(trajectory)
    if motion.violations:
        raise ValidationFailure(motion.violations)
    radius = trajectory.geometry.wheel_radius
    peak = max(map(abs, motion.theta_deg))
    if not math.isfinite(radius * math.radians(peak)):
        raise InvalidParameter(f"wheel radius {radius!r} m puts x_m outside the float range "
                               f"at theta_wheel_deg={peak!r}")
    return trajectory, motion


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


def cmd_simulate(args) -> int:
    from . import executor, fileformat

    trajectory, motion = _build(args, executor.build_rotate_wheel_2n, args.n)
    with fileformat.Outputs() as outputs:  # both files, or neither, both staged first
        out = None if args.out is None else outputs.stage(args.out)
        out_traj = None if args.out_traj is None else outputs.stage(args.out_traj)
        if out is not None:
            from . import trace
            trace.write_trace_file(motion, out, args.sample_rate_hz)
        if out_traj is not None:
            fileformat.write_trajectory_file(trajectory, out_traj)
    _print_motion_summary(motion)
    print("violations=0")
    return EXIT_OK


def cmd_plan(args) -> int:
    from . import fileformat, planner

    if args.target_deg is not None:
        trajectory, motion = _build(args, planner.plan_rotation, args.target_deg)
    else:
        trajectory, motion = _build(args, planner.plan_distance, args.distance_m)
    fileformat.write_trajectory_file(trajectory, args.out)
    print(f"waypoints={len(trajectory.waypoints)}")
    print(f"segments={len(trajectory.waypoints) - 1}")
    print(f"engaged_sweeps={planner.count_engaged_sweeps(trajectory)}")
    print(f"predicted_theta_wheel_deg={_fmt(motion.final_theta_deg)}")
    print(f"predicted_x_m={_fmt(motion.final_x_m)}")
    print("violations=0")
    return EXIT_OK


def cmd_gait(args) -> int:
    from . import fileformat, planner

    trajectory, motion = _build(args, planner.generate_gait, args.period_s, args.cycles)
    fileformat.write_trajectory_file(trajectory, args.out)
    print(f"waypoints={len(trajectory.waypoints)}")
    print(f"period_s={_fmt(args.period_s)}")
    print(f"cycles={args.cycles}")
    _print_motion_summary(motion)
    print("violations=0")
    return EXIT_OK


def cmd_check(args) -> int:
    from . import executor, fileformat

    trajectory = fileformat.read_trajectory_file(args.trajectory)
    motion = executor.analyse(trajectory)
    violations = motion.violations
    if args.policy == "lenient":  # disengaged shaft motion stays an event
        violations = [v for v in violations if not isinstance(v, executor.DisengagedShaftMotion)]
    report = motion.integrity
    print(f"violations={len(violations)}")
    for violation in violations:
        print(f"violation={violation}")
    print(f"integrity_ok={int(report.ok)}")
    for issue in report.violations:
        print(f"integrity_violation={issue}")
    _print_twist_maxima(report)
    print(f"theta_wheel_deg={_fmt(motion.final_theta_deg)}")
    print(f"events={len(motion.events)}")
    for event in motion.events:
        print(f"event={event.kind} t={event.t:.9g} {event.detail}")
    clean = not violations and report.ok
    print(f"ok={int(clean)}")
    return EXIT_OK if clean else EXIT_VIOLATION


def cmd_scale(args) -> int:
    from . import scaling

    model = scaling.ScalingModel(length_ref=args.ref_length_m, mass_ref=args.ref_mass_kg,
                                 force_ref=args.ref_force_n)
    rows = [(length, scaling.scale(model, length)) for length in args.lengths_m]
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

    def add_setup(p):
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
    add_setup(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_plan = sub.add_parser("plan", help="plan a wheel rotation or rolling distance")
    goal = p_plan.add_mutually_exclusive_group(required=True)
    goal.add_argument("--target-deg", type=_finite_float, default=None,
                      help="signed net wheel rotation in degrees")
    goal.add_argument("--distance-m", type=_finite_float, default=None,
                      help="signed rolling distance in meters")
    p_plan.add_argument("--out", required=True, help="trajectory file output path")
    add_setup(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_gait = sub.add_parser("gait", help="generate the periodic rectification gait")
    p_gait.add_argument("--period-s", type=_positive_float, required=True,
                        help="gait period in seconds")
    p_gait.add_argument("--cycles", type=_positive_int, required=True,
                        help="number of periods")
    p_gait.add_argument("--out", required=True, help="trajectory file output path")
    add_setup(p_gait)
    p_gait.set_defaults(func=cmd_gait)

    p_check = sub.add_parser("check", help="verify a trajectory file")
    p_check.add_argument("trajectory", help="trajectory file to check")
    p_check.add_argument("--policy", choices=("strict", "lenient"), default="strict",
                         metavar="strict|lenient",
                         help="strict rejects disengaged shaft motion (default strict)")
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
