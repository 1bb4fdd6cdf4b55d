"""Trajectory synthesis: arbitrary signed wheel rotations, distances, gaits.

Rotation planning is greedy full-sweep decomposition: engage whichever
driving configuration lets the shaft travel farthest in the direction that
turns the wheel toward the target, sweep ``min(remaining, available)``,
reconfigure, repeat, and finally park s3 and s2 back at rest. Direction
changes happen only between sweeps, which keeps the shaft's lifted angle
trivially inside [0, 360]. The gait wraps the same idea into an exactly
periodic signal: every servo oscillates with bounded amplitude, yet the
wheel output is monotone and unbounded, +720 deg per period.

Profiles are trapezoidal (piecewise-linear positions), matching the
trajectory format; smooth sinusoidal drive is a possible later refinement.
"""

from __future__ import annotations

import math

from .errors import InvalidParameter, RateInfeasible, ValidationFailure
from .executor import (MAX_PLAN_SWEEPS, MAX_WAYPOINTS, Trajectory, Waypoint, check_times,
                       segment_drive, timed_waypoints)
from .mechanism import (
    DEFAULT_GEOMETRY,
    DEFAULT_LIMITS,
    HOME_STATE,
    MechanismGeometry,
    ServoLimits,
    ServoState,
    check_reachable,
    validate_state,
)

#: (s2, s3) of the configuration where increasing s1 rolls the wheel forward.
FORWARD_CONFIG = (90.0, -90.0)
#: (s2, s3) of the configuration where increasing s1 rolls the wheel backward.
BACKWARD_CONFIG = (-90.0, 90.0)


def plan_rotation(target_deg: float, start: ServoState = HOME_STATE,
                  limits: ServoLimits = DEFAULT_LIMITS,
                  geometry: MechanismGeometry = DEFAULT_GEOMETRY) -> Trajectory:
    """Plan a net wheel rotation of ``target_deg`` (signed) from ``start``.

    The emitted trajectory passes strict validation and, replayed through
    the simulator, advances the wheel by the target to well under 1e-9 deg.
    The first sweep travels at most ``first = max(s1_max - s1, s1 - s1_min)``
    from ``start``, each later one the whole s1 span, so a nonzero target takes
    1 + ceil(max(|target| - first, 0) / span) <= ceil(|target| / span) + 1
    engaged sweeps; more than :data:`MAX_PLAN_SWEEPS` raise InvalidParameter.
    """
    if not math.isfinite(target_deg):
        raise InvalidParameter(f"target must be finite, got {target_deg!r}")
    violations = validate_state(start, limits)
    if violations:
        raise ValidationFailure(violations)
    lo, hi = limits.s1_range
    if target_deg != 0.0:
        check_reachable(limits)
        later_sweeps = (abs(target_deg) - max(hi - start.s1, start.s1 - lo)) / (hi - lo)
        if later_sweeps > MAX_PLAN_SWEEPS - 1:
            raise InvalidParameter(f"target {target_deg!r} deg needs more than "
                                   f"{MAX_PLAN_SWEEPS} sweeps of the s1 span ({lo}, {hi})")

    states = [start]

    def move(**servos: float) -> None:
        new = states[-1]._replace(**servos)
        if new != states[-1]:
            states.append(new)

    remaining = target_deg
    while remaining != 0.0:
        wheel_sign = 1.0 if remaining > 0.0 else -1.0
        # Shaft travel direction that moves the wheel toward the target, per
        # configuration: the forward config couples +1, the backward -1.
        choices = []
        for config, coupling in ((FORWARD_CONFIG, 1.0), (BACKWARD_CONFIG, -1.0)):
            direction = wheel_sign * coupling
            s1 = states[-1].s1
            available = (hi - s1) if direction > 0.0 else (s1 - lo)
            choices.append((available, config, direction))
        available, config, direction = max(choices, key=lambda c: c[0])
        sweep = min(abs(remaining), available)
        s2, s3 = config
        if (states[-1].s2, states[-1].s3) != config:
            move(s3=s3)
            move(s2=s2)
        move(s1=states[-1].s1 + direction * sweep)
        remaining -= wheel_sign * sweep

    if states[-1].s3 != 0.0:
        move(s3=0.0)
    if states[-1].s2 != 0.0:
        move(s2=0.0)
    return Trajectory(geometry=geometry, limits=limits,
                      waypoints=timed_waypoints(states, limits))


def plan_distance(distance_m: float, geometry: MechanismGeometry = DEFAULT_GEOMETRY,
                  start: ServoState = HOME_STATE,
                  limits: ServoLimits = DEFAULT_LIMITS) -> Trajectory:
    """Plan a signed rolling distance via the rolling relation
    theta = distance / radius."""
    if not math.isfinite(distance_m):
        raise InvalidParameter(f"distance must be finite, got {distance_m!r}")
    target_deg = math.degrees(distance_m / geometry.wheel_radius)
    return plan_rotation(target_deg, start=start, limits=limits, geometry=geometry)


def generate_gait(period_s: float, cycles: int,
                  limits: ServoLimits = DEFAULT_LIMITS,
                  geometry: MechanismGeometry = DEFAULT_GEOMETRY) -> Trajectory:
    """Exactly periodic rectification gait: +720 deg of wheel per period.

    Each half-period is one full shaft sweep (0 <-> 360) followed by a dwell
    window in which s2 and s3 swap sides simultaneously while the shaft is
    parked at its extreme. All three servo signals return to their initial
    values at every multiple of the period; the wheel angle is monotone
    nondecreasing throughout. The gait starts (and stays anchored) at the
    forward driving configuration (s1=0, s2=+90, s3=-90).

    Raises :class:`RateInfeasible` when the period cannot fit a 360 deg
    sweep at the shaft rate limit plus the 180 deg swap dwells, and
    InvalidParameter when the 4 cycles + 1 waypoints exceed MAX_WAYPOINTS,
    the limits exclude a driving configuration or s1 = 0 or 360, or the
    times stop increasing (see :func:`homeowheel.executor.check_times`).
    """
    if isinstance(cycles, bool) or not isinstance(cycles, int) or cycles < 1:
        raise InvalidParameter(f"cycles must be a positive integer, got {cycles!r}")
    if 4 * cycles + 1 > MAX_WAYPOINTS:
        raise InvalidParameter(f"{cycles} cycles need {4 * cycles + 1} waypoints, "
                               f"more than MAX_WAYPOINTS ({MAX_WAYPOINTS})")
    if not (math.isfinite(period_s) and period_s > 0.0):
        raise InvalidParameter(f"period must be positive, got {period_s!r}")
    check_reachable(limits, full_sweep=True)

    sweep_min = 360.0 / limits.s1_max_rate
    dwell_min = max(180.0 / limits.s2_max_rate, 180.0 / limits.s3_max_rate)
    half = period_s / 2.0
    if half < sweep_min + dwell_min:
        raise RateInfeasible(
            f"period {period_s!r} s is infeasible: each half-period needs at least "
            f"{sweep_min + dwell_min!r} s (360 deg sweep at the rate limit plus the swap dwell)")
    stretch = half / (sweep_min + dwell_min)
    t_sweep = sweep_min * stretch

    up = ServoState(0.0, *FORWARD_CONFIG)
    up_end = ServoState(360.0, *FORWARD_CONFIG)
    down = ServoState(360.0, *BACKWARD_CONFIG)
    down_end = ServoState(0.0, *BACKWARD_CONFIG)
    times = []
    for k in range(cycles):
        base = k * period_s
        times += (base, base + t_sweep, base + half, base + half + t_sweep)
    times.append(cycles * period_s)
    check_times(times)
    states = [up, up_end, down, down_end] * cycles + [up]
    return Trajectory(geometry=geometry, limits=limits,
                      waypoints=list(map(Waypoint, times, states)))


def count_engaged_sweeps(trajectory: Trajectory) -> int:
    """Number of segments that actually turn the wheel.

    For greedy plans this equals the number of engage/reconfigure operations,
    the metric bounded by ceil(|target| / s1 span) + 1.
    """
    count = 0
    for _, a, b in trajectory.segments():
        if b.state.s1 != a.state.s1 and segment_drive(a.state, b.state) != 0:
            count += 1
    return count
