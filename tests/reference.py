"""Independent implementations the tests check the package against: rotation
matrices for the quaternion algebra (the package never builds a matrix), the
row-at-a-time trace sampler that the column blocks replaced, and the
per-field trajectory parser, which any faster waypoint parse must match."""

import math
from collections.abc import Iterator

import numpy as np

from homeowheel.errors import TrajectoryParseError
from homeowheel.executor import (
    _TRACE_ROW,
    TRACE_HEADER,
    TRAJECTORY_FORMAT_VERSION,
    Motion,
    SimTrace,
    Trajectory,
    Waypoint,
    _known_keys,
    _load_object,
    _parse_header,
    _require,
    _sample_counts,
)
from homeowheel.mechanism import ServoState, engaged
from homeowheel.rotations import UnitQuaternion


def quat_to_matrix(q: UnitQuaternion) -> np.ndarray:
    """3x3 rotation matrix for ``q``.

    The formula uses only pairwise products, so q and -q produce bitwise
    identical matrices.
    """
    w, x, y, z = q.w, q.x, q.y, q.z
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return np.array([
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
    ])


def is_rotation_matrix(mat, tol: float = 1e-10) -> bool:
    """True iff ``mat`` is 3x3, orthonormal within ``tol`` and det = +1 within ``tol``."""
    m = np.asarray(mat, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        return False
    ortho_err = float(np.abs(m.T @ m - np.eye(3)).max())
    return ortho_err <= tol and abs(float(np.linalg.det(m)) - 1.0) <= tol


def reference_trace_rows(motion: Motion, sample_rate: float) -> Iterator[tuple]:
    """Every row of the trace of ``motion`` at ``sample_rate``, one at a time
    from the same float expressions as the package: the segment's sample
    count on each segment, then the last waypoint's row."""
    trajectory = motion.trajectory
    radius = trajectory.geometry.wheel_radius
    counts = _sample_counts(trajectory, sample_rate)
    for (i, a, b), subdivisions in zip(trajectory.segments(), counts):
        t0, a1, a2, a3 = a.t, a.state.s1, a.state.s2, a.state.s3
        seg_dt = b.t - t0
        d_s1, d_s2, d_s3 = b.state.s1 - a1, b.state.s2 - a2, b.state.s3 - a3
        drive, flags, theta = motion.drives[i], motion.flags[i], motion.theta_deg[i]
        driving = drive != 0
        yield (t0, a1, a2, a3, theta, radius * math.radians(theta), engaged(a.state), flags)
        for j in range(1, subdivisions):
            alpha = j / subdivisions
            s1 = a1 + d_s1 * alpha
            theta_now = theta + drive * (s1 - a1) if drive else theta
            yield (t0 + seg_dt * alpha, s1, a2 + d_s2 * alpha, a3 + d_s3 * alpha,
                   theta_now, radius * math.radians(theta_now), driving, flags)
    last = trajectory.waypoints[-1]
    yield (last.t, last.state.s1, last.state.s2, last.state.s3, motion.final_theta_deg,
           motion.final_x_m, engaged(last.state), motion.flags[-1] if motion.flags else 0)


def reference_trace_csv(motion: Motion, sample_rate: float) -> bytes:
    """The trace file of ``motion``: the header, then each reference row."""
    rows = reference_trace_rows(motion, sample_rate)
    return (TRACE_HEADER + "\n" + "".join(_TRACE_ROW % row for row in rows)).encode("utf-8")


def sample_rows(trace: SimTrace) -> list[tuple]:
    """The samples of ``trace`` as trace rows. Compare their ``repr`` with the
    reference rows': unlike ``==``, it tells -0.0 from 0.0."""
    return [(s.t, *s.state, s.theta_wheel_deg, s.x_m, s.engaged, s.event_flags)
            for s in trace.samples]


def reference_parse_trajectory(text: str | bytes) -> Trajectory:
    """The trajectory file parser with every waypoint field checked at its
    location, one field at a time, then the waypoint's keys."""
    doc = _load_object(text)
    version = _require(doc, "format_version", int, "$")
    if version != TRAJECTORY_FORMAT_VERSION:
        raise TrajectoryParseError(
            f"unsupported format_version {version!r} "
            f"(expected {TRAJECTORY_FORMAT_VERSION})", location="$.format_version")
    geometry, limits = _parse_header(doc, "$")
    raw_waypoints = _require(doc, "waypoints", list, "$")
    if not raw_waypoints:
        raise TrajectoryParseError("waypoints must be non-empty", location="$.waypoints")
    waypoints = []
    for idx, entry in enumerate(raw_waypoints):
        location = f"$.waypoints[{idx}]"
        if not isinstance(entry, dict):
            raise TrajectoryParseError("waypoint must be an object", location=location)
        waypoints.append(Waypoint(
            _require(entry, "t", float, location),
            ServoState(_require(entry, "s1", float, location),
                       _require(entry, "s2", float, location),
                       _require(entry, "s3", float, location)),
        ))
        _known_keys(entry, ("t", "s1", "s2", "s3"), location)
    return Trajectory(geometry=geometry, limits=limits, waypoints=tuple(waypoints))
