"""Rotation algebra: unit quaternions and continuous angle lifts.

Conventions used throughout the package:

* Angles are degrees everywhere; radians appear only inside trig calls.
  Values like +-90 and 360 are exact binary floats, which keeps the joint
  limit checks exact.
* Quaternions are Hamilton (w, x, y, z), right-handed.
* Quaternion sign is never canonicalized. Rotating 360 deg about any axis
  lands on (-1, 0, 0, 0): the antipode of the identity, mapping to the
  identity matrix. That sign distinction is exactly the double-cover
  information the twist bookkeeping relies on, so composition and
  normalization must preserve it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from numbers import Real

from .errors import InvalidAxis
from .records import record

#: Squared-norm drift beyond which a quaternion is renormalized.
UNIT_NORM_DRIFT = 1e-12

#: Tolerance on |axis| - 1 accepted by :func:`quat_from_axis_angle`.
AXIS_NORM_TOL = 1e-9


class UnitQuaternion(record("UnitQuaternion", "w x y z")):
    """Hamilton quaternion of unit norm. Immutable value type."""

    __slots__ = ()

    def norm(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x
                         + self.y * self.y + self.z * self.z)


IDENTITY_QUATERNION = UnitQuaternion(1.0, 0.0, 0.0, 0.0)


def _unit(w: float, x: float, y: float, z: float) -> UnitQuaternion:
    # Renormalize only when drift is measurable; an unconditional division
    # would perturb exactly-representable components such as (-1, 0, 0, 0).
    norm_sq = w * w + x * x + y * y + z * z
    if abs(norm_sq - 1.0) > UNIT_NORM_DRIFT:
        inv = 1.0 / math.sqrt(norm_sq)
        return UnitQuaternion(w * inv, x * inv, y * inv, z * inv)
    return UnitQuaternion(w, x, y, z)


def quat_from_axis_angle(axis: Sequence[float], angle_deg: float) -> UnitQuaternion:
    """Quaternion for a rotation of ``angle_deg`` degrees about a unit axis.

    Raises :class:`InvalidAxis` unless ``axis`` is a sequence (or 1-D array)
    of three real numbers with |axis| = 1 within ``AXIS_NORM_TOL``.
    Note the half-angle: 360 deg yields (-1, 0, 0, 0), not the identity.
    """
    try:
        x, y, z = (float(c) if isinstance(c, Real) else math.nan for c in axis)
    except (TypeError, ValueError, OverflowError):
        raise InvalidAxis(f"axis must be a sequence of 3 numbers, got {axis!r}") from None
    norm = math.sqrt(x * x + y * y + z * z)
    if not abs(norm - 1.0) <= AXIS_NORM_TOL:
        raise InvalidAxis(f"axis must be 3 real numbers of unit norm, |axis| = {norm!r}")
    half = math.radians(angle_deg) / 2.0
    s = math.sin(half)
    return _unit(math.cos(half), s * x, s * y, s * z)


def quat_compose(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product a*b (apply b first, then a), renormalized on drift."""
    w = a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z
    x = a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y
    y = a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x
    z = a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w
    return _unit(w, x, y, z)


def quat_rotate(q: UnitQuaternion, v: Sequence[float]) -> tuple[float, float, float]:
    """``v`` rotated by ``q``: v + w*t + u x t with u = (x, y, z), t = 2 u x v."""
    (w, x, y, z), (vx, vy, vz) = (q.w, q.x, q.y, q.z), v
    tx, ty, tz = 2.0 * (y * vz - z * vy), 2.0 * (z * vx - x * vz), 2.0 * (x * vy - y * vx)
    return (vx + w * tx + (y * tz - z * ty), vy + w * ty + (z * tx - x * tz),
            vz + w * tz + (x * ty - y * tx))


def quat_conjugate(q: UnitQuaternion) -> UnitQuaternion:
    """Conjugate; for unit quaternions this is the inverse rotation."""
    return UnitQuaternion(q.w, -q.x, -q.y, -q.z)


def rot_x(angle_deg: float) -> UnitQuaternion:
    """Rotation about the +x axis."""
    half = math.radians(angle_deg) / 2.0
    return _unit(math.cos(half), math.sin(half), 0.0, 0.0)


def rot_z(angle_deg: float) -> UnitQuaternion:
    """Rotation about the +z axis."""
    half = math.radians(angle_deg) / 2.0
    return _unit(math.cos(half), 0.0, 0.0, math.sin(half))


def unwrap_angle(previous: float, new_wrapped: float) -> float:
    """Lift ``new_wrapped`` onto the continuous angle branch nearest ``previous``.

    ``new_wrapped`` may be any 360-degree representative of the new angle,
    not necessarily in [-180, 180); the result is ``new_wrapped`` shifted by
    the whole number of turns that lands closest to ``previous``. Anchoring
    on the representative keeps the lift exact (no drift accumulates across
    updates, and in-range inputs lift to themselves bit for bit).

    The caller must guarantee that the true increment since ``previous`` is
    below 180 deg in magnitude; at exactly 180 deg the nearest branch is
    ambiguous and round-half-to-even decides.
    """
    turns = round((previous - new_wrapped) / 360.0)
    return new_wrapped + 360.0 * turns
