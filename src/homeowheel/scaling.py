"""Size scaling laws and a quasi-static cost-of-transport proxy.

Shrinking the mechanism helps it: mass grows with volume (length cubed)
while actuator strength grows with cross section (length squared), so the
achievable acceleration force/mass scales like 1/length.

The transport cost proxy charges constant torque against unsigned joint
travel, E = sum |tau_i * delta_theta_i| in radians, normalized by weight
times distance. It is quasi-static by construction: it depends on the joint
angles only, never on timing, and grants no regeneration credit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from numbers import Real

from .errors import InvalidParameter, ZeroDistance
from .executor import Motion
from .records import record

STANDARD_GRAVITY = 9.81  # m/s^2


class ScalingModel(record("ScalingModel", "length_ref mass_ref force_ref",
                          defaults=(1.0, 1.0, 1.0))):
    """Reference design point: length (m), mass (kg), actuator force (N)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("length_ref", "mass_ref", "force_ref"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidParameter(f"{name} must be positive and finite, got {value!r}")
        return self


class ScaledQuantities(record("ScaledQuantities", "mass_kg force_n accel_m_s2")):
    """Mass (kg), actuator force (N) and acceleration (m/s^2) at one size."""

    __slots__ = ()


def scale(model: ScalingModel, length_m: float) -> ScaledQuantities:
    """Evaluate the power laws at size ``length_m``:
    mass ~ L^3, force ~ L^2, accel = force/mass ~ 1/L. Raises
    InvalidParameter when a quantity overflows or underflows a float."""
    if not (math.isfinite(length_m) and length_m > 0.0):
        raise InvalidParameter(f"length must be positive and finite, got {length_m!r}")
    ratio = length_m / model.length_ref
    try:
        mass = model.mass_ref * ratio ** 3
        force = model.force_ref * ratio ** 2
        accel = force / mass
    except (OverflowError, ZeroDivisionError):
        mass = force = accel = math.inf
    if not all(0.0 < q < math.inf for q in (mass, force, accel)):
        raise InvalidParameter(f"length {length_m!r} m puts mass, force or acceleration "
                               "outside the float range")
    return ScaledQuantities(mass_kg=mass, force_n=force, accel_m_s2=accel)


def cost_of_transport(motion: Motion, torques_nm: Sequence[float],
                      mass_kg: float, gravity: float = STANDARD_GRAVITY) -> float:
    """Quasi-static transport cost E / (m * g * |dx|) of an analysed motion.

    E sums ``|tau_i * delta_s_i|`` over the segments of the trajectory, with
    ``torques_nm`` the constant torque magnitudes of servos 1..3, each a
    finite real number (not a bool). Raises :class:`ZeroDistance` when the
    motion covers no distance.
    """
    if len(torques_nm) != 3:
        raise InvalidParameter(f"expected 3 servo torques, got {len(torques_nm)}")
    for tau in torques_nm:
        if isinstance(tau, bool) or not (isinstance(tau, Real) and math.isfinite(tau)):
            raise InvalidParameter(f"servo torques must be finite numbers, got {tau!r}")
    if not (math.isfinite(mass_kg) and mass_kg > 0.0):
        raise InvalidParameter(f"mass must be positive and finite, got {mass_kg!r}")
    if not (math.isfinite(gravity) and gravity > 0.0):
        raise InvalidParameter(f"gravity must be positive and finite, got {gravity!r}")
    distance = motion.final_x_m
    if distance == 0.0:
        raise ZeroDistance("motion covers zero distance")
    tau1, tau2, tau3 = (float(t) for t in torques_nm)
    energy = 0.0
    for _, a, b in motion.trajectory.segments():
        energy += abs(tau1 * math.radians(b.state.s1 - a.state.s1))
        energy += abs(tau2 * math.radians(b.state.s2 - a.state.s2))
        energy += abs(tau3 * math.radians(b.state.s3 - a.state.s3))
    return energy / (mass_kg * gravity * abs(distance))
