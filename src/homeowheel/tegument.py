"""Twist bookkeeping for the continuous tegument.

The membrane is anchored to each skeletal link, so the twist absorbed by
each tegument segment is exactly the relative joint rotation at the joint it
spans: one segment per servo. The wheel's own surface contributes no term
because it rotates rigidly with the hub. Servo angles never wrap, so the
twist of a segment is the raw joint angle; for any trajectory that stays
within the servo ranges every segment stays bounded and the membrane never
tears. Over a piecewise-linear path the twist reaches its extremes at
waypoints, so checking the waypoints certifies the whole path.
:func:`update_ledger` and :func:`ledger_history` lift a sampled path
continuously for callers that only have samples.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .mechanism import DEFAULT_LIMITS, ServoLimits, ServoState
from .records import record
from .rotations import unwrap_angle

_SEGMENTS = ("seg_body_gantry", "seg_shaft_axial", "seg_wrist")


class TwistLedger(record("TwistLedger", "seg_body_gantry seg_shaft_axial seg_wrist",
                         defaults=(0.0, 0.0, 0.0))):
    """Accumulated lifted twist of each tegument segment, degrees.

    Field order follows the chain: body-to-gantry (Servo 2), shaft axial
    (Servo 1), wrist (Servo 3).
    """

    __slots__ = ()

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.seg_body_gantry, self.seg_shaft_axial, self.seg_wrist)


ZERO_LEDGER = TwistLedger()


class IntegrityViolation(record("IntegrityViolation", "time segment value")):
    """One sample whose lifted twist left its segment's allowed range."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"IntegrityViolation {self.segment} at t={self.time!r}: twist {self.value!r} deg"


class IntegrityReport(record("IntegrityReport", "max_abs_twist violations")):
    """Per-segment twist maxima and any bound violations, both tuples.

    ``max_abs_twist`` is ordered like :class:`TwistLedger`:
    (body-gantry, shaft-axial, wrist).
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def ledger_from_state(state: ServoState) -> TwistLedger:
    """Seed a ledger from an authored state: the lift is the raw angle."""
    return TwistLedger(state.s2, state.s1, state.s3)


def update_ledger(ledger: TwistLedger, state: ServoState) -> TwistLedger:
    """Advance the ledger to ``state``, lifting each angle continuously.

    Requires the per-step change of every servo to be below 180 deg; the
    lift then lands on the raw angle exactly for in-range states.
    """
    return TwistLedger(
        unwrap_angle(ledger.seg_body_gantry, state.s2),
        unwrap_angle(ledger.seg_shaft_axial, state.s1),
        unwrap_angle(ledger.seg_wrist, state.s3),
    )


def ledger_history(states: Iterable[ServoState],
                   initial: TwistLedger | None = None) -> list[TwistLedger]:
    """Ledger at every state of a sampled path.

    Without ``initial`` the first state seeds the ledger directly (its
    authored angles are the true twist); subsequent states are lifted near
    the running ledger.
    """
    history: list[TwistLedger] = []
    ledger = initial
    for state in states:
        ledger = ledger_from_state(state) if ledger is None else update_ledger(ledger, state)
        history.append(ledger)
    return history


def check_integrity(ledgers: Sequence[TwistLedger],
                    limits: ServoLimits = DEFAULT_LIMITS,
                    times: Sequence[float] | None = None) -> IntegrityReport:
    """Certify that every segment's twist stayed within its joint range.

    The twist bound of each segment is the range of the servo it spans.
    ``times`` labels the violations; sample indices are used when omitted.
    Empty input is trivially ok with zero maxima.
    """
    bounds = (limits.s2_range, limits.s1_range, limits.s3_range)
    maxima = [0.0, 0.0, 0.0]
    violations: list[IntegrityViolation] = []
    for idx, ledger in enumerate(ledgers):
        t = times[idx] if times is not None else float(idx)
        for seg_idx, (name, value) in enumerate(zip(_SEGMENTS, ledger)):
            if abs(value) > maxima[seg_idx]:
                maxima[seg_idx] = abs(value)
            lo, hi = bounds[seg_idx]
            if not lo <= value <= hi:
                violations.append(IntegrityViolation(t, name, value))
    return IntegrityReport((maxima[0], maxima[1], maxima[2]), tuple(violations))
