"""Twist bookkeeping for the continuous tegument.

The membrane is anchored to each skeletal link, so the twist absorbed by
each tegument segment is exactly the relative joint rotation at the joint it
spans: one segment per servo. The wheel's own surface contributes no term
because it rotates rigidly with the hub. Servo angles never wrap, so the
twist of a segment is the raw joint angle; for any trajectory that stays
within the servo ranges every segment stays bounded and the membrane never
tears. Over a piecewise-linear path the twist reaches its extremes at
waypoints, so :func:`homeowheel.executor.analyse` certifies the whole path
from its range test of each waypoint servo; :func:`check_integrity`
certifies a sampled path as :func:`ledger_history` lifts it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .mechanism import DEFAULT_LIMITS, ServoLimits, ServoState
from .records import record

#: The tegument segment spanning each servo's joint, in chain order.
SEGMENT_OF_SERVO = {"servo2": "seg_body_gantry", "servo1": "seg_shaft_axial",
                    "servo3": "seg_wrist"}


class TwistLedger(record("TwistLedger", " ".join(SEGMENT_OF_SERVO.values()),
                         defaults=(0.0, 0.0, 0.0))):
    """Accumulated lifted twist of each tegument segment, degrees.

    Field order follows the chain: body-to-gantry (Servo 2), shaft axial
    (Servo 1), wrist (Servo 3).
    """

    __slots__ = ()


class IntegrityViolation(record("IntegrityViolation", "time segment value")):
    """One waypoint or sample whose twist left its segment's allowed range."""

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


def ledger_history(states: Iterable[ServoState],
                   initial: TwistLedger | None = None) -> list[TwistLedger]:
    """Ledger at every state of a sampled path.

    Without ``initial`` the first state seeds the ledger with its raw angles
    (its authored angles are the true twist); each later state is lifted near
    the running ledger, which requires every servo to change by less than
    180 deg per step. In-range states then lift to their raw angles exactly.
    """
    from .rotations import unwrap_angle

    history: list[TwistLedger] = []
    ledger = initial
    for state in states:
        if ledger is None:
            ledger = TwistLedger(state.s2, state.s1, state.s3)
        else:
            ledger = TwistLedger(unwrap_angle(ledger.seg_body_gantry, state.s2),
                                 unwrap_angle(ledger.seg_shaft_axial, state.s1),
                                 unwrap_angle(ledger.seg_wrist, state.s3))
        history.append(ledger)
    return history


def check_integrity(ledgers: Sequence[TwistLedger],
                    limits: ServoLimits = DEFAULT_LIMITS,
                    times: Sequence[float] | None = None) -> IntegrityReport:
    """Certify that every segment's twist stayed within its joint range over
    a sampled lift, such as :func:`ledger_history` gives.

    The twist bound of each segment is the range of the servo it spans.
    ``times`` labels the violations; sample indices are used when omitted.
    Empty input is trivially ok with zero maxima.
    """
    bounds = (limits.s2_range, limits.s1_range, limits.s3_range)
    maxima = [0.0, 0.0, 0.0]
    violations: list[IntegrityViolation] = []
    for idx, ledger in enumerate(ledgers):
        t = times[idx] if times is not None else float(idx)
        for seg_idx, (name, value) in enumerate(zip(TwistLedger._fields, ledger)):
            if abs(value) > maxima[seg_idx]:
                maxima[seg_idx] = abs(value)
            lo, hi = bounds[seg_idx]
            if not lo <= value <= hi:
                violations.append(IntegrityViolation(t, name, value))
    return IntegrityReport((maxima[0], maxima[1], maxima[2]), tuple(violations))
