"""Tests for twist bookkeeping and the homeostasis invariant."""

import numpy as np

from homeowheel.executor import build_rotate_wheel_2n
from homeowheel.mechanism import ServoLimits, ServoState
from homeowheel.tegument import (
    IntegrityReport,
    TwistLedger,
    check_integrity,
    ledger_history,
)
from homeowheel.trace import simulate

ZERO = TwistLedger(0.0, 0.0, 0.0)


def lift(ledger: TwistLedger, state: ServoState) -> TwistLedger:
    """One lifting step of :func:`ledger_history` from ``ledger``."""
    return ledger_history([state], initial=ledger)[0]


class TestLiftingStep:
    def test_home_state_stays_zero(self):
        assert lift(ZERO, ServoState(0.0, 0.0, 0.0)) == ZERO

    def test_extreme_legal_configuration_reached_in_steps(self):
        # Walk to (s1, s2, s3) = (360, 90, -90) through in-range samples; the
        # lift must equal the raw angles exactly.
        path = [
            ServoState(0.0, 0.0, 0.0),
            ServoState(90.0, 30.0, -30.0),
            ServoState(180.0, 60.0, -60.0),
            ServoState(270.0, 90.0, -90.0),
            ServoState(360.0, 90.0, -90.0),
        ]
        ledger = ZERO
        for state in path:
            ledger = lift(ledger, state)
        assert ledger == TwistLedger(90.0, 360.0, -90.0)
        assert ledger_history(path, initial=ZERO)[-1] == ledger

    def test_canonical_routine_returns_to_zero(self):
        trajectory = build_rotate_wheel_2n(1)
        ledgers = ledger_history(wp.state for wp in trajectory.waypoints)
        assert ledgers[-1] == TwistLedger(0.0, 0.0, 0.0)
        assert tuple(ledgers[-1]) == (0.0, 0.0, 0.0)

    def test_lift_equals_raw_for_in_range_walks(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            s1, s2, s3 = 0.0, 0.0, 0.0
            ledger = ZERO
            for _ in range(100):
                s1 = float(np.clip(s1 + rng.uniform(-170.0, 170.0), 0.0, 360.0))
                s2 = float(np.clip(s2 + rng.uniform(-90.0, 90.0), -90.0, 90.0))
                s3 = float(np.clip(s3 + rng.uniform(-90.0, 90.0), -90.0, 90.0))
                ledger = lift(ledger, ServoState(s1, s2, s3))
                assert tuple(ledger) == (s2, s1, s3)

    def test_zero_return_is_exact(self):
        # Whenever the servos walk back to the home state along an in-range
        # path, the twist is exactly zero again: that is the belt-trick
        # statement at ledger level.
        rng = np.random.default_rng(32)
        for _ in range(200):
            states = [ServoState(0.0, 0.0, 0.0)]
            s1 = 0.0
            for _ in range(20):
                s1 = float(np.clip(s1 + rng.uniform(-170.0, 170.0), 0.0, 360.0))
                states.append(ServoState(s1, float(rng.uniform(-90.0, 90.0)),
                                         float(rng.uniform(-90.0, 90.0))))
            # walk s1 home in legal steps, then zero the others
            while s1 > 170.0:
                s1 -= 170.0
                states.append(ServoState(s1, 0.0, 0.0))
            states.append(ServoState(0.0, 0.0, 0.0))
            assert ledger_history(states)[-1] == ZERO


class TestLedgerHistory:
    def test_seeds_from_first_state(self):
        states = [ServoState(350.0, 10.0, -10.0), ServoState(340.0, 0.0, 0.0)]
        history = ledger_history(states)
        first = states[0]
        assert history[0] == TwistLedger(first.s2, first.s1, first.s3)
        assert history[0].seg_shaft_axial == 350.0
        assert history[1].seg_shaft_axial == 340.0

    def test_empty_input(self):
        assert ledger_history([]) == []


class TestCheckIntegrity:
    def test_canonical_routine_is_homeostatic(self):
        trajectory = build_rotate_wheel_2n(5)
        trace = simulate(trajectory)
        report = check_integrity(ledger_history(trace.states()),
                                 trajectory.limits, trace.times())
        assert report.ok
        assert report.max_abs_twist == (90.0, 360.0, 90.0)

    def test_flags_out_of_range_lift(self):
        ledgers = [TwistLedger(0.0, 0.0, 0.0), TwistLedger(0.0, 450.0, 0.0)]
        report = check_integrity(ledgers, times=[0.0, 1.5])
        assert not report.ok
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.segment == "seg_shaft_axial"
        assert violation.value == 450.0
        assert violation.time == 1.5

    def test_empty_history_is_ok(self):
        report = check_integrity([])
        assert report.ok
        assert report.max_abs_twist == (0.0, 0.0, 0.0)

    def test_ok_iff_no_violations(self):
        good = check_integrity([TwistLedger(10.0, 20.0, -30.0)])
        assert good.ok and good.violations == ()
        assert good.max_abs_twist == (10.0, 20.0, 30.0)
        bad = check_integrity([TwistLedger(91.0, 0.0, 0.0)])
        assert not bad.ok and len(bad.violations) == 1

    def test_respects_custom_limits(self):
        limits = ServoLimits(s1_range=(0.0, 180.0))
        report = check_integrity([TwistLedger(0.0, 200.0, 0.0)], limits)
        assert not report.ok

    def test_report_is_a_value(self):
        report = check_integrity([])
        assert isinstance(report, IntegrityReport)
        assert report == check_integrity([])
