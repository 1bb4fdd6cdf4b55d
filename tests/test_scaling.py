"""Tests for the size scaling laws and the transport cost proxy."""

import math

import pytest

from homeowheel.errors import InvalidParameter, ZeroDistance
from homeowheel.executor import Trajectory, Waypoint, analyse, build_rotate_wheel_2n
from homeowheel.mechanism import MechanismGeometry, ServoState
from homeowheel.scaling import ScalingModel, cost_of_transport, scale


class TestScale:
    def test_reference_point_is_the_identity(self):
        model = ScalingModel(length_ref=2.0, mass_ref=3.0, force_ref=5.0)
        row = scale(model, 2.0)
        assert row.mass_kg == 3.0
        assert row.force_n == 5.0
        assert row.accel_m_s2 == 5.0 / 3.0

    def test_ten_times_smaller_means_ten_times_quicker(self):
        model = ScalingModel()
        small = scale(model, 0.1)
        reference = scale(model, 1.0)
        assert abs(small.accel_m_s2 / reference.accel_m_s2 - 10.0) < 1e-12

    def test_doubling_size(self):
        model = ScalingModel()
        big = scale(model, 2.0)
        assert abs(big.mass_kg - 8.0) < 1e-12
        assert abs(big.force_n - 4.0) < 1e-12
        assert abs(big.accel_m_s2 - 0.5) < 1e-12

    def test_accel_times_length_is_constant(self):
        model = ScalingModel(length_ref=0.37, mass_ref=1.7, force_ref=4.2)
        products = [scale(model, L).accel_m_s2 * L for L in (0.01, 0.1, 1.0, 10.0)]
        for product in products[1:]:
            assert abs(product - products[0]) <= 1e-12 * abs(products[0])

    def test_rejects_bad_lengths(self):
        model = ScalingModel()
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameter):
                scale(model, bad)

    @pytest.mark.parametrize("model, length", [
        (ScalingModel(), 1e308),                                 # L^3 overflows
        (ScalingModel(), 1e-200),                                # L^3 underflows to 0
        (ScalingModel(mass_ref=1e300), 1e10),                    # m_ref * L^3 overflows
        (ScalingModel(mass_ref=1e300, force_ref=1e-300), 1.0),   # accel underflows to 0
    ])
    def test_rejects_lengths_beyond_the_float_range(self, model, length):
        with pytest.raises(InvalidParameter, match="float range"):
            scale(model, length)

    def test_rejects_bad_model(self):
        with pytest.raises(InvalidParameter):
            ScalingModel(length_ref=0.0)
        with pytest.raises(InvalidParameter):
            ScalingModel(mass_ref=-1.0)


class TestCostOfTransport:
    def _routine_motion(self, radius=0.5):
        geometry = MechanismGeometry(wheel_radius=radius)
        return analyse(build_rotate_wheel_2n(1, geometry=geometry))

    def test_zero_torque_costs_nothing(self):
        motion = self._routine_motion()
        assert cost_of_transport(motion, (0.0, 0.0, 0.0), 1.0) == 0.0

    def test_canonical_routine_hand_integral(self):
        # Shaft torque 1 N.m only. The shaft travels 0 -> 360 -> 0, i.e.
        # 720 deg = 4*pi rad, so E = 4*pi J. Distance is two circumferences
        # of a 0.5 m wheel = 2*pi m. CoT = 4*pi / (1 * 9.81 * 2*pi) = 2/9.81.
        motion = self._routine_motion(radius=0.5)
        cot = cost_of_transport(motion, (1.0, 0.0, 0.0), 1.0, gravity=9.81)
        assert abs(cot - 2.0 / 9.81) < 1e-15
        assert abs(cot - 0.2039) < 1e-4

    def test_doubling_torques_doubles_the_cost(self):
        motion = self._routine_motion()
        single = cost_of_transport(motion, (1.0, 0.5, 0.25), 1.0)
        double = cost_of_transport(motion, (2.0, 1.0, 0.5), 1.0)
        assert double == 2.0 * single

    def test_invariant_under_time_reparameterization(self):
        # The proxy depends on joint angles only, summed per segment, so
        # stretching all durations leaves it exactly unchanged.
        geometry = MechanismGeometry(wheel_radius=0.5)
        routine = build_rotate_wheel_2n(1, geometry=geometry)
        fast = analyse(routine)
        slow = analyse(routine._replace(waypoints=tuple(
            Waypoint(7.3 * wp.t, wp.state) for wp in routine.waypoints)))
        torques = (1.0, 0.7, 0.3)
        assert cost_of_transport(fast, torques, 2.0) == cost_of_transport(slow, torques, 2.0)

    def test_zero_distance_is_an_error(self):
        trajectory = Trajectory.from_states(
            [ServoState(0.0, 0.0, 0.0), ServoState(0.0, 45.0, 0.0)])
        motion = analyse(trajectory)
        with pytest.raises(ZeroDistance):
            cost_of_transport(motion, (1.0, 1.0, 1.0), 1.0)

    def test_rejects_bad_arguments(self):
        motion = self._routine_motion()
        with pytest.raises(InvalidParameter):
            cost_of_transport(motion, (1.0, 1.0), 1.0)
        with pytest.raises(InvalidParameter):
            cost_of_transport(motion, (1.0, 1.0, 1.0), 0.0)
        with pytest.raises(InvalidParameter):
            cost_of_transport(motion, (1.0, 1.0, 1.0), 1.0, gravity=0.0)
        for torques in ([math.nan, 1, 1], [math.inf, 1, 1], [1, -math.inf, 1],
                        ["1", 1, 1], [True, 1, 1], [1, 1, None]):
            with pytest.raises(InvalidParameter):
                cost_of_transport(motion, torques, 1.0)
