"""Tests for the quaternion algebra and continuous angle lifting."""

import math

import numpy as np
import pytest

from homeowheel.errors import InvalidAxis
from homeowheel.rotations import (
    IDENTITY_QUATERNION,
    UnitQuaternion,
    quat_compose,
    quat_conjugate,
    quat_from_axis_angle,
    rot_x,
    rot_z,
    unwrap_angle,
)
from reference import is_rotation_matrix, quat_to_matrix

X_AXIS = (1.0, 0.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


def random_unit_quaternion(rng):
    vec = rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    return UnitQuaternion(float(vec[0]), float(vec[1]), float(vec[2]), float(vec[3]))


def random_unit_axis(rng):
    vec = rng.normal(size=3)
    return vec / np.linalg.norm(vec)


class TestAxisAngle:
    def test_zero_angle_is_identity(self):
        assert quat_from_axis_angle(Z_AXIS, 0.0) == IDENTITY_QUATERNION

    def test_full_turn_is_antipodal_identity(self):
        # One full turn lands on the antipode of the identity: same rotation
        # matrix, opposite quaternion sign.
        q = quat_from_axis_angle(Z_AXIS, 360.0)
        assert abs(q.w + 1.0) < 1e-12
        assert abs(q.x) < 1e-12 and abs(q.y) < 1e-12 and abs(q.z) < 1e-12
        assert np.abs(quat_to_matrix(q) - np.eye(3)).max() < 1e-10

    def test_half_turn_about_x(self):
        q = quat_from_axis_angle(X_AXIS, 180.0)
        assert abs(q.w) < 1e-12
        assert abs(q.x - 1.0) < 1e-12
        assert q.y == 0.0 and q.z == 0.0

    def test_rejects_non_unit_axis(self):
        with pytest.raises(InvalidAxis):
            quat_from_axis_angle((1.0, 1.0, 0.0), 90.0)
        with pytest.raises(InvalidAxis):
            quat_from_axis_angle((0.0, 0.0, 0.0), 90.0)
        with pytest.raises(InvalidAxis):
            quat_from_axis_angle((1.0, 0.0), 90.0)

    @pytest.mark.parametrize("axis", [
        1.0,
        [[1.0], [0.0], [0.0]],
        np.array([[1.0], [0.0], [0.0]]),
        ("a", "b", "c"),
        ("1", "0", "0"),
        (1.0, 0.0, None),
        (1j, 0.0, 0.0),
        "xyz",
        (1.0, 0.0, 0.0, 0.0),
        (10 ** 400, 0, 0),
        (math.nan, 0.0, 0.0),
    ])
    def test_rejects_anything_but_three_real_numbers(self, axis):
        with pytest.raises(InvalidAxis):
            quat_from_axis_angle(axis, 90.0)

    @pytest.mark.parametrize("axis", [
        (0.0, 0.0, 1.0), [0, 0, 1], np.array([0.0, 0.0, 1.0]), np.array([0, 0, 1]),
        (np.float32(0.0), np.int64(0), True),
    ])
    def test_accepts_any_sequence_of_three_real_numbers(self, axis):
        assert quat_from_axis_angle(axis, 90.0) == quat_from_axis_angle(Z_AXIS, 90.0)

    def test_double_cover_over_random_axes(self):
        rng = np.random.default_rng(20240811)
        for _ in range(1000):
            axis = random_unit_axis(rng)
            full = quat_from_axis_angle(axis, 360.0)
            assert abs(full.w + 1.0) < 1e-12
            frobenius = float(np.linalg.norm(quat_to_matrix(full) - np.eye(3)))
            assert frobenius < 1e-10
            double = quat_from_axis_angle(axis, 720.0)
            assert abs(double.w - 1.0) < 1e-10
            assert abs(double.x) < 1e-10 and abs(double.y) < 1e-10 and abs(double.z) < 1e-10


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(7)
        q = random_unit_quaternion(rng)
        assert quat_compose(IDENTITY_QUATERNION, q) == q

    def test_conjugate_is_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            q = random_unit_quaternion(rng)
            back = quat_compose(q, quat_conjugate(q))
            assert abs(back.w - 1.0) < 1e-12
            assert abs(back.x) < 1e-12 and abs(back.y) < 1e-12 and abs(back.z) < 1e-12

    def test_two_half_turns_give_antipodal_identity(self):
        # Hamilton product by hand: (0,1,0,0) * (0,1,0,0) = (-1,0,0,0).
        q = quat_from_axis_angle(X_AXIS, 180.0)
        qq = quat_compose(q, q)
        assert abs(qq.w + 1.0) < 1e-12
        assert abs(qq.x) < 1e-12 and abs(qq.y) < 1e-12 and abs(qq.z) < 1e-12
        assert np.abs(quat_to_matrix(qq) - np.eye(3)).max() < 1e-10

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = random_unit_quaternion(rng)
            b = random_unit_quaternion(rng)
            left = quat_to_matrix(quat_compose(a, b))
            right = quat_to_matrix(a) @ quat_to_matrix(b)
            assert np.abs(left - right).max() < 1e-10

    def test_norm_preserved_over_a_million_compositions(self):
        rng = np.random.default_rng(10)
        pool = [random_unit_quaternion(rng) for _ in range(1000)]
        q = IDENTITY_QUATERNION
        for i in range(1_000_000):
            q = quat_compose(q, pool[i % 1000])
        assert abs(q.norm() - 1.0) < 1e-9


class TestToMatrix:
    def test_identity(self):
        assert np.array_equal(quat_to_matrix(IDENTITY_QUATERNION), np.eye(3))

    def test_half_turn_about_z(self):
        # Conversion formula by hand for (0,0,0,1): diag(-1,-1,1).
        mat = quat_to_matrix(UnitQuaternion(0.0, 0.0, 0.0, 1.0))
        assert np.array_equal(mat, np.diag([-1.0, -1.0, 1.0]))

    def test_negated_quaternion_gives_bitwise_same_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            q = random_unit_quaternion(rng)
            neg = UnitQuaternion(-q.w, -q.x, -q.y, -q.z)
            assert np.array_equal(quat_to_matrix(q), quat_to_matrix(neg))

    def test_outputs_are_rotation_matrices(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            assert is_rotation_matrix(quat_to_matrix(random_unit_quaternion(rng)))

    def test_rotation_matrix_checker_rejects_junk(self):
        assert not is_rotation_matrix(np.eye(3) * 2.0)
        assert not is_rotation_matrix(np.diag([1.0, 1.0, -1.0]))  # reflection
        assert not is_rotation_matrix(np.zeros((3, 3)))
        assert not is_rotation_matrix(np.eye(4))
        assert not is_rotation_matrix(np.full((3, 3), np.nan))


class TestAngleLifting:
    def test_unwrap_examples(self):
        assert unwrap_angle(350.0, -5.0) == 355.0
        assert unwrap_angle(0.0, 0.0) == 0.0
        assert unwrap_angle(719.0, 0.0) == 720.0

    def test_unwrap_accepts_any_representative(self):
        # The lift anchors on the representative, so in-range raw angles lift
        # to themselves exactly.
        assert unwrap_angle(349.0, 350.0) == 350.0
        assert unwrap_angle(10.0, 350.0) == -10.0
        assert unwrap_angle(-170.0, 170.0) == -190.0

    def test_unwrap_tracks_a_continuous_walk(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            true_angle = 0.0
            lifted = 0.0
            for _ in range(500):
                step = float(rng.uniform(-179.0, 179.0))
                true_angle += step
                wrapped = (true_angle + 180.0) % 360.0 - 180.0
                lifted = unwrap_angle(lifted, wrapped)
                assert abs(lifted - true_angle) < 1e-6


class TestAxisHelpers:
    def test_axis_helpers_match_axis_angle(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            angle = float(rng.uniform(-720.0, 720.0))
            assert rot_x(angle) == quat_from_axis_angle(X_AXIS, angle)
            assert rot_z(angle) == quat_from_axis_angle(Z_AXIS, angle)

    def test_composed_x_rotations_add_angles(self):
        lhs = quat_compose(rot_x(30.0), rot_x(40.0))
        rhs = rot_x(70.0)
        assert abs(lhs.w - rhs.w) < 1e-12 and abs(lhs.x - rhs.x) < 1e-12
