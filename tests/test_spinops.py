import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (HADAMARD_BASIS, IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z,
                      operator_norm_2x2)
from qpwalk.spinops import eigenbasis_unitary2, is_unitary, make_coin, rotation_x

angles = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


def test_rotation_x_special_values():
    assert np.allclose(rotation_x(0.0), IDENTITY)
    assert np.allclose(rotation_x(math.pi), -IDENTITY, atol=1e-15)
    assert np.allclose(rotation_x(math.pi / 2), 1j * SIGMA_X, atol=1e-15)


@given(angles, angles)
def test_rotation_x_is_additive(a, b):
    assert np.allclose(rotation_x(a) @ rotation_x(b), rotation_x(a + b),
                       atol=1e-12)


@given(angles)
def test_rotations_are_special_unitary(a):
    rot = rotation_x(a)
    assert is_unitary(rot, tol=1e-12)
    assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def test_make_coin_builds_su2():
    a, b = 0.6, 0.8j
    coin = make_coin(a, b)
    expected = np.array([[a, b], [-np.conj(b), np.conj(a)]])
    assert np.array_equal(coin, expected)
    assert is_unitary(coin)
    assert abs(np.linalg.det(coin) - 1.0) < 1e-12


def test_make_coin_rejects_unnormalized():
    with pytest.raises(ValueError):
        make_coin(1.0, 1.0)


@pytest.mark.parametrize("a,b", [(float("nan"), 0.0), (0.6, complex(0.0, float("nan"))),
                                 (float("inf"), 0.0), (1e200, 0.0)])
def test_make_coin_rejects_non_finite(a, b):
    with pytest.raises(ValueError, match="coin entries"):
        make_coin(a, b)


def test_hadamard_basis_diagonalizes_sigma_x():
    d = HADAMARD_BASIS @ SIGMA_X @ HADAMARD_BASIS.conj().T
    assert np.allclose(d, np.diag([1.0, -1.0]), atol=1e-15)


def test_operator_norm_matches_numpy(rng):
    for _ in range(50):
        mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert operator_norm_2x2(mat) == pytest.approx(
            np.linalg.norm(mat, 2), abs=1e-12)


def test_eigenbasis_unitary2_diagonalizes(rng):
    for _ in range(100):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        basis, lam1, lam2 = eigenbasis_unitary2(q)
        assert is_unitary(basis, tol=1e-10)
        d = basis @ q @ basis.conj().T
        assert np.allclose(d, np.diag([lam1, lam2]), atol=1e-9)
        assert abs(abs(lam1) - 1.0) < 1e-10 and abs(abs(lam2) - 1.0) < 1e-10


@pytest.mark.parametrize("scalar", [1.0, -1.0, np.exp(0.37j)])
def test_eigenbasis_unitary2_scalar_matrices(scalar):
    basis, lam1, lam2 = eigenbasis_unitary2(scalar * IDENTITY)
    assert np.array_equal(basis, IDENTITY)
    assert lam1 == pytest.approx(scalar) and lam2 == pytest.approx(scalar)


def test_eigenbasis_unitary2_rejects_nonunitary():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        eigenbasis_unitary2(shear)


def test_pauli_algebra():
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(sigma @ sigma, IDENTITY)
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
