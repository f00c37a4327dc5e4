import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, random_su2
from qpwalk.revivals import _phase_distance
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
    """The eigenbasis of an x-rotation diagonalizes sigma_x, with eigenvalues e^(+-i*theta)."""
    for theta in (0.3, 1.0, 2.5, -0.7, 4.0):
        basis, lam1, lam2 = eigenbasis_unitary2(rotation_x(theta))
        d = basis @ SIGMA_X @ basis.conj().T
        assert np.allclose(np.abs(d), np.eye(2), atol=1e-12)
        assert np.allclose([lam1, lam2], np.exp(1j * theta * np.diag(d)), atol=1e-12)


def test_operator_norm_matches_numpy(rng):
    """The norm the package uses (``revivals._phase_distance``) is the 2-norm of U - c*I."""
    blocks = np.array([make_coin(*random_su2(rng)) for _ in range(50)])
    for sign in (+1, -1):
        want = np.linalg.norm(blocks - sign * IDENTITY, 2, axis=(1, 2))
        assert np.abs(_phase_distance(blocks, sign) - want).max() <= 1e-12


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


def test_coin_and_kick_expand_in_pauli_matrices(rng):
    """C(a, b) = Re a + i(Im b sx + Re b sy + Im a sz); R_x(theta) = cos theta + i sin theta sx."""
    for _ in range(10):
        a, b = random_su2(rng)
        expansion = a.real * IDENTITY + 1j * (b.imag * SIGMA_X + b.real * SIGMA_Y
                                              + a.imag * SIGMA_Z)
        assert np.allclose(make_coin(a, b), expansion, atol=1e-15)
        theta = rng.uniform(-10.0, 10.0)
        kick = math.cos(theta) * IDENTITY + 1j * math.sin(theta) * SIGMA_X
        assert np.allclose(rotation_x(theta), kick, atol=1e-15)
