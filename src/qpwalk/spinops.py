"""Spin-1/2 operators: the x-rotation, coin construction and 2x2 unitaries.

Rotation convention
-------------------
``rotation_x(phi)`` returns exp(i*phi*sigma_x) = cos(phi)*I + i*sin(phi)*sigma_x.
Under this convention ``rotation_x(2*pi*n/m)`` has exact period m in the angle
multiple, which is what the revival analysis requires.
"""

from __future__ import annotations

import math

import numpy as np

UNITARY_TOL = 1e-12


def rotation_x(angle: float) -> np.ndarray:
    """Return exp(i*angle*sigma_x) as a 2x2 complex array."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 1j * s], [1j * s, c]])


def make_coin(a: complex, b: complex) -> np.ndarray:
    """Build the special-unitary coin [[a, b], [-conj(b), conj(a)]].

    Raises
    ------
    ValueError
        If |a|^2 + |b|^2 is not finite or deviates from 1 by more than 1e-10.
    """
    try:
        norm = float(abs(a)) ** 2 + float(abs(b)) ** 2
    except OverflowError:  # a square beyond the float range
        norm = math.inf
    if not math.isfinite(norm) or abs(norm - 1.0) > 1e-10:
        raise ValueError(f"coin entries must satisfy |a|^2+|b|^2=1, got {norm!r}")
    a, b = complex(a), complex(b)
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Check U @ U^dagger = I entrywise within tol."""
    u = np.asarray(u, dtype=complex)
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= tol)


def eigenbasis_unitary2(r: np.ndarray, degenerate_tol: float = 1e-9):
    """Diagonalize a 2x2 unitary: return (B, lam1, lam2) with B @ r @ B^dagger diagonal.

    B is exactly unitary by construction (its second row is built as the
    orthogonal complement of the first), which keeps conjugation trustworthy
    even when r is within float noise of a scalar matrix. For nearly scalar r
    (eigenvalue gap below ``degenerate_tol``) B is the identity; any
    orthonormal basis diagonalizes a scalar.
    """
    r = np.asarray(r, dtype=complex)
    if not is_unitary(r, tol=1e-10):
        raise ValueError("matrix is not unitary within 1e-10")
    tr = r[0, 0] + r[1, 1]
    det = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    disc = np.sqrt(complex(tr * tr - 4.0 * det))
    lam1 = (tr + disc) / 2.0
    lam2 = (tr - disc) / 2.0
    if abs(lam1 - lam2) < degenerate_tol:
        return np.eye(2, dtype=complex), lam1, lam2
    v1a = np.array([r[0, 1], lam1 - r[0, 0]])
    v1b = np.array([lam1 - r[1, 1], r[1, 0]])
    v1 = v1a if np.linalg.norm(v1a) >= np.linalg.norm(v1b) else v1b
    v1 = v1 / np.linalg.norm(v1)
    v2 = np.array([-np.conj(v1[1]), np.conj(v1[0])])
    basis = np.column_stack([v1, v2]).conj().T
    diag = basis @ r @ basis.conj().T
    if abs(diag[0, 1]) + abs(diag[1, 0]) > 1e-8:
        raise ValueError("failed to diagonalize input; matrix may not be normal")
    return basis, diag[0, 0], diag[1, 1]
