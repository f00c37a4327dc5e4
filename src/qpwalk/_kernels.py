"""Position-space evolution kernels: one vectorized numpy loop per step order.

Both kernels advance a preallocated buffer ``psi`` of shape ``(width, 2)``
(column 0 is the spin-up amplitude, column 1 spin-down) in place through one
step per entry of ``mats`` and return the updated inclusive support bounds
``(lo, hi)``. Callers must size ``psi`` so that ``lo - steps >= 0`` and
``hi + steps < width``.

The state convention: one walk step applies a 2x2 matrix in spin space and a
spin-conditioned shift (up moves one site right, down one site left). The two
step orders are matrix-before-shift, with an optional probe of the spinor at
one buffer index, and shift-before-matrix, with an optional per-site phase
applied after the matrix (the electric walk).

Comoving layout: spin-up and spin-down live in two contiguous arrays of
length ``width``. After t of a call's ``steps`` steps, site i's up amplitude
is at index ``i + steps - t`` and its down amplitude at ``i - steps + t``, so
a shift leaves every amplitude at its index and moves no data. The first step
fills the arrays from ``psi``; after the last, both offsets are zero and the
arrays are copied back. Each step's matrix product is six ufunc calls on
contiguous slices in the operand order of ``m00*u + m01*d``: bit-identical to
shifting ``psi`` in place, as the reference loops in ``tests/conftest.py``
do (BLAS ``matmul`` would round differently).

After every step the kernels zero boundary sites whose four real components
are all below ``TRIM_THRESHOLD`` (1e-200) and shrink the bounds accordingly.
Everything outside the returned bounds is exactly zero. The trim changes the
state by less than ~1e-196 per step — far below every tolerance in use — and
keeps the live window proportional to the physically occupied region, which
matters for localized walks: without it their exponential tails descend into
subnormal floats, where hardware arithmetic is orders of magnitude slower.
"""

from __future__ import annotations

import numpy as np

# Boundary sites where every component is below this magnitude are zeroed and
# dropped from the live window after each step. Chosen ~10^108 above the
# smallest normal float (so subnormals never arise) and ~10^190 below every
# tolerance used anywhere in the package.
TRIM_THRESHOLD = 1e-200


def _trim_bounds(up, dn, lo, hi, drift):
    """Drop negligible boundary sites; site i is at up[i + drift], dn[i - drift]."""
    while hi > lo:
        u = up[hi + drift]
        d = dn[hi - drift]
        if (abs(u.real) < TRIM_THRESHOLD and abs(u.imag) < TRIM_THRESHOLD
                and abs(d.real) < TRIM_THRESHOLD and abs(d.imag) < TRIM_THRESHOLD):
            up[hi + drift] = 0.0
            dn[hi - drift] = 0.0
            hi -= 1
        else:
            break
    while lo < hi:
        u = up[lo + drift]
        d = dn[lo - drift]
        if (abs(u.real) < TRIM_THRESHOLD and abs(u.imag) < TRIM_THRESHOLD
                and abs(d.real) < TRIM_THRESHOLD and abs(d.imag) < TRIM_THRESHOLD):
            up[lo + drift] = 0.0
            dn[lo - drift] = 0.0
            lo += 1
        else:
            break
    return lo, hi


def _merge(psi, lo0, hi0, up, dn, lo, hi):
    """Copy the final arrays (drift zero) back over the old and the new window."""
    a, b = min(lo, lo0), max(hi, hi0) + 1
    psi[a:b, 0] = up[a:b]
    psi[a:b, 1] = dn[a:b]


def _spin_product(m, u, d, u_out, d_out, x, y, phase=None):
    """(u_out, d_out) <- m @ (u, d) site by site, then times ``phase`` if given.

    The outputs may be the inputs; ``x`` and ``y`` are scratch. Each matrix
    product goes to contiguous memory other than its input, because numpy
    rounds a complex product differently when its output is strided or, for
    one element, its own input. The phase is applied in place, as the
    reference loops do.
    """
    n = u.shape[0]
    x, y = x[:n], y[:n]
    m00, m01, m10, m11 = m.flat
    np.multiply(m00, u, out=x)
    np.multiply(m10, u, out=y)
    np.multiply(m01, d, out=u_out)
    np.add(x, u_out, out=u_out)
    np.multiply(m11, d, out=x)
    np.add(y, x, out=d_out)
    if phase is not None:
        np.multiply(u_out, phase, out=u_out)
        np.multiply(d_out, phase, out=d_out)


def _workspace(psi, lo, hi, steps):
    """Zeroed comoving arrays the size of ``psi``; two scratch arrays for the widest window."""
    width = hi - lo + 1 + 2 * steps
    return (np.zeros(psi.shape[0], dtype=complex), np.zeros(psi.shape[0], dtype=complex),
            np.empty(width, dtype=complex), np.empty(width, dtype=complex))


def steps_matrix_then_shift(psi, lo, hi, mats, origin=None, out_spinor=None):
    """Apply ``mats[t]`` then the shift for each t.

    When ``origin`` is given, ``out_spinor[t]`` receives the (up, down)
    spinor at buffer index ``origin`` after step t: zero whenever ``origin``
    lies outside the live window, including outside the buffer.
    """
    steps = mats.shape[0]
    lo0, hi0 = lo, hi
    up, dn, x, y = _workspace(psi, lo, hi, steps)
    for t in range(steps):
        drift = steps - t - 1
        # site i's new up (down) amplitude belongs to site i + 1 (i - 1), whose
        # index after this step is the one site i's amplitude had before it
        u = up[lo + drift + 1:hi + drift + 2]
        d = dn[lo - drift - 1:hi - drift]
        if t == 0:  # the first product reads psi and fills the comoving arrays
            _spin_product(mats[0], psi[lo:hi + 1, 0], psi[lo:hi + 1, 1], u, d, x, y)
        else:
            _spin_product(mats[t], u, d, u, d, x, y)
        lo, hi = _trim_bounds(up, dn, lo - 1, hi + 1, drift)
        if origin is not None:
            if lo <= origin <= hi:
                out_spinor[t, 0] = up[origin + drift]
                out_spinor[t, 1] = dn[origin - drift]
            else:
                out_spinor[t] = 0.0
    _merge(psi, lo0, hi0, up, dn, lo, hi)
    return lo, hi


def steps_shift_then_matrix(psi, lo, hi, mats, site_phase=None):
    """Apply the shift then ``mats[t]`` for each t.

    When ``site_phase`` is given (one entry per buffer index), each site's
    new spinor is multiplied by its phase after the matrix product.
    """
    steps = mats.shape[0]
    lo0, hi0 = lo, hi
    up, dn, x, y = _workspace(psi, lo, hi, steps)
    # the copy into the comoving arrays is the first shift
    up[lo + steps:hi + steps + 1] = psi[lo:hi + 1, 0]
    dn[lo - steps:hi - steps + 1] = psi[lo:hi + 1, 1]
    for t in range(steps):
        drift = steps - t - 1
        lo -= 1
        hi += 1
        u = up[lo + drift:hi + drift + 1]
        d = dn[lo - drift:hi - drift + 1]
        phase = None if site_phase is None else site_phase[lo:hi + 1]
        _spin_product(mats[t], u, d, u, d, x, y, phase)
        lo, hi = _trim_bounds(up, dn, lo, hi, drift)
    _merge(psi, lo0, hi0, up, dn, lo, hi)
    return lo, hi
