"""Position-space evolution kernels: one vectorized numpy loop per step order.

Both kernels work in place on a preallocated buffer ``psi`` of shape
``(width, 2)`` (column 0 is the spin-up amplitude, column 1 spin-down) and
return the updated inclusive support bounds ``(lo, hi)``. Callers must size
``psi`` so that ``lo - steps >= 0`` and ``hi + steps < width``.

After every step the kernels zero boundary sites whose four real components
are all below ``TRIM_THRESHOLD`` (1e-200) and shrink the bounds accordingly.
Everything outside the returned bounds is exactly zero. The trim changes the
state by less than ~1e-196 per step — far below every tolerance in use — and
keeps the live window proportional to the physically occupied region, which
matters for localized walks: without it their exponential tails descend into
subnormal floats, where hardware arithmetic is orders of magnitude slower.

The state convention: one walk step applies a 2x2 matrix in spin space and a
spin-conditioned shift (up moves one site right, down one site left). The two
step orders are matrix-before-shift, with an optional probe of the return
probability at one buffer index, and shift-before-matrix, with an optional
per-site phase applied after the matrix (the electric walk).
"""

from __future__ import annotations

# Boundary sites where every component is below this magnitude are zeroed and
# dropped from the live window after each step. Chosen ~10^108 above the
# smallest normal float (so subnormals never arise) and ~10^190 below every
# tolerance used anywhere in the package.
TRIM_THRESHOLD = 1e-200


def _trim_bounds(psi, lo, hi):
    while hi > lo:
        u = psi[hi, 0]
        d = psi[hi, 1]
        if (abs(u.real) < TRIM_THRESHOLD and abs(u.imag) < TRIM_THRESHOLD
                and abs(d.real) < TRIM_THRESHOLD and abs(d.imag) < TRIM_THRESHOLD):
            psi[hi, 0] = 0.0
            psi[hi, 1] = 0.0
            hi -= 1
        else:
            break
    while lo < hi:
        u = psi[lo, 0]
        d = psi[lo, 1]
        if (abs(u.real) < TRIM_THRESHOLD and abs(u.imag) < TRIM_THRESHOLD
                and abs(d.real) < TRIM_THRESHOLD and abs(d.imag) < TRIM_THRESHOLD):
            psi[lo, 0] = 0.0
            psi[lo, 1] = 0.0
            lo += 1
        else:
            break
    return lo, hi


def steps_matrix_then_shift(psi, lo, hi, mats, origin=None, out_p0=None):
    """Apply ``mats[t]`` then the shift for each t.

    When ``origin`` is given, ``out_p0[t]`` receives the probability at buffer
    index ``origin`` after step t.
    """
    for t in range(mats.shape[0]):
        m = mats[t]
        block = psi[lo:hi + 1]
        up = m[0, 0] * block[:, 0] + m[0, 1] * block[:, 1]
        dn = m[1, 0] * block[:, 0] + m[1, 1] * block[:, 1]
        psi[lo - 1:hi + 2] = 0.0
        psi[lo + 1:hi + 2, 0] = up
        psi[lo - 1:hi, 1] = dn
        lo -= 1
        hi += 1
        lo, hi = _trim_bounds(psi, lo, hi)
        if origin is not None:
            out_p0[t] = abs(psi[origin, 0]) ** 2 + abs(psi[origin, 1]) ** 2
    return lo, hi


def steps_shift_then_matrix(psi, lo, hi, mats, site_phase=None):
    """Apply the shift then ``mats[t]`` for each t.

    When ``site_phase`` is given (one entry per buffer index), each site's
    new spinor is multiplied by its phase after the matrix product.
    """
    for t in range(mats.shape[0]):
        m = mats[t]
        up = psi[lo:hi + 1, 0].copy()
        dn = psi[lo:hi + 1, 1].copy()
        psi[lo - 1:hi + 2] = 0.0
        psi[lo + 1:hi + 2, 0] = up
        psi[lo - 1:hi, 1] = dn
        lo -= 1
        hi += 1
        block = psi[lo:hi + 1]
        new_up = m[0, 0] * block[:, 0] + m[0, 1] * block[:, 1]
        new_dn = m[1, 0] * block[:, 0] + m[1, 1] * block[:, 1]
        if site_phase is not None:
            ph = site_phase[lo:hi + 1]
            new_up *= ph
            new_dn *= ph
        block[:, 0] = new_up
        block[:, 1] = new_dn
        lo, hi = _trim_bounds(psi, lo, hi)
    return lo, hi
