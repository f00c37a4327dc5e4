"""Position-space evolution kernels: one vectorized numpy loop per step order,
and an ensemble probe that runs many walks in one loop.

Both step-order kernels take a state's window ``psi`` of shape
``(hi - lo + 1, 2)``, whose row i holds site ``lo + i`` (column 0 is the
spin-up amplitude, column 1 spin-down), advance it through one step per
entry of ``mats`` and return ``(lo, hi, window)``: the new inclusive site
bounds and a newly allocated window of shape ``(hi - lo + 1, 2)`` holding
those sites. They never write to ``psi``.

The state convention: one walk step applies a 2x2 matrix in spin space and a
spin-conditioned shift (up moves one site right, down one site left). The two
step orders are matrix-before-shift, with an optional probe of the spinor at
one site, and shift-before-matrix, with an optional per-site phase applied
after the matrix (the electric walk).

Comoving layout: spin-up and spin-down live in two contiguous arrays. A call
keeps every site of its window (stride 1) unless the window holds one
sublattice: each step moves every amplitude by one site, so a walk that
starts on one site x0 lives only on sites x with x + t = x0 (mod 2), and a
window whose every other site is exactly zero (one-site windows included)
is stepped on its occupied half alone (stride 2). After t of a call's
``steps`` steps, compressed index j holds site ``first + stride * j``, where
``first`` drops by ``stride - 1`` per step. Index j's up amplitude is at
``up[j + steps - t]``; its down amplitude is at ``dn[j - steps + t]`` at
stride 1 and at ``dn[j]`` at stride 2. Either way a shift leaves every
amplitude at its index and moves no data. The first step fills the arrays
from ``psi``; after the last, both offsets are zero and the live part of the
arrays is copied into the returned window. Each step's matrix product is six
ufunc calls on contiguous slices in the operand order of ``m00*u + m01*d``,
and the electric walk's per-site phases are read per parity from contiguous
copies: bit-identical to shifting a zero-padded buffer in place, as the
reference loops in ``tests/conftest.py`` do (BLAS ``matmul`` would round
differently). The matrix entries go in as 0-d array views of the step's
row: a numpy scalar operand rounds the same but is converted to an array
on every call, about half a microsecond of each ufunc call at small
windows, six (eight with phases) times per step. At stride 2 the empty
sublattice is never computed: where those loops leave zeros of either
sign, the returned window holds +0.0, and the origin probe reads +0.0 at
the steps that leave the origin empty. Occupied amplitudes, bounds and
trims are bit-identical.

After every step the kernels zero boundary sites whose four real components
are all below ``TRIM_THRESHOLD`` (1e-200) and shrink the bounds accordingly.
The trim changes the state by less than ~1e-196 per step — far below every
tolerance in use — and keeps the live window proportional to the physically
occupied region, which matters for localized walks: without it their
exponential tails descend into subnormal floats, where hardware arithmetic
is orders of magnitude slower.

The ensemble probe (``probe_ensemble``) advances E matrix-before-shift walks
from one start and returns only their return probabilities. It takes the
same stride rule and layout, with site-major arrays of shape (compressed
sites, E), so a step is the same six ufunc calls with a row of one matrix
entry per walk, each over contiguous rows. Because no final state comes
back, each step keeps only the sites that can still reach the origin (the
light cone), about half the site-steps of a full run, and the arrays hold
about (T + width) / stride rows. All walks share one window, and an edge
site is trimmed only when it is negligible in every walk. A walk's own run
may zero a site that the shared window keeps; for unitary matrices such a
site changes no bit of any return probability (see ``probe_ensemble``).
"""

from __future__ import annotations

import numpy as np

# Boundary sites where every component is below this magnitude are zeroed and
# dropped from the live window after each step. Chosen ~10^108 above the
# smallest normal float (so subnormals never arise) and ~10^190 below every
# tolerance used anywhere in the package.
TRIM_THRESHOLD = 1e-200


def _negligible(u, d):
    """True when every component of the Python complex spinor (u, d) is below the threshold."""
    return (abs(u.real) < TRIM_THRESHOLD and abs(u.imag) < TRIM_THRESHOLD
            and abs(d.real) < TRIM_THRESHOLD and abs(d.imag) < TRIM_THRESHOLD)


def _trim_bounds(up, dn, lo, hi, drift, dn_drift):
    """Drop negligible edge sites; compressed site j is at up[j + drift], dn[j - dn_drift]."""
    while hi > lo and _negligible(up.item(hi + drift), dn.item(hi - dn_drift)):
        up[hi + drift] = 0.0
        dn[hi - dn_drift] = 0.0
        hi -= 1
    while lo < hi and _negligible(up.item(lo + drift), dn.item(lo - dn_drift)):
        up[lo + drift] = 0.0
        dn[lo - dn_drift] = 0.0
        lo += 1
    return lo, hi


def _stride(psi):
    """2 when ``psi`` holds one sublattice (odd length, rows 1, 3, ... exactly zero), else 1."""
    return 2 if psi.shape[0] % 2 and not psi[1:-1:2].any() else 1


def _layout(psi, lo, hi, steps):
    """The compressed layout of a call: stride, first site, window, four arrays.

    The stride is ``_stride(psi)``. Returns the site of compressed index 0,
    the compressed bounds of [lo, hi], and two zeroed comoving arrays and
    two scratch arrays, each with room for the widest compressed window.
    """
    stride = _stride(psi)
    dn_rate = 2 - stride
    size = (hi - lo + 2 * steps) // stride + 1
    arrays = (np.zeros(size, dtype=complex), np.zeros(size, dtype=complex),
              np.empty(size, dtype=complex), np.empty(size, dtype=complex))
    return (stride, lo - dn_rate * steps, dn_rate * steps,
            dn_rate * steps + (hi - lo) // stride, arrays)


def _window(up, dn, lo, hi, first, stride):
    """The final arrays (drift zero) as ``(lo, hi, window)`` in sites.

    Compressed site j is site ``first + stride * j``; parity-empty sites hold +0.0.
    """
    window = np.zeros((stride * (hi - lo) + 1, 2), dtype=complex)
    window[::stride, 0] = up[lo:hi + 1]
    window[::stride, 1] = dn[lo:hi + 1]
    return first + stride * lo, first + stride * hi, window


def _spin_product(m, u, d, u_out, d_out, x, y, phase=None):
    """(u_out, d_out) <- m @ (u, d) site by site, then times ``phase`` if given.

    ``m`` holds the matrix entries m00, m01, m10, m11 along its first axis:
    shape (4,) for one walk, (4, E) for an ensemble. Each entry is read as
    the view ``m[i, ...]``, 0-d for one walk (numpy would turn an unpacked
    numpy scalar into an array on every call) and a row of one entry per
    walk for an ensemble. The outputs may be the inputs, and are passed
    positionally; ``x`` and ``y`` are scratch. Each matrix product goes to
    contiguous memory other than its input, because numpy rounds a complex
    product differently when its output is strided or, for one element, its
    own input. The phase is applied in place, as the reference loops do.
    """
    n = u.shape[0]
    x, y = x[:n], y[:n]
    np.multiply(m[0, ...], u, x)
    np.multiply(m[2, ...], u, y)
    np.multiply(m[1, ...], d, u_out)
    np.add(x, u_out, u_out)
    np.multiply(m[3, ...], d, x)
    np.add(y, x, d_out)
    if phase is not None:
        np.multiply(u_out, phase, u_out)
        np.multiply(d_out, phase, d_out)


def steps_matrix_then_shift(psi, lo, hi, mats, origin=None, out_spinor=None):
    """Apply ``mats[t]`` then the shift for each t.

    When ``origin`` is given, ``out_spinor[t]`` receives the (up, down)
    spinor at site ``origin`` after step t: zero whenever ``origin`` lies
    outside the live window or on the sublattice the window leaves empty.
    """
    steps = mats.shape[0]
    entries = mats.reshape(steps, 4)
    stride, first, lo, hi, (up, dn, x, y) = _layout(psi, lo, hi, steps)
    dn_rate = 2 - stride  # compressed sites a down amplitude moves left per step
    for t in range(steps):
        drift = steps - t - 1
        dn_drift = dn_rate * drift
        # compressed site j's new up (down) amplitude belongs to j + 1
        # (j - dn_rate), whose index after this step is the one j's had before it
        u = up[lo + drift + 1:hi + drift + 2]
        d = dn[lo - dn_drift - dn_rate:hi - dn_drift - dn_rate + 1]
        if t == 0:  # the first product reads psi and fills the comoving arrays
            _spin_product(entries[0], psi[::stride, 0], psi[::stride, 1], u, d, x, y)
        else:
            _spin_product(entries[t], u, d, u, d, x, y)
        first -= stride - 1
        lo, hi = _trim_bounds(up, dn, lo - dn_rate, hi + 1, drift, dn_drift)
        if origin is not None:
            j, off = divmod(origin - first, stride)
            if off == 0 and lo <= j <= hi:
                out_spinor[t, 0] = up[j + drift]
                out_spinor[t, 1] = dn[j - dn_drift]
            else:
                out_spinor[t] = 0.0
    return _window(up, dn, lo, hi, first, stride)


def spinor_probabilities(ups, downs):
    """|u|^2 + |d|^2 for each spinor, over sequences of Python complex values.

    Python's ``abs`` and ``** 2`` round exactly as numpy's scalar forms do;
    ``np.abs`` on a complex array differs from them in the last ulp, and so
    does numpy's squaring (``x * x``, or ``np.power`` with an array exponent)
    for some values.
    """
    return [abs(u) ** 2 + abs(d) ** 2 for u, d in zip(ups, downs)]


def _trim_shared(up, dn, lo, hi, ui, di):
    """``_trim_bounds`` for walks that share the window [lo, hi].

    Walk r's site i is at up[i + ui, r] and dn[i + di, r]. An edge site is
    dropped only when it is negligible in every walk. Walk 0 is checked
    first with ``_negligible`` on its two scalars, as ``_trim_bounds`` does:
    an edge that walk 0 holds, the usual case, stays without a numpy
    reduction. Every trim decision is the every-walk rule's.
    """
    for inward in (-1, 1):
        while hi > lo:
            i = hi if inward < 0 else lo
            if not _negligible(up.item(i + ui, 0), dn.item(i + di, 0)):
                break
            u, d = up[i + ui], dn[i + di]
            # the part the shift brings to this edge (up on the right, down on
            # the left) is usually the large one; a modulus of at least twice
            # the threshold in any walk puts a component above it
            if np.abs(u if inward < 0 else d).max() >= 2.0 * TRIM_THRESHOLD:
                break
            if not all(_negligible(p, q) for p, q in zip(u.tolist(), d.tolist())):
                break
            up[i + ui] = 0.0
            dn[i + di] = 0.0
            if inward < 0:
                hi -= 1
            else:
                lo += 1
    return lo, hi


def _step_entries(blocks, walks):
    """Per-step matrix entries, shape (4, E), from consecutive (n, 2, 2, E) blocks.

    One walk gets rows of shape (4,), whose entries ``_spin_product`` reads
    as 0-d arrays, as ``steps_matrix_then_shift`` does. A (4, 1) row would
    give entries of shape (1,), which broadcast as a one-element array: that
    takes another numpy loop for a one-site product and rounds differently.
    """
    for block in blocks:
        entries = block.reshape(block.shape[0], 4, walks)
        yield from (entries[:, :, 0] if walks == 1 else entries)


def probe_ensemble(psi, origin, steps, walks, blocks):
    """Return probabilities at row ``origin`` of ``psi`` of E walks that share a start.

    ``blocks`` yields the step matrices as consecutive arrays of shape
    (n, 2, 2, E) that cover the T = ``steps`` steps; walk e applies matrix
    [t, :, :, e] then the shift at step t, as ``steps_matrix_then_shift``
    does, to the window ``psi`` of shape (width, 2). ``origin`` may lie
    outside the window. Returns p0 of shape (E, T + 1): p0[e, t] is walk e's
    |up|^2 + |down|^2 at the origin after t steps.

    The layout is ``steps_matrix_then_shift``'s, in comoving arrays of shape
    (compressed sites, E): stride 2 when ``psi`` holds one sublattice, else
    1, and after t steps compressed index j holds row ``first + stride * j``,
    where ``first`` starts at 0 and drops by ``stride - 1`` per step. No final
    state comes back, so each step keeps only the light cone, the rows within
    T - t of the origin: compressed [c_lo + t, c_hi - (2 - stride) * t], with
    c_lo and c_hi the ceiling and floor of (origin -/+ T) / stride, so the
    arrays need about (T + width) / stride rows. At stride 2 p0 is read only
    at the steps that put the origin on the occupied sublattice; at the
    others it stays +0.0, as |u|^2 + |d|^2 gives for zeros of either sign.
    All walks share one window [lo, hi], and an edge site is trimmed only
    when it is negligible in every walk.

    For unitary matrices every p0 is bit for bit the value the walk's own
    origin-probed ``steps_matrix_then_shift`` run gives. The two runs differ
    only at edge sites that one zeroes and the other keeps: sites the walk's
    own run trims but another walk keeps in the shared window, and, where the
    cone cuts a window, sites at the cut. Each such site has norm below
    2 * ``TRIM_THRESHOLD``, and unitary steps never grow a difference, so
    after T steps every amplitude differs by less than (width + 2T) * 2e-200.
    That can change a bit of an amplitude u only where |u| < ~1e-178, and
    there |u|^2 underflows to zero, so p0 keeps its bits.
    """
    p0 = np.zeros((walks, steps + 1))
    if 0 <= origin < psi.shape[0]:
        p0[:, 0] = spinor_probabilities([psi.item(origin, 0)], [psi.item(origin, 1)])
    stride = _stride(psi)
    dn_rate = 2 - stride  # compressed sites a down amplitude moves left per step
    cone_lo, cone_hi = -((steps - origin) // stride), (origin + steps) // stride
    lo, hi = max(0, cone_lo), min((psi.shape[0] - 1) // stride, cone_hi)
    if lo > hi:
        return p0
    # After t steps compressed site j's up amplitude is at up[j + steps - t - ub]
    # and its down amplitude at dn[j - dn_rate * (steps - t) - db]; the rows
    # span every index the cone and the window growth can reach.
    ub, db = max(cone_lo + steps, lo - dn_rate * steps), lo - dn_rate * steps
    up = np.zeros((hi + steps - ub + 1, walks), dtype=complex)
    dn = np.zeros((min(cone_hi - dn_rate * steps, hi + steps) - db + 1, walks), dtype=complex)
    x, y = np.empty_like(up), np.empty_like(up)
    first = 0
    for t, m in enumerate(_step_entries(blocks, walks)):
        drift = steps - t - 1
        dn_drift = dn_rate * drift
        u = up[lo + drift + 1 - ub:hi + drift + 2 - ub]
        d = dn[lo - dn_drift - dn_rate - db:hi - dn_drift - dn_rate + 1 - db]
        if t == 0:
            rows = slice(stride * lo, stride * hi + 1, stride)
            _spin_product(m, psi[rows, 0:1], psi[rows, 1:2], u, d, x, y)
        else:
            _spin_product(m, u, d, u, d, x, y)
        first -= stride - 1
        # grow by one site, clip to the cone of half-width drift, trim
        ui, di = drift - ub, -dn_drift - db
        lo, hi = max(lo - dn_rate, cone_lo + t + 1), min(hi + 1, cone_hi - dn_rate * (t + 1))
        lo, hi = _trim_shared(up, dn, lo, hi, ui, di)
        # the origin's slots hold zeros while the window misses it
        j, off = divmod(origin - first, stride)
        if off == 0 and 0 <= j + ui < up.shape[0] and 0 <= j + di < dn.shape[0]:
            p0[:, t + 1] = spinor_probabilities(up[j + ui].tolist(), dn[j + di].tolist())
    return p0


def steps_shift_then_matrix(psi, lo, hi, mats, site_phase=None):
    """Apply the shift then ``mats[t]`` for each t.

    When ``site_phase`` is given, ``site_phase[i]`` is the phase of site
    ``lo - steps + i``, for every site the call can reach; each site's new
    spinor is multiplied by its phase after the matrix product.
    """
    steps = mats.shape[0]
    entries = mats.reshape(steps, 4)
    phase_site = lo - steps  # the site of site_phase[0]
    stride, first, lo, hi, (up, dn, x, y) = _layout(psi, lo, hi, steps)
    dn_rate = 2 - stride  # compressed sites a down amplitude moves left per step
    # the copy into the comoving arrays is the first shift
    up[lo + steps:hi + steps + 1] = psi[::stride, 0]
    dn[lo - dn_rate * steps:hi - dn_rate * steps + 1] = psi[::stride, 1]
    phase = None
    if site_phase is not None:
        # phase index stride * k + p is at phases[p][k], in contiguous memory
        phases = [np.ascontiguousarray(site_phase[p::stride]) for p in range(stride)]
    for t in range(steps):
        drift = steps - t - 1
        dn_drift = dn_rate * drift
        first -= stride - 1
        lo -= dn_rate
        hi += 1
        u = up[lo + drift:hi + drift + 1]
        d = dn[lo - dn_drift:hi - dn_drift + 1]
        if site_phase is not None:
            k, p = divmod(first + stride * lo - phase_site, stride)
            phase = phases[p][k:k + hi - lo + 1]
        _spin_product(entries[t], u, d, u, d, x, y, phase)
        lo, hi = _trim_bounds(up, dn, lo, hi, drift, dn_drift)
    return _window(up, dn, lo, hi, first, stride)
