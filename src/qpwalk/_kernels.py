"""Position-space evolution kernels: one step loop (``_steps``) behind three
entry points, one per step order and an origin probe that runs one walk or
many.

Both step-order kernels take a state's window ``psi`` of shape
``(hi - lo + 1, 2)``, whose row i holds site ``lo + i`` (column 0 is the
spin-up amplitude, column 1 spin-down), advance it through one step per
entry of ``mats`` and return ``(lo, hi, window)``: the new inclusive site
bounds and a newly allocated window of shape ``(hi - lo + 1, 2)`` holding
those sites. They never write to ``psi``.

The state convention: one walk step applies a 2x2 matrix in spin space and a
spin-conditioned shift (up moves one site right, down one site left). The two
step orders are matrix-before-shift and shift-before-matrix, the latter with
an optional per-site phase applied after the matrix (the electric walk).

Comoving layout: spin-up and spin-down live in two contiguous arrays. A call
keeps every site of its window (stride 1) unless the window holds one
sublattice: each step moves every amplitude by one site, so a walk that
starts on one site x0 lives only on sites x with x + t = x0 (mod 2), and a
window whose every other site is exactly zero (one-site windows included) is
stepped on its occupied half alone (stride 2). After t of a call's ``steps``
steps, compressed index j holds site ``first + stride * j``, where ``first``
drops by ``stride - 1`` per step. Index j's up amplitude is at
``up[j + steps - t]``; its down amplitude is at ``dn[j - steps + t]`` at
stride 1 and at ``dn[j]`` at stride 2. Either way a shift leaves every
amplitude at its index and moves no data. A call first copies ``psi`` into
the arrays; after the last step both offsets are zero and the live part of
the arrays is copied into the returned window.

``_steps`` runs every step of all three kernels: the shift's bookkeeping
(before the product in shift-before-matrix, after it otherwise), the
product, the electric walk's phase or the probe's cone, and the trim. It
computes each product inline as numpy ufunc calls on contiguous slices,
under three rules:

- Operand order. A step takes six calls in the operand order of
  ``m00*u + m01*d``: m10*u to scratch, then m00*u into u, m01*d to
  scratch, their sum into u, m11*d into d and m10*u + m11*d into d. Every
  sum writes into one of its operands, which numpy (2.4, x86-64) does in
  about half the time of a sum into a third array, and a product into its
  own input rounds as one into other memory.
- One element. That last holds except for one element: one walk's step
  on a one-site window (the first matrix-before-shift step of every
  single-site walk, or a window trimmed to one site) takes the six calls
  that write no product into its input (m00*u, m10*u and m11*d to
  scratch, m01*d into u). Shift-before-matrix grows the window before the
  product, so it never meets one.
- Balanced. A balanced step (``_balanced``: m11 has the bits of m01 in
  every walk), as every step of the Hadamard walk is, takes five calls and
  no second scratch array: m11*d would repeat m01*d bit for bit, so m01*d
  goes into d, u' = m00*u + m01*d into u and d' = m10*u + m01*d into d.
  The operands and their order are the six calls', so every bit is
  theirs, zeros of either sign and NaN payloads included. The flags come
  from the entries, once per block; one walk's single step
  (``walk.evolve(state, t, t, params)``) is not checked, as the check
  would cost about what it saves.

No product is written to strided memory, where numpy rounds differently
too. The electric walk's per-site phases are read per parity from
contiguous copies and applied in place. All of it is bit-identical to
shifting a zero-padded buffer in place, as the reference loops in
``tests/conftest.py`` do (BLAS ``matmul`` would round differently).

One walk's matrix entries go in as 0-d array views
(``_step_entries``): a numpy scalar operand rounds the same but is
converted to an array on every call, about half a microsecond of each ufunc
call at small windows. The views are made once per call, of a buffer that
takes a copy of each step's matrix, which is cheaper than four new views
a step; a ``mats`` that repeats one matrix (stride 0 on the step axis, as
the electric walk's coin) is copied once. At stride 2 the empty sublattice
is never computed: where the reference loops leave zeros of either sign,
the returned window holds +0.0. Occupied amplitudes, bounds and trims are
bit-identical.

After every step the loop zeroes boundary sites whose four real components
are all below ``TRIM_THRESHOLD`` (1e-200) and shrinks the bounds accordingly
(``_trim``; one walk's edges are read as Python scalars, with no call per
site). The trim changes the state by less than ~1e-196 per step — far
below every tolerance in use — and keeps the live window proportional to the
physically occupied region, which matters for localized walks: without it
their exponential tails descend into subnormal floats, where hardware
arithmetic is orders of magnitude slower.

The origin probe (``probe_ensemble``) advances E >= 1 matrix-before-shift
walks from one start and hands back their spinors at one site, step by step.
It takes the same stride rule and layout, with a column per walk when E > 1.
No final state comes back, so each step keeps only the light cone: the sites
that can still reach the origin, about half the site-steps of a full run.
All walks share one window, and an edge site is trimmed only where it is
negligible in every walk. The probe's origin components therefore differ
from those of a walk's own full run by less than (width + 2T) * 2e-200,
which can change the bits of a component only where it is below about
1e-178 (see ``probe_ensemble``).
"""

from __future__ import annotations

import itertools

import numpy as np

# Boundary sites where every component is below this magnitude are zeroed and
# dropped from the live window after each step. Chosen ~10^108 above the
# smallest normal float (so subnormals never arise) and ~10^190 below every
# tolerance used anywhere in the package.
TRIM_THRESHOLD = 1e-200


def _negligible(lead, i, other, j):
    """True when the site at rows lead[i] and other[j] is below the threshold in all E walks.

    ``lead`` is the part the shift brings to the edge being checked (``up``
    on the right, ``dn`` on the left), usually the larger one, so walk 0's
    lead is read first: at an edge that walk 0 holds, the usual case, one
    Python scalar decides and no numpy call runs. A lead modulus of at least
    twice the threshold in any walk puts a component above it.
    """
    z = lead.item(i, 0)
    if not (abs(z.real) < TRIM_THRESHOLD and abs(z.imag) < TRIM_THRESHOLD):
        return False
    if np.abs(lead[i]).max() >= 2.0 * TRIM_THRESHOLD:
        return False
    return all(abs(z.real) < TRIM_THRESHOLD and abs(z.imag) < TRIM_THRESHOLD
               for z in lead[i].tolist() + other[j].tolist())


def _trim(up, dn, lo, hi, ui, di):
    """Zero and drop the edge sites of [lo, hi] negligible in every walk; return the bounds.

    Compressed site i is at up[i + ui] and dn[i + di], an element for one
    walk and a row of E for E walks. The right edge is trimmed first, then
    the left; at least one site is kept. One walk's edge is read as Python
    scalars, the lead part first (see ``_negligible``), with no further call.
    """
    if up.ndim == 2:
        while hi > lo and _negligible(up, hi + ui, dn, hi + di):
            up[hi + ui] = dn[hi + di] = 0.0
            hi -= 1
        while lo < hi and _negligible(dn, lo + di, up, lo + ui):
            up[lo + ui] = dn[lo + di] = 0.0
            lo += 1
        return lo, hi
    up_at, dn_at, tiny = up.item, dn.item, TRIM_THRESHOLD
    while hi > lo:
        z = up_at(hi + ui)
        if not (abs(z.real) < tiny and abs(z.imag) < tiny):
            break
        z = dn_at(hi + di)
        if not (abs(z.real) < tiny and abs(z.imag) < tiny):
            break
        up[hi + ui] = dn[hi + di] = 0.0
        hi -= 1
    while lo < hi:
        z = dn_at(lo + di)
        if not (abs(z.real) < tiny and abs(z.imag) < tiny):
            break
        z = up_at(lo + ui)
        if not (abs(z.real) < tiny and abs(z.imag) < tiny):
            break
        up[lo + ui] = dn[lo + di] = 0.0
        lo += 1
    return lo, hi


def _stride(psi):
    """2 when ``psi`` holds one sublattice (odd length, rows 1, 3, ... exactly zero), else 1."""
    return 2 if psi.shape[0] % 2 and not psi[1:-1:2].any() else 1


def _layout(psi, lo, hi, steps):
    """The compressed layout of a one-walk call: stride, first site, window, four arrays.

    The stride is ``_stride(psi)``. Returns the site of compressed index 0,
    the compressed bounds of [lo, hi], and the two comoving arrays, holding
    ``psi`` before the first step and zeros elsewhere, and two scratch
    arrays, each with room for the widest compressed window.
    """
    stride = _stride(psi)
    dn_rate = 2 - stride
    size = (hi - lo + 2 * steps) // stride + 1
    up, dn = np.zeros(size, dtype=complex), np.zeros(size, dtype=complex)
    c_lo, c_hi = dn_rate * steps, dn_rate * steps + (hi - lo) // stride
    up[c_lo + steps:c_hi + steps + 1] = psi[::stride, 0]
    dn[:c_hi - c_lo + 1] = psi[::stride, 1]
    return (stride, lo - dn_rate * steps, c_lo, c_hi,
            (up, dn, np.empty(size, dtype=complex), np.empty(size, dtype=complex)))


def _window(up, dn, lo, hi, first, stride):
    """The final arrays (offsets zero) as ``(lo, hi, window)`` in sites.

    Compressed site j is site ``first + stride * j``; parity-empty sites hold +0.0.
    """
    window = np.zeros((stride * (hi - lo) + 1, 2), dtype=complex)
    window[::stride, 0] = up[lo:hi + 1]
    window[::stride, 1] = dn[lo:hi + 1]
    return first + stride * lo, first + stride * hi, window


def _steps(up, dn, x, y, lo, hi, ui, di, dn_rate, entries, shift_first=False, phase=None,
           cone=None):
    """Run one step per ``_step_entries`` tuple of ``entries``; after step t, yield
    ``(t, lo, hi, ui, di)``.

    Compressed site j's up amplitude is at ``up[j + ui]`` and its down
    amplitude at ``dn[j + di]``; ``x`` and ``y`` are scratch arrays as long
    as ``up``. A shift moves no data: it grows [lo, hi] by ``dn_rate``
    sites on the left and one on the right, drops ui by one and adds
    ``dn_rate`` to di. It follows the product, or precedes it when
    ``shift_first``; then ``phase(t, lo, n)``, if given, returns the phases
    of the n sites from lo, applied after the product. ``cone`` = (c_lo,
    c_hi), if given, clips the window after step t's shift to [c_lo + t,
    c_hi - dn_rate * t]. ``_trim`` ends every step.
    """
    mul, add = np.multiply, np.add
    one_walk = up.ndim == 1
    clip = cone is not None
    if clip:
        cone_lo, cone_hi = cone
    for t, (balanced, m00, m01, m10, m11) in enumerate(entries, 1):
        if shift_first:
            lo -= dn_rate
            hi += 1
            ui -= 1
            di += dn_rate
        n = hi - lo + 1
        u = up[lo + ui:hi + ui + 1]
        d = dn[lo + di:hi + di + 1]
        ys = y[:n]
        if n == 1 and one_walk:  # one element: see the module docstring
            xs = x[:n]
            mul(m00, u, xs)
            mul(m10, u, ys)
            mul(m01, d, u)
            add(xs, u, u)
            mul(m11, d, xs)
            add(ys, xs, d)
        elif balanced:  # m11 d would repeat m01 d bit for bit
            mul(m10, u, ys)
            mul(m00, u, u)
            mul(m01, d, d)
            add(u, d, u)
            add(ys, d, d)
        else:
            xs = x[:n]
            mul(m10, u, ys)
            mul(m00, u, u)
            mul(m01, d, xs)
            add(u, xs, u)
            mul(m11, d, d)
            add(ys, d, d)
        if shift_first:
            if phase is not None:
                site_phase = phase(t, lo, n)
                mul(u, site_phase, u)
                mul(d, site_phase, d)
        else:
            lo -= dn_rate
            hi += 1
            ui -= 1
            di += dn_rate
            if clip:
                if lo < cone_lo + t:
                    lo = cone_lo + t
                if hi > cone_hi - dn_rate * t:
                    hi = cone_hi - dn_rate * t
        lo, hi = _trim(up, dn, lo, hi, ui, di)
        yield t, lo, hi, ui, di


def steps_matrix_then_shift(psi, lo, hi, mats):
    """Apply ``mats[t]`` then the shift for each t."""
    steps = mats.shape[0]
    stride, first, lo, hi, (up, dn, x, y) = _layout(psi, lo, hi, steps)
    dn_rate = 2 - stride  # compressed sites a down amplitude moves left per step
    entries = _step_entries([mats[..., None]], 1)
    for _, lo, hi, _, _ in _steps(up, dn, x, y, lo, hi, steps, -dn_rate * steps, dn_rate,
                                  entries):
        pass
    return _window(up, dn, lo, hi, first - (stride - 1) * steps, stride)


def steps_shift_then_matrix(psi, lo, hi, mats, site_phase=None):
    """Apply the shift then ``mats[t]`` for each t.

    When ``site_phase`` is given, ``site_phase[i]`` is the phase of site
    ``lo - steps + i``, for every site the call can reach; each site's new
    spinor is multiplied by its phase after the matrix product.
    """
    steps = mats.shape[0]
    phase_site = lo - steps  # the site of site_phase[0]
    # the copy into the comoving arrays is the first shift
    stride, first, lo, hi, (up, dn, x, y) = _layout(psi, lo, hi, steps)
    dn_rate = 2 - stride  # compressed sites a down amplitude moves left per step
    phase = None
    if site_phase is not None:
        # phase index stride * k + p is at phases[p][k], in contiguous memory
        phases = [np.ascontiguousarray(site_phase[p::stride]) for p in range(stride)]

        def phase(t, lo, n):
            k, p = divmod(first - (stride - 1) * t + stride * lo - phase_site, stride)
            return phases[p][k:k + n]
    entries = _step_entries([mats[..., None]], 1)
    for _, lo, hi, _, _ in _steps(up, dn, x, y, lo, hi, steps, -dn_rate * steps, dn_rate,
                                  entries, shift_first=True, phase=phase):
        pass
    return _window(up, dn, lo, hi, first - (stride - 1) * steps, stride)


# Steps of a block checked at a time, so that the check's temporaries stay
# small for a long one-walk block (bloch-trace passes its whole run as one).
CHECK_ROWS = 4096


def _balanced(entries):
    """One flag per step of one walk's (n, 4) or E walks' (n, 4, E) entries m00, m01, m10,
    m11, as a list of bools: whether m11 has the bits of m01 in every walk.

    A balanced step's m11 d has the bits of m01 d, so its product takes
    the five ufunc calls that skip m11 d (see the module docstring). When
    every step is balanced, as in a Hadamard walk, one comparison of bytes
    decides, and no numpy loop runs.
    """
    m01, m11 = np.ascontiguousarray(entries[:, 1]), np.ascontiguousarray(entries[:, 3])
    n = m01.shape[0]
    if m01.tobytes() == m11.tobytes():
        return [True] * n
    return (m01.view(np.uint64) == m11.view(np.uint64)).reshape(n, -1).all(axis=1).tolist()


def _step_entries(blocks, walks):
    """Per step of consecutive (n, 2, 2, E) blocks: (balanced, m00, m01, m10, m11).

    ``balanced`` is the step's ``_balanced`` flag. One walk's block of one
    step (a one-step ``walk.evolve``) is not checked and takes the general path: there
    the check costs about what the saved product does. The entries are
    views of one buffer that holds the current step's matrix: 0-d for one
    walk and one entry per walk, shape (E,), for an ensemble. One walk's
    (1,) entries would take another numpy loop for a one-site product and
    round differently. The views are made once per call and the buffer is
    refilled for each step, one copy instead of four views a step, so an
    entry holds its step's value only until the next step is drawn. A
    block that repeats one matrix (stride 0 on the step axis) is checked
    and copied once and gives the same tuple for all its steps; other
    blocks are checked ``CHECK_ROWS`` steps at a time.
    """
    buf = np.empty((4,) if walks == 1 else (4, walks), dtype=complex)
    m00, m01, m10, m11 = buf[0, ...], buf[1, ...], buf[2, ...], buf[3, ...]
    for block in blocks:
        n = block.shape[0]
        entries = block.reshape(n, 4) if walks == 1 else block.reshape(n, 4, walks)
        if n > 1 and entries.strides[0] == 0:
            buf[...] = entries[0]
            yield from itertools.repeat((_balanced(entries[:1])[0], m00, m01, m10, m11), n)
        else:
            for start in range(0, n, CHECK_ROWS):
                rows = entries[start:start + CHECK_ROWS]
                flags = (False,) if n == 1 and walks == 1 else _balanced(rows)
                for flag, row in zip(flags, rows):
                    buf[...] = row
                    yield flag, m00, m01, m10, m11


def _probe_frame(psi, origin, steps):
    """``probe_ensemble``'s layout: stride, cone, start window and its arrays' heights.

    Returns (stride, cone_lo, cone_hi, lo, hi, up_rows, down_rows), all in
    compressed sites; the origin is out of reach when lo > hi. The up rows
    span compressed sites max(cone_lo + T, lo - (2 - stride) T) .. hi + T,
    the down rows lo - (2 - stride) T .. min(cone_hi - (2 - stride) T, hi +
    T): every index the cone and the window growth can reach.
    """
    stride = _stride(psi)
    dn_rate = 2 - stride
    cone_lo, cone_hi = -((steps - origin) // stride), (origin + steps) // stride
    lo, hi = max(0, cone_lo), min((psi.shape[0] - 1) // stride, cone_hi)
    up_base = max(cone_lo + steps, lo - dn_rate * steps)
    down_top = min(cone_hi - dn_rate * steps, hi + steps)
    return (stride, cone_lo, cone_hi, lo, hi,
            hi + steps - up_base + 1, down_top - (lo - dn_rate * steps) + 1)


def probe_rows(psi, origin, steps):
    """Rows of the taller of ``probe_ensemble``'s arrays for this start and horizon.

    Each of the probe's four arrays holds this many rows or fewer per walk
    (0 when the origin is out of reach), so E walks take about
    4 * E * rows complex values.
    """
    _, _, _, lo, hi, up_rows, down_rows = _probe_frame(psi, origin, steps)
    return 0 if lo > hi else max(up_rows, down_rows)


def probe_ensemble(psi, origin, steps, walks, blocks):
    """Yield the spinors at row ``origin`` of ``psi`` of E walks that share a start.

    ``blocks`` yields the step matrices as consecutive arrays of shape
    (n, 2, 2, E) that cover the T = ``steps`` steps; walk e applies matrix
    [t, :, :, e] then the shift at step t to the window ``psi`` of shape
    (width, 2). ``origin`` may lie outside the window. After step t the
    probe yields ``(t, ups, downs)``: each walk's up and down amplitude at
    the origin, as lists of Python complex values. Steps that leave the
    origin empty (out of reach, or on the sublattice the window leaves
    empty) yield nothing; their spinors are zero.

    The layout is the step-order kernels', with one walk in 1-D arrays and
    E > 1 walks in arrays of shape (compressed sites, E): after t steps
    compressed index j holds row ``first + stride * j``, where ``first``
    starts at 0 and drops by ``stride - 1`` per step. Each step keeps only
    the rows within T - t of the origin: compressed [c_lo + t, c_hi -
    (2 - stride) * t], with c_lo and c_hi the ceiling and floor of
    (origin -/+ T) / stride, so the arrays need about (T + width) / stride
    rows. All walks share one window [lo, hi], and an edge site is trimmed
    only when it is negligible in every walk.

    For unitary matrices the spinors differ from those of the walk's own
    full run (``steps_matrix_then_shift``, which keeps every site and trims
    only its own) only through sites that one run zeroes and the other
    keeps: sites the walk's own run trims but another walk keeps in the
    shared window, and sites a trim at the cone's edge drops. Each has norm
    below 2 * ``TRIM_THRESHOLD``, and unitary steps never grow a difference,
    so after T steps every amplitude differs by less than (width + 2T) *
    2e-200. That can change the bits of an origin component only where the
    component is below about 1e-178 (for width + 2T up to 10^6), a zero of
    either sign included. Likewise it can change |u| only where |u| is below
    about 1e-178, and there |u|^2 underflows to zero, so every return
    probability |u|^2 + |d|^2 keeps its bits.
    """
    stride, cone_lo, cone_hi, lo, hi, up_rows, down_rows = _probe_frame(psi, origin, steps)
    if lo > hi:
        return
    dn_rate = 2 - stride  # compressed sites a down amplitude moves left per step
    # Compressed site i's up amplitude is at up[i + ui] and its down amplitude
    # at dn[i + di]: the window starts in the top rows of ups and the bottom
    # rows of downs. ui drops by one per step and di grows by dn_rate.
    ups = np.zeros((up_rows, walks), dtype=complex)
    downs = np.zeros((down_rows, walks), dtype=complex)
    ui, di = up_rows - 1 - hi, -lo
    rows = slice(stride * lo, stride * hi + 1, stride)
    ups[lo + ui:hi + ui + 1] = psi[rows, 0:1]
    downs[lo + di:hi + di + 1] = psi[rows, 1:2]
    # one walk steps 1-D views, as the step-order kernels do: a site is an
    # element, which the trim zeroes several times faster than a row
    up, dn = (ups[:, 0], downs[:, 0]) if walks == 1 else (ups, downs)
    # The origin's compressed index after t steps is (origin + (stride - 1) * t)
    # / stride, at the steps where that is whole: every step at stride 1, every
    # other one at stride 2. Its slots hold zeros while the window misses it.
    t_read = 1 + (stride == 2 and origin % 2 == 0)
    for t, _, _, ui, di in _steps(up, dn, np.empty_like(up), np.empty_like(up), lo, hi, ui, di,
                                  dn_rate, _step_entries(blocks, walks), cone=(cone_lo, cone_hi)):
        if t == t_read:
            j = (origin + (stride - 1) * t) // stride
            if 0 <= j + ui < up.shape[0] and 0 <= j + di < dn.shape[0]:
                yield t, ups[j + ui].tolist(), downs[j + di].tolist()
            t_read += stride
