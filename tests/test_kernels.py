"""The position kernels, through the paths that share them, against the references.

The dict references check the physics; the interleaved reference kernels in
``conftest`` check that the comoving layout reproduces the in-place shifting
loops bit for bit. The references shift a zero-padded buffer; the kernels
take the window [lo, hi] of that buffer (site i at buffer index i) and return
a new window, which is compared with the reference buffer's final [lo, hi].
Where a window holds one sublattice, the kernels step only that sublattice:
there the occupied entries and the bounds agree bit for bit, and the sites
the reference leaves as zeros of either sign hold +0.0. The origin probe is
checked against the probed reference loop, run once per walk.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import (REFERENCE_TRIM_THRESHOLD, max_diff, random_su2, reference_electric,
                      reference_evolve, reference_matrix_then_shift, reference_shift_then_matrix,
                      reference_spin_product, reference_track_origin, return_probability,
                      run_padded, state_to_dict)
from qpwalk import _kernels, cli
from qpwalk.gauge import electric_evolve
from qpwalk.noise import NoiseConfig
from qpwalk.spinops import make_coin
from qpwalk.walk import (Field, TimeRule, WalkParams, WalkState, ensemble_tracking_origin, evolve,
                         evolve_tracking_origin, hadamard_params, spinor_probabilities,
                         track_origin)


def _random_case(rng, steps=9, width=5, tiny_edges=False):
    """A random normalized window in a buffer padded by ``steps + 2`` sites on each side.

    With ``tiny_edges`` the outer sites of the window are scaled below the trim
    threshold, so the kernels trim from the first step on.
    """
    pad = steps + 2
    buf = np.zeros((width + 2 * pad, 2), dtype=complex)
    block = rng.normal(size=(width, 2)) + 1j * rng.normal(size=(width, 2))
    block /= np.linalg.norm(block)
    if tiny_edges and width > 2:
        edge = int(rng.integers(1, width // 2 + 1))
        block[:edge] *= 1e-230
        block[width - edge:] *= 1e-215
    buf[pad:pad + width] = block
    return buf, pad, pad + width - 1, _random_unitaries(rng, steps)


def _random_unitaries(rng, steps):
    """``steps`` random unitary 2x2 matrices, shape (steps, 2, 2)."""
    mats = np.empty((steps, 2, 2), dtype=complex)
    for i in range(steps):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        mats[i] = q
    return mats


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _run_window(kernel, buf, lo, hi, mats, *args, **kwargs):
    """Run ``kernel`` on the window [lo, hi] of ``buf``; return its bounds and window.

    Checks that the kernel leaves its input window as it was and that the
    returned window spans the returned bounds.
    """
    psi = buf[lo:hi + 1].copy()
    lo2, hi2, window = kernel(psi, lo, hi, mats, *args, **kwargs)
    assert _same_bits(psi, buf[lo:hi + 1])
    assert window.shape == (hi2 - lo2 + 1, 2)
    return (lo2, hi2), window


def _matrix_then_shift(buf, lo, hi, mats):
    return _run_window(_kernels.steps_matrix_then_shift, buf, lo, hi, mats)


def _shift_then_matrix(buf, lo, hi, mats, phase=None):
    """``steps_shift_then_matrix`` with ``phase`` given per buffer index."""
    steps = mats.shape[0]
    site_phase = None if phase is None else phase[lo - steps:hi + steps + 1]
    return _run_window(_kernels.steps_shift_then_matrix, buf, lo, hi, mats, site_phase)


def _occupied(buf, lo, hi, steps):
    """Mask of the buffer sites that can be non-zero after ``steps`` steps from [lo, hi].

    One sublattice when every other site of the window is exactly zero (an
    odd width, such as a single site), else every site.
    """
    if (hi - lo) % 2 or buf[lo + 1:hi:2].any():
        return np.ones(buf.shape[0], dtype=bool)
    return (np.arange(buf.shape[0]) - lo - steps) % 2 == 0


def _assert_sublattice_bits(new, ref, occupied):
    """Occupied entries bit for bit; elsewhere the reference holds zeros, the kernel +0.0."""
    assert new.shape == ref.shape
    assert _same_bits(new[occupied], ref[occupied])
    assert np.all(ref[~occupied] == 0)
    assert not new[~occupied].view(np.uint64).any()


def _assert_window_bits(bounds, window, ref, occupied):
    """``_assert_sublattice_bits`` of a kernel's window and the reference buffer's [lo, hi]."""
    lo, hi = bounds
    _assert_sublattice_bits(window, ref[lo:hi + 1], occupied[lo:hi + 1])


def _probe_occupied(psi, origin, steps):
    """Mask of the steps 1..steps after which row ``origin`` of a walk from ``psi`` can be
    non-zero: every step, unless the window holds one sublattice (see ``_occupied``)."""
    width = psi.shape[0]
    if width % 2 == 0 or psi[1::2].any():
        return np.ones(steps, dtype=bool)
    return (origin - np.arange(1, steps + 1)) % 2 == 0


def _probe(psi, origin, mats):
    """``probe_ensemble``'s reads as arrays: p0 (E, T + 1) and spinors (E, T, 2).

    ``mats`` has shape (T, 2, 2, E). Steps that yield nothing read zero, and
    p0 comes from ``spinor_probabilities``, as ``ensemble_tracking_origin``
    computes it.
    """
    steps, walks = mats.shape[0], mats.shape[3]
    p0 = np.zeros((walks, steps + 1))
    spinors = np.zeros((walks, steps, 2), dtype=complex)
    if 0 <= origin < psi.shape[0]:
        p0[:, 0] = spinor_probabilities([psi.item(origin, 0)], [psi.item(origin, 1)])
    for t, ups, downs in _kernels.probe_ensemble(psi, origin, steps, walks, [mats]):
        p0[:, t] = spinor_probabilities(ups, downs)
        spinors[:, t - 1, 0] = ups
        spinors[:, t - 1, 1] = downs
    return p0, spinors


def _probe_each_walk(psi, mats, origin):
    """The probe's reference: each walk alone through the probed interleaved reference loop.

    Returns p0 (numpy-scalar formula), the origin spinors and each walk's
    final bounds.
    """
    steps, walks = mats.shape[0], mats.shape[3]
    start = WalkState(x_min=0, amplitudes=psi)
    p0 = np.zeros((walks, steps + 1))
    if 0 <= origin < psi.shape[0]:
        p0[:, 0] = abs(psi[origin, 0]) ** 2 + abs(psi[origin, 1]) ** 2
    spinors = np.zeros((walks, steps, 2), dtype=complex)
    bounds = []
    for e in range(walks):
        def run(buf, lo, hi, offset):
            # the padded buffer holds every site the walk can reach
            if 0 <= origin + offset < buf.shape[0]:
                return reference_matrix_then_shift(buf, lo, hi, mats[..., e], origin + offset,
                                                   p0[e, 1:], spinors[e])
            return reference_matrix_then_shift(buf, lo, hi, mats[..., e])
        bounds.append(run_padded(start, steps, run).window)
    return p0, spinors, bounds


def _assert_probe_matches(psi, origin, mats):
    """Every walk's p0 bit for bit against its own reference run, and its origin spinors
    as ``probe_ensemble`` states.

    A spinor component keeps its bits unless it is below 1e-178 in the
    reference and within (width + 2T) * 2e-200 of it: there the probe may
    keep a sub-threshold value, or a zero of the other sign, that the
    reference's own trims zero, or the other way round. At the steps that
    leave the origin's sublattice empty the reference holds zeros of either
    sign and the probe +0.0. Returns the probe's p0 and the reference runs'
    final bounds.
    """
    p0, spinors = _probe(psi, origin, mats)
    ref_p0, ref_spinors, bounds = _probe_each_walk(psi, mats, origin)
    assert _same_bits(p0, ref_p0)
    _assert_origin_spinors(spinors, ref_spinors, psi, origin)
    return p0, bounds


def _assert_origin_spinors(spinors, ref_spinors, psi, origin):
    """``_assert_probe_matches``'s rule for origin spinors of shape (..., T, 2), from ``psi``."""
    steps = spinors.shape[-2]
    occupied = _probe_occupied(psi, origin, steps)
    assert np.all(ref_spinors[..., ~occupied, :] == 0)
    assert not spinors[..., ~occupied, :].view(np.uint64).any()
    new = spinors[..., occupied, :].view(float)
    ref = ref_spinors[..., occupied, :].view(float)
    tiny = (np.abs(ref) < 1e-178) & (np.abs(new - ref) < (psi.shape[0] + 2 * steps) * 2e-200)
    assert np.all((new.view(np.uint64) == ref.view(np.uint64)) | tiny)


def test_window_bounds_track_support(rng):
    buf, lo, hi, mats = _random_case(rng, steps=4, width=3)
    (lo2, hi2), window = _matrix_then_shift(buf, lo, hi, mats)
    assert (lo2, hi2) == (lo - 4, hi + 4)
    assert window[0].any() and window[-1].any()


def test_electric_evolve_matches_dict_reference(rng):
    for _ in range(4):
        a, b = random_su2(rng)
        coin = WalkParams(field=Field.rational(1, 7), coin_a=a, coin_b=b).coin
        phi = float(rng.uniform(-np.pi, np.pi))
        x0 = int(rng.integers(1, 6)) * int(rng.choice([-1, 1]))
        steps = int(rng.integers(20, 41))
        state = WalkState.single_site(x=x0, spinor=random_su2(rng))
        out = electric_evolve(state, steps, phi, coin)
        ref = reference_electric(state_to_dict(state), coin, phi, steps)
        assert max_diff(out, ref) < 1e-12


def test_origin_tracking_from_off_origin_start():
    params = hadamard_params(Field.rational(1, 9))
    start = WalkState.single_site(x=3, spinor=(0.6, 0.8j))
    final, p0 = evolve_tracking_origin(start, 30, params)
    state = start
    expected = [return_probability(state)]
    for t in range(1, 31):
        state = evolve(state, t, t, params)
        expected.append(return_probability(state))
    assert np.all(p0[:3] == 0.0) and p0[3] > 0.0
    assert np.allclose(p0, expected, atol=1e-13)
    ref = reference_evolve(state_to_dict(start), list(params.step_matrices(1, 30)),
                           matrix_before_shift=True)
    assert max_diff(final, ref) < 1e-12


def test_kernels_match_interleaved_reference(rng):
    """Bounds and every occupied window entry agree bit for bit with the old loops.

    One-site starts take the sublattice path.
    """
    for case in range(24):
        steps = int(rng.integers(1, 25))
        width = int(rng.integers(1, 12))
        buf, lo, hi, mats = _random_case(rng, steps, width, tiny_edges=case % 2 == 1)
        occupied = _occupied(buf, lo, hi, steps)
        ref = buf.copy()
        ref_bounds = reference_matrix_then_shift(ref, lo, hi, mats)
        bounds, new = _matrix_then_shift(buf, lo, hi, mats)
        assert bounds == ref_bounds
        _assert_window_bits(bounds, new, ref, occupied)

        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, buf.shape[0]))
        for site_phase in (None, phase):
            ref = buf.copy()
            ref_bounds = reference_shift_then_matrix(ref, lo, hi, mats, site_phase)
            bounds, new = _shift_then_matrix(buf, lo, hi, mats, site_phase)
            assert bounds == ref_bounds
            _assert_window_bits(bounds, new, ref, occupied)


@pytest.mark.parametrize("walks", [1, 3])
def test_probe_matches_interleaved_reference(rng, walks):
    """The cases of ``test_kernels_match_interleaved_reference`` through the origin probe.

    Every walk's p0 agrees bit for bit with its own reference run, and so
    does every origin spinor component above 1e-178: multi-site windows
    (stride 1) and one-site ones (stride 2), sub-threshold edges, origins
    anywhere in the padded buffer and at both window edges. Walk 0 takes
    the case's matrices, the others their own random unitary ones.
    """
    strides = set()
    for case in range(24):
        steps = int(rng.integers(1, 25))
        width = int(rng.integers(1, 12))
        buf, lo, hi, mats = _random_case(rng, steps, width, tiny_edges=case % 2 == 1)
        ensemble = np.stack([mats] + [_random_unitaries(rng, steps) for _ in range(walks - 1)],
                            axis=-1)
        psi = buf[lo:hi + 1]
        strides.add(_kernels._stride(psi))
        for origin in (int(rng.integers(0, buf.shape[0])), lo, hi):
            _assert_probe_matches(psi, origin - lo, ensemble)
    assert strides == {1, 2}


def _single_site_case(rng, steps, antidiagonal=False):
    """A one-site start on either parity of a buffer with room for ``steps`` steps.

    Half of the starts have a sub-threshold component. With ``antidiagonal``
    the matrices' diagonals are zero or sub-threshold, so the walk keeps
    folding back onto the start and the windows trim, down to one site.
    """
    pad = steps + 3
    start = pad + int(rng.integers(0, 2))
    buf = np.zeros((2 * pad + 2, 2), dtype=complex)
    buf[start] = random_su2(rng)
    if rng.random() < 0.5:
        buf[start, int(rng.integers(0, 2))] *= 1e-230
    mats = np.empty((steps, 2, 2), dtype=complex)
    for t in range(steps):
        a, b = random_su2(rng)
        if antidiagonal:
            a *= 1e-210 if rng.random() < 0.5 else 0.0
        mats[t] = [[a, b], [-b.conjugate(), a.conjugate()]]
    return buf, start, mats


def test_single_site_starts_match_the_reference(rng):
    """One-site starts, both rules: the sublattice path against the interleaved loops.

    The origin probe at origins on both sublattices and out of reach,
    ``site_phase``, windows that trim and one-site windows.
    """
    trimmed = one_site = 0
    for case in range(90):
        steps = int(rng.integers(1, 30))
        buf, start, mats = _single_site_case(rng, steps, antidiagonal=case % 3 == 0)
        occupied = _occupied(buf, start, start, steps)
        ref = buf.copy()
        ref_bounds = reference_matrix_then_shift(ref, start, start, mats)
        bounds, new = _matrix_then_shift(buf, start, start, mats)
        assert bounds == ref_bounds
        _assert_window_bits(bounds, new, ref, occupied)
        for origin in (start, start + 1, start - 1, start + steps + 1, start - steps - 1):
            _assert_probe_matches(buf[start:start + 1], origin - start, mats[..., None])
        trimmed += bounds[1] - bounds[0] < 2 * steps
        one_site += bounds[0] == bounds[1]
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, buf.shape[0]))
        for site_phase in (None, phase):
            ref = buf.copy()
            ref_bounds = reference_shift_then_matrix(ref, start, start, mats, site_phase)
            bounds, new = _shift_then_matrix(buf, start, start, mats, site_phase)
            assert bounds == ref_bounds
            _assert_window_bits(bounds, new, ref, occupied)
    assert trimmed >= 10 and one_site >= 5


@pytest.mark.parametrize("x0", [0, 3, -6])
def test_single_site_walks_match_the_reference(rng, x0):
    """``evolve`` (both rules), ``track_origin`` and ``electric_evolve`` from x0."""
    start = WalkState.single_site(x=x0, spinor=random_su2(rng))
    for rule in TimeRule:
        params = WalkParams(Field.golden(), *random_su2(rng), time_rule=rule)
        new = evolve(start, 1, 301, params)
        ref = _reference_evolve(start, 1, 301, params)
        assert new.x_min == ref.x_min
        occupied = np.arange(new.amplitudes.shape[0]) % 2 == 0
        _assert_sublattice_bits(new.amplitudes, ref.amplitudes, occupied)
    params = WalkParams(Field.rational(1, 7), *random_su2(rng))
    final = evolve(start, 1, 200, params)
    ref, _, ref_spinors = reference_track_origin(start, 200, params)
    assert final.x_min == ref.x_min
    _assert_sublattice_bits(final.amplitudes, ref.amplitudes,
                            np.arange(final.amplitudes.shape[0]) % 2 == 0)
    _assert_sublattice_bits(track_origin(start, 200, params), ref_spinors,
                            (np.arange(1, 201) + x0) % 2 == 0)
    _assert_electric_matches_reference(start, 300, Field.rational(2, 9).value,
                                       WalkParams(Field.golden(), *random_su2(rng)).coin)


def test_track_origin_matches_the_reference_where_the_cone_cuts_a_trimmed_window():
    """3000 golden steps from x = 5 with the coin (0.6, 0.8i): every spinor bit for bit.

    The walk's window is trimmed (1747 sites at step 1000, 2593 at step
    2000), and from about step 1800 on the light cone, of half-width
    3000 - t, cuts it: the probe steps only the cone, the reference every
    site of the window.
    """
    params = WalkParams(Field.golden(), 0.6, 0.8j)
    start = WalkState.single_site(x=5, spinor=(0.6, 0.8j))
    lo, hi = evolve(start, 1, 1000, params).window
    assert hi - lo < 2 * 1000
    lo, hi = evolve(start, 1, 2000, params).window
    assert min(-lo, hi) > 3000 - 2000
    _, _, ref = reference_track_origin(start, 3000, params)
    spinors = track_origin(start, 3000, params)
    _assert_sublattice_bits(spinors, ref, (np.arange(1, 3001) + 5) % 2 == 0)
    assert np.abs(spinors[-2]).min() > 1e-2  # step 2999; odd t + x0 leave the origin empty


def test_both_sublattices_match_the_reference_bit_for_bit(rng):
    """Windows that hold both sublattices step every site: every bit, signed zeros included.

    Two-site starts; even widths with every other site zero; and a window
    whose odd sites are zero but one, at 1e-250. The origin probe reads
    every step, as ``_assert_probe_matches`` states.
    """
    for case in range(60):
        steps = int(rng.integers(1, 25))
        width = (2, 4, 7)[case % 3]
        buf, lo, hi, mats = _random_case(rng, steps, width)
        if width == 4:
            buf[lo + 1:hi + 1:2] = 0.0
        elif width == 7:
            buf[lo + 1:hi:2] = 0.0
            buf[lo + 2 * int(rng.integers(0, 3)) + 1, int(rng.integers(0, 2))] = 1e-250
        assert _occupied(buf, lo, hi, steps).all()
        origin = int(rng.integers(0, buf.shape[0]))
        ref = buf.copy()
        ref_bounds = reference_matrix_then_shift(ref, lo, hi, mats)
        bounds, new = _matrix_then_shift(buf, lo, hi, mats)
        assert bounds == ref_bounds
        assert _same_bits(new, ref[bounds[0]:bounds[1] + 1])
        _assert_probe_matches(buf[lo:hi + 1], origin - lo, mats[..., None])
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, buf.shape[0]))
        ref = buf.copy()
        ref_bounds = reference_shift_then_matrix(ref, lo, hi, mats, phase)
        bounds, new = _shift_then_matrix(buf, lo, hi, mats, phase)
        assert bounds == ref_bounds
        assert _same_bits(new, ref[bounds[0]:bounds[1] + 1])


def test_trimming_cases_do_trim(rng):
    buf, lo, hi, mats = _random_case(rng, steps=6, width=9, tiny_edges=True)
    (lo2, hi2), _ = _matrix_then_shift(buf, lo, hi, mats)
    assert hi2 - lo2 < hi - lo + 2 * 6


def test_probe_reads_zero_outside_the_buffer(rng):
    """Origins outside the reference buffer lie out of the walk's reach: nothing is read."""
    buf, lo, hi, mats = _random_case(rng, steps=5, width=3)
    for origin in (-7, -1, buf.shape[0], buf.shape[0] + 40):
        assert not list(_kernels.probe_ensemble(buf[lo:hi + 1], origin - lo, 5, 1,
                                                [mats[..., None]]))


def _reference_evolve(state, t_from, t_to, params):
    mats = params.step_matrices(t_from, t_to)
    kernel = (reference_matrix_then_shift if params.matrix_before_shift
              else reference_shift_then_matrix)
    return run_padded(state, t_to - t_from + 1,
                      lambda buf, lo, hi, offset: kernel(buf, lo, hi, mats))


@pytest.mark.parametrize("rule", list(TimeRule))
def test_long_golden_evolution_matches_interleaved_reference(rule):
    """2500 golden-field steps: the localized window is trimmed, and every bit agrees."""
    params = hadamard_params(Field.golden(), rule)
    start = WalkState.single_site(x=2, spinor=(0.6, 0.8j))
    new = evolve(start, 1, 2500, params)
    ref = _reference_evolve(start, 1, 2500, params)
    assert new.x_min == ref.x_min
    assert _same_bits(new.amplitudes, ref.amplitudes)
    assert new.amplitudes.shape[0] < 2 * 2500 + 1


def _assert_electric_matches_reference(start, steps, phi, coin):
    """A one-site start: the window's every other site from its first is occupied."""
    new = electric_evolve(start, steps, phi, coin)
    mats = np.broadcast_to(coin, (steps, 2, 2))

    def run(buf, lo, hi, offset):
        site_phase = np.exp(1j * phi * (np.arange(buf.shape[0]) - offset)).astype(complex)
        return reference_shift_then_matrix(buf, lo, hi, mats, site_phase)

    ref = run_padded(start, steps, run)
    assert new.x_min == ref.x_min
    occupied = np.arange(new.amplitudes.shape[0]) % 2 == 0
    _assert_sublattice_bits(new.amplitudes, ref.amplitudes, occupied)


def test_electric_evolve_matches_interleaved_reference():
    golden = Field.golden()
    start = WalkState.single_site(x=-3, spinor=(0.6, 0.8j))
    _assert_electric_matches_reference(start, 2000, golden.value, hadamard_params(golden).coin)


def test_origin_tracking_matches_interleaved_reference():
    params = hadamard_params(Field.golden())
    start = WalkState.single_site(x=1, spinor=(0.6, 0.8j))
    final, p0 = evolve_tracking_origin(start, 2000, params)
    mats = params.step_matrices(1, 2000)
    ref_p0 = np.empty(2001)
    ref_p0[0] = return_probability(start)
    ref = run_padded(start, 2000, lambda buf, lo, hi, offset: reference_matrix_then_shift(
        buf, lo, hi, mats, origin=offset, out_p0=ref_p0[1:]))
    assert _same_bits(p0, ref_p0)
    assert final.x_min == ref.x_min
    assert _same_bits(final.amplitudes, ref.amplitudes)


def _kernel_paths(start, rng):
    """The final state of each path that runs a position kernel: ``evolve`` (both
    rules), ``evolve_tracking_origin`` (``evolve`` and the origin probe) and
    ``electric_evolve``."""
    coin = random_su2(rng)
    for rule in TimeRule:
        yield evolve(start, 1, 40, WalkParams(Field.golden(), *coin, time_rule=rule))
    params = WalkParams(Field.rational(1, 7), *coin)
    yield evolve_tracking_origin(start, 40, params)[0]
    yield electric_evolve(start, 40, Field.golden().value, params.coin)


def _kernel_starts(rng):
    """A one-site start (the sublattice path) and a five-site window (every site)."""
    window = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    return [WalkState.single_site(x=3, spinor=random_su2(rng)),
            WalkState(x_min=-2, amplitudes=window / np.linalg.norm(window))]


def test_kernel_paths_leave_the_input_state_alone(rng):
    for start in _kernel_starts(rng):
        before = start.amplitudes.copy()
        for _ in _kernel_paths(start, rng):
            assert _same_bits(start.amplitudes, before)


def test_returned_windows_hold_no_larger_buffer(rng):
    """A final state keeps only its own window alive, not a padded buffer."""
    for start in _kernel_starts(rng):
        for final in _kernel_paths(start, rng):
            base = final.amplitudes.base
            assert base is None or base.nbytes == final.amplitudes.nbytes


def test_origin_outside_the_window_reads_zero():
    params = hadamard_params(Field.rational(1, 9))
    final, p0 = evolve_tracking_origin(WalkState.single_site(1000), 5, params)
    assert p0.shape == (6,) and np.all(p0 == 0.0)
    assert final.window == (995, 1005)


@pytest.mark.parametrize("rule", list(TimeRule))
def test_chunked_evolve_is_bit_identical(rng, rule):
    for field in (Field.rational(1, 155), Field.golden()):
        params = WalkParams(field, *random_su2(rng), time_rule=rule)
        start = WalkState.single_site(x=-4, spinor=random_su2(rng))
        whole = evolve(start, 3, 400, params)
        # chunks of odd and of even length
        for b in (3, 4, 57, 58, 398, 399):
            chunked = evolve(evolve(start, 3, b, params), b + 1, 400, params)
            assert chunked.x_min == whole.x_min
            assert _same_bits(chunked.amplitudes, whole.amplitudes)


def _su2_entries(rng, *walks):
    """Entries m00, m01, m10, m11 of random SU(2) matrices, shape (4,) + walks."""
    a, b = np.array([random_su2(rng) for _ in range(int(np.prod(walks)))]).T.reshape(2, *walks)
    return np.stack([a, b, -b.conj(), a.conj()])


def _unpacked_product(m, u, d, phase=None):
    """``reference_spin_product`` of the unpacked entries ``m`` on u and d, into new arrays."""
    u_out, d_out = np.empty(u.shape, complex), np.empty(u.shape, complex)
    scratch = np.empty((u.shape[0] + 3,) + u.shape[1:], complex)
    reference_spin_product(m, u, d, u_out, d_out, scratch, scratch.copy(), phase)
    return u_out, d_out


@pytest.mark.parametrize("n", [1, 2, 3, 40, 1317])
def test_step_products_keep_the_bits_of_unpacked_entries(rng, n):
    """One step of each step-order kernel on n sites against ``reference_spin_product``.

    The kernels read 0-d entry views and multiply contiguous copies in
    place; the reference takes the entries as unpacked numpy scalars, reads
    strided columns and writes arrays of its own. Shift-then-matrix runs
    with a per-site phase. Ten steps of each kernel then match the
    interleaved reference loops.
    """
    psi = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    m = _su2_entries(rng)
    mats = m.reshape(1, 2, 2)
    # a one-site window steps one sublattice: site 0 is empty after a step
    occupied = np.arange(n + 2) % 2 == 0 if n == 1 else np.ones(n + 2, dtype=bool)
    want = np.zeros((n + 2, 2), dtype=complex)  # sites -1..n
    want[2:, 0], want[:n, 1] = _unpacked_product(m, psi[:, 0], psi[:, 1])
    lo, hi, window = _kernels.steps_matrix_then_shift(psi, 0, n - 1, mats)
    assert (lo, hi) == (-1, n)
    _assert_sublattice_bits(window, want, occupied)

    shifted = np.zeros((n + 2, 2), dtype=complex)
    shifted[2:, 0], shifted[:n, 1] = psi[:, 0], psi[:, 1]
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, n + 2))
    want = np.stack(_unpacked_product(m, shifted[:, 0], shifted[:, 1], phase), axis=1)
    lo, hi, window = _kernels.steps_shift_then_matrix(psi, 0, n - 1, mats, phase)
    assert (lo, hi) == (-1, n)
    _assert_sublattice_bits(window, want, occupied)

    buf, lo, hi, mats = _random_case(rng, steps=10, width=n)
    occupied = _occupied(buf, lo, hi, 10)
    ref = buf.copy()
    bounds, new = _matrix_then_shift(buf, lo, hi, mats)
    assert bounds == reference_matrix_then_shift(ref, lo, hi, mats)
    _assert_window_bits(bounds, new, ref, occupied)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, buf.shape[0]))
    ref = buf.copy()
    bounds, new = _shift_then_matrix(buf, lo, hi, mats, phase)
    assert bounds == reference_shift_then_matrix(ref, lo, hi, mats, phase)
    _assert_window_bits(bounds, new, ref, occupied)


@pytest.mark.parametrize("walks", [1, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 40, 1317])
def test_probe_products_keep_the_bits_of_the_reference_loops(rng, n, walks):
    """The probe's products on n sites against each walk's interleaved reference loop.

    One walk reads the 0-d entry views of ``_step_entries``, E walks its
    rows of one entry per walk. The origin is the middle row and the run
    takes n // 2 + 2 steps, so the light cone holds the whole window at the
    first step.
    """
    steps = n // 2 + 2
    psi = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    psi /= np.linalg.norm(psi)
    mats = np.stack([_random_unitaries(rng, steps) for _ in range(walks)], axis=-1)
    _assert_probe_matches(psi, n // 2, mats)


def test_a_repeated_matrix_gives_the_bits_of_its_copy(rng):
    """A ``mats`` that repeats one matrix (stride 0 on the step axis, as ``gauge``
    passes the coin) gives the windows and the probe reads of its materialized copy.

    ``_step_entries`` hands out one set of entry views for all of its steps, with
    one balanced flag: False for a random SU(2) coin, True for a Hadamard step.
    """
    coins = [_su2_entries(rng).reshape(2, 2), _hadamard_stack(rng, TimeRule.RX_FIELD, 1)[0]]
    for width, coin in itertools.product((1, 4, 9), coins):
        buf, lo, hi, _ = _random_case(rng, steps=30, width=width, tiny_edges=width == 9)
        repeated = np.broadcast_to(coin, (30, 2, 2))
        copy = np.ascontiguousarray(repeated)
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi, buf.shape[0]))
        for run, args in ((_matrix_then_shift, ()), (_shift_then_matrix, ()),
                          (_shift_then_matrix, (phase,))):
            bounds, window = run(buf, lo, hi, repeated, *args)
            copy_bounds, copy_window = run(buf, lo, hi, copy, *args)
            assert bounds == copy_bounds and _same_bits(window, copy_window)
        for walks in (1, 3):
            block = np.broadcast_to(coin[..., None], (30, 2, 2, walks))
            reads = _probe(buf[lo:hi + 1], width // 2, block)
            copy_reads = _probe(buf[lo:hi + 1], width // 2, np.ascontiguousarray(block))
            assert all(_same_bits(a, b) for a, b in zip(reads, copy_reads))
            entries = list(_kernels._step_entries([block], walks))
            assert len(entries) == 30 and all(e is entries[0] for e in entries)
            balanced, *views = entries[0]
            assert balanced is (coin is coins[1])
            assert [m.shape for m in views] == [(walks,) if walks > 1 else ()] * 4


@pytest.mark.parametrize("width", [1, 5])
def test_every_step_runs_through_the_one_step_loop(rng, monkeypatch, width):
    """Each public kernel runs all of its steps through one ``_kernels._steps`` generator.

    The spied runs of both step-order kernels (shift-then-matrix with and
    without a site phase) and of the probe (E = 1 and E = 3) give the bits of
    the unspied ones, and each makes one ``_steps`` call that yields steps
    1..T in order.
    """
    loop, runs = _kernels._steps, []

    def spy(*args, **kwargs):
        runs.append([])
        for item in loop(*args, **kwargs):
            runs[-1].append(item[0])
            yield item

    steps = 12
    buf, lo, hi, mats = _random_case(rng, steps=steps, width=width)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, buf.shape[0]))
    ensemble = np.stack([mats] + [_random_unitaries(rng, steps) for _ in range(2)], axis=-1)
    for run in (lambda: _matrix_then_shift(buf, lo, hi, mats),
                lambda: _shift_then_matrix(buf, lo, hi, mats),
                lambda: _shift_then_matrix(buf, lo, hi, mats, phase),
                lambda: _probe(buf[lo:hi + 1], width // 2, mats[..., None]),
                lambda: _probe(buf[lo:hi + 1], width // 2, ensemble)):
        want = run()
        with monkeypatch.context() as m:
            m.setattr(_kernels, "_steps", spy)
            got = run()
        assert runs == [list(range(1, steps + 1))]
        assert all(_same_bits(np.asarray(a), np.asarray(b)) for a, b in zip(want, got))
        runs.clear()


def _general_only(monkeypatch):
    """Make every step take the general six-call product."""
    monkeypatch.setattr(_kernels, "_balanced", lambda entries: [False] * entries.shape[0])


def _flags(mats, walks=1):
    """``_step_entries``' balanced flag per step of a (T, 2, 2) or (T, 2, 2, E) stack."""
    block = mats if walks > 1 else mats[..., None]
    return [entry[0] for entry in _kernels._step_entries([block], walks)]


def _hadamard_stack(rng, rule, steps, walks=None):
    """Hadamard step matrices at random angles, (T, 2, 2) or, for E walks, (T, 2, 2, E)."""
    params = hadamard_params(Field.golden(), rule)
    values = rng.uniform(0.1, 6.2, steps if walks is None else (steps, walks))
    # GAUGED_SZ's first step has angle 0, so the stack starts at t = 2
    mats = params.step_matrices(2, steps + 1, field_values=values)
    return mats if walks is None else np.ascontiguousarray(np.moveaxis(mats, 1, -1))


def _assert_both_paths_match(monkeypatch, run):
    """``run()``'s arrays, bit for bit, with the balanced steps and with the general path only."""
    fast = run()
    with monkeypatch.context() as m:
        _general_only(m)
        slow = run()
    assert all(_same_bits(np.asarray(a), np.asarray(b)) for a, b in zip(fast, slow))
    return fast


def _step_stacks(rng, steps):
    """A Hadamard stack, every step balanced, and random unitaries, none balanced."""
    balanced, general = _hadamard_stack(rng, TimeRule.RX_FIELD, steps), _random_unitaries(rng, steps)
    assert all(_flags(balanced)) and not any(_flags(general))
    return balanced, general


def _assert_loops_match_the_references(monkeypatch, buf, lo, hi, mats, phase):
    """Both step-order kernels (shift-then-matrix with and without ``phase``) on [lo, hi],
    bit for bit against the interleaved reference loops and the general path."""
    occupied = _occupied(buf, lo, hi, mats.shape[0])
    for run, reference, args in ((_matrix_then_shift, reference_matrix_then_shift, ()),
                                 (_shift_then_matrix, reference_shift_then_matrix, ()),
                                 (_shift_then_matrix, reference_shift_then_matrix, (phase,))):
        bounds, window = _assert_both_paths_match(
            monkeypatch, lambda: run(buf, lo, hi, mats, *args))
        ref = buf.copy()
        assert bounds == reference(ref, lo, hi, mats, *args)
        _assert_window_bits(bounds, window, ref, occupied)


@pytest.mark.parametrize("rule", list(TimeRule))
def test_balanced_steps_keep_the_bits_of_the_general_path(rng, monkeypatch, rule):
    """Hadamard stacks at random angles, every step balanced, against the general path
    and the interleaved reference loops: stride 1 and 2, edges that trim, the phase,
    and the probe with one walk and with an ensemble."""
    for case in range(24):
        steps = int(rng.integers(2, 40))
        width = (1, 2, 5, 9)[case % 4]
        buf, lo, hi, _ = _random_case(rng, steps, width, tiny_edges=case % 3 == 0)
        if case % 8 == 6:  # a sublattice window wider than one site: stride 2
            buf[lo + 1:hi:2] = 0.0
        mats = _hadamard_stack(rng, rule, steps)
        assert all(_flags(mats))
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi, buf.shape[0]))
        _assert_loops_match_the_references(monkeypatch, buf, lo, hi, mats, phase)
        origin = int(rng.integers(-2, width + 2))
        for walks in (1, 4):
            block = _hadamard_stack(rng, rule, steps, walks)
            _assert_both_paths_match(monkeypatch, lambda: _probe(buf[lo:hi + 1], origin, block))
            _assert_probe_matches(buf[lo:hi + 1], origin, block)


def test_balanced_noisy_ensembles_keep_their_bits(monkeypatch):
    """A noisy 1/100 ensemble, as ``noise-series`` runs it, against the general path and
    against each trajectory's reference run."""
    params = hadamard_params(Field.rational(1, 100))
    start = WalkState.single_site(x=1, spinor=(0.6, 0.8j))
    noise = NoiseConfig(epsilon=1e-3, seed=5)
    fields = [noise.draw_fields(params.field.value, 300, i) for i in range(6)]
    p0, = _assert_both_paths_match(
        monkeypatch, lambda: [ensemble_tracking_origin(start, 300, params, fields)])
    for e, values in enumerate(fields):
        assert _same_bits(p0[e], reference_track_origin(start, 300, params, values)[1])


def _degenerate(rng, kind):
    """A Hadamard matrix with a real or imaginary part of an entry set to +0.0 or -0.0,
    or an entry set to NaN. A change to m01 is copied into m11 on odd draws, so about
    half of the matrices stay balanced; a zero in m11 alone leaves m01's other sign."""
    m = _hadamard_stack(rng, TimeRule.RX_FIELD, 1)[0]
    row, col, part, copy = (int(k) for k in rng.integers(0, 2, 4))
    z = m[row, col]
    if kind == "nan":
        m[row, col] = np.nan
    else:
        value = 0.0 if kind == "+0" else -0.0
        m[row, col] = complex(value, z.imag) if part == 0 else complex(z.real, value)
    if col == 1 and copy:
        m[1 - row, 1] = m[row, 1]
    return m


def test_degenerate_steps_keep_their_bits(rng, monkeypatch):
    """Steps with +0.0 or -0.0 parts or NaN entries are flagged exactly where m11 has
    the bits of m01, and keep the general path's and the reference loops' bits,
    signed zeros included, at stride 1 and 2."""
    for case in range(30):
        steps = int(rng.integers(2, 30))
        mats = _hadamard_stack(rng, TimeRule.RX_FIELD, steps)
        bad = rng.random(steps) < 0.4
        bad[rng.integers(0, steps)] = True
        kind = ("+0", "-0", "nan")[case % 3]
        mats[bad] = [_degenerate(rng, kind) for _ in range(bad.sum())]
        assert _flags(mats) == [m[0, 1].tobytes() == m[1, 1].tobytes() for m in mats]
        buf, lo, hi, _ = _random_case(rng, steps, (1, 4)[case % 2])
        bounds, window = _assert_both_paths_match(
            monkeypatch, lambda: _matrix_then_shift(buf, lo, hi, mats))
        if kind != "nan":
            ref = buf.copy()
            assert bounds == reference_matrix_then_shift(ref, lo, hi, mats)
            _assert_window_bits(bounds, window, ref, _occupied(buf, lo, hi, steps))
    for field in (Field.rational(0, 1), Field.rational(1, 7)):
        assert all(_flags(hadamard_params(field).step_matrices(1, 70)))


@pytest.mark.parametrize("argv", [
    ["bloch-trace", "--field", "0", "--tmax", "300"],
    ["bloch-trace", "--field", "1/2", "--spinor", "1,1", "--tmax", "300"],
    ["bloch-trace", "--field", "1/2", "--spinor", "1,1", "--tmax", "300", "--format", "json"],
    ["bloch-trace", "--field", "1/4", "--spinor", "1,1j", "--x0=-3", "--tmax", "300"],
    ["bloch-trace", "--field", "1/2", "--spinor", "1,-1", "--x0=-5", "--tmax", "300"],
    ["evolve", "--field", "1/2", "--spinor", "1,1", "--tmax", "60"],
])
def test_cli_bytes_do_not_depend_on_the_balanced_path(monkeypatch, capsys, argv):
    """Walks with exact zeros (field 0; field 1/2, where the Hadamard step from spinor
    (1, 1) cancels exactly; a start left of the origin, which the right edge, with
    its zero down amplitude, reaches) print the same bytes, -0.0 and 0.0 included,
    with the balanced steps and with the general path only."""
    assert cli.main(argv) == 0
    fast = capsys.readouterr().out
    _general_only(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == fast


def test_balanced_flags_cover_the_hadamard_walks():
    """Every step of the golden and 1/7 Hadamard walks and of a noisy 1/100 ensemble
    block is flagged; coin (0.6, 0.8i) and the electric walk's coin, whose m11 is
    m01 with the imaginary zero's sign flipped, are never flagged."""
    golden = hadamard_params(Field.golden())
    assert all(_flags(golden.step_matrices(1, 6000)))
    fields = NoiseConfig(epsilon=1e-3, seed=1).draw_fields(0.01 * 2 * np.pi, 32 * 50, 0)
    block = hadamard_params(Field.rational(1, 100)).step_matrices(
        1, 32, field_values=fields.reshape(32, 50))
    assert all(_flags(np.ascontiguousarray(np.moveaxis(block, 1, -1)), walks=50))
    assert all(_flags(hadamard_params(Field.rational(1, 7)).step_matrices(1, 6000)))
    assert not any(_flags(WalkParams(Field.golden(), 0.6, 0.8j).step_matrices(1, 6000)))
    electric_coin = np.broadcast_to(make_coin(2 ** -0.5, 2 ** -0.5), (100, 2, 2))
    assert not any(_flags(electric_coin))


def test_an_ensemble_step_is_balanced_only_in_every_walk(rng):
    """One walk whose m11 is not m01 at a step, by value or by a zero's sign, clears
    that step's flag; m00 and m10 do not enter it."""
    block = _hadamard_stack(rng, TimeRule.RX_FIELD, 40, walks=3)
    block[7, :, :, 2] = _su2_entries(rng).reshape(2, 2)
    block[20, 1, 1, 0] *= -1
    block[30, :, 1, 1] = 0.5
    block[30, 1, 1, 1] = complex(0.5, -0.0)
    block[33, 0, 0, 1] = block[33, 1, 0, 2] = np.nan
    assert _flags(block, walks=3) == [t not in (7, 20, 30) for t in range(40)]


def test_long_blocks_are_checked_in_chunks(rng, monkeypatch):
    """A block longer than ``CHECK_ROWS`` steps is checked a chunk at a time, and
    every step keeps its own flag, for one walk and for an ensemble."""
    monkeypatch.setattr(_kernels, "CHECK_ROWS", 3)
    unbalanced = (2, 3, 7, 9)
    for walks in (1, 3):
        block = _hadamard_stack(rng, TimeRule.RX_FIELD, 10, walks=None if walks == 1 else walks)
        for t in unbalanced:
            block[t, 1, 1] = -block[t, 1, 1]
        assert _flags(block, walks) == [t not in unbalanced for t in range(10)]


def test_one_walk_single_steps_are_not_checked(rng):
    """A one-step block of one walk takes the general path unchecked; of E walks it is checked."""
    step = _hadamard_stack(rng, TimeRule.RX_FIELD, 1)
    assert _flags(step) == [False] and _flags(step[..., None].repeat(3, -1), walks=3) == [True]


def test_balanced_steps_keep_the_signs_of_zeros(monkeypatch):
    """Where a site's down amplitude is exactly zero, m01 d and m11 d hold -0.0 parts
    wherever m01's do not, and m10 u is +0.0 where m00 u cancels. A window whose every
    other site is zero, at stride 1, meets both in the Hadamard steps with
    cos(theta) < 0: d = Q - P, with Q = m01 d and P = m00 u, would give -0.0 there
    where m10 u + m11 d gives +0.0. The balanced steps keep every bit."""
    r = 2 ** -0.5
    psi = np.array([[0.6, 0.8j], [0, 0], [0.8, 0.6j], [0, 0]], dtype=complex)
    for theta in (0.5, 2.0, 3.5, 5.0):
        m00, m01 = r * np.exp(-1j * theta), r * np.exp(1j * theta)
        mats = np.array([[[m00, m01], [-m00, m01]]] * 2)
        assert _flags(mats) == [True, True]
        u, d = np.ascontiguousarray(psi.T)
        P, Q, N = m00 * u, m01 * d, -m00 * u
        four = (Q - P).view(np.uint64) != (N + Q).view(np.uint64)
        assert four.any() == (np.cos(theta) < 0)
        _assert_both_paths_match(
            monkeypatch, lambda: _kernels.steps_matrix_then_shift(psi, 0, 3, mats))
        ref = np.zeros((8, 2), dtype=complex)
        ref[2:6] = psi
        bounds, window = _matrix_then_shift(ref.copy(), 2, 5, mats)
        assert bounds == reference_matrix_then_shift(ref, 2, 5, mats)
        _assert_window_bits(bounds, window, ref, np.ones(8, dtype=bool))


def _nan(payload, sign=0):
    """A quiet NaN with the given payload bits (and sign bit)."""
    return np.array([0x7FF8000000000000 | payload | sign << 63], dtype=np.uint64).view(float)[0]


def _with_nans(rng, psi, payloads, sites):
    """``psi`` with NaNs of distinct payloads (and random signs) in the up and down
    amplitudes of ``sites``: in the real or the imaginary part, or both."""
    psi = psi.copy()
    for site, spin in itertools.product(sites, (0, 1)):
        parts = psi[site, spin].real, psi[site, spin].imag
        keep = int(rng.integers(0, 3))  # 2 makes both parts NaN
        psi[site, spin] = complex(*(parts[k] if k == keep else
                                    _nan(next(payloads), int(rng.integers(0, 2))) for k in (0, 1)))
    return psi


def test_nan_payloads_keep_the_operand_order(rng, monkeypatch):
    """Sites whose u and d hold NaNs with different payloads. A numpy sum of two NaNs
    returns one operand's NaN (on x86 the first's, the second's in a loop's last
    n mod 4 elements),
    so the bits pin every sum's operand order, on the balanced and the general path:
    both kernels against the interleaved reference loops, and the probe's first step,
    with one walk and with three, against ``reference_spin_product`` on the same window.
    The probe's later steps cover other windows than a full run's, so their NaNs need
    not match the reference loops'."""
    payloads = iter(range(1, 10 ** 6))
    for case in range(12):
        steps, width = int(rng.integers(3, 20)), (2, 4, 5)[case % 3]
        buf, lo, hi, _ = _random_case(rng, steps, width)
        sites = lo + rng.choice(width, size=2, replace=False)
        buf = _with_nans(rng, buf, payloads, sites)
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi, buf.shape[0]))
        for mats in _step_stacks(rng, steps):
            _assert_loops_match_the_references(monkeypatch, buf, lo, hi, mats, phase)

        # two steps put every site of the window in the first step's light cone
        psi = buf[lo:hi + 1]
        for origin in range(max(0, width - 3), min(width, 3)):
            psi = _with_nans(rng, psi, payloads,
                             [x for x in (origin - 1, origin + 1) if 0 <= x < width])
            for walks in (1, 3):
                for block in (_hadamard_stack(rng, TimeRule.RX_FIELD, 2, walks=3)[..., :walks],
                              np.stack([_random_unitaries(rng, 2) for _ in range(walks)], -1)):
                    block = np.ascontiguousarray(block)
                    _, spinors = _assert_both_paths_match(
                        monkeypatch, lambda: _probe(psi, origin, block))
                    m = block[0].reshape(4, walks)
                    u, d = (np.ascontiguousarray(psi[:, k:k + 1].repeat(walks, 1)) for k in (0, 1))
                    if walks == 1:
                        m, u, d = m[:, 0], u[:, 0], d[:, 0]
                    u, d = _unpacked_product(m, u, d)
                    want = np.zeros((walks, 2), dtype=complex)
                    if origin > 0:
                        want[:, 0] = u[origin - 1]
                    if origin + 1 < width:
                        want[:, 1] = d[origin + 1]
                    assert _same_bits(spinors[:, 0], want) and np.isnan(want).any()


def test_smallest_windows_keep_their_bits(rng, monkeypatch):
    """Two-site windows, the smallest that multiply in place, and calls that a diagonal
    step trims to one site mid-call (the next matrix-then-shift step takes the
    one-element calls) match the reference loops bit for bit on the balanced and the
    general path; so does the probe on one-site windows, with one walk (one element)
    and with three."""
    for case in range(16):
        steps = int(rng.integers(2, 25))
        balanced, general = _step_stacks(rng, steps)
        for mats in (balanced, general):
            buf, lo, hi, _ = _random_case(rng, steps, 2, tiny_edges=False)
            phase = np.exp(1j * rng.uniform(-np.pi, np.pi, buf.shape[0]))
            _assert_loops_match_the_references(monkeypatch, buf, lo, hi, mats, phase)

            # one O(1) site among sub-threshold ones: a diagonal step moves its up part
            # right and the trims leave that one site, at stride 1
            buf, lo, hi, _ = _random_case(rng, steps, 4)
            buf[lo:hi + 1] *= 1e-230
            site = lo + int(rng.integers(0, 4))
            buf[site] = (0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi)), 0.0)
            trimmed = mats.copy()
            trimmed[0] = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
            for reference in (reference_matrix_then_shift, reference_shift_then_matrix):
                ref = buf.copy()
                assert reference(ref, lo, hi, trimmed[:1]) == (site + 1, site + 1)
            _assert_loops_match_the_references(monkeypatch, buf, lo, hi, trimmed, phase)

        psi = np.array([[0.6, 0.8j]]) if case % 2 else np.exp(1j * rng.uniform(0, 6, (1, 2))) / 2 ** 0.5
        origin = int(rng.integers(-3, 4))
        for walks in (1, 3):
            for block in (_hadamard_stack(rng, TimeRule.RX_FIELD, steps, walks=3)[..., :walks],
                          np.stack([_random_unitaries(rng, steps) for _ in range(walks)], axis=-1)):
                block = np.ascontiguousarray(block)
                _assert_both_paths_match(monkeypatch, lambda: _probe(psi, origin, block))
                _assert_probe_matches(psi, origin, block)


def _permuting_matrix(rng):
    """A diagonal or antidiagonal unitary with entries in {1, -1, i, -i}.

    A step with it moves every component exactly, so a real or imaginary
    part below the trim threshold reaches the edges intact.
    """
    p, q = (complex((1, -1, 1j, -1j)[k]) for k in rng.integers(0, 4, 2))
    return np.array([[p, 0], [0, q]]) if rng.random() < 0.5 else np.array([[0, p], [q, 0]])


def _edge_case(rng, steps, width):
    """A window whose real and imaginary parts are each O(1), sub-threshold or zero.

    A third of the windows hold one O(1) part and sub-threshold ones
    elsewhere, so the trims shrink them to one site. Most steps permute
    (``_permuting_matrix``); a tenth are random unitaries.
    """
    pad = steps + 2
    buf = np.zeros((width + 2 * pad, 2), dtype=complex)
    parts = rng.normal(size=(width, 2, 2)) * np.array([1.0, 1e-230, 0.0])[
        rng.integers(0, 3, size=(width, 2, 2))]
    if rng.random() < 1 / 3:
        parts *= 1e-230
        parts[rng.integers(0, width), rng.integers(0, 2), rng.integers(0, 2)] = 0.8
    buf[pad:pad + width] = parts[..., 0] + 1j * parts[..., 1]
    mats = np.stack([_permuting_matrix(rng) if rng.random() < 0.9 else _random_unitaries(rng, 1)[0]
                     for _ in range(steps)])
    return buf, pad, pad + width - 1, mats


def _trim_patterns(up, dn, lo, hi, ui, di):
    """Each edge site the one-walk trim rule reads: which of lead.real, lead.imag,
    other.real and other.imag are below the threshold (``_reference_trim``'s order)."""
    def below(lead, other):
        return tuple(abs(v) < REFERENCE_TRIM_THRESHOLD
                     for v in (lead.real, lead.imag, other.real, other.imag))
    patterns = []
    while hi > lo:
        patterns.append(below(up[hi + ui], dn[hi + di]))
        if not all(patterns[-1]):
            break
        hi -= 1
    while lo < hi:
        patterns.append(below(dn[lo + di], up[lo + ui]))
        if not all(patterns[-1]):
            break
        lo += 1
    return patterns


def _run_edge_case(rng, path, buf, lo, hi, mats):
    """Run ``path`` on the case and check it against its interleaved reference loop."""
    steps = mats.shape[0]
    if path == "track_origin":
        # field 0 makes every step matrix the coin; the coins permute
        a, b = ((1, 0), (0, 1), (1j, 0), (0, 1j))[rng.integers(0, 4)]
        params = WalkParams(Field.from_turns(0.0), a, b)
        start = WalkState(x_min=-int(rng.integers(0, hi - lo + 1)), amplitudes=buf[lo:hi + 1])
        spinors = track_origin(start, steps, params)
        _assert_origin_spinors(spinors, reference_track_origin(start, steps, params)[2],
                               start.amplitudes, -start.x_min)
    elif path == "probe":
        for origin in (lo, hi, int(rng.integers(lo - steps, hi + steps + 1))):
            _assert_probe_matches(buf[lo:hi + 1], origin - lo, mats[..., None])
    elif path == "matrix_then_shift":
        ref = buf.copy()
        bounds, new = _matrix_then_shift(buf, lo, hi, mats)
        assert bounds == reference_matrix_then_shift(ref, lo, hi, mats)
        _assert_window_bits(bounds, new, ref, _occupied(buf, lo, hi, steps))
    else:
        # unit phases keep the parts apart, others mix them
        phase = (np.array([1, -1, 1j, -1j])[rng.integers(0, 4, buf.shape[0])] if rng.random() < 0.5
                 else np.exp(1j * rng.uniform(-np.pi, np.pi, buf.shape[0])))
        ref = buf.copy()
        bounds, new = _shift_then_matrix(buf, lo, hi, mats, phase)
        assert bounds == reference_shift_then_matrix(ref, lo, hi, mats, phase)
        _assert_window_bits(bounds, new, ref, _occupied(buf, lo, hi, steps))


@pytest.mark.parametrize("path", ["matrix_then_shift", "shift_then_matrix", "probe",
                                  "track_origin"])
def test_one_walk_trim_matches_the_reference_through_each_kernel(rng, path):
    """The one-walk branch of ``_trim``, through each kernel, against the reference loops.

    Every ``_trim`` call of the run is checked against ``_reference_trim``,
    and the runs cover edges where only the lead part is below the
    threshold, where only one real or imaginary part is not, both edges
    trimmed in one step, and windows trimmed to one site.
    """
    trim, patterns, both_edges, one_site = _kernels._trim, set(), False, False

    def spy(up, dn, lo, hi, ui, di):
        nonlocal both_edges, one_site
        assert up.ndim == 1
        patterns.update(_trim_patterns(up, dn, lo, hi, ui, di))
        want = _reference_trim(up, dn, lo, hi, ui, di)
        got = trim(up, dn, lo, hi, ui, di)
        assert got == want[:2] and _same_bits(up, want[2]) and _same_bits(dn, want[3])
        both_edges |= got[0] > lo and got[1] < hi
        one_site |= got[0] == got[1] and hi > lo
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_trim", spy)
        for _ in range(120):
            steps, width = int(rng.integers(1, 12)), int(rng.integers(1, 9))
            _run_edge_case(rng, path, *_edge_case(rng, steps, width))
    lead_only = {(True, True, False, False), (True, True, True, False), (True, True, False, True)}
    one_part = {tuple(i != k for i in range(4)) for k in range(4)}
    assert patterns >= one_part and patterns & lead_only and (True,) * 4 in patterns
    assert both_edges and one_site


def _random_ensemble(rng, steps, walks, width):
    """A shared start with sub-threshold components, and unitary matrices per walk.

    A third of the matrices are diagonal or antidiagonal, so a sub-threshold
    component lands on an edge site in some walks but not in others, and the
    walks' windows split.
    """
    psi = rng.normal(size=(width, 2)) + 1j * rng.normal(size=(width, 2))
    psi /= np.linalg.norm(psi)
    tiny = rng.random(size=(width, 2)) < 0.35
    psi[tiny] *= 10.0 ** -rng.uniform(201, 240, size=tiny.sum())
    psi[rng.random(size=(width, 2)) < 0.1] = 0.0
    mats = np.empty((steps, 2, 2, walks), dtype=complex)
    for t in range(steps):
        for e in range(walks):
            a, b = random_su2(rng)
            kind = rng.integers(0, 6)
            if kind == 0:
                a, b = a / abs(a), 0j
            elif kind == 1:
                a, b = 0j, b / abs(b)
            mats[t, :, :, e] = [[a, b], [-b.conjugate(), a.conjugate()]]
    return psi, mats


@pytest.mark.parametrize("walks", [1, 2, 5])
def test_probe_ensemble_matches_each_walk(rng, walks):
    """Every walk's p0 is its own run's, bit for bit.

    Covers sub-threshold edges that split the windows, origins inside, beside
    and out of reach of the start window, and runs of one step.
    """
    split = False
    for case in range(40):
        steps = 1 if case < 3 else int(rng.integers(2, 30))
        width = int(rng.integers(1, 10))
        origin = int(rng.integers(-steps - 3, width + steps + 3))
        psi, mats = _random_ensemble(rng, steps, walks, width)
        split |= len(set(_assert_probe_matches(psi, origin, mats)[1])) > 1
    assert split or walks == 1


@pytest.mark.parametrize("walks", [1, 2, 5])
def test_probe_ensemble_steps_the_occupied_sublattice(rng, walks):
    """Windows of one sublattice wider than one site take stride 2, bit for bit.

    Covers sub-threshold edges, origins of both parities relative to the
    window's first row, and origins inside, outside and out of reach of the
    window. At every step that leaves the origin's sublattice empty, p0 is
    +0.0 in every walk. Setting one odd row makes the window two
    sublattices: it then takes stride 1, still bit for bit, and p0 is
    non-zero at such steps.
    """
    seen, mixed = set(), False
    for case in range(40):
        steps = int(rng.integers(1, 30))
        width = int(rng.choice([3, 5, 7, 9]))
        origin = int(rng.integers(-steps - 3, width + steps + 3))
        psi, mats = _random_ensemble(rng, steps, walks, width)
        psi[1::2] = 0.0
        if case % 2:
            psi[[0, -1]] *= 1e-230
        empty = (origin - np.arange(steps + 1)) % 2 == 1
        assert _kernels._stride(psi) == 2
        p0 = _assert_probe_matches(psi, origin, mats)[0]
        assert not p0[:, empty].view(np.uint64).any()
        seen.add((origin % 2, 0 <= origin < width, -steps <= origin < width + steps))
        psi[1] = [0.6, 0.8j]
        assert _kernels._stride(psi) == 1
        p0 = _assert_probe_matches(psi, origin, mats)[0]
        mixed |= p0[:, empty].any()
    assert mixed
    assert seen >= {(0, True, True), (1, True, True), (0, False, True), (1, False, True),
                    (0, False, False), (1, False, False)}


def test_probe_ensemble_trims_a_site_only_when_every_walk_does():
    """The walks share one window, which keeps an edge site any walk still holds.

    Gains (not unitary) grow a sub-threshold amplitude that the shared window
    keeps into p0, so a walk-by-walk trim would show.
    """
    # walk 1's first matrix turns walk 0's sub-threshold down amplitude into a
    # full site, so walk 0 keeps that amplitude, which its own run trims
    psi = np.array([[1.0, 1e-230]], dtype=complex)
    mats = np.zeros((26, 2, 2, 2), dtype=complex)
    mats[:, 0, 0] = mats[:, 1, 1] = 1.0
    mats[0, :, :, 1] = [[0.0, 1.0], [1.0, 0.0]]
    mats[1:6] *= 1e20
    own = _probe_each_walk(psi, mats, -6)[0]
    p0 = _probe(psi, -6, mats)[0]
    assert own[0, 6] == 0.0 and 1e-261 < p0[0, 6] < 1e-259
    assert _same_bits(p0[0, :6], own[0, :6])
    assert own[1, 6] > 1e199 and _same_bits(p0[1, :7], own[1, :7])


def _below_threshold(*values):
    """True when every component of the complex ``values`` is below the trim threshold."""
    return all(abs(v.real) < REFERENCE_TRIM_THRESHOLD and abs(v.imag) < REFERENCE_TRIM_THRESHOLD
               for v in values)


def _reference_trim(up, dn, lo, hi, ui, di):
    """The every-walk trim rule, one Python complex at a time, on copies of the arrays.

    The arrays are 1-D for one walk and (rows, E) for E walks.
    """
    up, dn = up.copy(), dn.copy()

    def every_walk_negligible(i):
        return _below_threshold(*np.atleast_1d(up[i + ui]).tolist(),
                                *np.atleast_1d(dn[i + di]).tolist())

    while hi > lo and every_walk_negligible(hi):
        up[hi + ui] = dn[hi + di] = 0.0
        hi -= 1
    while lo < hi and every_walk_negligible(lo):
        up[lo + ui] = dn[lo + di] = 0.0
        lo += 1
    return lo, hi, up, dn


@pytest.mark.parametrize("walks", [1, 3])
def test_trim_keeps_a_site_any_walk_holds(walks):
    """Walk 0's scalar check first: an edge negligible only in walk 0 stays, one
    negligible in every walk goes, and sub-threshold parts in any component
    or walk are judged as the every-walk rule judges them. One walk has 1-D
    arrays, as the kernels give it."""
    tiny = 1e-230
    cases = [
        # right edge (site 4) negligible in walk 0 only; left edge (site 0) in every walk
        ({(4, 0): tiny, (0, 0): tiny, (0, 1): tiny, (0, 2): tiny}, (1, 4)),
        # both edges negligible in every walk, the next site inward in walk 0 only
        ({(4, 0): 0.0, (4, 1): tiny, (4, 2): 0.0, (3, 0): tiny,
          (0, 0): 0.0, (0, 1): 0.0, (0, 2): tiny, (1, 0): 0.0}, (1, 3)),
        # walk 0 holds both edges; the others are negligible there
        ({(4, 1): 0.0, (4, 2): 0.0, (0, 1): tiny, (0, 2): 0.0}, (0, 4)),
        # every site negligible in every walk: one site is left
        ({(i, e): tiny for i in range(5) for e in range(3)}, (0, 0)),
    ]
    for values, (want_lo, want_hi) in cases:
        # site i of walk r: up[i + 2, r], dn[i + 1, r]; neighbours outside [0, 4] are zero
        up = np.zeros((8, walks), dtype=complex)
        dn = np.zeros((7, walks), dtype=complex)
        up[2:7] = 0.6 + 0.1j
        dn[1:6] = 0.3 - 0.2j
        for (i, r), value in values.items():
            if r < walks:
                up[i + 2, r] = value * (1 + 1j)
                dn[i + 1, r] = value * 0.5
        if walks == 1:  # only walk 0's entries decide
            up, dn = up[:, 0].copy(), dn[:, 0].copy()
            want_lo, want_hi = _reference_trim(up, dn, 0, 4, 2, 1)[:2]
        ref_lo, ref_hi, ref_up, ref_dn = _reference_trim(up, dn, 0, 4, 2, 1)
        assert (ref_lo, ref_hi) == (want_lo, want_hi)
        assert _kernels._trim(up, dn, 0, 4, 2, 1) == (want_lo, want_hi)
        assert _same_bits(up, ref_up) and _same_bits(dn, ref_dn)
    # the part the shift brings to an edge (up on the right, down on the left)
    # is negligible in every walk there, the other part is not: both edges stay
    up, dn = np.full((8, walks), 0.6 + 0.1j), np.full((7, walks), 0.3 - 0.2j)
    up[4 + 2] = dn[0 + 1] = tiny
    if walks == 1:
        up, dn = up[:, 0].copy(), dn[:, 0].copy()
    assert _kernels._trim(up, dn, 0, 4, 2, 1) == (0, 4)


def test_probe_ensemble_edge_checks_match_each_walk():
    """Edges negligible in walk 0 alone stay, edges negligible in every walk go.

    Walk 0 keeps its first-step down amplitude at exactly zero (a diagonal
    matrix) while the other walks spread, so walk 0 alone is negligible at
    the left edge; with every walk diagonal, that edge is trimmed. p0 keeps
    the bits of each walk's own run either way.
    """
    steps = 12
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    for walks, spreading, kept in ((3, (1, 2), True), (2, (), False)):
        mats = np.zeros((steps, 2, 2, walks), dtype=complex)
        mats[:, 0, 0] = 1.0
        mats[:, 1, 1] = np.exp(0.3j * np.arange(walks))
        for e in spreading:
            mats[:, :, :, e] = hadamard
        psi = np.array([[0.6, 0.0], [0.0, 0.0], [0.8j, 0.0]])
        edges = []
        trim = _kernels._trim

        def spy(up, dn, lo, hi, ui, di):
            want = _reference_trim(up, dn, lo, hi, ui, di)
            if hi > lo:
                neg = [_below_threshold(up[lo + ui, e], dn[lo + di, e]) for e in range(walks)]
                edges.append((neg[0], all(neg), want[0] == lo))
            got = trim(up, dn, lo, hi, ui, di)
            assert got == want[:2] and _same_bits(up, want[2]) and _same_bits(dn, want[3])
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "_trim", spy)
            p0 = _probe(psi, 1, mats)[0]
        assert _same_bits(p0, _probe_each_walk(psi, mats, 1)[0])
        # the left edge: negligible in walk 0, and kept only while another walk holds it
        assert (True, not kept, kept) in edges
        assert (True, kept, not kept) not in edges


@pytest.mark.parametrize("field,coin,seed,walks", [
    (Field.from_turns(0.3), (0.1, 0.99498743710662j), 2, 3),
    (Field.golden(), (0.999, 0.0447101778122163j), 1, 2),
])
def test_ensemble_tracking_origin_keeps_sites_some_trajectories_trim(field, coin, seed, walks):
    """1200 noisy steps; where the cone meets the windows, the trajectories trim different sites."""
    params = WalkParams(field, *coin)
    start = WalkState.single_site()
    noise = NoiseConfig(epsilon=0.05, seed=seed)
    fields = [noise.draw_fields(field.value, 1200, i) for i in range(walks)]
    # at step 600 the cone's edge meets the windows' edges
    windows = {(s.x_min, s.x_max)
               for s in (evolve(start, 1, 600, params, field_values=f[:600]) for f in fields)}
    assert len(windows) > 1
    p0 = ensemble_tracking_origin(start, 1200, params, fields)
    for e, values in enumerate(fields):
        assert _same_bits(p0[e], reference_track_origin(start, 1200, params, values)[1])


def test_ensemble_tracking_origin_mixes_localized_and_spreading_walks():
    """A 2*pi/7 walk and a golden one, in one call of 3000 steps.

    The golden walk's own window stops growing (about 2640 sites from step
    1500 on) while the 2*pi/7 walk's keeps growing, so in the shared window
    the golden walk keeps tails that its own run trims.
    """
    params = hadamard_params(Field.golden())
    start = WalkState.single_site()
    fields = [np.full(3000, field.value) for field in (Field.rational(1, 7), Field.golden())]
    p0 = ensemble_tracking_origin(start, 3000, params, fields)
    widths = []
    for e, values in enumerate(fields):
        final, own, _ = reference_track_origin(start, 3000, params, values)
        widths.append(final.amplitudes.shape[0])
        assert _same_bits(p0[e], own)
    assert widths[1] < widths[0]


def test_ensemble_tracking_origin_matches_each_trajectory():
    """3000 noisy golden steps from x = 2: the cone crosses the trimmed tails."""
    params = hadamard_params(Field.golden())
    start = WalkState.single_site(x=2, spinor=(0.6, 0.8j))
    noise = NoiseConfig(epsilon=1e-4, seed=4)
    fields = [noise.draw_fields(params.field.value, 3000, i) for i in range(3)]
    # by the step where the cone's edge meets the window's, the window is trimmed
    half = evolve(start, 1, 1500, params, field_values=fields[0][:1500])
    assert half.amplitudes.shape[0] < 2 * 1500 + 1
    p0 = ensemble_tracking_origin(start, 3000, params, fields)
    for e, values in enumerate(fields):
        assert _same_bits(p0[e], reference_track_origin(start, 3000, params, values)[1])


@pytest.mark.parametrize("x0,t_max", [(0, 1), (1, 1), (-1, 2), (3, 40), (-9, 9), (12, 11)])
def test_ensemble_tracking_origin_single_walk(x0, t_max):
    """One walk, one step, and starts off the origin, also out of its reach."""
    params = WalkParams(Field.rational(1, 7), 0.6, 0.8j)
    start = WalkState.single_site(x=x0, spinor=(0.6, 0.8j))
    fields = NoiseConfig(epsilon=1e-2, seed=1).draw_fields(params.field.value, t_max, 0)
    p0 = ensemble_tracking_origin(start, t_max, params, [fields])
    assert _same_bits(p0[0], reference_track_origin(start, t_max, params, fields)[1])
    assert p0.shape == (1, t_max + 1) and np.any(p0 > 0.0) == (abs(x0) <= t_max)


def test_ensemble_tracking_origin_memory_is_the_occupied_sublattice():
    """From one site the four (rows, E) arrays hold one sublattice of the cone.

    With stride 1 (both sublattices, T + 1 rows) the tracemalloc peak of this
    call was 7882380 bytes (numpy 2.4, x86-64); with stride 2 the arrays have
    T/2 + 1 rows.
    """
    params = hadamard_params(Field.rational(1, 100))
    noise = NoiseConfig(epsilon=1e-3, seed=1)
    fields = [noise.draw_fields(params.field.value, 1000, i) for i in range(100)]
    start = WalkState.single_site()
    tracemalloc.start()
    try:
        ensemble_tracking_origin(start, 1000, params, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.7 * 7882380, peak


def test_ensemble_tracking_origin_needs_the_rx_field_rule():
    params = hadamard_params(Field.golden(), TimeRule.GAUGED_SZ)
    with pytest.raises(ValueError):
        ensemble_tracking_origin(WalkState.single_site(), 3, params, [np.zeros(3)])
