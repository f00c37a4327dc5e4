"""The two step-order kernels, through the paths that share them, against the dict references."""

import numpy as np

from conftest import max_diff, random_su2, reference_electric, reference_evolve, state_to_dict
from qpwalk import _kernels
from qpwalk.gauge import electric_evolve
from qpwalk.walk import (Field, WalkParams, WalkState, evolve, evolve_tracking_origin,
                         hadamard_params, return_probability)


def _random_case(rng, steps=9, width=5):
    pad = steps + 2
    buf = np.zeros((width + 2 * pad, 2), dtype=complex)
    block = rng.normal(size=(width, 2)) + 1j * rng.normal(size=(width, 2))
    block /= np.linalg.norm(block)
    buf[pad:pad + width] = block
    mats = np.empty((steps, 2, 2), dtype=complex)
    for i in range(steps):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        mats[i] = q
    return buf, pad, pad + width - 1, mats


def test_window_bounds_track_support(rng):
    buf, lo, hi, mats = _random_case(rng, steps=4, width=3)
    lo2, hi2 = _kernels.steps_matrix_then_shift(buf, lo, hi, mats)
    assert (lo2, hi2) == (lo - 4, hi + 4)
    assert np.all(buf[:lo2] == 0) and np.all(buf[hi2 + 1:] == 0)


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
