import math

import numpy as np
import pytest

from qpwalk.momentum import alpha_tilde_sup
from qpwalk.noise import NoiseConfig, noise_bound, noise_bound_for, noisy_evolve, return_series
from qpwalk.revivals import expected_sign, revival_time
from qpwalk.walk import Field, WalkState, evolve, evolve_tracking_origin, hadamard_params

HALF = 1.0 / math.sqrt(2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(epsilon=0.1, ensemble_size=0)
    with pytest.raises(ValueError):
        NoiseConfig(epsilon=0.1, support="pm2")


def test_zero_noise_is_bitwise_clean():
    params = hadamard_params(Field.rational(1, 9))
    noise = NoiseConfig(epsilon=0.0, seed=3)
    clean = evolve(WalkState.single_site(), 1, 25, params)
    noisy = noisy_evolve(WalkState.single_site(), 25, params, noise)
    assert np.array_equal(clean.amplitudes, noisy.amplitudes)


def test_trajectories_are_reproducible_and_distinct():
    params = hadamard_params(Field.rational(1, 9))
    noise = NoiseConfig(epsilon=1e-2, seed=11)
    again = NoiseConfig(epsilon=1e-2, seed=11)
    a = noisy_evolve(WalkState.single_site(), 20, params, noise, trajectory=4)
    b = noisy_evolve(WalkState.single_site(), 20, params, again, trajectory=4)
    c = noisy_evolve(WalkState.single_site(), 20, params, noise, trajectory=5)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_draw_fields_support():
    base = 2.0 * math.pi / 9.0
    sym = NoiseConfig(epsilon=1e-3, seed=0, support="pm1")
    pos = NoiseConfig(epsilon=1e-3, seed=0, support="01")
    draws_sym = sym.draw_fields(base, 500, 0)
    draws_pos = pos.draw_fields(base, 500, 0)
    assert np.all(np.abs(draws_sym - base) <= 1e-3)
    assert np.all((draws_pos >= base) & (draws_pos <= base + 1e-3))
    assert np.any(draws_sym < base)


def test_noisy_state_obeys_accumulated_lipschitz():
    """Per-step spin matrices differ by at most t*epsilon in norm, so the
    final states differ by at most sum_t t*epsilon = t(t+1)/2 * epsilon."""
    params = hadamard_params(Field.rational(1, 7))
    eps = 2e-3
    noise = NoiseConfig(epsilon=eps, seed=5)
    for t in (10, 30):
        clean = evolve(WalkState.single_site(), 1, t, params)
        noisy = noisy_evolve(WalkState.single_site(), t, params, noise)
        # common buffer comparison
        width = max(clean.amplitudes.shape[0], noisy.amplitudes.shape[0])
        a = np.zeros((width, 2), dtype=complex)
        b = np.zeros((width, 2), dtype=complex)
        a[:clean.amplitudes.shape[0]] = clean.amplitudes
        b[:noisy.amplitudes.shape[0]] = noisy.amplitudes
        assert np.linalg.norm(a - b) <= t * (t + 1) / 2.0 * eps + 1e-12


def test_noise_bound_values():
    assert noise_bound(15, 5e-4, 0.0) == pytest.approx(15 * 31 * 5e-4)
    assert noise_bound(24, 1e-3, 0.0) == pytest.approx(12 * 25 * 1e-3)
    alpha = 2.0 ** -0.5
    assert noise_bound(6, 0.0, alpha) == pytest.approx(alpha ** 6)
    with pytest.raises(ValueError):
        noise_bound(0, 1e-3, 0.5)
    with pytest.raises(ValueError):
        noise_bound(3, 1e-3, 1.5)


def test_noise_bound_for_uses_coin_sup():
    params = hadamard_params(Field.rational(1, 15))
    expected = noise_bound(15, 1e-4, alpha_tilde_sup(HALF, HALF))
    assert noise_bound_for(params, 15, 1e-4) == expected


@pytest.mark.parametrize("m,eps", [(15, 5e-4), (24, 1e-3)])
def test_noisy_revival_deviation_within_bound(m, eps):
    """In regimes where the accumulated-noise term dominates the clean
    remainder, the measured noisy deviation must respect the bound."""
    params = hadamard_params(Field.rational(1, m))
    time = revival_time(m)
    sign = expected_sign(m)
    bound = noise_bound_for(params, m, eps)
    noise = NoiseConfig(epsilon=eps, seed=99)
    start = WalkState.single_site()
    for trajectory in range(10):
        out = noisy_evolve(start, time, params, noise, trajectory=trajectory)
        # || psi_out - sign*psi_0 ||: subtract on the common origin site
        diff2 = 0.0
        for x in range(out.x_min, out.x_max + 1):
            ref = sign * start.spinor(x)
            diff2 += float(np.abs(out.spinor(x) - ref).sum() ** 2)
        assert math.sqrt(diff2) <= bound


def test_return_series_shape_and_envelope():
    params = hadamard_params(Field.rational(1, 10))
    noise = NoiseConfig(epsilon=1e-3, seed=1, ensemble_size=8)
    series = return_series(params, noise, 30)
    assert series.shape == (31, 4)
    assert series[0, 1] == 1.0 and series[0, 2] == 1.0 and series[0, 3] == 1.0
    ts, mean, mini, maxi = series.T
    assert np.array_equal(ts, np.arange(31.0))
    assert np.all(mini <= mean + 1e-15) and np.all(mean <= maxi + 1e-15)
    # clean ensemble collapses the envelope
    clean = return_series(params, NoiseConfig(epsilon=0.0, ensemble_size=3), 10)
    assert np.array_equal(clean[:, 2], clean[:, 3])
    _, p0 = evolve_tracking_origin(WalkState.single_site(), 10, params)
    for column in (1, 2, 3):
        assert clean[:, column].tobytes() == p0.tobytes()


def test_return_series_rejects_overflowing_angles():
    """epsilon = 1e308 overflows t*phi_t: an error, not NaN rows or a RuntimeWarning."""
    params = hadamard_params(Field.rational(1, 100))
    with pytest.raises(ValueError, match="finite"):
        return_series(params, NoiseConfig(epsilon=1e308, ensemble_size=2), 12)


def test_return_series_matches_direct_trajectories():
    """Every row, bit for bit, from each trajectory evolved on its own to each t."""
    params = hadamard_params(Field.rational(1, 6))
    noise = NoiseConfig(epsilon=5e-3, seed=21, ensemble_size=4)
    series = return_series(params, noise, 12)
    direct = np.empty((4, 13))
    for i in range(4):
        for t in range(13):
            out = noisy_evolve(WalkState.single_site(), t, params, noise, trajectory=i)
            sp = out.spinor(0)
            direct[i, t] = abs(sp[0]) ** 2 + abs(sp[1]) ** 2
    expected = np.column_stack([np.arange(13.0), direct.mean(axis=0), direct.min(axis=0),
                                direct.max(axis=0)])
    assert series.tobytes() == expected.tobytes()
