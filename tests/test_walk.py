import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import max_diff, reference_evolve, state_to_dict, random_su2
from qpwalk.spinops import is_unitary, rotation_x
from qpwalk.walk import (Field, TimeRule, WalkParams, WalkState, bloch_vector,
                         evolve, evolve_tracking_origin, fidelity,
                         hadamard_params, position_distribution,
                         return_probability, step, support_radius)

HALF = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

def test_field_rational_reduces():
    f = Field.rational(2, 10)
    assert (f.numerator, f.denominator) == (1, 5)
    assert f.label == "1/5"
    assert f.is_rational


def test_field_rational_angle_is_exactly_periodic():
    f = Field.rational(1, 155)
    assert f.angle(155) == 0.0
    assert f.angle(310) == 0.0
    for t in range(1, 40):
        assert f.angle(t) == f.angle(t + 155)


def test_field_golden():
    f = Field.golden()
    assert not f.is_rational
    assert f.label == "golden"
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert f.value == pytest.approx(2.0 * math.pi * golden, abs=1e-12)
    assert float(f.turns_fraction) == pytest.approx(golden, abs=1e-15)


def test_field_from_turns_and_radians():
    assert Field.from_turns(0.25).value == pytest.approx(math.pi / 2)
    assert Field.from_radians(1.234).value == 1.234


def test_field_rational_rejects_bad_denominator():
    with pytest.raises(ValueError):
        Field.rational(1, 0)


# ---------------------------------------------------------------------------
# WalkParams / step matrices
# ---------------------------------------------------------------------------

def test_params_reject_unnormalized_coin():
    with pytest.raises(ValueError):
        WalkParams(field=Field.rational(1, 5), coin_a=1.0, coin_b=1.0)


@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
def test_step_matrices_are_unitary(rule):
    params = WalkParams(field=Field.rational(3, 7), coin_a=0.6, coin_b=0.8j,
                        time_rule=rule)
    for t in range(1, 20):
        assert is_unitary(params.step_matrix(t), tol=1e-12)


def test_rx_field_step_matrix_structure():
    params = hadamard_params(Field.rational(1, 5))
    for t in range(1, 12):
        expected = rotation_x(2.0 * math.pi * t / 5.0) @ params.coin
        assert np.allclose(params.step_matrix(t), expected, atol=1e-12)


def test_gauged_step_matrix_structure():
    params = WalkParams(field=Field.rational(1, 6), coin_a=HALF, coin_b=HALF,
                        time_rule=TimeRule.GAUGED_SZ)
    for t in range(1, 12):
        alpha = 2.0 * math.pi * (t - 1) / 6.0
        phase = np.diag([np.exp(-1j * alpha), np.exp(1j * alpha)])
        assert np.allclose(params.step_matrix(t), params.coin @ phase,
                           atol=1e-12)


@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
def test_step_matrices_noisy_override(rng, rule):
    """Per-step field values phi_t, away from t = 1, row by row."""
    a, b = random_su2(rng)
    params = WalkParams(field=Field.golden(), coin_a=a, coin_b=b,
                        time_rule=rule)
    t_from, t_to = 17, 80
    phis = params.field.value + 0.01 * rng.uniform(-1.0, 1.0, t_to - t_from + 1)
    mats = params.step_matrices(t_from, t_to, field_values=phis)
    assert mats.shape == (len(phis), 2, 2)
    for t, phi, mat in zip(range(t_from, t_to + 1), phis, mats):
        if rule is TimeRule.RX_FIELD:
            expected = rotation_x(math.fmod(t * phi, 2.0 * math.pi)) @ params.coin
        else:
            angle = math.fmod((t - 1) * phi, 2.0 * math.pi)
            expected = params.coin @ np.diag([np.exp(-1j * angle),
                                              np.exp(1j * angle)])
        assert np.abs(mat - expected).max() <= 1e-15
        assert np.array_equal(params.step_matrix(t, field_value=phi), mat)
    with pytest.raises(ValueError):
        params.step_matrices(t_from, t_to, field_values=phis[:-1])


@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
@pytest.mark.parametrize("value", [1e308, -1e308, math.inf, math.nan])
def test_step_matrices_reject_nonfinite_angles(rule, value):
    """t*phi_t that overflows (or a non-finite phi_t) raises, with no RuntimeWarning."""
    params = WalkParams(field=Field.rational(1, 100), coin_a=HALF, coin_b=HALF,
                        time_rule=rule)
    phis = np.full(12, 0.5)
    phis[-1] = value
    with pytest.raises(ValueError, match="finite"):
        params.step_matrices(1, 12, field_values=phis)


# ---------------------------------------------------------------------------
# WalkState and evolution
# ---------------------------------------------------------------------------

def test_single_site_state():
    s = WalkState.single_site()
    assert s.window == (0, 0)
    assert s.norm == pytest.approx(1.0)
    assert s.amplitude(0, +1) == 1.0 + 0j
    assert s.amplitude(3, -1) == 0j
    with pytest.raises(ValueError):
        s.amplitude(0, 0)


def test_evolve_preserves_norm_and_window():
    params = hadamard_params(Field.rational(1, 13))
    state = WalkState.single_site()
    state = evolve(state, 1, 200, params)
    assert state.norm == pytest.approx(1.0, abs=1e-12)
    assert state.window == (-200, 200)


def test_step_equals_single_evolve():
    params = hadamard_params(Field.golden())
    a = step(WalkState.single_site(), 1, params)
    b = evolve(WalkState.single_site(), 1, 1, params)
    assert state_to_dict(a) == state_to_dict(b)


def test_evolve_composes():
    params = hadamard_params(Field.rational(2, 9))
    full = evolve(WalkState.single_site(), 1, 10, params)
    half = evolve(evolve(WalkState.single_site(), 1, 5, params), 6, 10, params)
    assert full.window == half.window
    assert np.allclose(full.amplitudes, half.amplitudes, atol=1e-14)


def test_evolve_empty_range_copies():
    s = WalkState.single_site()
    out = evolve(s, 5, 4, hadamard_params(Field.golden()))
    assert out is not s
    assert state_to_dict(out) == state_to_dict(s)


def test_translation_invariance_rx_field():
    params = hadamard_params(Field.rational(1, 7))
    at_origin = evolve(WalkState.single_site(x=0), 1, 25, params)
    shifted = evolve(WalkState.single_site(x=7), 1, 25, params)
    dist0 = position_distribution(at_origin)
    dist7 = position_distribution(shifted)
    assert set(dist7) == {x + 7 for x in dist0}
    for x, p in dist0.items():
        assert dist7[x + 7] == pytest.approx(p, abs=1e-13)


@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
def test_evolve_matches_dict_reference(rng, rule):
    for _ in range(6):
        a, b = random_su2(rng)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(2, 12))
        params = WalkParams(field=Field.rational(n, m), coin_a=a, coin_b=b,
                            time_rule=rule)
        steps = int(rng.integers(5, 30))
        state = evolve(WalkState.single_site(), 1, steps, params)
        matrices = [params.step_matrix(t) for t in range(1, steps + 1)]
        ref = reference_evolve({(0, 0): 1.0 + 0j}, matrices,
                               params.matrix_before_shift)
        assert max_diff(state, ref) < 1e-12


def test_field_values_override_matches_clean():
    params = hadamard_params(Field.from_radians(0.8123))
    clean = evolve(WalkState.single_site(), 1, 30, params)
    forced = evolve(WalkState.single_site(), 1, 30, params,
                    field_values=np.full(30, 0.8123))
    assert np.array_equal(clean.amplitudes, forced.amplitudes)


def test_evolve_tracking_origin_matches_loop():
    params = hadamard_params(Field.rational(1, 11))
    final, p0 = evolve_tracking_origin(WalkState.single_site(), 40, params)
    state = WalkState.single_site()
    expected = [return_probability(state)]
    for t in range(1, 41):
        state = evolve(state, t, t, params)
        expected.append(return_probability(state))
    assert np.allclose(p0, expected, atol=1e-13)
    assert max_diff(final, state_to_dict(state)) < 1e-13


def test_state_level_field_lipschitz(rng):
    # one-step matrices differ by at most t*|dphi| in norm, so t steps
    # accumulate at most sum_s s*|dphi| = t(t+1)/2 * |dphi|
    for _ in range(5):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        dphi = float(rng.uniform(-0.01, 0.01))
        t = int(rng.integers(5, 40))
        pa = hadamard_params(Field.from_radians(phi))
        pb = hadamard_params(Field.from_radians(phi + dphi))
        sa = evolve(WalkState.single_site(), 1, t, pa)
        sb = evolve(WalkState.single_site(), 1, t, pb)
        diff = np.linalg.norm(sa.amplitudes - sb.amplitudes)
        assert diff <= t * (t + 1) / 2.0 * abs(dphi) + 1e-12


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def test_position_distribution_sums_to_one_and_respects_parity():
    params = hadamard_params(Field.rational(1, 9))
    state = evolve(WalkState.single_site(), 1, 15, params)
    dist = position_distribution(state)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    # odd time: only odd sites occupied
    assert all(x % 2 == 1 for x in dist)
    assert return_probability(state) == 0.0


def test_position_distribution_is_native_with_numpy_bits():
    params = hadamard_params(Field.golden())
    state = evolve(WalkState.single_site(x=-3, spinor=(0.6, 0.8j)), 1, 40, params)
    dist = position_distribution(state)
    probs = np.abs(state.amplitudes[:, 0]) ** 2 + np.abs(state.amplitudes[:, 1]) ** 2
    expected = {state.x_min + i: float(p) for i, p in enumerate(probs) if p > 0.0}
    assert list(dist.items()) == list(expected.items())
    assert all(type(x) is int and type(p) is float for x, p in dist.items())


def test_fidelity_basics():
    s = WalkState.single_site(spinor=(HALF, HALF * 1j))
    assert fidelity(s, s) == pytest.approx(1.0)
    other = WalkState.single_site(x=4)
    assert fidelity(s, other) == 0.0


def test_bloch_vector_known_spinors():
    up = WalkState.single_site(spinor=(1.0, 0.0))
    assert bloch_vector(up, 0) == pytest.approx((0.0, 0.0, 1.0))
    plus = WalkState.single_site(spinor=(HALF, HALF))
    assert bloch_vector(plus, 0) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    assert bloch_vector(up, 99) == (0.0, 0.0, 0.0)


def test_bloch_vector_stays_in_ball():
    params = hadamard_params(Field.golden())
    state = evolve(WalkState.single_site(), 1, 50, params)
    for x in range(-50, 51):
        sx, sy, sz = bloch_vector(state, x)
        assert math.sqrt(sx * sx + sy * sy + sz * sz) <= 1.0 + 1e-12


def test_support_radius():
    state = WalkState.single_site()
    assert support_radius(state) == 0
    params = hadamard_params(Field.rational(0, 1))
    spread = evolve(state, 1, 30, params)
    r_all = support_radius(spread, mass=1.0)
    assert r_all <= 30
    assert support_radius(spread, mass=0.5) < r_all
