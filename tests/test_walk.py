import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (bits, max_diff, position_distribution, reference_evolve,
                      reference_rx_step_matrices, return_probability, state_to_dict,
                      random_su2)
from qpwalk.noise import NoiseConfig
from qpwalk.spinops import is_unitary, rotation_x
from qpwalk.walk import (ANGLE_ARRAY_STEPS, ENSEMBLE_MATRIX_BLOCK, STEP_GEMM_ROWS, Field,
                         TimeRule, WalkParams, WalkState, bloch_vector, evolve,
                         evolve_tracking_origin, hadamard_params, occupied_sites,
                         support_radius)

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


@pytest.mark.parametrize("rule", ["rx-field", "RX_FIELD", None])
def test_params_reject_a_time_rule_that_is_not_a_time_rule(rule):
    with pytest.raises(ValueError, match="TimeRule"):
        WalkParams(field=Field.rational(1, 5), coin_a=0.6, coin_b=0.8, time_rule=rule)


@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
def test_step_matrices_are_unitary(rule):
    params = WalkParams(field=Field.rational(3, 7), coin_a=0.6, coin_b=0.8j,
                        time_rule=rule)
    for t in range(1, 20):
        assert is_unitary(params.step_matrices(t, t)[0], tol=1e-12)


def test_rx_field_step_matrix_structure():
    params = hadamard_params(Field.rational(1, 5))
    for t in range(1, 12):
        expected = rotation_x(2.0 * math.pi * t / 5.0) @ params.coin
        assert np.allclose(params.step_matrices(t, t)[0], expected, atol=1e-12)


def test_gauged_step_matrix_structure():
    params = WalkParams(field=Field.rational(1, 6), coin_a=HALF, coin_b=HALF,
                        time_rule=TimeRule.GAUGED_SZ)
    for t in range(1, 12):
        alpha = 2.0 * math.pi * (t - 1) / 6.0
        phase = np.diag([np.exp(-1j * alpha), np.exp(1j * alpha)])
        assert np.allclose(params.step_matrices(t, t)[0], params.coin @ phase,
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
        assert np.array_equal(params.step_matrices(t, t, field_values=[phi])[0], mat)
    with pytest.raises(ValueError):
        params.step_matrices(t_from, t_to, field_values=phis[:-1])


@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
@pytest.mark.parametrize("steps", [17, ENSEMBLE_MATRIX_BLOCK, 64])
def test_ensemble_step_matrices_match_each_trajectory(rng, rule, steps):
    """A (T, E) field array gives the bytes of one step_matrices call per trajectory."""
    params = WalkParams(Field.golden(), *random_su2(rng), time_rule=rule)
    noise = NoiseConfig(epsilon=float(rng.uniform(1e-4, 0.1)), seed=int(rng.integers(1000)))
    walks, t_from = 6, 1 + ENSEMBLE_MATRIX_BLOCK * int(rng.integers(0, 4))
    fields = np.array([noise.draw_fields(params.field.value, steps, e) for e in range(walks)])
    block = params.step_matrices(t_from, t_from + steps - 1, field_values=fields.T)
    each = np.stack([params.step_matrices(t_from, t_from + steps - 1, field_values=f)
                     for f in fields], axis=1)
    assert block.shape == (steps, walks, 2, 2)
    assert block.tobytes() == each.tobytes()


@pytest.mark.parametrize("field", [Field.golden(), Field.rational(1, 7)], ids=["golden", "1/7"])
@pytest.mark.parametrize("coin", [(HALF, HALF), (0.6, 0.8j), (1.0, 0.0), (0.0, 1.0), None],
                         ids=["hadamard", "0.6,0.8j", "identity", "i-sigma-y", "random"])
def test_rx_step_matrices_bits_match_the_stacked_matmul(rng, field, coin):
    """The GEMM-built RX_FIELD stack is bit for bit the stacked ``spin @ coin``.

    Exact field, one angle per step, and (T, E) ensembles, for stack lengths
    around the ensemble block and a long one, starting at t = 1 and later.
    The longest stack spans several GEMM calls.
    """
    assert 2 * 1001 * 50 > 2 * STEP_GEMM_ROWS  # rows of the (1001, 50) stack
    params = WalkParams(field, *(random_su2(rng) if coin is None else coin))
    for steps in (1, 2, 3, 7, 31, 32, 33, 64, 65, 1001):
        t_from = 1 + ENSEMBLE_MATRIX_BLOCK * int(rng.integers(0, 4))
        t_to = t_from + steps - 1
        noisy = field.value + 0.01 * rng.uniform(-1.0, 1.0, (steps, 50))
        for values in (None, noisy[:, 0], noisy[:, :1], noisy[:, :2], noisy):
            mats = params.step_matrices(t_from, t_to, field_values=values)
            ref = reference_rx_step_matrices(params, t_from, t_to, field_values=values)
            assert mats.shape == ref.shape
            assert np.array_equal(bits(mats), bits(ref))


@pytest.mark.parametrize("rule", list(TimeRule))
def test_step_matrices_are_bit_identical_in_chunks(rng, rule):
    """step_matrices(a, b) is step_matrices(a, c) followed by step_matrices(c + 1, b)."""
    a, b = 3, 400
    for field in (Field.rational(1, 155), Field.golden()):
        params = WalkParams(field, *random_su2(rng), time_rule=rule)
        noisy = field.value + 0.01 * rng.uniform(-1.0, 1.0, (b - a + 1, 5))
        for values in (None, noisy):
            whole = params.step_matrices(a, b, field_values=values)
            for c in (3, 4, 33, 34, 65, 398, 399):
                head, tail = (None, None) if values is None else (values[:c - a + 1],
                                                                  values[c - a + 1:])
                parts = np.concatenate([params.step_matrices(a, c, field_values=head),
                                        params.step_matrices(c + 1, b, field_values=tail)])
                assert np.array_equal(bits(parts), bits(whole))


def test_overflowing_field_angle_names_field_and_step():
    with pytest.raises(ValueError, match=r"^field 1e\+307: the step angle 3\*phi overflows"):
        Field.from_turns(1e307).angle(3)
    assert Field.from_turns(1e307).angle(0) == 0.0


ANGLE_RANGES = [(1, 5000), (-40, -1), (-20, 20), (0, 0), (7, 7), (-3, -3), (5, 4), (0, -1),
                (1, ANGLE_ARRAY_STEPS - 1), (1, ANGLE_ARRAY_STEPS), (-ANGLE_ARRAY_STEPS, -1),
                (4000, 6000), (2 ** 40, 2 ** 40 + 99)]


@pytest.mark.parametrize("field", [
    Field.rational(1, 7), Field.rational(3, 155), Field.golden(), Field.from_turns(0.3),
    # numerator * t passes 2**62 at t = 4612, inside (1, 5000) and (4000, 6000)
    Field.rational(10 ** 15 + 1, 10 ** 15 + 7),
    Field.rational(-5, 2 ** 61 + 1), Field.rational(0, 1),
], ids=lambda field: field.label)
def test_field_angles_match_the_per_step_angle(field):
    """``Field.angles`` has the bits of ``Field.angle`` at every step, on both of its paths."""
    for first, last in ANGLE_RANGES:
        expected = np.array([field.angle(t) for t in range(first, last + 1)], dtype=float)
        got = field.angles(first, last)
        assert got.dtype == np.float64 and got.shape == expected.shape, (first, last)
        assert np.array_equal(bits(got), bits(expected)), (first, last)


@pytest.mark.parametrize("first, last", [(1, 100), (-100, -1), (2, 30), (-2, 5)])
def test_field_angles_raise_the_per_step_overflow_error(first, last):
    """An overflowing float field raises ``angle``'s error text, at the same step."""
    field = Field.from_turns(1e307)  # t*phi overflows from |t| = 3 on
    for t in range(first, last + 1):
        try:
            field.angle(t)
        except ValueError as exc:
            expected = str(exc)
            break
    with pytest.raises(ValueError) as excinfo:
        field.angles(first, last)
    assert str(excinfo.value) == expected


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


@pytest.mark.parametrize("x_min", [-7, 0, 2 ** 62 - 10, -2 ** 62, 2 ** 70, -10 ** 30])
def test_occupied_sites_keep_python_int_sites(x_min):
    """Sites are exact Python ints, within int64 or beyond it; zero probabilities are left out."""
    # the last site's probability underflows to zero
    amps = np.array([[0.6, 0.0], [0.0, 0.0], [0.0, 0.8j], [1e-170, 0.0]], dtype=complex)
    state = WalkState(x_min=x_min, amplitudes=amps)
    sites, probs = occupied_sites(state)
    assert sites == [x_min, x_min + 2] and all(type(x) is int for x in sites)
    assert probs == [0.6 ** 2, 0.8 ** 2]


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
        matrices = [params.step_matrices(t, t)[0] for t in range(1, steps + 1)]
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
