import cmath
import math
from math import gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (HADAMARD_BASIS, bits, random_su2, reference_cyclic_trace,
                      reference_regrouped_block)
from qpwalk.momentum import (_compose, alpha_tilde, alpha_tilde_sup, dispersion,
                             regrouped_block, regrouped_trace, trace_formula)
from qpwalk.spinops import is_unitary, rotation_x
from qpwalk.walk import (Field, TimeRule, WalkParams, WalkState, evolve,
                         hadamard_params)

HALF = 1.0 / math.sqrt(2.0)


def fourier_component(state: WalkState, k: float) -> np.ndarray:
    """hat(psi)(k) = sum_x exp(i*k*x) psi(x)."""
    xs = np.arange(state.x_min, state.x_max + 1)
    phases = np.exp(1j * k * xs)
    return phases @ state.amplitudes


@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
def test_one_step_regrouped_block_matches_real_space_fourier(rng, rule):
    """The momentum block must reproduce the real-space step exactly."""
    for _ in range(4):
        a, b = random_su2(rng)
        params = WalkParams(field=Field.rational(2, 7), coin_a=a, coin_b=b,
                            time_rule=rule)
        state = WalkState.single_site(
            x=int(rng.integers(-3, 4)),
            spinor=tuple(random_su2(rng)))
        t = int(rng.integers(1, 9))
        stepped = evolve(state, t, t, params)
        for k in rng.uniform(-math.pi, math.pi, 5):
            before = fourier_component(state, k)
            after = fourier_component(stepped, k)
            assert np.allclose(regrouped_block(k, params, 1, t_from=t) @ before, after,
                               atol=1e-12)


def test_regrouped_block_matches_multi_step_fourier(rng):
    """A batched block stack reproduces the real-space evolution at every k."""
    for rule in TimeRule:
        params = WalkParams(field=Field.rational(1, 5), coin_a=HALF,
                            coin_b=HALF, time_rule=rule)
        state = WalkState.single_site()
        final = evolve(state, 1, 5, params)
        ks = rng.uniform(-math.pi, math.pi, 8)
        blocks = regrouped_block(ks, params, 5)
        assert blocks.shape == (8, 2, 2)
        for k, block in zip(ks, blocks):
            assert is_unitary(block, tol=1e-12)
            assert np.allclose(block @ fourier_component(state, k),
                               fourier_component(final, k), atol=1e-11)
            assert np.allclose(regrouped_block(k, params, 5), block, atol=1e-14)


def test_regrouped_block_second_period(rng):
    # the product over t = m+1 .. 2m equals the first period for rational
    # fields, and each slice carries the real-space evolution over t = 9..16
    for rule in TimeRule:
        params = WalkParams(field=Field.rational(3, 8), coin_a=HALF,
                            coin_b=HALF, time_rule=rule)
        state = evolve(WalkState.single_site(), 1, 8, params)
        final = evolve(state, 9, 16, params)
        ks = rng.uniform(-math.pi, math.pi, 4)
        first = regrouped_block(ks, params, 8, t_from=1)
        second = regrouped_block(ks, params, 8, t_from=9)
        assert np.allclose(first, second, atol=1e-12)
        for k, block in zip(ks, second):
            assert np.allclose(block @ fourier_component(state, k),
                               fourier_component(final, k), atol=1e-11)


BIT_COINS = {"hadamard": (HALF, HALF), "0.6,0.8j": (0.6, 0.8j),
             "identity": (1.0, 0.0), "i-sigma-y": (0.0, 1.0)}


@pytest.mark.parametrize("coin", list(BIT_COINS))
@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
def test_regrouped_block_bits_match_broadcast_reference(rule, coin):
    """The entry-by-entry composition gives the 2x2-last composition's bits, every k shape."""
    a, b = BIT_COINS[coin]
    params = WalkParams(field=Field.golden(), coin_a=a, coin_b=b, time_rule=rule)
    momenta = [0.7, np.linspace(0.0, 2.0 * math.pi, 33, endpoint=False),
               np.random.default_rng(17).uniform(-math.pi, math.pi, (2, 17))]
    for k in momenta:
        for m in range(1, 61):
            t_from = 1 if m % 2 else 4  # odd lengths from t = 1, even ones from t = 4
            got = regrouped_block(k, params, m, t_from=t_from)
            want = reference_regrouped_block(k, params, m, t_from=t_from)
            assert got.shape == want.shape == np.shape(k) + (2, 2)
            assert np.array_equal(bits(got), bits(want)), (k, m, t_from)


COMPOSE_SHAPES = {
    # problems leaving early or running to the end, each over a 2-d grid of momenta
    "ragged": ([9, 9, 6, 2, 1], (3, 4)),
    # a grid pass: one problem over 1024 momenta
    "grid": ([22], (1024,)),
    # a zoom round: both signs' 17-point brackets, problems leaving one, two or more at a time
    "zoom": ([22, 22, 20, 14, 14, 14, 9, 6, 2, 1], (2, 17)),
    # one long product
    "long": ([240, 201], (2, 17)),
}


@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
@pytest.mark.parametrize("shape", list(COMPOSE_SHAPES))
def test_compose_gives_each_problem_its_own_block(rng, rule, shape):
    """Ragged problems in one pass, as the deviation search passes them
    (longest first): problem p's block over its own momenta k[p] has the bits
    of the 2x2-last composition, whether it leaves the product early or runs
    to the end."""
    lengths, momenta = COMPOSE_SHAPES[shape]
    fields = (Field.golden(), Field.rational(1, 7), Field.rational(2, 5),
              Field.rational(1, 4), Field.from_turns(0.3))
    params = [WalkParams(fields[p % len(fields)], *random_su2(rng), time_rule=rule)
              for p in range(len(lengths))]
    mats = np.zeros((lengths[0], 2, 2, len(lengths)), dtype=complex)
    for p, (par, steps) in enumerate(zip(params, lengths)):
        mats[:steps, :, :, p] = par.step_matrices(1, steps)
    ragged = [mats[t, :, :, :sum(steps > t for steps in lengths)] for t in range(lengths[0])]
    k = rng.uniform(0.0, 2.0 * math.pi, size=(len(lengths),) + momenta)
    got = _compose(np.exp(1j * k), ragged, params[0].matrix_before_shift)
    assert got.shape == k.shape + (2, 2)
    for p, (par, steps) in enumerate(zip(params, lengths)):
        want = reference_regrouped_block(k[p], par, steps)
        assert np.array_equal(bits(got[p]), bits(want)), (shape, p)


@pytest.mark.parametrize("rule, basis", [(TimeRule.RX_FIELD, HADAMARD_BASIS),
                                         (TimeRule.GAUGED_SZ, np.eye(2))])
def test_alpha_tilde_is_the_diagonal_of_coin_times_shift(rng, rule, basis):
    """a~ and d~ = conj(a~) are the diagonal of C S(k) in the kick's eigenbasis."""
    for _ in range(6):
        a, b = random_su2(rng)
        params = WalkParams(field=Field.rational(1, 3), coin_a=a, coin_b=b, time_rule=rule)
        ks = rng.uniform(-math.pi, math.pi, 5)
        for k, from_array in zip(ks, alpha_tilde(params, ks)):
            shift = np.diag([cmath.exp(1j * k), cmath.exp(-1j * k)])
            diag = np.diag(basis @ params.coin @ shift @ basis.conj().T)
            at = alpha_tilde(params, k)
            assert at == pytest.approx(diag[0], abs=1e-14)
            assert np.conj(at) == pytest.approx(diag[1], abs=1e-14)
            assert abs(from_array - at) <= 1e-15


coin_angles = st.floats(min_value=-math.pi, max_value=math.pi,
                        allow_nan=False)
# first quadrant so that |a| = cos(theta), |b| = sin(theta) exactly
moduli_angles = st.floats(min_value=0.0, max_value=math.pi / 2,
                          allow_nan=False)


@given(moduli_angles, coin_angles, coin_angles, coin_angles)
def test_alpha_tilde_polar_identity(theta, ka, kb, k):
    """alpha-tilde = |a| cos(arg a + k) + i |b| sin(arg b - k)."""
    a = math.cos(theta) * cmath.exp(1j * ka)
    b = math.sin(theta) * cmath.exp(1j * kb)
    params = WalkParams(field=Field.rational(1, 3), coin_a=a, coin_b=b)
    expected = (abs(a) * math.cos(ka + k) + 1j * abs(b) * math.sin(kb - k))
    assert alpha_tilde(params, k) == pytest.approx(expected, abs=1e-12)


def test_alpha_tilde_sup_closed_form_matches_grid(rng):
    ks = np.linspace(-math.pi, math.pi, 4001)
    for _ in range(8):
        a, b = random_su2(rng)
        params = WalkParams(field=Field.rational(1, 3), coin_a=a, coin_b=b)
        grid_max = np.abs(alpha_tilde(params, ks)).max()
        assert alpha_tilde_sup(a, b) == pytest.approx(grid_max, abs=1e-6)
        u, v = (a - b.conjugate()) / 2.0, (a.conjugate() + b) / 2.0
        assert abs(alpha_tilde_sup(a, b) - (abs(u) + abs(v))) <= 1e-15


def test_alpha_tilde_sup_known_values():
    assert alpha_tilde_sup(HALF, HALF) == pytest.approx(2.0 ** -0.5, abs=1e-12)
    assert alpha_tilde_sup(1.0, 0.0) == pytest.approx(1.0)
    assert alpha_tilde_sup(0.0, 1.0) == pytest.approx(1.0)
    assert alpha_tilde_sup(1j * HALF, HALF) == pytest.approx(1.0)


def test_trace_formula_matches_direct_products(rng):
    for _ in range(200):
        m = int(rng.integers(1, 13))
        candidates = [n for n in range(1, m + 1) if gcd(n, m) == 1]
        n = int(candidates[rng.integers(0, len(candidates))])
        mat = (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
        rot = rotation_x(2.0 * math.pi * n / m)
        assert trace_formula(mat, rot, m) == pytest.approx(
            reference_cyclic_trace(mat, rot, m), abs=1e-9)


def test_trace_formula_scalar_rotations(rng):
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    # m = 1 with R = identity: the plain trace
    assert trace_formula(mat, np.eye(2), 1) == pytest.approx(
        complex(np.trace(mat)), abs=1e-12)
    # m = 2 with R = -identity: trace of M(-M)
    assert trace_formula(mat, -np.eye(2), 2) == pytest.approx(
        complex(np.trace(-mat @ mat)), abs=1e-12)


def test_trace_formula_random_basis_rotation(rng):
    # conjugated rotations (not sigma_x eigenbasis) must work too
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rot = q @ np.diag([cmath.exp(2j * math.pi / 5), cmath.exp(-2j * math.pi / 5)]) @ q.conj().T
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert trace_formula(mat, rot, 5) == pytest.approx(
        reference_cyclic_trace(mat, rot, 5), abs=1e-10)


def test_trace_formula_rejects_imprimitive_rotations():
    mat = np.eye(2, dtype=complex)
    primitive = "must be primitive"
    # eigenvalue order 3 properly divides m = 6
    with pytest.raises(ValueError, match=primitive):
        trace_formula(mat, rotation_x(2.0 * math.pi / 3.0), 6)
    # identity rotation with m = 2
    with pytest.raises(ValueError, match=primitive):
        trace_formula(mat, np.eye(2), 2)
    # order-2 rotation with m = 4
    with pytest.raises(ValueError, match=primitive):
        trace_formula(mat, rotation_x(math.pi), 4)


def test_trace_formula_rejects_nonconjugate_pair():
    # eigenvalues e^{2pi i/5} and e^{4pi i/5}: both primitive, not conjugate
    rot = np.diag([cmath.exp(2j * math.pi / 5), cmath.exp(4j * math.pi / 5)])
    with pytest.raises(ValueError, match="must form a conjugate pair"):
        trace_formula(np.eye(2, dtype=complex), rot, 5)


def test_trace_formula_rejects_a_nonunitary_rotation():
    mat = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match=r"^R must be unitary within 1e-10$"):
        trace_formula(mat, 1.001 * rotation_x(2.0 * math.pi / 5.0), 5)
    with pytest.raises(ValueError, match=r"^m must be positive$"):
        trace_formula(mat, np.eye(2), 0)


def test_trace_formula_rejects_an_eigenphase_off_the_mth_roots():
    # eigenphases +-2 pi/5 with m = 4: R^4 != I
    with pytest.raises(ValueError, match=r"^R's eigenphase -?1\.256\d* is not an m-th root "
                                         r"of unity for m=4$"):
        trace_formula(np.eye(2, dtype=complex), rotation_x(2.0 * math.pi / 5.0), 4)


def test_regrouped_trace_matches_block(rng):
    for m in (3, 4, 5, 10):
        params = hadamard_params(Field.rational(1, m))
        ks = rng.uniform(-math.pi, math.pi, 6)
        traces = regrouped_trace(ks, params, m)
        for k, trace in zip(ks, traces):
            block_trace = complex(np.trace(regrouped_block(k, params, m)))
            assert regrouped_trace(k, params, m) == pytest.approx(
                block_trace, abs=1e-10)
            assert abs(trace - regrouped_trace(k, params, m)) <= 1e-15


def test_regrouped_trace_gauged_rule(rng):
    for m in (3, 4, 7):
        params = WalkParams(field=Field.rational(1, m), coin_a=HALF,
                            coin_b=HALF, time_rule=TimeRule.GAUGED_SZ)
        ks = rng.uniform(-math.pi, math.pi, 4)
        traces = regrouped_trace(ks, params, m)
        for k, trace in zip(ks, traces):
            block_trace = complex(np.trace(regrouped_block(k, params, m)))
            assert regrouped_trace(k, params, m) == pytest.approx(
                block_trace, abs=1e-10)
            assert abs(trace - regrouped_trace(k, params, m)) <= 1e-15


@pytest.mark.parametrize("rule", [TimeRule.RX_FIELD, TimeRule.GAUGED_SZ])
@pytest.mark.parametrize("field, m", [(Field.rational(1, 5), 4), (Field.rational(2, 6), 6),
                                      (Field.golden(), 5)])
def test_regrouped_trace_requires_a_rational_field_with_denominator_m(rule, field, m):
    """Off its domain the closed form gives a wrong trace (1/5 at m = 4: -1.681
    against the block's -0.465), so it must raise rather than return it, and
    ``dispersion`` with it (the Hadamard coin under both rules)."""
    params = WalkParams(field=field, coin_a=HALF, coin_b=HALF, time_rule=rule)
    match = r"^the regrouped trace requires a rational field with denominator m$"
    with pytest.raises(ValueError, match=match):
        regrouped_trace(0.3, params, m)
    with pytest.raises(ValueError, match=match):
        regrouped_trace(np.array([0.3, 1.1]), params, m)
    with pytest.raises(ValueError, match=match):
        dispersion(0.3, params, m)


def test_dispersion_matches_block_eigenphases(rng):
    for m in (3, 4, 5, 10):
        params = hadamard_params(Field.rational(1, m))
        ks = rng.uniform(-math.pi, math.pi, 6)
        omegas_plus, omegas_minus = dispersion(ks, params, m)
        assert omegas_plus.shape == omegas_minus.shape == ks.shape
        for k, omega in zip(ks, omegas_plus):
            omega_plus, omega_minus = dispersion(k, params, m)
            assert omega_minus == pytest.approx(-omega_plus)
            eigphases = sorted(np.angle(np.linalg.eigvals(
                regrouped_block(k, params, m))))
            assert sorted([omega_plus, omega_minus]) == pytest.approx(
                eigphases, abs=1e-9)
            # compared as cosines: arccos amplifies a last-bit trace difference near +-1
            assert abs(math.cos(omega) - math.cos(omega_plus)) <= 1e-15
